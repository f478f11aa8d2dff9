"""Brute-force matrix/lattice oracle over GF(q)((t)).

Everything here is deliberately independent of the symbolic stratum
calculus: field elements become honest matrices via the regular
representation, hereditary data becomes explicit diagonal lattice chains,
and all filtration questions are answered by valuation bounds, and by
column echelon bases and kernels over the power-series ring (v_A is the
least bound period * w + c_i - c_k over the entries, w an entry's valuation
and c the chain profile).  The symbolic layer is tested against these answers.

Scope: split ambient algebras M_N(F) with N small (<= 8).

The oracle takes exact entries of its base field only.  ``_exact`` is its
one check on entries: it raises ``PrecisionError``, naming the site, the
position and the precision, on an entry with a finite ``prec``, whose
unknown digits could change an answer, and ``DomainError``
(``owner_mismatch``) on an element of another field, whose digits would be
read as powers of the wrong uniformizer.  It guards the argument of
``regular_rep``, every entry of a caller's ``Mat`` rows, and every entry
of a caller's lattice column or vector; each is checked once, where it
comes in.  Matrices and lattices over another base are refused by
``_check_base`` wherever two meet: ``Mat`` ``+``, ``-`` and ``@``,
``block_diag``, ``eval_psi_c``, the generators of
``intersect_with_centralizer``, and two lattices.

Past that boundary an entry is a digit-log map {valuation: log}, each
digit g^log of the base residue field, {} for zero, so the oracle runs in
integers from ``regular_rep`` to the kernel: a product adds valuations and
logs, negation adds the log of -1, and a sum is one ``residue.log_sum``,
through ``_add_logs``.  A ``Mat`` stores its entries in this form: the
constructor converts a caller's rows once, and the library's own builders
(``regular_rep``, ``block_diag``, ``+``, ``-``, ``@``, ...) build maps
through ``Mat._of_logs``.  ``regular_rep`` reads x's digits as logs and
writes each decomposed digit into its entry's map, with no tower element
built.  A lattice stores its basis in this form, as the pass returns it;
a caller's columns and vectors are converted once, through ``_stored``,
without their exact zeros.  A stored map is never changed in place, only
replaced, so matrices and columns may share maps.  Elements are built
back only when a caller reads them: a ``Mat``'s ``rows``, a tuple of
tuples, and a lattice's ``cols``, read-only mappings built by
``_elements``; each is built on first read and kept.

``intersect_with_centralizer`` assembles its bracket columns in log form
too, from each generator's bracket stencil, which the ``Mat`` builds on
first use and keeps, like ``rows``: its stored maps as they are by row
and, negated once, by column, and those maps shifted by t^d with
``_shift_logs``, which adds d to each valuation: the digits of the
product with the monomial t^d.  Each shift is made the first time some
call needs that value d, and every bracket column with that value, in
that call and in later calls on the same generators, shares the shifted
maps.  A scalar matrix commutes with every matrix, so its stencil is
empty and it adds no work.

Every elimination is one fraction-free column-echelon pass, ``_echelon``,
the only code that eliminates, and each lattice costs at most one pass:
the ``MatrixLattice`` constructor makes one, ``filt_lattice`` none (its
monomial columns are already an echelon basis), a centralizer lattice
one, over the bracket rows and then the rows that carry the kernel, and
``MatrixLattice.sum`` one.  ``contains_vector`` and ``same_as`` make one
pass too; each pass over a stored basis runs over shallow copies of its
columns, so a basis never changes.  The pass files each column under its
least stored row and takes a row's columns from that bucket, so it scans
no row of a column that does not store it.  Each pivot
t^v * u is the entry of least valuation v in its row, and a column c with
entry e in that row becomes u * c - t^-v * e * pivot column.  u is a unit
of o_F and t^-v * e lies in o_F, so every column operation is unimodular
and no inverse is taken: entries stay exact Laurent polynomials.  A
centralizer lattice C ∩ P^n is the kernel over o_F of the bracket map
X -> ([X, G])_G on the radical power P^n; it comes out saturated, with no
separate saturation step.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import DomainError, PrecisionError
from . import residue
from .tower import INF, TameElement, TameField

ORACLE_N_CAP = 8

#: the digit-log map of 1
_ONE = {0: 0}


# ---------------------------------------------------------------------------
# matrices over the base field
# ---------------------------------------------------------------------------

def _logs_of(x: TameElement) -> dict:
    """The digit-log map {valuation: log} of an exact element, {} for zero."""
    return {v: a.log for v, a in x.digits.items()}


def _element(base: TameField, x) -> TameElement:
    """The exact element of base whose digit-log map is x."""
    k = base.residue
    return TameElement(base, {v: k.gen_power(a) for v, a in x.items()}, INF)


def _minus_one(fld) -> int:
    """The log of -1 in the residue field fld."""
    return (-fld.one).log


def _exact(x: TameElement, owner: TameField, where: str, *at) -> TameElement:
    """x, which must be an exact element of ``owner``: the oracle's one
    check on its entries.  An element of another field raises
    ``DomainError`` (``owner_mismatch``), and one with a finite ``prec``
    ``PrecisionError``; each names the site and position, ``where``
    formatted with ``at``, and the message is built only then."""
    if x.owner is not owner:
        raise DomainError(f"oracle: {where.format(*at)} lies in {x.owner!r}, "
                          f"not in {owner!r}", clause="owner_mismatch")
    if x.prec is not INF:
        raise PrecisionError(f"oracle: {where.format(*at)} is known only "
                             f"to O(t^{x.prec})")
    return x


def _check_base(base: TameField, x, what: str):
    """Refuse a matrix or lattice x over another base than ``base``: its
    digits are powers of another uniformizer."""
    if x.base is not base:
        raise DomainError(f"oracle: {what} over {x.base!r} meets the base "
                          f"{base!r}", clause="owner_mismatch")


def _check_size(n: int, m: int):
    """Raise unless a size-n matrix meets a size-m matrix or chain."""
    if n != m:
        raise DomainError(f"size {n} does not match size {m}",
                          clause="shape_mismatch")


class Mat:
    """A dense square matrix over the base Laurent-series field, with exact
    entries, each stored as a digit-log map {valuation: log} over the base
    residue field, {} for zero.

    The constructor is the one way in for a caller's rows: it checks and
    converts each entry once, by :func:`_exact` (``PrecisionError``,
    ``owner_mismatch``), and refuses a ragged or non-square list of rows
    (``shape_mismatch``).  The library's own builders store the maps they
    build through :meth:`_of_logs`.  A stored map is never changed, so
    matrices may share maps.  ``+``, ``-`` and ``@`` refuse a matrix of
    another size (``shape_mismatch``) or over another base
    (``owner_mismatch``).  ``rows`` is a read-only tuple of tuples of
    elements, built on first read and kept.  So is the bracket stencil that
    :func:`intersect_with_centralizer` reads, by :meth:`_bracket`."""

    __slots__ = ("base", "n", "_logs", "_rows", "_stencil")

    def __init__(self, base: TameField, rows):
        logs = [[_logs_of(_exact(a, base, "Mat entry ({}, {})", i, k))
                 for k, a in enumerate(r)] for i, r in enumerate(rows)]
        for r in logs:
            _check_size(len(r), len(logs))
        self._keep(base, logs)

    @classmethod
    def _of_logs(cls, base: TameField, logs) -> "Mat":
        """The matrix whose entry (i, k) has the digit-log map logs[i][k]."""
        M = cls.__new__(cls)
        M._keep(base, logs)
        return M

    def _keep(self, base, logs):
        self.base = base
        self.n = len(logs)
        self._logs = logs
        self._rows = self._stencil = None

    @property
    def rows(self):
        """The entries as a tuple of tuples of exact elements, built on
        first read; the zero entries share one exact zero."""
        if self._rows is None:
            zero = TameElement(self.base, {}, INF)
            self._rows = tuple(tuple(_element(self.base, x) if x else zero
                                     for x in r) for r in self._logs)
        return self._rows

    def _bracket(self, d):
        """The terms of the brackets t^d (e_ij G - G e_ij) of this matrix G,
        or None when G is scalar, c * I (zero included), which commutes
        with every matrix: a pair (by_row, by_col), by_row[j] the pairs
        (k, t^d G[j][k]) over the nonzero entries of row j, by_col[i] the
        pairs (k, -t^d G[k][i]) over those of column i.  The stencil is
        built on first use and kept, with the terms for d = 0, and the
        terms for another d are shifted by :func:`_shift_logs` the first
        time a call needs them and kept too; calls share them, since no
        stored map is changed in place."""
        stencil = self._stencil
        if stencil is None:
            logs = self._logs
            c = logs[0][0] if logs else {}
            if all(x == c if i == k else not x
                   for i, r in enumerate(logs) for k, x in enumerate(r)):
                stencil = {}
            else:
                fld = self.base.residue
                minus, order = _minus_one(fld), fld.q - 1
                stencil = {0: (
                    [[(k, x) for k, x in enumerate(r) if x] for r in logs],
                    [[(k, {v: (a + minus) % order for v, a in x.items()})
                      for k, r in enumerate(logs) if (x := r[i])]
                     for i in range(self.n)])}
            self._stencil = stencil
        if not stencil:
            return None
        terms = stencil.get(d)
        if terms is None:
            by_row, by_col = stencil[0]
            terms = stencil[d] = (
                [[(k, _shift_logs(x, d)) for k, x in r] for r in by_row],
                [[(k, _shift_logs(x, d)) for k, x in c] for c in by_col])
        return terms

    @classmethod
    def zero(cls, base: TameField, n: int) -> "Mat":
        return cls._of_logs(base, [[{}] * n for _ in range(n)])

    @classmethod
    def identity(cls, base: TameField, n: int) -> "Mat":
        return cls._of_logs(base, [[{0: 0} if i == k else {} for k in range(n)]
                                   for i in range(n)])

    @classmethod
    def monomial_entry(cls, base: TameField, n: int, i: int, k: int, v: int,
                       coeff) -> "Mat":
        logs = [[{}] * n for _ in range(n)]
        logs[i][k] = _logs_of(base.monomial(v, coeff))
        return cls._of_logs(base, logs)

    def _meet(self, other):
        """Refuse another matrix of another size or over another base."""
        _check_size(self.n, other.n)
        _check_base(self.base, other, "a matrix")

    def __add__(self, other):
        self._meet(other)
        fld = self.base.residue
        return Mat._of_logs(self.base, [
            [_add_logs(dict(a), b, fld) for a, b in zip(r1, r2)]
            for r1, r2 in zip(self._logs, other._logs)])

    def __sub__(self, other):
        self._meet(other)
        fld = self.base.residue
        minus = _minus_one(fld)
        return Mat._of_logs(self.base, [
            [_add_logs(dict(a), b, fld, 0, minus) for a, b in zip(r1, r2)]
            for r1, r2 in zip(self._logs, other._logs)])

    def __matmul__(self, other):
        self._meet(other)
        fld = self.base.residue
        out = []
        for r in self._logs:
            terms = [(a, other._logs[j]) for j, a in enumerate(r) if a]
            row = []
            for k in range(self.n):
                acc = {}
                for a, orow in terms:
                    b = orow[k]
                    if b:
                        for w, c in a.items():
                            _add_logs(acc, b, fld, w, c)
                row.append(acc)
            out.append(row)
        return Mat._of_logs(self.base, out)

    def trace(self) -> TameElement:
        acc, fld = {}, self.base.residue
        for i in range(self.n):
            _add_logs(acc, self._logs[i][i], fld)
        return _element(self.base, acc)

    def is_zero(self) -> bool:
        return not any(x for r in self._logs for x in r)

    def __repr__(self):
        return f"Mat({self.n}x{self.n})"


def block_diag(base: TameField, mats) -> Mat:
    """The block-diagonal matrix of ``mats``, all over ``base``
    (``owner_mismatch`` otherwise); it shares their digit-log maps."""
    for m in mats:
        _check_base(base, m, "a block")
    n = sum(m.n for m in mats)
    logs = [[{}] * n for _ in range(n)]
    off = 0
    for m in mats:
        for i, r in enumerate(m._logs):
            logs[off + i][off:off + m.n] = r
        off += m.n
    return Mat._of_logs(base, logs)


def regular_rep(x: TameElement, copies: int = 1) -> Mat:
    """The matrix of multiplication by x on its field viewed as a base
    vector space, in the basis {g^a pi^b} ordered pi-power-major; with
    ``copies`` > 1, the block-diagonal sum of that many copies.  x must be
    exact.

    Built in logs: x times the basis element g^a_c pi^b_c has the digit
    g^(log + a_c) at valuation w = v + b_c for each digit g^log pi^v of x,
    and pi^w = pi^b t^m (w = m e + b, 0 <= b < e) with pi^e = t / T for
    the accumulated twist T, so the digit is u pi^b t^m with
    u = g^(log + a_c) T^-m.  Each coefficient c_a of u over the base
    residue field goes into entry (b f + a, b_c f + a_c) at valuation m.
    The entry and m fix v = m e + b - b_c, so no two digits land at one
    valuation of one entry: each is written, with no sum."""
    E = x.owner
    _exact(x, E, "the argument of regular_rep")
    base = E.base()
    if E.degree * copies > ORACLE_N_CAP:
        raise DomainError(f"oracle capped at N <= {ORACLE_N_CAP}",
                          clause="oracle_cap")
    e, f, n = E.e_abs, E.f_over_base, E.degree
    kE, kF = E.residue, base.residue
    twist = E.acc_twist.log
    block = [[{} for _ in range(n)] for _ in range(n)]
    for v, a in x.digits.items():
        for b_c in range(e):
            b, m = (v + b_c) % e, (v + b_c) // e
            for a_c in range(f):
                u = kE.gen_power(a.log + a_c - m * twist)
                for a_r, c in enumerate(residue.decompose(u, kF)):
                    if c.log >= 0:
                        block[b * f + a_r][b_c * f + a_c][m] = c.log
    R = Mat._of_logs(base, block)
    return R if copies == 1 else block_diag(base, [R] * copies)


# ---------------------------------------------------------------------------
# lattice chains and radical-power lattices
# ---------------------------------------------------------------------------

def _check_period(period: int):
    """Refuse a chain period below 1: the bounds divide by it."""
    if period < 1:
        raise DomainError(f"a lattice chain has period >= 1, not {period}",
                          clause="nonpositive_period")


class ChainRealized:
    """A uniform lattice chain in the standard space F^N given by a diagonal
    profile: L_j = span of t^ceil((j - c_i)/period) e_i.  A period below 1
    raises ``nonpositive_period``."""

    __slots__ = ("N", "period", "profile")

    def __init__(self, N: int, period: int, profile):
        _check_period(period)
        self.N = N
        self.period = period
        self.profile = tuple(profile)
        if len(self.profile) != N:
            raise DomainError("profile length must equal N",
                              clause="profile_length")

    def filt_bound(self, n: int):
        """D(i, k) = min valuation of entry (i, k) of a matrix in the n-th
        radical power: ceil((n + c_k - c_i) / period) for profile c."""
        c, e = self.profile, self.period
        return [[-((ci - ck - n) // e) for ck in c] for ci in c]


def uniform_chain(N: int, e_A: int) -> ChainRealized:
    _check_period(e_A)
    if N % e_A != 0:
        raise DomainError("uniform chain requires e_A | N",
                          clause="period_not_dividing_N")
    block = N // e_A
    return ChainRealized(N, e_A, [i // block for i in range(N)])


def chain_from_field(E: TameField, copies: int = 1) -> ChainRealized:
    """The chain matching regular_rep's basis order: each copy of the field
    contributes its pi-power as the profile entry."""
    e, f = E.e_abs, E.f_over_base
    profile = []
    for _ in range(copies):
        for b in range(e):
            profile.extend([b] * f)
    return ChainRealized(E.degree * copies, e, profile)


def v_A_direct(x: Mat, chain: ChainRealized) -> int:
    """max n with x L_j inside L_{j+n} for all j, in closed form.

    Entry (i, k) of valuation w lies in the n-th radical power exactly when
    w >= filt_bound(n)[i][k], that is when n <= period * w + c_i - c_k, so
    v_A is the least such bound over the nonzero entries, which are exact
    since x is a ``Mat``; it reads their digit-log maps."""
    _check_size(x.n, chain.N)
    c, e = chain.profile, chain.period
    known = [e * min(a) + c[i] - c[k] for i, row in enumerate(x._logs)
             for k, a in enumerate(row) if a]
    if not known:
        raise DomainError("v_A of the zero matrix is undefined",
                          clause="v_A_of_zero")
    return min(known)


# ---------------------------------------------------------------------------
# lattices over the power-series ring
# ---------------------------------------------------------------------------

def _shift_logs(x, k):
    """The digit-log map x times t^k: x's digits at valuations v + k."""
    return {v + k: a for v, a in x.items()}


def _add_logs(z, x, fld, w=0, b=0):
    """z + t^w * g^b * x, in place in z, for digit-log maps z and x over
    fld, g the generator of its multiplicative group: the monomial adds w
    to each valuation of x and b to each log, mod q - 1, and two digits at
    one valuation sum by one :func:`residue.log_sum`; a digit that cancels is
    dropped from z.  The oracle's one sum of digit-log maps."""
    order = fld.q - 1
    for v, a in x.items():
        k, c = v + w, (a + b) % order
        s = z.get(k)
        if s is None:
            z[k] = c
        elif (s := residue.log_sum(fld, s, c)) < 0:
            del z[k]
        else:
            z[k] = s
    return z


def _add_product(z, col, y, fld):
    """z + col * y, in place in the sparse column z, for a sparse column
    col of digit-log maps and the (valuation, log) pairs y of a digit-log
    map: each entry of col adds into its row by one :func:`_add_logs` per
    digit of y, and a row whose entry cancels is dropped from z.  When y
    is one digit t^w g^b, a row that z does not store takes x shifted by
    w and b as it is: a nonzero map times a monomial is nonzero, so no
    digit needs a sum."""
    order, one = fld.q - 1, y[0] if len(y) == 1 else None
    for u, x in col.items():
        s = z.get(u)
        if s is None and one:
            w, b = one
            z[u] = {v + w: (a + b) % order for v, a in x.items()}
            continue
        s = dict(s or ())
        for w, b in y:
            _add_logs(s, x, fld, w, b)
        if s:
            z[u] = s
        else:
            del z[u]
    return z


def _clear(c2, col, unit, q, fld, minus):
    """Clear a row of sparse column c2 by pivot column col, whose pivot
    entry is t^v * unit: c2 becomes unit * c2 - col * q, where q is t^-v
    times c2's entry in the pivot row.  The columns hold digit-log maps
    over fld, the base residue field, and unit and q are such maps.  q is
    negated once, by adding ``minus``, the log of -1, to each digit, and
    col * -q is added to c2 by :func:`_add_product`.

    The one update step, called only by :func:`_echelon`.  It takes no
    inverse: unit is a unit of o_F, so the step is unimodular, and entries
    stay exact.  A unit 1, the map {0: 0}, scales nothing, and a unit
    scales no entry to zero, so every row of c2 stays stored.  An entry of
    col * -q is nonzero, so only a sum with an entry of c2 can cancel, and
    the row is then dropped from c2."""
    if unit != _ONE:
        c2.update(_add_product({}, c2, list(unit.items()), fld))
    order = fld.q - 1
    _add_product(c2, col, [(w, (b + minus) % order) for w, b in q.items()], fld)


def _echelon(cols, scanned, fld):
    """One fraction-free column-echelon pass over rows 0 .. scanned - 1, in
    order, of the sparse columns ``cols``: the oracle's only elimination.
    A column is a dict {row: digit-log map} and a digit-log map
    {valuation: log} is a nonzero exact element over fld, the base residue
    field, each digit g^log: the pass runs in integers, and its callers
    convert at the boundary, where they check entries anyway.

    Each column is filed once under its least stored row.  Rows above r
    are already cleared when the pass reaches r, so the columns filed
    under r are exactly those that store an entry there, and no row or
    column is scanned to find them.  The pivot is the entry of least
    valuation v among them, the first column in the input order on a tie;
    this is the one place where the oracle chooses a pivot.  It clears the
    row from the other columns of the bucket by :func:`_clear`, which gets
    the log of -1, read once per pass, and each column left nonempty is
    filed again under its new least row, which lies below r.  Since v is least, every quotient lies in o_F, and
    shifting a map's valuations by -v is its product with t^-v.  Returns
    the pivot columns with their (row, exponent) pairs; the pivot columns
    leave ``cols``, and the columns left there keep their order and store
    no entry in the scanned rows."""
    at = {}                                 # least stored row -> positions
    for j, c in enumerate(cols):
        if c:
            at.setdefault(min(c), []).append(j)
    pivots, taken = [], set()
    minus = _minus_one(fld)
    for r in range(scanned):
        bucket = at.pop(r, None)
        if bucket is None:
            continue
        v, j = min((min(cols[j][r]), j) for j in bucket)
        col = cols[j]
        taken.add(j)
        unit = {w - v: a for w, a in col[r].items()}
        for j2 in bucket:
            if j2 != j:
                c2 = cols[j2]
                _clear(c2, col, unit, {w - v: a for w, a in c2[r].items()}, fld,
                       minus)
                if c2:
                    at.setdefault(min(c2), []).append(j2)
        pivots.append(((r, v), col))
    cols[:] = [c for j, c in enumerate(cols) if j not in taken]
    return pivots


def _stored(vec, dim, base):
    """The sparse column vec as the pass takes it, without its exact
    zeros, each entry a digit-log map {valuation: log}: the lattice code's
    boundary.  A row outside 0 .. dim - 1 raises ``shape_mismatch``, and an
    entry that is not an exact element of base raises by :func:`_exact`.
    vec itself is never changed, so a refusal leaves the caller's dicts as
    they were."""
    out = {}
    for u, x in vec.items():
        if not 0 <= u < dim:
            raise DomainError(f"row {u} is outside 0 .. {dim - 1}",
                              clause="shape_mismatch")
        if _exact(x, base, "the lattice entry in row {}", u).digits:
            out[u] = _logs_of(x)
    return out


def _elements(base, col):
    """The column col of digit-log maps over base's residue field as a
    column of exact elements of base: the way back from :func:`_echelon`,
    taken only when a caller reads ``MatrixLattice.cols``."""
    return {u: _element(base, x) for u, x in col.items()}


class MatrixLattice:
    """A finitely generated o_F-lattice inside F^dim, held as a column
    echelon basis over the series ring: ``pivots`` are the (row, exponent)
    pairs, in row order, and ``cols`` the pivot columns.  A pivot column's
    entry in its pivot row is t^v times a unit of o_F, and it has no digits
    in the rows above.  The basis is not canonical: the pivots are
    invariants of the lattice, the entries are not.

    The basis is stored as :func:`_echelon` returns it, each column a
    sparse dict {row: digit-log map}.  The constructor runs one pass over
    the copies of its columns made by :func:`_stored`, which refuses
    inexact entries and elements of another field, so a stored entry is
    exact and nonzero.  ``filt_lattice`` and ``intersect_with_centralizer``,
    which already hold an echelon basis, store it as it is.  ``cols`` is a
    read-only view: a tuple of read-only ``{row: element}`` mappings, built
    by :func:`_elements` on first read and kept.  Membership, equality and
    sums are one more pass over shallow copies of the stored columns, so the
    basis never changes."""

    __slots__ = ("base", "dim", "pivots", "_basis", "_cols")

    def __init__(self, base: TameField, dim: int, cols):
        self._keep(base, dim, _echelon([_stored(c, dim, base) for c in cols],
                                       dim, base.residue))

    @classmethod
    def _of_basis(cls, base: TameField, dim: int, basis) -> "MatrixLattice":
        """The lattice with the column echelon basis ``basis``, pairs
        ((row, exponent), column) as :func:`_echelon` returns them."""
        L = cls.__new__(cls)
        L._keep(base, dim, basis)
        return L

    def _keep(self, base, dim, basis):
        self.base = base
        self.dim = dim
        self.pivots = [p for p, _ in basis]
        self._basis = [c for _, c in basis]
        self._cols = None

    @property
    def cols(self):
        """The pivot columns as a tuple of read-only {row: element}
        mappings, built on first read."""
        if self._cols is None:
            self._cols = tuple(MappingProxyType(_elements(self.base, c))
                               for c in self._basis)
        return self._cols

    def rank(self) -> int:
        return len(self.pivots)

    def contains_vector(self, vec) -> bool:
        """Whether the sparse vector vec lies in the lattice: one
        :func:`_echelon` pass over copies of the basis followed by vec finds
        no pivot but the basis's own.  Only vec goes through :func:`_stored`."""
        cols = [dict(c) for c in self._basis] + [_stored(vec, self.dim, self.base)]
        return ([p for p, _ in _echelon(cols, self.dim, self.base.residue)]
                == self.pivots)

    def same_as(self, other: "MatrixLattice") -> bool:
        """Equality: with equal pivots the index (other : self) is 1, so
        self inside other is enough: one pass over copies of other's basis
        followed by self's finds no pivot but other's.  Lattices over
        different bases raise ``owner_mismatch``, and in spaces of
        different dimensions ``shape_mismatch``."""
        _check_base(self.base, other, "a lattice")
        _check_size(self.dim, other.dim)
        if self.pivots != other.pivots:
            return False
        cols = [dict(c) for c in other._basis + self._basis]
        return ([p for p, _ in _echelon(cols, other.dim, other.base.residue)]
                == other.pivots)

    @classmethod
    def sum(cls, *lattices) -> "MatrixLattice":
        """The lattice L_1 + ... + L_k of one or more lattices over one base
        in one space: one pass over copies of their stored bases.  Lattices
        over different bases raise ``owner_mismatch``, and in spaces of
        different dimensions ``shape_mismatch``."""
        first = lattices[0]
        for L in lattices[1:]:
            _check_base(first.base, L, "a lattice")
            _check_size(L.dim, first.dim)
        cols = [dict(c) for L in lattices for c in L._basis]
        return cls._of_basis(first.base, first.dim,
                             _echelon(cols, first.dim, first.base.residue))


def filt_lattice(chain: ChainRealized, n: int, base: TameField) -> MatrixLattice:
    """The n-th radical power as an o_F-lattice in matrix space
    (row-major flattening): its monomial columns t^D(u) e_u, on distinct
    rows, are already its column echelon basis, with pivots (u, D(u))."""
    D = [d for row in chain.filt_bound(n) for d in row]     # D[u] for entry u
    return MatrixLattice._of_basis(base, len(D), [
        ((u, d), {u: {d: 0}}) for u, d in enumerate(D)])


def lattice_index(L1: MatrixLattice, L2: MatrixLattice) -> int:
    """q-exponent of the index (L1 : L2) for lattices spanning the same
    space, as the difference of pivot exponent sums.  Lattices over
    different bases raise ``owner_mismatch``."""
    _check_base(L1.base, L2, "a lattice")
    if [r for r, _ in L1.pivots] != [r for r, _ in L2.pivots]:
        raise DomainError("lattices span different spaces: index undefined",
                          clause="index_undefined")
    return sum(v for _, v in L2.pivots) - sum(v for _, v in L1.pivots)


# ---------------------------------------------------------------------------
# centralizer intersections
# ---------------------------------------------------------------------------

def intersect_with_centralizer(gens, chain: ChainRealized, n: int,
                               base: TameField) -> MatrixLattice:
    """The o_F-lattice (commutant of gens) intersect (n-th radical power),
    as the kernel of X -> ([X, G])_G on the radical power.

    Column u holds the brackets of t^D(u) e_u with every generator, stacked,
    above t^D(u) e_u itself (D from ``filt_bound``): the columns are an
    o_F-basis of the graph of the bracket map.  The generators are ``Mat``s
    over ``base``, and each column is built directly as a sparse dict
    {row: digit-log map} of the nonzero entries from the generators'
    bracket stencils (:meth:`Mat._bracket`), which each ``Mat`` builds
    once and keeps, so calls at several n on the same generators share
    them.  The lower entry t^d is {d: 0}, and where the two terms of a
    bracket meet in one row, on the diagonal of its block, their maps are
    summed by :func:`_add_logs` into a copy, since the stencil's maps are
    shared; a sum that cancels, such as t^d g - t^d g, is not stored.  A
    scalar generator commutes with every X: it has no stencil and adds no
    entry, but keeps its block of bracket rows, so the rows of the other
    generators do not move.  One :func:`_echelon`
    pass over all rows clears each bracket row from all columns but its
    pivot column, and drops it.  Each step is unimodular, and a kernel
    element has no part along a dropped column, so the remaining columns'
    lower parts span the kernel over o_F, saturated.  They store nothing
    in the bracket rows, so the same pass goes on over the lower rows as an
    echelon pass over those lower parts: its pivots there, with their lower
    parts, are the kernel's echelon basis, stored as the pass returns it."""
    N = chain.N
    dim = N * N
    for G in gens:
        _check_size(G.n, N)
        _check_base(base, G, "a generator")
    D = [d for row in chain.filt_bound(n) for d in row]     # D[u] for entry u
    top = len(gens) * dim
    fld = base.residue
    # (X G - G X) for X = t^d e_ij: t^d G[j][k] at (i, k), -t^d G[k][i] at
    # (k, j); each generator's terms for each value d that D takes, from
    # its stencil; a scalar generator has none
    shifted = {d: [(off, terms) for off, G in zip(range(0, top, dim), gens)
                   if (terms := G._bracket(d))]
               for d in set(D)}
    cols = []
    for u, d in enumerate(D):
        i, j = divmod(u, N)
        col = {top + u: {d: 0}}
        for off, (by_row, by_col) in shifted[d]:
            for k, x in by_row[j]:
                col[off + i * N + k] = x
            for k, x in by_col[i]:
                r = off + k * N + j
                y = col.get(r)
                if y is not None:
                    x = _add_logs(dict(y), x, fld)
                    if not x:
                        del col[r]
                        continue
                col[r] = x
        cols.append(col)
    return MatrixLattice._of_basis(base, dim, [
        ((r - top, v), {u - top: x for u, x in c.items() if u >= top})
        for (r, v), c in _echelon(cols, top + dim, fld) if r >= top])


# ---------------------------------------------------------------------------
# additive characters through the trace pairing
# ---------------------------------------------------------------------------

def absolute_trace(u) -> int:
    """Trace from the residue field down to the prime field, as an integer
    exponent mod p."""
    k = u.owner
    acc = k.zero
    for i in range(k.f):
        acc = acc + residue.frobenius(u, i)
    coords = acc.coords
    if any(coords[1:]):
        raise DomainError("absolute trace left the prime field (bug)",
                          clause="trace_not_in_prime_field")
    return coords[0] % k.p


def eval_psi_c(c: Mat, y: Mat) -> int:
    """Exponent (mod p) of the standard character at trace(c*y): the
    absolute trace of the t^0 digit, read as the sum of the digit products
    c[i][k]_v * y[k][i]_{-v} over the entry pairs, on their digit-log
    maps.  The entries of a ``Mat`` are exact, so that digit is known;
    matrices of different sizes raise ``shape_mismatch``, and over
    different bases ``owner_mismatch``."""
    _check_size(c.n, y.n)
    _check_base(c.base, y, "a matrix")
    fld = c.base.residue
    order, acc = fld.q - 1, -1
    for i, row in enumerate(c._logs):
        for k, a in enumerate(row):
            b = y._logs[k][i]
            for v, d in a.items():
                e = b.get(-v)
                if e is not None:
                    acc = residue.log_sum(fld, acc, (d + e) % order)
    return absolute_trace(residue.FqElem(fld, acc))


def psi_witness(delta: Mat, chain: ChainRealized, m: int):
    """A matrix y in the m-th radical power with psi(trace(delta*y)) != 0,
    or None when the character pairing annihilates the whole lattice."""
    base = delta.base
    kF = base.residue
    N = delta.n
    _check_size(N, chain.N)
    D = chain.filt_bound(m)
    for i in range(N):
        for k in range(N):
            for v, a in delta._logs[k][i].items():
                if v + D[i][k] > 0:
                    continue
                s = -v - D[i][k]
                d = kF.gen_power(a)
                for j in range(kF.f):
                    u = kF.elem(tuple([0] * j + [1] + [0] * (kF.f - j - 1)))
                    if absolute_trace(d * u) != 0:
                        return Mat.monomial_entry(base, N, i, k, D[i][k] + s, u)
    return None
