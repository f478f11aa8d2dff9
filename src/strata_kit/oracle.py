"""Brute-force matrix/lattice oracle over GF(q)((t)).

Everything here is deliberately independent of the symbolic stratum
calculus: field elements become honest matrices via the regular
representation, hereditary data becomes explicit diagonal lattice chains,
and all filtration questions are answered by valuation bounds, and by
column echelon bases and kernels over the power-series ring (v_A is the
least bound period * w + c_i - c_k over the entries, w an entry's valuation
and c the chain profile).  The symbolic layer is tested against these answers.

Scope: split ambient algebras M_N(F) with N small (<= 6).

Lattice entries are exact.  Columns are sparse ``{row: entry}`` dicts in
and out, and ``_stored``, the one boundary check, copies each column and
centralizer generator without its exact zeros (no digits, ``prec is
INF``) and raises ``PrecisionError`` on an entry with a finite ``prec``,
whose unknown digits could change a pivot, rank or membership answer.  So
every stored entry is exact and nonzero, a row operation runs over the
stored entries of the pivot column, and an entry that cancels is dropped
at once.  ``regular_rep``, ``v_A_direct`` and ``eval_psi_c`` are closed
forms that take inexact entries and raise exactly when their answer hangs
on unknown digits.  Matrix products skip exact zeros over dense rows;
elements are immutable, so a dense matrix may share one exact zero.

Row operations shift by powers of t instead of multiplying by them:
``_t_shift(x, k)`` moves x's digits from v to v + k and its precision to
``x.prec + k`` (INF stays INF).  Those are exactly the digits and the
precision of x times the exact monomial t^k, so a shift changes no digit
and no precision either; an exact zero is returned as it is.  The kernel
pass of ``intersect_with_centralizer`` shifts each stored generator entry
once for each value its bound D takes, and every bracket column with that
value shares the shifted entry, which is safe since elements are immutable.

Every elimination is one fraction-free column-echelon pass, ``_echelon``,
the only code that eliminates, and each lattice costs at most one pass:
the ``MatrixLattice`` constructor makes one, ``filt_lattice`` none (its
monomial columns are already an echelon basis), and a centralizer lattice
one, over the bracket rows and then the rows that carry the kernel.
``contains_vector`` and ``same_as`` make one pass over copies of the
basis, so a lattice's columns never change.  Each pivot t^v * u is the
entry of least valuation v in its row, and a column c with entry e in
that row becomes u * c - t^-v * e * pivot column.  u is a unit of o_F and
t^-v * e lies in o_F, so every column operation is unimodular and no
inverse is taken: entries stay exact Laurent polynomials.  A
centralizer lattice C ∩ P^n is the kernel over o_F of the bracket map
X -> ([X, G])_G on the radical power P^n; it comes out saturated, with no
separate saturation step.
"""

from __future__ import annotations

from .errors import DomainError, PrecisionError
from . import residue
from .tower import INF, TameElement, TameField

ORACLE_N_CAP = 6


# ---------------------------------------------------------------------------
# matrices over the base field
# ---------------------------------------------------------------------------

def _exact_zero(base: TameField) -> TameElement:
    return TameElement(base, {}, INF)


def _check_size(n: int, m: int):
    """Raise unless a size-n matrix meets a size-m matrix or chain."""
    if n != m:
        raise DomainError(f"size {n} does not match size {m}",
                          clause="shape_mismatch")


class Mat:
    """A dense square matrix over the base Laurent-series field."""

    __slots__ = ("base", "n", "rows")

    def __init__(self, base: TameField, rows):
        self.base = base
        self.rows = [list(r) for r in rows]
        self.n = len(self.rows)

    @classmethod
    def zero(cls, base: TameField, n: int) -> "Mat":
        zero = _exact_zero(base)
        return cls(base, [[zero] * n for _ in range(n)])

    @classmethod
    def identity(cls, base: TameField, n: int) -> "Mat":
        m = cls.zero(base, n)
        one = base.one()
        for i in range(n):
            m.rows[i][i] = one
        return m

    @classmethod
    def monomial_entry(cls, base: TameField, n: int, i: int, k: int, v: int,
                       coeff) -> "Mat":
        m = cls.zero(base, n)
        m.rows[i][k] = base.monomial(v, coeff)
        return m

    def __add__(self, other):
        _check_size(self.n, other.n)
        return Mat(self.base, [[a + b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        _check_size(self.n, other.n)
        return Mat(self.base, [[a - b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.rows, other.rows)])

    def __matmul__(self, other):
        _check_size(self.n, other.n)
        zero = _exact_zero(self.base)
        out = []
        for r in self.rows:
            terms = [(a, other.rows[j]) for j, a in enumerate(r)
                     if a.digits or a.prec is not INF]
            row = []
            for k in range(self.n):
                acc = zero
                for a, orow in terms:
                    b = orow[k]
                    if b.digits or b.prec is not INF:
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return Mat(self.base, out)

    def trace(self) -> TameElement:
        acc = _exact_zero(self.base)
        for i in range(self.n):
            acc = acc + self.rows[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(not a.digits for r in self.rows for a in r)

    def __repr__(self):
        return f"Mat({self.n}x{self.n})"


def block_diag(base: TameField, mats) -> Mat:
    n = sum(m.n for m in mats)
    out = Mat.zero(base, n)
    off = 0
    for m in mats:
        for i in range(m.n):
            for j in range(m.n):
                out.rows[off + i][off + j] = m.rows[i][j]
        off += m.n
    return out


def regular_rep(x: TameElement, copies: int = 1) -> Mat:
    """The matrix of multiplication by x on its field viewed as a base
    vector space, in the basis {g^a pi^b} ordered pi-power-major; with
    ``copies`` > 1, the block-diagonal sum of that many copies."""
    E = x.owner
    base = E.base()
    if E.degree * copies > ORACLE_N_CAP:
        raise DomainError(f"oracle capped at N <= {ORACLE_N_CAP}",
                          clause="oracle_cap")
    e, f = E.e_abs, E.f_over_base
    kF = base.residue
    T = E.acc_twist
    Tinv = T.inverse()
    block = Mat.zero(base, E.degree)
    for b_c in range(e):
        for a_c in range(f):
            col = b_c * f + a_c
            basis_el = E.monomial(b_c, E.residue.gen_power(a_c))
            y = x * basis_el
            for v, coeff in y.digits.items():
                b = v % e
                m = (v - b) // e
                u = coeff * (Tinv ** m if m >= 0 else T ** (-m))
                for a, c_a in enumerate(residue.decompose(u, kF)):
                    if c_a.is_zero():
                        continue
                    row = b * f + a
                    entry = block.rows[row][col]
                    term = base.monomial(m, c_a)
                    block.rows[row][col] = entry + term
            if y.prec is not INF:
                # digits of y at valuations >= prec are unknown: cap the
                # t-precision of every entry row accordingly
                for b in range(e):
                    cap = -((b - y.prec) // e)
                    for a in range(f):
                        row = b * f + a
                        entry = block.rows[row][col]
                        block.rows[row][col] = TameElement(
                            base, entry.digits, min(entry.prec, cap))
    if copies == 1:
        return block
    return block_diag(base, [block] * copies)


# ---------------------------------------------------------------------------
# lattice chains and radical-power lattices
# ---------------------------------------------------------------------------

class ChainRealized:
    """A uniform lattice chain in the standard space F^N given by a diagonal
    profile: L_j = span of t^ceil((j - c_i)/period) e_i."""

    __slots__ = ("N", "period", "profile")

    def __init__(self, N: int, period: int, profile):
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
    v_A is the least such bound over the entries with digits.  A zero to
    precision raises ``PrecisionError`` when its bound period * prec + c_i -
    c_k is below v_A, and when no entry has digits but some entry is inexact."""
    _check_size(x.n, chain.N)
    c, e = chain.profile, chain.period
    cells = [(a, c[i] - c[k]) for i, row in enumerate(x.rows)
             for k, a in enumerate(row)]
    known = [e * min(a.digits) + d for a, d in cells if a.digits]
    lost = [e * a.prec + d for a, d in cells
            if not a.digits and a.prec is not INF]      # zeros to precision
    if not known:
        if lost:
            raise PrecisionError("v_A of a matrix that is zero to precision "
                                 "is uncertain")
        raise DomainError("v_A of the zero matrix is undefined",
                          clause="v_A_of_zero")
    n = min(known)
    if lost and min(lost) < n:
        raise PrecisionError(f"v_A = {n} hangs on digits below an "
                             "entry's precision")
    return n


# ---------------------------------------------------------------------------
# lattices over the power-series ring
# ---------------------------------------------------------------------------

def _t_shift(x: TameElement, k: int) -> TameElement:
    """x * t^k: x's digits at valuations v + k, precision ``x.prec + k``."""
    if x.prec is INF and not x.digits:
        return x
    return TameElement._unchecked(
        x.owner, {v + k: a for v, a in x.digits.items()},
        x.prec if x.prec is INF else x.prec + k)


def _clear(c2, col, unit, q):
    """Clear a row of sparse column c2 by pivot column col, whose pivot
    entry is t^v * unit: c2 becomes unit * c2 - col * q, where q is t^-v
    times c2's entry in the pivot row.  q is negated once, so each entry is
    x * -q where c2 stores no entry and y + x * -q where it stores y.

    The one update step, called only by :func:`_echelon`.  It takes no
    inverse: unit is a unit of o_F, so the step is unimodular, and entries
    stay exact.  A unit 1 scales nothing.  x and q are nonzero, so only a
    sum y + x * -q can cancel, and it is then dropped from c2."""
    if unit.digits != {0: unit.owner.residue.one}:
        for u, y in c2.items():
            c2[u] = y * unit
    q = -q
    for u, x in col.items():
        y = c2.get(u)
        z = x * q if y is None else y + x * q
        if z.digits:
            c2[u] = z
        else:
            del c2[u]


def _echelon(cols, scanned):
    """One fraction-free column-echelon pass over rows 0 .. scanned - 1, in
    order, of the sparse columns ``cols``: the oracle's only elimination.

    Each row's pivot is a stored entry of least valuation v, the first
    such column on a tie; this is the one place where the oracle chooses a
    pivot.  The pivot column leaves ``cols``, which keep their order, and
    clears the row from the other columns that store an entry there by
    :func:`_clear`.  Since v is least, every quotient lies in o_F.  Returns
    the pivot columns with their (row, exponent) pairs; the columns left in
    ``cols`` store no entry in the scanned rows."""
    pivots = []
    for r in range(scanned):
        live = [(e.val(), j, c) for j, c in enumerate(cols)
                if (e := c.get(r)) is not None]
        if not live:
            continue
        v, j, col = min(live)
        del cols[j]
        unit = _t_shift(col[r], -v)
        for _, _, c2 in live:
            if c2 is not col:
                _clear(c2, col, unit, _t_shift(c2[r], -v))
        pivots.append(((r, v), col))
    return pivots


def _stored(vec, dim):
    """A copy of the sparse column vec without its exact zeros: the lattice
    code's one boundary check.  A row outside 0 .. dim - 1 raises
    ``shape_mismatch``, and an inexact entry ``PrecisionError``."""
    out = {}
    for u, x in vec.items():
        if not 0 <= u < dim:
            raise DomainError(f"row {u} is outside 0 .. {dim - 1}",
                              clause="shape_mismatch")
        if x.prec is not INF:
            raise PrecisionError(f"oracle: row {u} holds an entry known "
                                 f"only to O(t^{x.prec})")
        if x.digits:
            out[u] = x
    return out


class MatrixLattice:
    """A finitely generated o_F-lattice inside F^dim, held as a column
    echelon basis over the series ring: ``pivots`` are the (row, exponent)
    pairs, in row order, and ``cols`` the pivot columns.  A pivot column's
    entry in its pivot row is t^v times a unit of o_F, and it has no digits
    in the rows above.  The basis is not canonical: the pivots are
    invariants of the lattice, the entries are not.

    The constructor runs one :func:`_echelon` pass over copies of its
    columns made by :func:`_stored`, which refuses inexact entries.
    Columns are sparse ``{row: entry}`` dicts in and out.  ``filt_lattice``
    and ``intersect_with_centralizer``, which already hold an echelon
    basis, store it as it is.  Membership and equality are one more pass
    over copies, so ``cols`` is never changed."""

    __slots__ = ("base", "dim", "cols", "pivots")

    def __init__(self, base: TameField, dim: int, cols):
        self.base = base
        self.dim = dim
        basis = _echelon([_stored(c, dim) for c in cols], dim)
        self.pivots = [p for p, _ in basis]
        self.cols = [c for _, c in basis]

    @classmethod
    def _of_basis(cls, base: TameField, dim: int, basis) -> "MatrixLattice":
        """The lattice with the column echelon basis ``basis``, pairs
        ((row, exponent), column) as :func:`_echelon` returns them."""
        L = cls.__new__(cls)
        L.base = base
        L.dim = dim
        L.pivots = [p for p, _ in basis]
        L.cols = [c for _, c in basis]
        return L

    def rank(self) -> int:
        return len(self.pivots)

    def contains_vector(self, vec) -> bool:
        """Whether the sparse vector vec lies in the lattice: one
        :func:`_echelon` pass over copies of the basis followed by vec finds
        no pivot but the basis's own."""
        cols = [dict(c) for c in self.cols] + [_stored(vec, self.dim)]
        return [p for p, _ in _echelon(cols, self.dim)] == self.pivots

    def same_as(self, other: "MatrixLattice") -> bool:
        """Equality: with equal pivots the index (other : self) is 1, so
        self inside other is enough: one pass over copies of other's basis
        followed by self's finds no pivot but other's."""
        if self.pivots != other.pivots:
            return False
        cols = ([dict(c) for c in other.cols]
                + [_stored(c, other.dim) for c in self.cols])
        return [p for p, _ in _echelon(cols, other.dim)] == other.pivots


def filt_lattice(chain: ChainRealized, n: int, base: TameField) -> MatrixLattice:
    """The n-th radical power as an o_F-lattice in matrix space
    (row-major flattening): its monomial columns t^D(u) e_u, on distinct
    rows, are already its column echelon basis, with pivots (u, D(u))."""
    D = [d for row in chain.filt_bound(n) for d in row]     # D[u] for entry u
    one = base.residue.one
    return MatrixLattice._of_basis(base, len(D), [
        ((u, d), {u: base.monomial(d, one)}) for u, d in enumerate(D)])


def lattice_index(L1: MatrixLattice, L2: MatrixLattice) -> int:
    """q-exponent of the index (L1 : L2) for lattices spanning the same
    space, as the difference of pivot exponent sums."""
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
    o_F-basis of the graph of the bracket map.  The generators' entries
    pass :func:`_stored`, so an inexact one raises ``PrecisionError``, and
    each column is a sparse dict {row: entry} of the nonzero entries: a
    bracket entry that cancels, such as t^d g - t^d g on the diagonal, is
    not stored.  One :func:`_echelon` pass over all rows clears each
    bracket row from all columns but its pivot column, and drops it.  Each
    step is unimodular, and a kernel element has no part along a dropped
    column, so the remaining columns' lower parts span the kernel over
    o_F, saturated.  They store nothing in the bracket rows, so the same
    pass goes on over the lower rows as an echelon pass over those lower
    parts: its pivots there, with their lower parts, are the kernel's
    echelon basis."""
    N = chain.N
    dim = N * N
    for G in gens:
        _check_size(G.n, N)
        _stored(dict(enumerate(x for row in G.rows for x in row)), dim)
    D = [d for row in chain.filt_bound(n) for d in row]     # D[u] for entry u
    top = len(gens) * dim
    one = base.residue.one
    # (X G - G X) for X = t^d e_ij: t^d G[j][k] at (i, k), -t^d G[k][i] at
    # (k, j); each generator's stored entries, by row and negated by column
    terms = [(off,
              [[(k, g) for k, g in enumerate(G.rows[j]) if g.digits]
               for j in range(N)],
              [[(k, -g) for k in range(N) if (g := G.rows[k][i]).digits]
               for i in range(N)])
             for off, G in zip(range(0, top, dim), gens)]
    # the same terms times t^d, once for each value d that D takes
    shifted = {d: [(off, [[(k, _t_shift(g, d)) for k, g in r] for r in by_row],
                    [[(k, _t_shift(g, d)) for k, g in c] for c in by_col])
                   for off, by_row, by_col in terms]
               for d in set(D)}
    cols = []
    for u, d in enumerate(D):
        i, j = divmod(u, N)
        col = {top + u: base.monomial(d, one)}
        for off, by_row, by_col in shifted[d]:
            for k, x in by_row[j]:
                col[off + i * N + k] = x
            for k, x in by_col[i]:
                r = off + k * N + j
                if r in col:
                    x = col[r] + x
                    if not x.digits:
                        del col[r]
                        continue
                col[r] = x
        cols.append(col)
    return MatrixLattice._of_basis(
        base, dim, [((r - top, v), {u - top: x for u, x in c.items() if u >= top})
                    for (r, v), c in _echelon(cols, top + dim) if r >= top])


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
    c[i][k]_v * y[k][i]_{-v} over the entry pairs.  That digit is certain
    when every pair's product precision, min(a.prec + val(b),
    b.prec + val(a)) with val of a zero to precision its prec, is above 0."""
    _check_size(c.n, y.n)
    acc = c.base.residue.zero
    prec = INF
    for i, row in enumerate(c.rows):
        for k, a in enumerate(row):
            b = y.rows[k][i]
            prec = min(prec, a.prec + (min(b.digits) if b.digits else b.prec),
                       b.prec + (min(a.digits) if a.digits else a.prec))
            for v, d in a.digits.items():
                e = b.digits.get(-v)
                if e is not None:
                    acc = acc + d * e
    if prec <= 0:
        raise PrecisionError("t^0 digit of the trace is below precision")
    return absolute_trace(acc)


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
            entry = delta.rows[k][i]
            for v, a in entry.digits.items():
                if v + D[i][k] > 0:
                    continue
                s = -v - D[i][k]
                for j in range(kF.f):
                    u = kF.elem(tuple([0] * j + [1] + [0] * (kF.f - j - 1)))
                    if absolute_trace(a * u) != 0:
                        return Mat.monomial_entry(base, N, i, k, D[i][k] + s, u)
    return None
