"""Brute-force matrix/lattice oracle over GF(q)((t)).

Everything here is deliberately independent of the symbolic stratum
calculus: field elements become honest matrices via the regular
representation, hereditary data becomes explicit diagonal lattice chains,
and all filtration questions are answered by valuation bounds, and by
column echelon bases and kernels over the power-series ring (v_A is the
least bound period * w + c_i - c_k over the entries, w an entry's valuation
and c the chain profile).  The symbolic layer is tested against these answers.

Scope: split ambient algebras M_N(F) with N small (<= 6).

The oracle takes exact entries of its base field only.  ``_exact`` is its
one check on entries: it raises ``PrecisionError``, naming the site, the
position and the precision, on an entry with a finite ``prec``, whose
unknown digits could change an answer, and ``DomainError``
(``owner_mismatch``) on an element of another field, whose digits would be
read as powers of the wrong uniformizer.  It guards the argument of
``regular_rep``, every entry of a ``Mat``, whose rows are tuples so a
matrix stays exact once built, and every entry of a lattice column, which
``_stored`` converts for the pass without its exact zeros;
``intersect_with_centralizer``
refuses a generator over another base.  So every matrix entry is exact,
every stored lattice entry is exact and nonzero, a row operation runs over
the stored entries of the pivot column, and an entry that cancels is
dropped at once.  Matrix products skip exact zeros over dense rows;
elements are immutable, so a dense matrix may share one exact zero.

The bracket columns of ``intersect_with_centralizer`` are assembled from
shifts by powers of t instead of products with them: ``_t_shift(x, k)``
moves the digits of an exact nonzero x from v to v + k, exactly the digits
of x times the monomial t^k.  Each stored generator entry is shifted once
for each value its bound D takes, and every bracket column with that value
shares the shifted entry, which is safe since elements are immutable.

Inside the elimination pass an entry is a digit-log map {valuation: log},
each digit g^log of the base residue field, so the pass runs in integers:
a product adds valuations and logs, negation adds the log of -1, and a sum
is one ``residue.log_sum``.  Its callers convert where they check entries
anyway: the ``MatrixLattice`` methods through ``_stored``, and
``intersect_with_centralizer`` once per assembled bracket column, turning
back only the kernel's lower rows.  A lattice's ``cols`` hold elements.

Every elimination is one fraction-free column-echelon pass, ``_echelon``,
the only code that eliminates, and each lattice costs at most one pass:
the ``MatrixLattice`` constructor makes one, ``filt_lattice`` none (its
monomial columns are already an echelon basis), and a centralizer lattice
one, over the bracket rows and then the rows that carry the kernel.
``contains_vector`` and ``same_as`` make one pass over copies of the
basis, so a lattice's columns never change.  The pass files each column
under its least stored row and takes a row's columns from that bucket,
so it scans no row of a column that does not store it.  Each pivot
t^v * u is the entry of least valuation v in its row, and a column c with
entry e in that row becomes u * c - t^-v * e * pivot column.  u is a unit
of o_F and t^-v * e lies in o_F, so every column operation is unimodular
and no inverse is taken: entries stay exact Laurent polynomials.  A
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


def _zero_rows(base: TameField, n: int):
    """The rows of the n x n zero matrix, as lists to fill in."""
    zero = _exact_zero(base)
    return [[zero] * n for _ in range(n)]


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


def _check_size(n: int, m: int):
    """Raise unless a size-n matrix meets a size-m matrix or chain."""
    if n != m:
        raise DomainError(f"size {n} does not match size {m}",
                          clause="shape_mismatch")


class Mat:
    """A dense square matrix over the base Laurent-series field, with exact
    entries: the constructor refuses an inexact entry (``PrecisionError``),
    an element of another field (``owner_mismatch``) and a ragged or
    non-square list of rows (``shape_mismatch``), and keeps the rows as
    tuples, so the matrix cannot change once built."""

    __slots__ = ("base", "n", "rows")

    def __init__(self, base: TameField, rows):
        self.base = base
        rows = [[_exact(a, base, "Mat entry ({}, {})", i, k)
                 for k, a in enumerate(r)] for i, r in enumerate(rows)]
        self.rows = tuple(map(tuple, rows))
        self.n = len(self.rows)
        for r in self.rows:
            _check_size(len(r), self.n)

    @classmethod
    def zero(cls, base: TameField, n: int) -> "Mat":
        return cls(base, _zero_rows(base, n))

    @classmethod
    def identity(cls, base: TameField, n: int) -> "Mat":
        rows = _zero_rows(base, n)
        one = base.one()
        for i in range(n):
            rows[i][i] = one
        return cls(base, rows)

    @classmethod
    def monomial_entry(cls, base: TameField, n: int, i: int, k: int, v: int,
                       coeff) -> "Mat":
        rows = _zero_rows(base, n)
        rows[i][k] = base.monomial(v, coeff)
        return cls(base, rows)

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
            terms = [(a, other.rows[j]) for j, a in enumerate(r) if a.digits]
            row = []
            for k in range(self.n):
                acc = zero
                for a, orow in terms:
                    b = orow[k]
                    if b.digits:
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
    rows = _zero_rows(base, sum(m.n for m in mats))
    off = 0
    for m in mats:
        for i, r in enumerate(m.rows):
            rows[off + i][off:off + m.n] = r
        off += m.n
    return Mat(base, rows)


def regular_rep(x: TameElement, copies: int = 1) -> Mat:
    """The matrix of multiplication by x on its field viewed as a base
    vector space, in the basis {g^a pi^b} ordered pi-power-major; with
    ``copies`` > 1, the block-diagonal sum of that many copies.  x must be
    exact."""
    E = x.owner
    _exact(x, E, "the argument of regular_rep")
    base = E.base()
    if E.degree * copies > ORACLE_N_CAP:
        raise DomainError(f"oracle capped at N <= {ORACLE_N_CAP}",
                          clause="oracle_cap")
    e, f = E.e_abs, E.f_over_base
    kF = base.residue
    T = E.acc_twist
    Tinv = T.inverse()
    block = _zero_rows(base, E.degree)
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
                    block[row][col] = block[row][col] + base.monomial(m, c_a)
    R = Mat(base, block)
    return R if copies == 1 else block_diag(base, [R] * copies)


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
    v_A is the least such bound over the nonzero entries, which are exact
    since x is a ``Mat``."""
    _check_size(x.n, chain.N)
    c, e = chain.profile, chain.period
    known = [e * min(a.digits) + c[i] - c[k] for i, row in enumerate(x.rows)
             for k, a in enumerate(row) if a.digits]
    if not known:
        raise DomainError("v_A of the zero matrix is undefined",
                          clause="v_A_of_zero")
    return min(known)


# ---------------------------------------------------------------------------
# lattices over the power-series ring
# ---------------------------------------------------------------------------

def _t_shift(x: TameElement, k: int) -> TameElement:
    """x * t^k for an exact nonzero x, a stored lattice or generator entry:
    x's digits at valuations v + k."""
    return TameElement._unchecked(
        x.owner, {v + k: a for v, a in x.digits.items()}, INF)


def _add_product(z, x, y, fld):
    """z + x * y, in place in z, for a digit-log map x and the
    (valuation, log) pairs y of another: a product adds valuations and
    adds logs mod q - 1, and a sum is one :func:`residue.log_sum`; a digit
    that cancels is dropped from z."""
    order = fld.q - 1
    for v, a in x.items():
        for w, b in y:
            k, c = v + w, (a + b) % order
            s = z.get(k)
            if s is None:
                z[k] = c
            elif (s := residue.log_sum(fld, s, c)) < 0:
                del z[k]
            else:
                z[k] = s
    return z


def _clear(c2, col, unit, q, fld):
    """Clear a row of sparse column c2 by pivot column col, whose pivot
    entry is t^v * unit: c2 becomes unit * c2 - col * q, where q is t^-v
    times c2's entry in the pivot row.  All four are digit-log maps over
    fld, the base residue field.  q is negated once, by adding the log of
    -1 to each digit, so each entry is x * -q where c2 stores no entry and
    y + x * -q where it stores y, summed by :func:`_add_product`.

    The one update step, called only by :func:`_echelon`.  It takes no
    inverse: unit is a unit of o_F, so the step is unimodular, and entries
    stay exact.  A unit 1, the map {0: 0}, scales nothing.  x and q are
    nonzero, so only a sum y + x * -q can cancel, and it is then dropped
    from c2."""
    if unit != {0: 0}:
        unit = unit.items()
        for u, y in c2.items():
            c2[u] = _add_product({}, y, unit, fld)
    minus, order = (-fld.one).log, fld.q - 1
    q = [(w, (b + minus) % order) for w, b in q.items()]
    for u, x in col.items():
        z = _add_product(dict(c2.get(u, ())), x, q, fld)
        if z:
            c2[u] = z
        else:
            del c2[u]


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
    row from the other columns of the bucket by :func:`_clear`, and each
    column left nonempty is filed again under its new least row, which
    lies below r.  Since v is least, every quotient lies in o_F, and
    shifting a map's valuations by -v is its product with t^-v.  Returns
    the pivot columns with their (row, exponent) pairs; the pivot columns
    leave ``cols``, and the columns left there keep their order and store
    no entry in the scanned rows."""
    at = {}                                 # least stored row -> positions
    for j, c in enumerate(cols):
        if c:
            at.setdefault(min(c), []).append(j)
    pivots, taken = [], set()
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
                _clear(c2, col, unit, {w - v: a for w, a in c2[r].items()}, fld)
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
            out[u] = {v: a.log for v, a in x.digits.items()}
    return out


def _elements(base, col):
    """The column col of digit-log maps over base's residue field as a
    column of exact elements of base: the way back from :func:`_echelon`."""
    k = base.residue
    return {u: TameElement(base, {v: k.gen_power(a) for v, a in x.items()}, INF)
            for u, x in col.items()}


class MatrixLattice:
    """A finitely generated o_F-lattice inside F^dim, held as a column
    echelon basis over the series ring: ``pivots`` are the (row, exponent)
    pairs, in row order, and ``cols`` the pivot columns.  A pivot column's
    entry in its pivot row is t^v times a unit of o_F, and it has no digits
    in the rows above.  The basis is not canonical: the pivots are
    invariants of the lattice, the entries are not.

    The constructor runs one :func:`_echelon` pass over the digit-log
    copies of its columns made by :func:`_stored`, which refuses inexact
    entries and elements of another field, and turns the pivot columns
    back into elements.  Columns are sparse ``{row: entry}`` dicts in and
    out.  ``filt_lattice`` and ``intersect_with_centralizer``, which
    already hold an echelon basis, store it as it is.  Membership and
    equality are one more pass over such copies, so ``cols`` is never
    changed."""

    __slots__ = ("base", "dim", "cols", "pivots")

    def __init__(self, base: TameField, dim: int, cols):
        self.base = base
        self.dim = dim
        basis = _echelon([_stored(c, dim, base) for c in cols], dim, base.residue)
        self.pivots = [p for p, _ in basis]
        self.cols = [_elements(base, c) for _, c in basis]

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
        cols = [_stored(c, self.dim, self.base) for c in [*self.cols, vec]]
        return ([p for p, _ in _echelon(cols, self.dim, self.base.residue)]
                == self.pivots)

    def same_as(self, other: "MatrixLattice") -> bool:
        """Equality: with equal pivots the index (other : self) is 1, so
        self inside other is enough: one pass over copies of other's basis
        followed by self's finds no pivot but other's.  Lattices over
        different bases raise ``owner_mismatch``."""
        _same_base(self, other)
        if self.pivots != other.pivots:
            return False
        cols = [_stored(c, other.dim, other.base) for c in other.cols + self.cols]
        return ([p for p, _ in _echelon(cols, other.dim, other.base.residue)]
                == other.pivots)


def _same_base(L1: MatrixLattice, L2: MatrixLattice):
    """Refuse two lattices over different bases, whose pivot exponents are
    powers of different uniformizers."""
    if L1.base is not L2.base:
        raise DomainError(f"oracle: a lattice over {L1.base!r} meets one over "
                          f"{L2.base!r}", clause="owner_mismatch")


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
    space, as the difference of pivot exponent sums.  Lattices over
    different bases raise ``owner_mismatch``."""
    _same_base(L1, L2)
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
    over ``base``, so their entries are exact elements of it, and each
    column is a sparse dict {row: entry} of the nonzero entries: a bracket
    entry that cancels, such as t^d g - t^d g on the diagonal, is not
    stored.  Each column is converted to digit-log maps once, and one
    :func:`_echelon` pass over all rows clears each bracket row from all
    columns but its pivot column, and drops it.  Each step is unimodular,
    and a kernel element has no part along a dropped column, so the
    remaining columns' lower parts span the kernel over o_F, saturated.
    They store nothing in the bracket rows, so the same pass goes on over
    the lower rows as an echelon pass over those lower parts: its pivots
    there, with their lower parts, turned back into elements, are the
    kernel's echelon basis."""
    N = chain.N
    dim = N * N
    for G in gens:
        _check_size(G.n, N)
        if G.base is not base:
            raise DomainError(f"oracle: a generator over {G.base!r} meets the "
                              f"base {base!r}", clause="owner_mismatch")
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
        cols.append({r: {v: a.log for v, a in x.digits.items()}
                     for r, x in col.items()})
    return MatrixLattice._of_basis(base, dim, [
        ((r - top, v), _elements(base, {u - top: x for u, x in c.items() if u >= top}))
        for (r, v), c in _echelon(cols, top + dim, base.residue) if r >= top])


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
    c[i][k]_v * y[k][i]_{-v} over the entry pairs.  The entries of a
    ``Mat`` are exact, so that digit is known."""
    _check_size(c.n, y.n)
    acc = c.base.residue.zero
    for i, row in enumerate(c.rows):
        for k, a in enumerate(row):
            b = y.rows[k][i]
            for v, d in a.digits.items():
                e = b.digits.get(-v)
                if e is not None:
                    acc = acc + d * e
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
