"""Brute-force matrix/lattice oracle over GF(q)((t)).

Everything here is deliberately independent of the symbolic stratum
calculus: field elements become honest matrices via the regular
representation, hereditary data becomes explicit diagonal lattice chains,
and all filtration questions are answered by valuation bounds, and by
Hermite normal forms and kernels over the power-series ring.  The symbolic
layer is tested against these answers.

Scope: split ambient algebras M_N(F) with N small (<= 6).

Row operations skip exact zeros (no digits, ``prec is INF``), which changes
no digit and no precision: an exact zero times anything is an exact zero,
and x plus or minus an exact zero has x's digits and precision.  Zeros to
precision (no digits, finite ``prec``) are never skipped, since they lower
the precision of every entry they touch.  Elements are immutable, so one
exact zero is shared by all the entries of a matrix or vector.

Row operations shift by powers of t instead of multiplying by them:
``_t_shift(x, k)`` moves x's digits from v to v + k and its precision to
``x.prec + k`` (INF stays INF).  Those are exactly the digits and the
precision of x times the exact monomial t^k, so a shift changes no digit
and no precision either; an exact zero is returned as it is.

A centralizer lattice C ∩ P^n is the kernel over o_F of the bracket map
X -> ([X, G])_G on the radical power P^n, taken by one column-echelon pass
(``intersect_with_centralizer``).  Each pivot is the entry of least
valuation in its row, so every quotient by it lies in o_F and every column
operation is unimodular: the kernel comes out saturated, with no separate
saturation step.
"""

from __future__ import annotations

from .errors import DomainError, PrecisionError
from . import residue
from .tower import INF, TameElement, TameField

ORACLE_N_CAP = 6


# ---------------------------------------------------------------------------
# residue-field linear algebra (small, dense, exact)
# ---------------------------------------------------------------------------

def _fp_inverse(mat, p):
    """Inverse of a square matrix of ints over GF(p) by Gaussian elimination."""
    n = len(mat)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] % p), None)
        if piv is None:
            raise DomainError("residue basis matrix is singular",
                              clause="singular_residue_basis")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [x * inv % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] % p:
                c = aug[r][col]
                aug[r] = [(x - c * y) % p for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class _ResidueDecomposer:
    """Writes residue-field elements of a tower node in the basis
    {g^a * embed(w_j)} with g the residue generator and w_j the polynomial
    basis of the base residue field; yields base-residue coordinates per
    power of g."""

    def __init__(self, field: TameField):
        self.field = field
        self.kE = field.residue
        self.kF = field.base().residue
        self.fob = field.f_over_base
        self.bf = field.base_f
        n = self.kE.f
        cols = []
        for a in range(self.fob):
            ga = self.kE.gen_power(a)
            for j in range(self.bf):
                w = self.kF.elem(tuple([0] * j + [1] + [0] * (self.bf - j - 1)))
                vec = (ga * residue.embed(w, self.kE)).coords
                cols.append(list(vec) + [0] * (n - len(vec)))
        mat = [[cols[c][u] for c in range(n)] for u in range(n)]
        self.inv = _fp_inverse(mat, field.p)

    def coords(self, u):
        """base-residue coefficients (c_0, ..., c_{fob-1}) with
        u = sum_a embed(c_a) * g^a."""
        n = self.kE.f
        vec = list(u.coords) + [0] * (n - len(u.coords))
        lam = [sum(self.inv[r][c] * vec[c] for c in range(n)) % self.field.p
               for r in range(n)]
        out = []
        for a in range(self.fob):
            out.append(self.kF.elem(tuple(lam[a * self.bf:(a + 1) * self.bf])))
        return out


def _decomposer(field: TameField) -> _ResidueDecomposer:
    """The field's decomposer, cached on the field."""
    if field._decomposer is None:
        field._decomposer = _ResidueDecomposer(field)
    return field._decomposer


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


def _support(vec):
    """Indices of the entries of vec that are not exact zeros."""
    return [u for u, x in enumerate(vec) if x.digits or x.prec is not INF]


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
            terms = [(r[j], other.rows[j]) for j in _support(r)]
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
    dec = _decomposer(E)
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
                for a, c_a in enumerate(dec.coords(u)):
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

    def d(self, j: int, i: int) -> int:
        return -((self.profile[i] - j) // self.period)

    def filt_bound(self, n: int):
        """D(i, k) = min valuation of entry (i, k) of a matrix in the n-th
        radical power, by scanning one full period of the chain."""
        e = self.period
        return [[max(self.d(j + n, i) - self.d(j, k) for j in range(e))
                 for k in range(self.N)] for i in range(self.N)]


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
    """max n with x L_j inside L_{j+n} for all j, by membership scan."""
    _check_size(x.n, chain.N)
    vals = [x.rows[i][k].val() for i in range(x.n) for k in range(x.n)]
    vals = [v for v in vals if v is not None]
    if not vals:
        raise DomainError("v_A of the zero matrix is undefined",
                          clause="v_A_of_zero")

    def ok(n):
        D = chain.filt_bound(n)
        for i in range(x.n):
            for k in range(x.n):
                v = x.rows[i][k].val()
                if v is not None and v < D[i][k]:
                    return False
        return True

    n = chain.period * (min(vals) - 1)
    while not ok(n):
        n -= 1
    while ok(n + 1):
        n += 1
    return n


# ---------------------------------------------------------------------------
# lattices over the power-series ring
# ---------------------------------------------------------------------------

def _t_shift(x: TameElement, k: int) -> TameElement:
    """x * t^k: x's digits at valuations v + k, precision ``x.prec + k``."""
    if x.prec is INF and not x.digits:
        return x
    return TameElement(x.owner, {v + k: a for v, a in x.digits.items()},
                       x.prec + k)


def _high_part(x: TameElement, cut: int) -> TameElement:
    """The digits of x at valuations >= cut (keeping x's precision)."""
    return TameElement(x.owner, {v: a for v, a in x.digits.items() if v >= cut},
                       x.prec)


class MatrixLattice:
    """A finitely generated o_F-lattice inside F^dim, held as generator
    columns and normalized to a column Hermite form over the series ring:
    pivot entries are monic powers of t, entries in a pivot row of the
    other pivot columns are reduced below the pivot exponent.  The form is
    computed once, in the constructor: ``cols`` are the pivot columns and
    ``pivots`` their (row, exponent) pairs."""

    __slots__ = ("base", "dim", "cols", "pivots")

    def __init__(self, base: TameField, dim: int, cols):
        self.base = base
        self.dim = dim
        self._canonicalize(cols)

    def _canonicalize(self, cols):
        cols = [list(c) for c in cols if any(x.digits for x in c)]
        pivots = []       # (row, exponent)
        pivot_cols = []
        pivot_ids = set()
        for row in range(self.dim):
            live = [c for c in cols if c[row].digits]
            cands = [(c[row].val(), c) for c in live if id(c) not in pivot_ids]
            if not cands:
                continue
            v = min(x[0] for x in cands)
            col = next(c for w, c in cands if w == v)
            sup = _support(col)
            inv_unit = _t_shift(col[row], -v).inverse()
            for u in sup:
                col[u] = col[u] * inv_unit
            for c2 in live:
                if c2 is col:
                    continue
                e2 = c2[row]
                if id(c2) in pivot_ids:
                    e2 = _high_part(e2, v)
                    if not e2.digits:
                        continue
                q = _t_shift(e2, -v)
                for u in sup:
                    c2[u] = c2[u] - col[u] * q
            pivots.append((row, v))
            pivot_cols.append(col)
            pivot_ids.add(id(col))
        self.cols = pivot_cols
        self.pivots = pivots

    def pivot_exponent_sum(self) -> int:
        return sum(v for _, v in self.pivots)

    def rank(self) -> int:
        return len(self.pivots)

    def reduce_vector(self, vec):
        """Remainder of vec after greedy reduction by the canonical columns
        with series-ring coefficients; zero remainder certifies membership."""
        v = list(vec)
        for (row, a), col in zip(self.pivots, self.cols):
            e = v[row]
            if e.val() is None:
                continue
            if e.val() < a:
                return v    # not reducible: remainder is nonzero
            q = _t_shift(e, -a)
            for u in _support(col):
                v[u] = v[u] - col[u] * q
        return v

    def contains_vector(self, vec) -> bool:
        rem = self.reduce_vector(vec)
        return all(not x.digits for x in rem)

    def same_as(self, other: "MatrixLattice") -> bool:
        if self.pivots != other.pivots:
            return False
        for c1, c2 in zip(self.cols, other.cols):
            for x, y in zip(c1, c2):
                if not x.equals(y):
                    return False
        return True


def filt_lattice(chain: ChainRealized, n: int, base: TameField) -> MatrixLattice:
    """The n-th radical power as an o_F-lattice in matrix space
    (row-major flattening)."""
    N = chain.N
    D = chain.filt_bound(n)
    cols = []
    one = base.residue.one
    zero = _exact_zero(base)
    for i in range(N):
        for k in range(N):
            vec = [zero] * (N * N)
            vec[i * N + k] = base.monomial(D[i][k], one)
            cols.append(vec)
    return MatrixLattice(base, N * N, cols)


def lattice_index(L1: MatrixLattice, L2: MatrixLattice) -> int:
    """q-exponent of the index (L1 : L2) for lattices spanning the same
    space, as the difference of pivot exponent sums."""
    if [r for r, _ in L1.pivots] != [r for r, _ in L2.pivots]:
        raise DomainError("lattices span different spaces: index undefined",
                          clause="index_undefined")
    return L2.pivot_exponent_sum() - L1.pivot_exponent_sum()


# ---------------------------------------------------------------------------
# centralizer intersections
# ---------------------------------------------------------------------------

def intersect_with_centralizer(gens, chain: ChainRealized, n: int,
                               base: TameField) -> MatrixLattice:
    """The o_F-lattice (commutant of gens) intersect (n-th radical power),
    as the kernel of X -> ([X, G])_G on the radical power.

    Column u holds the brackets of t^D(u) e_u with every generator, stacked,
    above t^D(u) e_u itself (D from ``filt_bound``): the columns are an
    o_F-basis of the graph of the bracket map.  One pass over the bracket
    rows takes a live entry (one with digits) of least valuation v as the
    row's pivot, clears the row from the other live columns and drops the
    pivot column.  Since v is least, every quotient
    ``_t_shift(e, -v) * unit^-1`` lies in o_F, so each step is unimodular;
    a kernel element has no part along a dropped column, so the remaining
    columns' lower parts span the kernel over o_F, saturated."""
    N = chain.N
    dim = N * N
    for G in gens:
        _check_size(G.n, N)
    D = [d for row in chain.filt_bound(n) for d in row]     # D[u] for entry u
    top = len(gens) * dim
    zero = _exact_zero(base)
    cols = []
    for u, d in enumerate(D):
        i, j = divmod(u, N)
        col = [zero] * (top + dim)
        for off, G in zip(range(0, top, dim), gens):
            # (X G - G X) for X = t^d e_ij: t^d G[j][k] at (i, k),
            # -t^d G[k][i] at (k, j)
            for k in range(N):
                g = G.rows[j][k]
                if g.digits or g.prec is not INF:
                    col[off + i * N + k] = col[off + i * N + k] + _t_shift(g, d)
                g = G.rows[k][i]
                if g.digits or g.prec is not INF:
                    col[off + k * N + j] = col[off + k * N + j] - _t_shift(g, d)
        col[top + u] = base.monomial(d, base.residue.one)
        cols.append(col)
    for r in range(top):
        live = [c for c in cols if c[r].digits]
        if not live:
            continue
        col = min(live, key=lambda c: c[r].val())
        v = col[r].val()
        inv_unit = _t_shift(col[r], -v).inverse()
        sup = _support(col)
        for c2 in live:
            if c2 is not col:
                q = _t_shift(c2[r], -v) * inv_unit
                for u in sup:
                    c2[u] = c2[u] - col[u] * q
        cols = [c for c in cols if c is not col]
    return MatrixLattice(base, dim, [c[top:] for c in cols])


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
    coords = list(acc.coords) + [0] * (k.f - len(acc.coords))
    if any(coords[1:]):
        raise DomainError("absolute trace left the prime field (bug)",
                          clause="trace_not_in_prime_field")
    return coords[0] % k.p


def eval_psi_c(c: Mat, y: Mat) -> int:
    """Exponent (mod p) of the standard character at trace(c*y): the
    absolute trace of the t^0 digit."""
    z = (c @ y).trace()
    if z.prec is not INF and z.prec <= 0:
        raise PrecisionError("t^0 digit of the trace is below precision")
    d0 = z.digits.get(0)
    if d0 is None:
        return 0
    return absolute_trace(d0)


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
                    if absolute_trace(a * u) % base.p != 0:
                        return Mat.monomial_entry(base, N, i, k, D[i][k] + s, u)
    return None
