"""Symbolic stratum and filtration-index calculus.

An OrderSkeleton carries the numerical data of a principal hereditary
order inside A = M_m(D) that is pure over a tower field E: the period
constant e_A, the symbolic division-algebra parameter d (the concrete
oracle only realizes d = 1), and whether the centralizer-level order is
maximal.  On top of that this module computes:

- valuations of field elements relative to the order (v_order),
- the critical exponent k0 of each tail of the chunk factorization (one
  helper, _tail_k0, decides it from Factorization.levels),
- strata [order, n, r, beta], whose one constructor derives n, the
  certified chunk factorization and the kind, so that nothing built on a
  stratum checks them again,
- defining sequences of simple strata with their jump indices,
- the four index <-> depth correspondences between radical powers and
  Moy-Prasad-style depths (depth_of_index is the one place that decides
  which depth an index names, and _first_index the one place that decides
  which index a depth names: the least m with m/e_A >= r for r, with
  m/e_A > r for r+), and
- the concrete group presentations of both constructions, each a list of
  (level, depth) windows with a depth a FiltDepth or STAB_MARKER, in a
  normal form that makes equality decidable: the shallowest window per
  level, minus every window that a window at a higher level with a depth
  no deeper contains, so that depths deepen strictly with the level.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import ceil, floor

from .errors import DomainError
from .minimal import Factorization, howe_factorize
from .tower import Subfield, TameElement, TameField


# ---------------------------------------------------------------------------
# orders and strata
# ---------------------------------------------------------------------------

class OrderSkeleton:
    """Numerical data of a principal hereditary order, pure over a field."""

    def __init__(self, m: int, d: int, e_A: int, pure_over: TameField,
                 b_maximal: bool = True):
        self.m, self.d, self.e_A = m, d, e_A
        self.pure_over, self.b_maximal = pure_over, b_maximal
        if self.m < 1 or self.d < 1 or self.e_A < 1:
            raise DomainError("order parameters must be positive",
                              clause="nonpositive_order_parameter")
        if self.e_A % self.d != 0:
            raise DomainError("e_A must be a multiple of the symbolic d",
                              clause="d_not_dividing_e_A")
        e_field = self.pure_over.e_abs
        if self.e_A % e_field != 0:
            raise DomainError("e(E/F) must divide e_A for an E-pure order",
                              clause="e_not_dividing_e_A")
        if self.N % self.pure_over.degree != 0:
            raise DomainError("[E:F] must divide N = m*d", clause="degree_not_dividing_N")
        if self.N % self.e_A != 0:
            raise DomainError(f"the period e_A = {self.e_A} of a principal order "
                              f"must divide N = m*d = {self.N}",
                              clause="period_not_dividing_N")
        e_prime = self.e_A // e_field
        if self.d == 1 and (self.N // self.pure_over.degree) % e_prime != 0:
            raise DomainError(f"an E-pure order needs e_A / e(E/F) = {e_prime} to "
                              f"divide N / [E:F] = {self.N // self.pure_over.degree}",
                              clause="order_not_pure")

    @property
    def N(self) -> int:
        return self.m * self.d


def standard_order(E: TameField) -> OrderSkeleton:
    """The order attached to the canonical chain of an embedded field E
    inside M_[E:F](F) (split, d = 1), which is E-pure with e_A = e(E/F)
    and maximal centralizer level."""
    return OrderSkeleton(m=E.degree, d=1, e_A=E.e_abs, pure_over=E,
                         b_maximal=True)


def v_order(x: TameElement, order: OrderSkeleton) -> int:
    """Order-valuation of a field element: e_A * ord(x), which must land in
    the integers (otherwise the order/field pairing is inconsistent)."""
    if not x.digits:
        raise DomainError("v_order of zero is undefined", clause="v_order_of_zero")
    v = x.ord() * order.e_A
    if v.denominator != 1:
        raise DomainError(
            f"e_A * ord(x) = {v} is not an integer: inconsistent order/field pairing",
            clause="v_order_not_integral")
    return int(v)


def _tail_k0(fac: Factorization, i: int, order: OrderSkeleton):
    """k0 of the tail beta_i = sum_{j >= i} c_j at the order: None encodes
    -infinity when chunk i has no level below it (the tail is central),
    otherwise e_A * ord(c_i).  That is an integer when c_i lies in the
    order's pure field, but the public :func:`k0` takes any beta, so the
    remainder is checked."""
    if i + 1 == len(fac.levels):
        return None
    c = fac.chunks[i]
    k, rem = divmod(min(c.digits) * order.e_A, c.owner.e_abs)
    if rem:
        raise DomainError("jump index is not integral at the order",
                          clause="jump_not_integral")
    return k


def k0(beta: TameElement, order: OrderSkeleton, fac: Factorization | None = None):
    """Order-level critical exponent of beta, with None encoding -infinity
    for central beta."""
    if fac is None:
        fac = howe_factorize(beta, beta.owner.base())
    return _tail_k0(fac, 0, order)


class StratumSkeleton:
    """The stratum [order, n, r, beta]: n = -v_order(beta), which is 0 for
    the depth-zero stratum of a central unit, the chunk factorization of
    beta, certified by howe_factorize, and the kind are all derived here."""

    def __init__(self, order: OrderSkeleton, beta: TameElement, r: int = 0):
        E = order.pure_over
        if beta.owner is not E:
            raise DomainError("beta must be owned by the order's pure field",
                              clause="owner_mismatch")
        fac = howe_factorize(beta, E.base())
        if fac.fields[0].degree != E.degree:
            raise DomainError("order is not pure over F[beta] "
                              f"(degree {fac.fields[0].degree} != {E.degree})",
                              clause="order_not_pure_over_beta")
        v = v_order(beta, order)
        if v > 0:
            raise DomainError("beta must have non-positive order valuation",
                              clause="positive_valuation")
        n = -v
        if n == 0 and not fac.degenerate:
            raise DomainError("depth-zero strata require a central unit beta",
                              clause="depth_zero_not_central")
        if n < r:
            raise DomainError("stratum requires n >= r", clause="n_below_r")
        if r < 0:
            raise DomainError(f"stratum requires r >= 0, not {r}", clause="negative_r")
        self.order, self.n, self.r, self.beta, self.fac = order, n, r, beta, fac
        if n == 0:
            self.kind = "simple"    # depth-zero stratum with a unit entry
        elif n == r:
            self.kind = "null"
        else:
            kk = _tail_k0(fac, 0, order)
            self.kind = "simple" if kk is None or r < -kk else "pure"


class DefiningStage:
    """One defining-sequence stage: the jump r_i, the field E_i of the tail
    beta_i and k0(beta_i), None for -infinity; order and n are the stratum's."""

    def __init__(self, r: int, level_field: Subfield, k0_value: int | None):
        self.r, self.level_field, self.k0_value = r, level_field, k0_value


def defining_sequence(stratum: StratumSkeleton) -> list[DefiningStage]:
    """Stages beta_i = sum_{j >= i} c_j with jumps r_{i+1} = -k0(beta_i).

    The jumps strictly increase and, for n > 0, stay below n with no
    check here: r_1 > r_0 because the stratum is simple, each later step
    because the certified chunk ords strictly decrease, and the last jump,
    -e_A ord(c_{s-1}) (or r < n for a single stage), is below
    -e_A ord(c_s) = n.
    """
    if stratum.kind != "simple":
        raise DomainError("defining sequences are attached to simple strata",
                          clause="not_simple")
    fac = stratum.fac
    order = stratum.order
    stages = []
    for i in range(len(fac.chunks)):
        r_i = stratum.r if i == 0 else -stages[-1].k0_value
        stages.append(DefiningStage(r_i, fac.fields[i], _tail_k0(fac, i, order)))
    return stages


# ---------------------------------------------------------------------------
# index <-> depth conversion
# ---------------------------------------------------------------------------

@total_ordering
class FiltDepth:
    """A depth in the ordered monoid R union {r+}; r < r+ < every s > r.
    Ordered by (value, plus), and equal only to another FiltDepth."""

    def __init__(self, value: Fraction, plus: bool = False):
        self.value, self.plus = value, plus

    def __eq__(self, other):
        return (type(other) is FiltDepth
                and (self.value, self.plus) == (other.value, other.plus))

    def __lt__(self, other):
        return (self.value, self.plus) < (other.value, other.plus)

    def __hash__(self):
        return hash((self.value, self.plus))

    def __repr__(self):
        return f"{self.value}{'+' if self.plus else ''}"


#: mode -> (scale, plus): the index n names the depth n/(scale e_A), as r
#: or as r+.
MODES = {"plain": (1, False), "plus": (1, True),
         "half": (2, False), "half_plus": (2, True)}


def depth_of_index(n: int, order: OrderSkeleton, mode: str = "plain") -> FiltDepth:
    """The depth attached to a radical-power index, in one of the four
    correspondences: plain P^n <-> n/e_A; plus P^(n+1) <-> (n/e_A)+;
    half P^floor((n+1)/2) <-> n/(2 e_A); half_plus P^(floor(n/2)+1) <->
    (n/(2 e_A))+."""
    if mode not in MODES:
        raise DomainError(f"unknown mode {mode!r}", clause="unknown_mode")
    scale, plus = MODES[mode]
    return FiltDepth(Fraction(n, scale * order.e_A), plus)


def _first_index(depth: FiltDepth, e_A: int) -> int:
    """The least m with m/e_A >= r for the depth r, and with m/e_A > r for
    r+: the radical power U^m that the depth names."""
    x = depth.value * e_A
    return floor(x) + 1 if depth.plus else ceil(x)


def index_of_depth(depth: FiltDepth, order: OrderSkeleton, mode: str = "plain") -> int:
    """Inverse of depth_of_index; raises when the depth is not attained
    (the integrality gate n = depth * e_A, resp. 2 e_A).  The mode, not
    depth.plus, says whether the depth is read as r or r+."""
    if mode not in MODES:
        raise DomainError(f"unknown mode {mode!r}", clause="unknown_mode")
    scale, plus = MODES[mode]
    n = depth.value * scale * order.e_A
    if n.denominator != 1:
        raise DomainError(
            f"depth {depth.value} is not attained: {n} fails the integrality gate",
            clause="depth_not_attained")
    return _first_index(FiltDepth(depth.value, plus), order.e_A)


# ---------------------------------------------------------------------------
# group presentations
# ---------------------------------------------------------------------------

#: marker for the non-compact stabilizer factor (chain normalizer /
#: point-stabilizer); ordered below every finite depth.
STAB_MARKER = "stab"


def _depth_sort_key(d):
    return (0,) if d == STAB_MARKER else (1, d)


class GroupPresentation:
    """A product of per-level filtration subgroups, plus its normal form.

    ``factors`` is the raw list of (level, depth) windows, each depth a
    FiltDepth or STAB_MARKER; the normal form drops every window contained
    in another and sorts by level.
    """

    def __init__(self, label: str, tower_degrees: tuple, e_A: int, N: int,
                 factors: list):
        self.label, self.e_A, self.N, self.factors = label, e_A, N, factors
        self.tower_degrees = tower_degrees  # [E_i : F] per level, level 0 = biggest field
        self.normal_form = _normalize(factors)

    def to_json(self):
        out = []
        for lvl, dep in self.normal_form:
            if dep == STAB_MARKER:
                out.append({"level": lvl, "depth": "stab"})
            else:
                out.append({"level": lvl,
                            "depth": "r+" if dep.plus else "r",
                            "value": f"{dep.value.numerator}/{dep.value.denominator}"})
        return out


def _normalize(factors):
    # per-level: keep the shallowest window only
    best = {}
    for lvl, dep in factors:
        if lvl not in best or _depth_sort_key(dep) < _depth_sort_key(best[lvl]):
            best[lvl] = dep
    # a window at a higher level with a depth no deeper contains this one
    kept = []
    for lvl in sorted(best, reverse=True):
        if not kept or _depth_sort_key(best[lvl]) < _depth_sort_key(kept[-1][1]):
            kept.append((lvl, best[lvl]))
    return kept[::-1]


def presentation_secherre(stratum: StratumSkeleton):
    """The three concrete product presentations attached to a simple
    stratum with maximal centralizer-level order: H1 at the half_plus
    depths of the jumps and of n, J at the half depths with the units at
    level 0, and Jhat with the stabilizer at level 0."""
    order = stratum.order
    if not order.b_maximal:
        raise DomainError("presentations require a maximal centralizer order",
                          clause="order_not_maximal")
    stages = defining_sequence(stratum)
    degs = tuple(K.degree for K in stratum.fac.levels)
    top = len(degs) - 1
    h1 = [(i, depth_of_index(st.r, order, "half_plus"))
          for i, st in enumerate(stages)]
    h1.append((top, depth_of_index(stratum.n, order, "half_plus")))
    j = [(0, depth_of_index(0, order))]
    j += [(i, depth_of_index(st.r, order, "half"))
          for i, st in enumerate(stages) if i >= 1]
    j.append((top, depth_of_index(stratum.n, order, "half")))
    jhat = [(0, STAB_MARKER)] + j[1:]
    e_A, N = order.e_A, order.N
    return (GroupPresentation("H1", degs, e_A, N, h1),
            GroupPresentation("J", degs, e_A, N, j),
            GroupPresentation("Jhat", degs, e_A, N, jhat))


def j1_presentation(j: GroupPresentation) -> GroupPresentation:
    """J^1 = J cap U^1: J with its level-0 unit window deepened from 0 to 0+."""
    factors = [(0, FiltDepth(Fraction(0), True))] + [f for f in j.factors if f[0] >= 1]
    return GroupPresentation("J1", j.tower_degrees, j.e_A, j.N, factors)


def presentation_yu(yu):
    """The three concrete product presentations on the other side, from a
    datum skeleton (duck-typed: needs tower_degrees, depths, d, e_A, N)."""
    degs = tuple(yu.tower_degrees)
    half = [Fraction(0)] + [Fraction(r, 2) for r in yu.depths[:yu.d]]
    kplus = [(i, FiltDepth(h, True)) for i, h in enumerate(half)]
    kcirc = [(i, FiltDepth(h, False)) for i, h in enumerate(half)]
    kfull = [(0, STAB_MARKER)] + kcirc[1:]
    e_A, N = yu.e_A, yu.N
    return (GroupPresentation("Kplus", degs, e_A, N, kplus),
            GroupPresentation("Kcirc", degs, e_A, N, kcirc),
            GroupPresentation("K", degs, e_A, N, kfull))


def compare_presentations(a: GroupPresentation, b: GroupPresentation):
    """Equality of normal forms; returns (equal, diff-dict)."""
    if a.tower_degrees != b.tower_degrees:
        raise DomainError(
            f"tower mismatch: {{'a': {a.tower_degrees!r}, 'b': {b.tower_degrees!r}}}",
            clause="tower_mismatch")
    if a.e_A != b.e_A or a.N != b.N:
        raise DomainError("order-constant mismatch", clause="order_mismatch")
    if a.normal_form != b.normal_form:
        return False, {"normal_form": {"a": a.to_json(), "b": b.to_json()}}
    return True, {}


def _effective_depth(nf, level):
    """Shallowest window covering a tower slice.  Depths deepen with the
    level in the normal form, so it is the first window at this level or
    deeper in the tower (higher level index)."""
    for lvl, dep in nf:
        if lvl >= level:
            return dep
    raise DomainError("presentation has no factor covering a tower slice",
                      clause="uncovered_slice")


def index_card(num: GroupPresentation, den: GroupPresentation):
    """The group index (num : den) as a q-power exponent, computed from
    Lie-lattice digit counts: each tower slice contributes its dimension
    per jump times the number of jumps in its effective depth window."""
    if num.tower_degrees != den.tower_degrees or num.e_A != den.e_A:
        raise DomainError("presentations live over different data",
                          clause="presentation_data_mismatch")
    e_A, N = num.e_A, num.N
    total = 0
    degs = num.tower_degrees
    prev_dim = 0
    for lvl in range(len(degs)):
        dim = N * N // degs[lvl]
        dn = _effective_depth(num.normal_form, lvl)
        dd = _effective_depth(den.normal_form, lvl)
        step = dim - prev_dim
        prev_dim = dim
        if dn == STAB_MARKER or dd == STAB_MARKER:
            if dn != dd:
                raise DomainError("stabilizer-marker factors admit no finite index",
                                  clause="non_inclusion")
            continue
        if _depth_sort_key(dn) > _depth_sort_key(dd):
            raise DomainError("denominator is not contained in numerator",
                              clause="non_inclusion")
        if step % e_A != 0:
            raise DomainError("per-jump dimension is not integral",
                              clause="dimension_gate")
        total += (step // e_A) * (_first_index(dd, e_A) - _first_index(dn, e_A))
    return total
