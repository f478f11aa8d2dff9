"""Order/stratum skeletons, critical exponents, index/depth conversion,
and group presentations."""

import random
from fractions import Fraction
from math import ceil, floor

import pytest

from strata_kit.errors import DomainError
from strata_kit.strata import (MODES, STAB_MARKER, FiltDepth,
                               GroupPresentation, OrderSkeleton,
                               StratumSkeleton, _depth_sort_key,
                               _effective_depth, _first_index, _normalize,
                               compare_presentations,
                               defining_sequence, depth_of_index, index_card,
                               index_of_depth, k0,
                               presentation_secherre, presentation_yu,
                               standard_order, v_order)
from strata_kit.tower import base_field, extend


def mono(E, v, a=0):
    return E.monomial(v, E.residue.gen_power(a))


@pytest.fixture(scope="module")
def running():
    F = base_field(3)
    E = extend(F, 1, 2, 1)
    beta = mono(E, -4) + mono(E, -1)
    order = standard_order(E)
    return F, E, beta, order


def test_standard_order_constants(running):
    _, E, _, order = running
    assert (order.m, order.d, order.e_A, order.N) == (2, 1, 2, 2)
    assert order.b_maximal


def test_order_validation():
    F = base_field(3)
    E = extend(F, 1, 2, 1)
    with pytest.raises(DomainError):
        OrderSkeleton(m=1, d=1, e_A=3, pure_over=E)     # e(E/F)=2 does not divide 3
    with pytest.raises(DomainError):
        OrderSkeleton(m=1, d=2, e_A=3, pure_over=F)     # d does not divide e_A
    with pytest.raises(DomainError) as err:
        OrderSkeleton(m=2, d=1, e_A=4, pure_over=E)     # e_A does not divide N
    assert err.value.clause == "period_not_dividing_N"


def test_v_order(running):
    _, E, beta, order = running
    assert v_order(beta, order) == -4
    assert v_order(E.uniformizer(), order) == 1


def test_k_F_and_k0(running):
    _, E, beta, order = running
    assert k0(beta, order) == -1
    assert k0(mono(E, -2), order) is None       # central: -infinity
    assert k0(mono(E, -1), order) == -1         # minimal: e_A * ord


def test_k0_refuses_a_jump_the_order_cannot_index(running):
    # k0 takes any beta: ord(pi^-1) = -1/2 has no integer index at the
    # order of F, whose e_A is 1
    F, E, _, _ = running
    with pytest.raises(DomainError) as err:
        k0(E.uniformizer().inverse(), standard_order(F))
    assert err.value.clause == "jump_not_integral"


def test_stratum_and_kind(running):
    _, E, beta, order = running
    st = StratumSkeleton(order, beta)
    assert (st.n, st.r, st.kind) == (4, 0, "simple")
    st_pure = StratumSkeleton(order, beta, r=2)
    assert st_pure.kind == "pure"               # r = 2 >= -k0 = 1
    # n, the factorization and the kind are always derived
    for stated in ({"n": 4}, {"fac": st_pure.fac}, {"kind": "simple"}):
        with pytest.raises(TypeError):
            StratumSkeleton(order, beta, r=2, **stated)
    st_null = StratumSkeleton(order, beta, r=4)
    assert st_null.kind == "null"


def test_defining_sequence(running):
    _, E, beta, order = running
    st = StratumSkeleton(order, beta)
    stages = defining_sequence(st)
    assert [s.r for s in stages] == [0, 1]
    assert [s.level_field.degree for s in stages] == [2, 1]
    assert stages[0].k0_value == -1 and stages[1].k0_value is None


def test_defining_sequence_requires_simple(running):
    _, E, beta, order = running
    with pytest.raises(DomainError):
        defining_sequence(StratumSkeleton(order, beta, r=2))


def test_depth_index_modes(running):
    _, _, _, order = running           # e_A = 2
    assert tuple(MODES) == ("plain", "plus", "half", "half_plus")
    assert depth_of_index(3, order, "plain") == FiltDepth(Fraction(3, 2), False)
    assert depth_of_index(3, order, "plus") == FiltDepth(Fraction(3, 2), True)
    assert depth_of_index(3, order, "half") == FiltDepth(Fraction(3, 4), False)
    assert depth_of_index(3, order, "half_plus") == FiltDepth(Fraction(3, 4), True)
    # inverses: plain/plus are exact roundtrips
    for n in range(0, 13):
        d = depth_of_index(n, order, "plain")
        assert index_of_depth(d, order, "plain") == n
        dp = depth_of_index(n, order, "plus")
        assert index_of_depth(dp, order, "plus") == n + 1
        dh = depth_of_index(n, order, "half")
        assert index_of_depth(dh, order, "half") == (n + 1) // 2
        dhp = depth_of_index(n, order, "half_plus")
        assert index_of_depth(dhp, order, "half_plus") == n // 2 + 1


def test_depth_not_attained(running):
    _, _, _, order = running
    with pytest.raises(DomainError):
        index_of_depth(FiltDepth(Fraction(1, 3)), order, "plain")


def test_filtdepth_ordering():
    a = FiltDepth(Fraction(1, 2), False)
    ap = FiltDepth(Fraction(1, 2), True)
    b = FiltDepth(Fraction(1), False)
    assert a < ap < b


def test_presentations_running_example(running):
    _, E, beta, order = running
    st = StratumSkeleton(order, beta)
    h1, j, jhat = presentation_secherre(st)
    assert h1.normal_form == [(0, FiltDepth(Fraction(0), True)),
                              (1, FiltDepth(Fraction(1, 4), True))]
    assert j.normal_form == [(0, FiltDepth(Fraction(0), False)),
                             (1, FiltDepth(Fraction(1, 4), False))]
    assert jhat.normal_form[0] == (0, "stab")


def test_presentation_domination():
    # a deeper window at the same level is absorbed
    p = GroupPresentation("x", (2, 1), 2, 2,
                          [(1, FiltDepth(Fraction(1, 4))),
                           (1, FiltDepth(Fraction(1))),
                           (0, FiltDepth(Fraction(0), True))])
    assert p.normal_form == [(0, FiltDepth(Fraction(0), True)),
                             (1, FiltDepth(Fraction(1, 4), False))]
    # a shallower window at a higher level absorbs lower levels
    p2 = GroupPresentation("y", (2, 1), 2, 2,
                           [(0, FiltDepth(Fraction(1))),
                            (1, FiltDepth(Fraction(1, 2)))])
    assert p2.normal_form == [(1, FiltDepth(Fraction(1, 2), False))]


def test_compare_presentations_tower_mismatch():
    a = GroupPresentation("a", (2, 1), 2, 2, [(0, FiltDepth(Fraction(0)))])
    b = GroupPresentation("b", (4, 1), 2, 2, [(0, FiltDepth(Fraction(0)))])
    with pytest.raises(DomainError) as exc:
        compare_presentations(a, b)
    assert str(exc.value) == "tower mismatch: {'a': (2, 1), 'b': (4, 1)}"
    assert exc.value.clause == "tower_mismatch"


def test_index_card_frozen_examples():
    # (U^1 : U^2) in the 2x2 algebra with period 1 is q^4
    u1 = GroupPresentation("U1", (1,), 1, 2, [(0, FiltDepth(Fraction(1)))])
    u2 = GroupPresentation("U2", (1,), 1, 2, [(0, FiltDepth(Fraction(2)))])
    assert index_card(u1, u2) == 4
    # full-lattice vs radical with period 2 in the 2x2 algebra is q^2
    p0 = GroupPresentation("P0", (1,), 2, 2, [(0, FiltDepth(Fraction(0)))])
    p1 = GroupPresentation("P1", (1,), 2, 2, [(0, FiltDepth(Fraction(1, 2)))])
    assert index_card(p0, p1) == 2


def test_index_card_rejects_non_inclusion():
    a = GroupPresentation("a", (1,), 1, 2, [(0, FiltDepth(Fraction(2)))])
    b = GroupPresentation("b", (1,), 1, 2, [(0, FiltDepth(Fraction(1)))])
    with pytest.raises(DomainError):
        index_card(a, b)


def test_yu_presentations_match(running):
    from strata_kit.translate import secherre_to_yu
    _, E, beta, order = running
    st = StratumSkeleton(order, beta)
    h1, j, jhat = presentation_secherre(st)
    yu = secherre_to_yu(st, check=False)
    kp, kc, kk = presentation_yu(yu)
    for a, b in ((h1, kp), (j, kc), (jhat, kk)):
        same, diff = compare_presentations(a, b)
        assert same, diff


# -- the depth-to-index and containment rules against dense references -------

def _dense_normalize(factors):
    """Normal form by the all-pairs rule: drop every window that another
    window at a higher or equal level and no deeper depth contains."""
    best = {}
    for lvl, dep in factors:
        if lvl not in best or _depth_sort_key(dep) < _depth_sort_key(best[lvl]):
            best[lvl] = dep
    items = sorted(best.items())
    return [(lvl, dep) for lvl, dep in items
            if not any(l2 >= lvl and _depth_sort_key(d2) <= _depth_sort_key(dep)
                       for l2, d2 in items if (l2, d2) != (lvl, dep))]


def _dense_effective_depth(nf, level):
    """Minimum depth over every window at this level or above, or None."""
    cands = [dep for lvl, dep in nf if lvl >= level]
    return min(cands, key=_depth_sort_key) if cands else None


def _dense_jump_count(lo, hi, e_A):
    """Jumps n/e_A in [lo, hi) by ceil/floor corrections at each end."""
    lo_n = ceil(lo.value * e_A)
    if lo.plus and lo.value * e_A == lo_n:
        lo_n += 1
    hi_n = floor(hi.value * e_A)
    if not hi.plus and hi.value * e_A == hi_n:
        hi_n -= 1
    return max(0, hi_n - lo_n + 1)


def _near(depth, e_A):
    """Indices from two below to two above int(r e_A) for the depth r; the
    least index at or above the depth is among them."""
    x = int(depth.value * e_A)
    return range(x - 2, x + 3)


def _scan_first_index(depth, e_A):
    """Least m whose depth m/e_A is at least ``depth``."""
    ms = _near(depth, e_A)
    assert FiltDepth(Fraction(ms[0], e_A)) < depth
    return next(m for m in ms if FiltDepth(Fraction(m, e_A)) >= depth)


def _random_depth(rng):
    return FiltDepth(Fraction(rng.randrange(-30, 60), rng.randint(1, 12)),
                     rng.random() < 0.5)


def _random_windows(rng):
    return [(rng.randrange(4),
             STAB_MARKER if rng.random() < 0.15 else
             FiltDepth(Fraction(rng.randrange(12), rng.choice((1, 2, 4))),
                       rng.random() < 0.5))
            for _ in range(rng.randint(1, 7))]


def test_normal_form_matches_all_pairs_rule():
    rng = random.Random(20141)
    for _ in range(3000):
        factors = _random_windows(rng)
        nf = _normalize(factors)
        assert nf == _dense_normalize(factors), factors
        keys = [_depth_sort_key(dep) for _, dep in nf]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        for level in range(5):
            want = _dense_effective_depth(nf, level)
            if want is None:
                with pytest.raises(DomainError) as exc:
                    _effective_depth(nf, level)
                assert exc.value.clause == "uncovered_slice"
            else:
                assert _effective_depth(nf, level) == want


def test_first_index_is_least_index_at_the_depth():
    rng = random.Random(7919)
    for _ in range(3000):
        depth, e_A = _random_depth(rng), rng.choice((1, 2, 3, 4, 6))
        assert _first_index(depth, e_A) == _scan_first_index(depth, e_A), (depth, e_A)


def test_index_of_depth_reads_the_mode_not_the_depth_flag():
    F = base_field(3)
    for e_A in (1, 2, 3, 4, 6):
        order = OrderSkeleton(m=e_A, d=1, e_A=e_A, pure_over=F)
        for mode, (scale, plus) in MODES.items():
            for a in range(-12, 30):
                value = Fraction(a, scale * e_A)
                want = _scan_first_index(FiltDepth(value, plus), e_A)
                for flag in (False, True):
                    assert index_of_depth(FiltDepth(value, flag), order, mode) == want
                assert depth_of_index(a, order, mode) == FiltDepth(value, plus)
                with pytest.raises(DomainError) as exc:
                    index_of_depth(FiltDepth(Fraction(2 * a + 1, 2 * scale * e_A)),
                                   order, mode)
                assert exc.value.clause == "depth_not_attained"


def test_index_card_slices_count_the_jumps_in_each_window():
    rng = random.Random(1)
    for _ in range(3000):
        lo, hi = sorted((_random_depth(rng), _random_depth(rng)))
        e_A = rng.choice((1, 2, 3, 4, 6))
        ms = range(_near(lo, e_A)[0], _near(hi, e_A)[-1] + 1)
        count = sum(lo <= FiltDepth(Fraction(m, e_A)) < hi for m in ms)
        assert _dense_jump_count(lo, hi, e_A) == count, (lo, hi, e_A)
        assert _first_index(hi, e_A) - _first_index(lo, e_A) == count, (lo, hi, e_A)
        # one slice of dimension N^2 = e_A^2, so e_A digits per jump
        num = GroupPresentation("num", (1,), e_A, e_A, [(0, lo)])
        den = GroupPresentation("den", (1,), e_A, e_A, [(0, hi)])
        assert index_card(num, den) == e_A * count
