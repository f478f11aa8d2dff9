"""Order/stratum skeletons, critical exponents, index/depth conversion,
and group presentations."""

from fractions import Fraction

import pytest

from strata_kit.errors import DomainError
from strata_kit.strata import (MODES, FiltDepth, GroupPresentation,
                               OrderSkeleton, StratumSkeleton,
                               compare_presentations,
                               defining_sequence, depth_of_index, index_card,
                               index_of_depth, k0, make_stratum,
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


def test_stratum_and_kind(running):
    _, E, beta, order = running
    st = make_stratum(order, beta)
    assert (st.n, st.r, st.kind) == (4, 0, "simple")
    st_pure = make_stratum(order, beta, r=2)
    assert st_pure.kind == "pure"               # r = 2 >= -k0 = 1
    with pytest.raises(TypeError):              # the kind is always derived
        StratumSkeleton(order, 4, 2, beta, st_pure.fac, "simple")
    st_null = make_stratum(order, beta, r=4)
    assert st_null.kind == "null"


def test_defining_sequence(running):
    _, E, beta, order = running
    st = make_stratum(order, beta)
    stages = defining_sequence(st)
    assert [s.r for s in stages] == [0, 1]
    assert [s.level_field.degree for s in stages] == [2, 1]
    assert stages[0].k0_value == -1 and stages[1].k0_value is None


def test_defining_sequence_requires_simple(running):
    _, E, beta, order = running
    with pytest.raises(DomainError):
        defining_sequence(make_stratum(order, beta, r=2))


def test_depth_index_modes(running):
    _, _, _, order = running           # e_A = 2
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
    st = make_stratum(order, beta)
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
    st = make_stratum(order, beta)
    h1, j, jhat = presentation_secherre(st)
    yu = secherre_to_yu(st, check=False)
    kp, kc, kk = presentation_yu(yu)
    for a, b in ((h1, kp), (j, kc), (jhat, kk)):
        same, diff = compare_presentations(a, b)
        assert same, diff
