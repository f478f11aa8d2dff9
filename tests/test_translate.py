"""Stratum <-> tower-datum translation, roundtrips, and character indices."""

from fractions import Fraction

import pytest

from strata_kit.errors import DomainError
from strata_kit.strata import StratumSkeleton, standard_order
from strata_kit.translate import (YuSkeleton, factchar_indices,
                                  roundtrip_check, secherre_to_yu,
                                  yu_to_secherre)
from strata_kit.tower import base_field, extend


def mono(E, v, a=0):
    return E.monomial(v, E.residue.gen_power(a))


@pytest.fixture(scope="module")
def running_stratum():
    F = base_field(3)
    E = extend(F, 1, 2, 1)
    return StratumSkeleton(standard_order(E), mono(E, -4) + mono(E, -1))


def test_secherre_to_yu_frozen_values(running_stratum):
    yu = secherre_to_yu(running_stratum)
    assert yu.tower_degrees == (2, 1)
    assert yu.depths == [Fraction(1, 2), Fraction(2)]
    assert yu.d == 1 and not yu.trivial_top and not yu.depth_zero


def test_minimal_beta_gets_trivial_top():
    F = base_field(3)
    E = extend(F, 1, 2, 1)
    st = StratumSkeleton(standard_order(E), mono(E, -1))
    yu = secherre_to_yu(st)
    assert yu.trivial_top and yu.d == 1
    assert yu.tower_degrees == (2, 1)
    assert yu.depths[-1] == yu.depths[-2]
    assert yu.chunks[-1] is None


def test_depth_zero_datum():
    F = base_field(5)
    st = StratumSkeleton(standard_order(F), F.monomial(0, F.residue.gen_power(1)))
    yu = secherre_to_yu(st)
    assert yu.depth_zero and yu.d == 0 and yu.depths == [Fraction(0)]
    st2 = yu_to_secherre(yu)
    assert st2.n == 0 and st2.kind == "simple"


def test_yu_validation_rejects_bad_depths():
    F = base_field(3)
    E = extend(F, 1, 2, 1)
    with pytest.raises(DomainError):
        YuSkeleton(E, (2, 1), [Fraction(2), Fraction(1, 2)],
                   [mono(E, -1), mono(E, -4)], 1, 2, 2)


def test_yu_to_secherre_checks_depths(running_stratum):
    yu = secherre_to_yu(running_stratum)
    yu.depths = [Fraction(1, 2), Fraction(3)]      # wrong final depth
    with pytest.raises(DomainError):
        yu_to_secherre(yu)


def test_roundtrip_running(running_stratum):
    rep = roundtrip_check(running_stratum)
    assert rep.ok, rep.checks


def test_roundtrip_quartic_tower():
    F = base_field(3)
    U = extend(F, 2, 1, 1)
    E = extend(U, 1, 2, U.residue.gen_power(1))
    beta = mono(E, -3, 1) + mono(E, -1, 0)
    st = StratumSkeleton(standard_order(E), beta)
    rep = roundtrip_check(st)
    assert rep.ok, rep.checks


def test_factchar_frozen_values(running_stratum):
    tab = factchar_indices(running_stratum)
    assert tab.rows == [(0, -1, 0), (1, -4, 2)]


def test_factchar_respects_bound(running_stratum):
    with pytest.raises(DomainError):
        factchar_indices(running_stratum, t=5)


def test_unit_equivalence_reads_the_leading_terms():
    """_unit_equivalent agrees with ord(c2/c1 - 1) > 0 computed in full."""
    import random

    from strata_kit.tower import INF, TameElement
    from strata_kit.translate import _unit_equivalent

    def by_division(c1, c2):
        diff = c2 / c1 - c1.owner.one()
        return not diff.digits or diff.ord() > 0

    rng = random.Random(5)
    verdicts = set()
    for E in (base_field(3), extend(base_field(5), 1, 2, 1),
              extend(base_field(3), 2, 1, 1)):
        n = E.residue.q - 1

        def draw():
            v = rng.randrange(-3, 3)
            digits = {w: E.residue.gen_power(rng.randrange(n))
                      for w in range(v, v + rng.randrange(1, 4))}
            return TameElement(E, digits, rng.choice([INF, v + 1, v + 5]))

        for _ in range(60):
            c1 = draw()
            c2 = rng.choice([draw(), c1 * (E.one() + mono(E, rng.randrange(1, 3), 1)),
                             TameElement(E, c1.digits, c1.prec)])
            want = by_division(c1, c2)
            assert _unit_equivalent(c1, c2) == want
            verdicts.add(want)
    assert verdicts == {True, False}
