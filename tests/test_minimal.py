"""Minimality criteria, canonical-chunk factorization, and genericity."""

import pytest

from strata_kit.errors import DomainError
from strata_kit.minimal import (Factorization, check_factorization,
                                howe_factorize, is_generic, is_minimal)
from strata_kit.tower import (INF, Subfield, base_field, extend, sr,
                              subfield_generated, tower_subfield)


def mono(E, v, a=0):
    return E.monomial(v, E.residue.gen_power(a))


def test_uniformizer_power_minimal(E_ram2, F3):
    rep = is_minimal(mono(E_ram2, -3), F3)
    assert rep.verdicts == (True, True, True)
    assert rep.minimal


def test_non_minimal_sum(E_ram2, F3):
    # t^-1 + pi^-1 generates E, but its leading term t^-1 does not
    c = mono(E_ram2, -2) + mono(E_ram2, -1)
    rep = is_minimal(c, F3)
    assert rep.verdicts == (False, False, False)
    assert rep.agree() and not rep.minimal


def test_base_elements_minimal_by_convention(E_ram2, F3):
    rep = is_minimal(mono(E_ram2, -2), F3)      # t^-1 inside E
    assert rep.in_base and rep.minimal


def test_criterion_1_witnesses_from_the_leading_term(towers):
    # lead(c^e) = lead(c)^e: criterion 1 raises only c's leading term, and
    # its witnesses match those read off the full power of a multi-digit c
    checked = 0
    for E in towers:
        if E.degree == 1:
            continue
        for base in dict.fromkeys((E.base(), E.parent)):
            base_sub = tower_subfield(base, E)
            for c in (mono(E, -3, 1) + mono(E, -2) + mono(E, 1, 1),
                      mono(E, -1) + mono(E, 0, 1) + mono(E, 2),
                      mono(E, -2, 1) + mono(E, -1, 1)):
                Ec = base_sub.adjoin(c)
                e_rel = Ec.e_over_base // base_sub.e_over_base
                v = int(c.ord() * Ec.e_over_base)
                unit = (c ** e_rel) * (base_sub.uniformizer().inverse() ** v)
                lead_v, r0 = unit.leading()
                assert lead_v == 0
                want = {"v": v, "e_rel": e_rel,
                        "f_rel": Ec.f_over_base // base_sub.f_over_base,
                        "residue_degree": base_sub.residue_degree_of(r0)}
                assert is_minimal(c, base).witnesses["crit1"] == want
                checked += 1
    assert checked == 45


def test_criterion_1_r0_is_the_unit_part_of_the_full_power(monkeypatch):
    # r0 itself, not only its residue degree, against the unit part of
    # c^e / pi_base^v read off the full series: dividing by the leading
    # digit b^v of pi_base^v the wrong way keeps the degree but not r0
    import random

    from strata_kit.fuzz import perturb, random_stratum
    seen = []
    real = Subfield.residue_degree_of

    def spy(self, r0):
        seen.append(r0)
        return real(self, r0)

    monkeypatch.setattr(Subfield, "residue_degree_of", spy)
    rng = random.Random(2026)
    checked = twisted = 0
    for _ in range(80):
        st = random_stratum(rng)
        levels = st.fac.levels
        for i, chunk in enumerate(st.fac.chunks):
            base_sub = levels[min(i + 1, len(levels) - 1)]
            for c in (chunk, perturb(rng, chunk)):
                seen.clear()
                is_minimal(c, base_sub)
                Ec = base_sub.adjoin(c)
                e_rel = Ec.e_over_base // base_sub.e_over_base
                v = int(c.ord() * Ec.e_over_base)
                unit = (c ** e_rel) * (base_sub.uniformizer().inverse() ** v)
                assert unit.leading()[0] == 0
                assert seen == [unit.leading()[1]]
                b = base_sub.uniformizer().leading()[1]
                twisted += b ** (2 * v) != b.owner.one
                checked += 1
    assert checked >= 150 and twisted >= 50


def test_unramified_generator_minimal():
    F = base_field(3)
    U = extend(F, 2, 1, 1)
    c = U.monomial(-1, U.residue.gen_power(1))
    rep = is_minimal(c, F)
    assert rep.minimal and rep.agree()


def test_criteria_agree_never_raises_on_towers(towers):
    for E in towers:
        for v in (-3, -2, -1):
            for a in (0, 1):
                rep = is_minimal(mono(E, v, a), E.base())
                assert rep.agree()


# -- factorization -----------------------------------------------------------

def test_factorize_running_example(E_ram2, F3):
    beta = mono(E_ram2, -4) + mono(E_ram2, -1)      # t^-2 + pi^-1
    fac = howe_factorize(beta, F3)
    assert len(fac.chunks) == 2 and not fac.degenerate
    assert [list(c.digits) for c in fac.chunks] == [[-1], [-4]]
    assert [K.degree for K in fac.fields] == [2, 1]
    jumps = fac.depth_jumps()
    assert jumps[0] * 2 == -1 and jumps[1] == -2
    assert check_factorization(fac).ok


def test_factorize_minimal_is_single_chunk(E_ram2, F3):
    fac = howe_factorize(mono(E_ram2, -1), F3)
    assert len(fac.chunks) == 1
    assert check_factorization(fac).ok


def test_factorize_central_is_degenerate(E_ram2, F3):
    fac = howe_factorize(mono(E_ram2, -2), F3)      # t^-1 in E
    assert fac.degenerate and fac.fields[0].degree == 1
    assert check_factorization(fac).ok


def test_centrality_is_read_from_the_level_chain(E_ram2, F3):
    # no stored flag can disagree with the chain E_0 > ... > base
    fac = howe_factorize(mono(E_ram2, -4) + mono(E_ram2, -1), F3)
    args = (fac.beta, F3, list(fac.chunks), list(fac.fields))
    with pytest.raises(TypeError):
        Factorization(*args, True)
    with pytest.raises(TypeError):
        Factorization(*args, degenerate=True)
    with pytest.raises(AttributeError):
        fac.degenerate = True
    assert len(fac.levels) == 2 and not fac.degenerate


def test_mutation_classes_rejected(E_ram2, F3):
    beta = mono(E_ram2, -4) + mono(E_ram2, -1)
    fac = howe_factorize(beta, F3)
    amb = E_ram2
    whole = fac.fields[0]
    base_sub = fac.fields[1]

    def variant(chunks=None, fields=None, beta2=None):
        return Factorization(
            beta2 if beta2 is not None else beta,
            F3,
            chunks if chunks is not None else list(fac.chunks),
            fields if fields is not None else list(fac.fields))

    cases = {
        "empty_chunk": variant(chunks=[amb.zero(INF), fac.chunks[1]]),
        "sum_mismatch": variant(beta2=beta + amb.one()),
        "ord_not_decreasing": variant(chunks=[fac.chunks[1], fac.chunks[0]],
                                      fields=list(fac.fields)),
        "chunk_not_in_field": variant(fields=[base_sub, base_sub]),
        "field_not_nested": variant(fields=[whole, whole]),
    }

    class _BadTails(Factorization):
        # corrupt approximation tails: beta_1 off by a deep digit
        def partial_tail(self, i):
            tail = super().partial_tail(i)
            return tail + mono(amb, -6) if i == 1 else tail

    cases["jump_mismatch"] = _BadTails(beta, F3, list(fac.chunks),
                                       list(fac.fields))
    for clause, bad in cases.items():
        rep = check_factorization(bad)
        assert not rep.ok and rep.clause == clause, (clause, rep.clause, rep.message)


def test_mutation_length_mismatch(E_ram2, F3):
    beta = mono(E_ram2, -4) + mono(E_ram2, -1)
    fac = howe_factorize(beta, F3)
    bad = Factorization(beta, F3, list(fac.chunks), [fac.fields[0]])
    rep = check_factorization(bad)
    assert not rep.ok and rep.clause == "empty_chunk"


def test_mutation_chunk_not_minimal(F3):
    # declare t^-2 + t^-1 as a single chunk over the base: the chunk lies in
    # the base so it is "minimal by convention"; use a ramified non-minimal
    # chunk instead
    E = extend(F3, 1, 2, 1)
    beta = mono(E, -4) + mono(E, -1)
    whole = subfield_generated([E.uniformizer()], E)
    bad = Factorization(beta, F3, [beta], [whole])
    rep = check_factorization(bad)
    assert not rep.ok and rep.clause == "chunk_not_minimal"


def test_mutation_field_not_generated(F3):
    E = extend(extend(F3, 2, 1, 1), 1, 2, 1)    # degree 4
    beta = mono(E, -1, 1)       # odd valuation + generating digit: degree 4
    fac = howe_factorize(beta, F3)
    assert fac.fields[0].degree == 4
    whole = fac.fields[0]
    # the control: the one chunk with the field it generates certifies
    assert check_factorization(Factorization(beta, F3, [fac.chunks[0]], [whole])).ok
    # claim a central extra chunk field that the chunk cannot generate
    mid = tower_subfield(E.parent, E)
    bad = Factorization(beta + mono(E, -4), F3,
                        [fac.chunks[0], mono(E, -4)],
                        [whole, mid])
    rep = check_factorization(bad)
    assert not rep.ok and rep.clause == "field_not_generated"


def test_mutation_top_field_mismatch(F3):
    E = extend(F3, 2, 1, 1)
    g = E.monomial(-1, E.residue.gen_power(1))      # generates E
    fac = howe_factorize(g, F3)
    base_sub = tower_subfield(F3, E)
    # claim the top field is the base although beta generates E
    bad = Factorization(g, F3, list(fac.chunks), [base_sub])
    rep = check_factorization(bad)
    assert not rep.ok and rep.clause in ("chunk_not_in_field",
                                         "top_field_mismatch")


# -- genericity --------------------------------------------------------------

def test_generic_uniformizer(E_ram2, F3):
    rep = is_generic(mono(E_ram2, -1),
                     (tower_subfield(E_ram2, E_ram2), tower_subfield(F3, E_ram2)))
    assert rep.ge1
    assert rep.depth * 2 == 1
    assert rep.equivalence_holds()


def test_not_generic_central(E_ram2, F3):
    rep = is_generic(mono(E_ram2, -2),
                     (tower_subfield(E_ram2, E_ram2), tower_subfield(F3, E_ram2)))
    assert not rep.ge1                      # minimal but does not generate
    assert rep.equivalence_holds()


def test_generic_vacuous_when_levels_equal(E_ram2, F3):
    base = tower_subfield(F3, E_ram2)
    rep = is_generic(mono(E_ram2, -2), (base, base))
    assert rep.ge1


def test_certification_builds_base_of_c_once(monkeypatch, E_ram2, F3):
    """is_generic and check_factorization hand the base[c] they built to the
    minimality criteria; criterion 2 reuses it for an exact monomial c,
    which is its own sr(c), and adjoins sr(c) on its own otherwise."""
    calls = []
    adjoin = Subfield.adjoin

    def counting(self, x):
        calls.append(x)
        return adjoin(self, x)

    monkeypatch.setattr(Subfield, "adjoin", counting)
    rep = is_generic(mono(E_ram2, -1), (E_ram2, F3))
    assert rep.ge1 and rep.equivalence_holds()
    assert len(calls) == 1          # base[c], which is base[sr(c)]
    fac = howe_factorize(mono(E_ram2, -4) + mono(E_ram2, -1), F3)
    calls.clear()
    assert check_factorization(fac).ok
    # chunk 0: E_1[c_0]; chunk 1: F[c_1]; the top field F[beta]
    assert len(calls) == 3
    c = mono(E_ram2, -1) + mono(E_ram2, 0)
    calls.clear()
    rep = is_generic(c, (E_ram2, F3))
    assert rep.ge1 and rep.equivalence_holds()
    assert len(calls) == 2          # base[c] and base[sr(c)]
    assert calls[1].digits == sr(c).digits
