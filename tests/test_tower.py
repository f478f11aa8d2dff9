"""Tower arithmetic, precision semantics, coercion, standard
representatives, embeddings, and subfield resolution."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from strata_kit.errors import DomainError, PrecisionError
from strata_kit.tower import (DEFAULT_PREC, INF, TameElement, apply_embedding,
                              base_field, coerce, embeddings, extend,
                              splitting_field, sr, subfield_generated,
                              tower_subfield)


def mono(E, v, a=0):
    return E.monomial(v, E.residue.gen_power(a))


# -- arithmetic and precision ------------------------------------------------

def test_base_field_prime_powers():
    assert [(base_field(q).p, base_field(q).base_f) for q in (2, 9, 25, 65521)] == \
        [(2, 1), (3, 2), (5, 2), (65521, 1)]
    for q in (0, 1, 6, 12, 65537):
        with pytest.raises(DomainError):
            base_field(q)


def test_base_field_rejects_huge_prime_before_scanning():
    with pytest.raises(DomainError):
        base_field(2147483647)


def test_uniformizer_relation(E_ram2, F3):
    pi = E_ram2.uniformizer()
    t_img = E_ram2.from_base_t_power(1)
    assert (pi * pi).equals(t_img)


def test_twisted_uniformizer_relation():
    F5 = base_field(5)
    E = extend(F5, 1, 4, 2)      # pi^4 * 2 = t
    pi = E.uniformizer()
    lhs = (pi ** 4) * TameElement(E, {0: E.twist}, INF)
    assert lhs.equals(E.from_base_t_power(1))


def test_add_prec_is_min():
    F = base_field(3)
    x = TameElement(F, {0: F.residue.one}, 10)
    y = TameElement(F, {1: F.residue.one}, 5)
    assert (x + y).prec == 5


def test_mul_prec_rule():
    F = base_field(3)
    x = TameElement(F, {-1: F.residue.one}, 10)     # val -1, prec 10
    y = TameElement(F, {2: F.residue.one}, 7)       # val 2, prec 7
    # min(prec_x + val_y, prec_y + val_x) = min(12, 6) = 6
    assert (x * y).prec == 6


def test_sub_is_add_of_negation(towers):
    import random
    rng = random.Random(13)

    def state(x):
        return sorted((v, a.coords) for v, a in x.digits.items()), x.prec

    def draw(E, keep=None):
        digits = {v: E.residue.gen_power(rng.randrange(E.residue.q - 1))
                  for v in rng.sample(range(-3, 6), rng.randrange(4))}
        if keep is not None:    # share some of keep's digits, so they cancel
            digits.update((v, a) for v, a in keep.digits.items()
                          if rng.random() < 0.6)
        return TameElement(E, digits, rng.choice([INF, INF, rng.randrange(-2, 8)]))

    cancelled = 0
    for E in towers:
        for _ in range(40):
            x = draw(E)
            y = rng.choice([draw(E), draw(E, keep=x), x])
            got, want = x - y, x + (-y)
            assert state(got) == state(want)
            assert (got.prec is INF) == (want.prec is INF)
            cancelled += len(got.digits) < len(set(x.digits) | set(y.digits))
    assert cancelled > 100
    F, E = towers[0], towers[1]
    with pytest.raises(DomainError) as err:
        E.one() - F.one()
    assert err.value.clause == "owner_mismatch"


def test_inverse_and_division(E_ram2):
    x = mono(E_ram2, -1) + mono(E_ram2, 2, 1)
    y = x.inverse()
    prod = x * y
    diff = prod - E_ram2.one()
    assert not diff.digits              # 1 within precision
    assert prod.prec > 32


def test_inverse_of_zero_raises(F3):
    with pytest.raises(DomainError):
        F3.zero(INF).inverse()


def test_ord_of_zero_to_prec_raises(F3):
    z = F3.zero(8)
    with pytest.raises(PrecisionError):
        z.ord()


def test_coerce_scales_valuation_and_prec(F3, E_ram2):
    x = TameElement(F3, {-2: F3.residue.one, 1: F3.residue.one}, 5)
    y = coerce(x, E_ram2)
    assert y.val() == -4 and 2 in y.digits
    assert y.prec == 10


@settings(max_examples=80, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(0, 7),
       st.integers(0, 7))
def test_ring_axioms_deg2(v1, v2, a1, a2):
    E = extend(base_field(3), 2, 1, 1)
    x, y = mono(E, v1, a1), mono(E, v2, a2)
    assert ((x + y) * (x - y)).equals(x * x - y * y)
    assert (x * y).equals(y * x)


# -- standard representative -------------------------------------------------

def test_sr_running_example(E_ram2):
    c = mono(E_ram2, -3) + mono(E_ram2, -1)
    s = sr(c)
    assert list(s.digits) == [-3]
    gap = c - s
    assert gap.ord() * 2 == -1          # ord(c - sr(c)) = -1/2 > ord(c) = -3/2


def test_sr_of_monomial_is_itself(E_ram2):
    c = mono(E_ram2, 5, 3)
    assert sr(c).equals(c)


# -- embeddings --------------------------------------------------------------

def test_embedding_count_equals_degree(towers):
    for E in towers:
        assert len(embeddings(E)) == E.degree


def test_embeddings_respect_uniformizer_relation():
    F5 = base_field(5)
    E = extend(F5, 1, 4, 2)
    L = splitting_field(E)
    t_img = L.from_base_t_power(1)
    for s in embeddings(E):
        img = apply_embedding(s, E.uniformizer())
        tw = apply_embedding(s, TameElement(E, {0: E.twist}, INF))
        assert ((img ** 4) * tw).equals(t_img)


def test_identity_like_embedding_first(towers):
    for E in towers:
        first = embeddings(E)[0]
        assert (first.frob_exp, first.mu_dlog) == (0, 0)


def test_embeddings_match_a_brute_force_root_scan(towers):
    # for each Frobenius exponent j, mu_dlog runs over every x in
    # 0 .. |k_L^*| - 1 with e*x = d_j (mod |k_L^*|), where
    # g^d_j = twist_L / tau_j(acc_twist_E), in increasing order
    from strata_kit import fuzz, residue
    rng = fuzz.rng_from_seed(20)
    checked = 0
    for E in towers + [fuzz.random_tower(rng) for _ in range(40)]:
        L = splitting_field(E)
        kL = L.residue
        ML, e = kL.q - 1, E.e_abs
        want = []
        for j in range(E.f_over_base):
            tau = residue.frobenius(residue.embed(E.acc_twist, kL), E.base_f * j)
            d = kL.dlog(L.twist / tau)
            want += [(j, x) for x in range(ML) if (e * x - d) % ML == 0]
        assert [(s.frob_exp, s.mu_dlog) for s in embeddings(E)] == want
        checked += E.degree > 1
    assert checked >= 30


def test_embeddings_are_distinct(E_ram2):
    pi = E_ram2.uniformizer()
    images = [tuple(sorted(apply_embedding(s, pi).digits.items()))
              for s in embeddings(E_ram2)]
    assert len(set(images)) == len(images)


# -- subfields ---------------------------------------------------------------

def test_subfield_invariants_two_level_tower():
    F = base_field(3)
    U = extend(F, 2, 1, 1)
    E = extend(U, 1, 2, U.residue.gen_power(1))
    whole = tower_subfield(E, E)
    assert whole.signature() == (4, 2, 2)
    lower = tower_subfield(U, E)
    assert lower.signature() == (2, 1, 2)
    assert subfield_generated([], E).signature() == (1, 1, 1)


def test_subfield_generated_and_contains(E_ram2, F3):
    pi = E_ram2.uniformizer()
    K = subfield_generated([pi], E_ram2)
    assert K.degree == 2
    t2 = E_ram2.from_base_t_power(1)
    Kt = subfield_generated([t2], E_ram2)
    assert Kt.degree == 1
    assert Kt.contains(t2) and not Kt.contains(pi)
    assert K.contains(pi * pi)


def test_degree_is_e_times_f(towers):
    for E in towers:
        w = tower_subfield(E, E)
        deg, e, f = w.signature()
        assert deg == e * f == E.degree


# -- the tower-level chain -----------------------------------------------------

def _fuzzed_towers(seed, count):
    import random

    from strata_kit.fuzz import random_tower
    rng = random.Random(seed)
    return [random_tower(rng) for _ in range(count)]


def _twin_towers(E):
    """Two towers of E's shape, built from its JSON: equal, not identical."""
    from strata_kit.serialize import tower_from_json, tower_to_json
    doc = tower_to_json(E)
    return tower_from_json(doc), tower_from_json(doc)


def test_levels_chain_runs_from_base_to_self():
    for E in _fuzzed_towers(7, 30):
        levels = E.levels
        assert levels[0] is E.base() and levels[0].parent is None
        assert levels[-1] is E
        for i in range(1, len(levels)):
            assert levels[i].parent is levels[i - 1]
            assert levels[i].levels == levels[:i + 1]


def test_is_ancestor_of_is_level_membership():
    for E in _fuzzed_towers(8, 20):
        A, B = _twin_towers(E)
        nodes = A.levels + B.levels
        for a in nodes:
            for b in nodes:
                assert a.is_ancestor_of(b) == any(n is a for n in b.levels)


def test_levels_of_an_equal_shaped_tower_are_foreign():
    from strata_kit.errors import SchemaError
    from strata_kit.serialize import element_to_json
    for E in _fuzzed_towers(9, 12):
        A, B = _twin_towers(E)
        for a in A.levels:
            x = a.uniformizer()
            with pytest.raises(DomainError):
                coerce(x, B)
            with pytest.raises(DomainError):
                tower_subfield(a, B)
            with pytest.raises(SchemaError):
                element_to_json(x, B)


def test_every_entry_refuses_a_sibling_with_one_clause():
    """coerce is the one ancestry check: every entry that takes an element
    or a level refuses one from a sibling tower with ``not_a_descendant``."""
    from strata_kit.minimal import howe_factorize, is_minimal
    F = base_field(3)
    E = extend(F, 1, 2, 1)
    G = extend(F, 2, 1, 1)
    y, pi_E = G.residue_gen_elem(), E.uniformizer()
    K = tower_subfield(F, E)
    calls = [lambda: coerce(y, E),
             lambda: apply_embedding(embeddings(E)[0], y),
             lambda: K.adjoin(y),
             lambda: K.contains(y),
             lambda: subfield_generated([pi_E, y], E),
             lambda: tower_subfield(G, E),
             lambda: howe_factorize(pi_E, G),
             lambda: is_minimal(pi_E, G)]
    for call in calls:
        with pytest.raises(DomainError) as info:
            call()
        assert info.value.clause == "not_a_descendant"


def test_element_json_roundtrip_at_every_level():
    import random

    from strata_kit.fuzz import random_element
    from strata_kit.serialize import element_from_json, element_to_json
    rng = random.Random(10)
    for E in _fuzzed_towers(10, 20):
        for i, level in enumerate(E.levels):
            x = random_element(rng, level)
            doc = element_to_json(x, E)
            assert doc["field"] == i
            y = element_from_json(doc, E)
            assert y.owner is level and y.prec is x.prec and y.equals(x)


def test_tower_json_roundtrip_keeps_every_level():
    from strata_kit.serialize import tower_from_json, tower_to_json
    for E in _fuzzed_towers(11, 30):
        F = tower_from_json(tower_to_json(E))
        assert F.q == E.q and len(F.levels) == len(E.levels)
        for a, b in zip(E.levels, F.levels):
            assert (a.f_rel, a.e_rel, a.twist.coords) == \
                (b.f_rel, b.e_rel, b.twist.coords)


def test_only_tower_module_walks_parent_pointers():
    """Every walk along a tower reads ``TameField.levels``; the parent
    pointer is read only where the chain is built, in ``tower``."""
    import ast
    import pathlib

    import strata_kit
    readers = []
    for path in sorted(pathlib.Path(strata_kit.__file__).parent.glob("*.py")):
        if path.name == "tower.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "parent":
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def test_only_tower_module_embeds_elements():
    """Images of elements are computed in ``tower`` alone; every other
    module reads them as ``Subfield.restriction_keys``."""
    import ast
    import pathlib

    import strata_kit
    users = []
    for path in sorted(pathlib.Path(strata_kit.__file__).parent.glob("*.py")):
        if path.name == "tower.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Name) and node.id == "apply_embedding"
                    or isinstance(node, ast.Attribute)
                    and node.attr in ("apply_embedding", "images")):
                users.append(f"{path.name}:{node.lineno}")
    assert users == []


# -- incremental subfields -----------------------------------------------------

def _adjoin_cases(seed, count):
    """(K, x) pairs on seeded fuzzed towers: K is a tower level, a generated
    subfield or a chain of adjoins; x is exact or finite-precision."""
    import random

    from strata_kit.fuzz import random_element, random_tower
    rng = random.Random(seed)
    for _ in range(count):
        E = random_tower(rng)
        levels = E.levels
        K = tower_subfield(rng.choice(levels), E)
        for _ in range(rng.randint(0, 2)):
            y = random_element(rng, E)
            if rng.random() < 0.3:
                y = y.truncate(y.val() + rng.randint(1, 8))
            try:
                K = K.adjoin(y)
            except PrecisionError:
                pass
        x = random_element(rng, rng.choice(levels))
        if rng.random() < 0.5:
            x = x.truncate(x.val() + rng.randint(0, 8))
        yield E, K, x


@pytest.mark.parametrize("seed", [3, 11])
def test_adjoin_matches_rebuild(seed):
    """K.adjoin(x) against a reference built from apply_embedding images of
    K.generators + [x] below their least precision: the degree counts the
    distinct rows, the stabilizer is the rows equal to row 0, and the
    precision guard fires exactly when a generator has fewer than
    GUARD_DIGITS certain digits above its lead at that cut."""
    from strata_kit.tower import GUARD_DIGITS
    raised = dropped = 0
    for E, K, x in _adjoin_cases(seed, 60):
        gens = K.generators + [coerce(x, E)]
        cut = min(g.prec for g in gens)
        dropped += cut < K.cut
        if cut is not INF and any(
                cut - (min(g.digits) if g.digits else cut) < GUARD_DIGITS
                for g in gens):
            raised += 1
            with pytest.raises(PrecisionError):
                K.adjoin(x)
            continue
        kL = K.splitting.residue
        rows = [tuple(tuple(sorted((v, kL.dlog(a))
                                   for v, a in apply_embedding(h, g).digits.items()
                                   if v < cut))
                      for g in gens)
                for h in embeddings(E)]
        got = K.adjoin(x)
        assert got.degree == len(set(rows))
        assert got.stabilizer == [i for i, row in enumerate(rows) if row == rows[0]]
        assert got.restriction_keys == rows
        assert got.e_over_base * got.f_over_base == got.degree
    assert raised and dropped       # the guard and the cut drop were exercised


@pytest.mark.parametrize("seed", [3, 11])
def test_key_table_matches_embedded_images(seed):
    """Differential: the key table against images built by apply_embedding,
    and separating_pairs against ords of image differences."""
    from strata_kit.minimal import separating_pairs

    def reference_pairs(Ec, small, big, c):
        images = [apply_embedding(h, c) for h in Ec.homs]
        out = []
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                if (small.restriction_keys[i] != small.restriction_keys[j]
                        or big.restriction_keys[i] == big.restriction_keys[j]):
                    continue
                diff = images[i] - images[j]
                exact_zero = not diff.digits and diff.prec is INF
                out.append(((i, j), None if exact_zero
                            else diff.ord() * Ec.ambient.e_abs))
        return out

    pairs = zeros = raised = 0
    for E, _, c in _adjoin_cases(seed, 60):
        for level in E.levels:
            small = tower_subfield(level, E)
            try:
                Ec = small.adjoin(c)
            except PrecisionError:
                continue
            kL = Ec.splitting.residue
            for h, row in zip(Ec.homs, Ec.restriction_keys):
                assert list(row) == [
                    tuple(sorted((v, kL.dlog(a))
                                 for v, a in apply_embedding(h, g).digits.items()
                                 if v < Ec.cut))
                    for g in Ec.generators]
            for big in (Ec, tower_subfield(E, E)):
                try:
                    want = reference_pairs(Ec, small, big, c)
                except PrecisionError:
                    raised += 1
                    with pytest.raises(PrecisionError):
                        separating_pairs(Ec, small, big)
                    continue
                assert separating_pairs(Ec, small, big) == want
                pairs += len(want)
                zeros += sum(d is None for _, d in want)
    assert pairs and zeros and raised    # every branch was exercised


@pytest.mark.parametrize("seed", [3, 11])
def test_image_keys_of_all_embeddings_match_one_at_a_time(seed):
    """The one-pass key list equals the keys taken one embedding at a
    time, at an infinite cut and at cuts inside and below x's digits."""
    from strata_kit.tower import _image_keys
    checked = cut_inside = 0
    for E, _, x in _adjoin_cases(seed, 60):
        x = coerce(x, E)
        homs = embeddings(E)
        for cut in (INF, x.prec, *(v + 1 for v in x.digits), min(x.digits, default=0)):
            keys = _image_keys(homs, x, cut)
            assert len(keys) == len(homs)
            for i, h in enumerate(homs):
                assert keys[i] == _image_keys([h], x, cut)[0]
            checked += len(homs)
            cut_inside += 0 < len(keys[0]) < len(x.digits)
    assert checked and cut_inside


def test_adjoin_precision_drop_rechecks_old_generators(E_ram2):
    # an exact generator whose only digit sits far above a later cut must
    # fail the guard once a low-precision generator lowers the cut
    K = subfield_generated([mono(E_ram2, 20)], E_ram2)
    x = TameElement(E_ram2, {0: E_ram2.residue.one}, 10)
    with pytest.raises(PrecisionError):
        subfield_generated(K.generators + [x], E_ram2)
    with pytest.raises(PrecisionError):
        K.adjoin(x)


def test_adjoin_leaves_the_original_unchanged(E_ram2):
    K = tower_subfield(E_ram2.base(), E_ram2)
    before = (list(K.generators), K.degree, list(K.stabilizer),
              list(K.restriction_keys))
    L = K.adjoin(E_ram2.uniformizer())
    assert L.degree == 2 and K.degree == 1
    assert before == (K.generators, K.degree, K.stabilizer, K.restriction_keys)


def test_tower_subfields_are_cached(towers):
    for E in towers:
        for level in E.levels:
            assert tower_subfield(level, E) is tower_subfield(level, E)


# -- exact precision is the INF object -----------------------------------------

def test_infinite_prec_is_normalized_to_INF(E_ram2):
    import random

    from strata_kit.fuzz import random_element
    x = random_element(random.Random(5), E_ram2)
    assert x.prec is INF
    assert TameElement(E_ram2, {}, float("inf")).prec is INF
    prod = mono(E_ram2, -1) * (mono(E_ram2, 0) + mono(E_ram2, 3, 1))
    assert prod.prec is INF


def test_inverse_of_exact_product_terminates(E_ram2):
    x = (mono(E_ram2, -1) + mono(E_ram2, 2, 1)) * (mono(E_ram2, 0) + mono(E_ram2, 1))
    y = x.inverse()
    assert y.prec == DEFAULT_PREC + 1
    assert not (x * y - E_ram2.one()).digits


def _geometric_inverse(x):
    """The reference inverse: x = a·pi^v·(1 + u), 1/x = a⁻¹·pi^-v·sum (-u)^n
    to rel relative digits, one truncated product per term."""
    if not x.digits:
        if x.prec is INF:
            raise DomainError("division by exact zero", clause="division_by_zero")
        raise PrecisionError("division by an element that is zero to precision")
    v, a = x.leading()
    lead_inv = TameElement(x.owner, {-v: a.inverse()}, INF)
    if len(x.digits) == 1 and x.prec is INF:
        return lead_inv
    rel = (x.prec - v) if x.prec is not INF else DEFAULT_PREC
    if rel <= 0:
        raise PrecisionError("inverse would have no certain digits")
    u = ((x * lead_inv) - x.owner.one()).truncate(rel)
    acc = term = TameElement(x.owner, {0: x.owner.residue.one}, rel)
    uv = u._val_lower_bound()
    k = uv
    while k < rel:
        term = (term * -u).truncate(rel)
        acc = acc + term
        if not term.digits:
            break
        k += uv
    return (acc * lead_inv).truncate(rel - v)


def _outcome(f, *args):
    """Digits and prec of f(*args), or its exception class and clause."""
    try:
        y = f(*args)
    except (DomainError, PrecisionError) as err:
        return type(err), getattr(err, "clause", None)
    return sorted((v, a.coords) for v, a in y.digits.items()), y.prec


@pytest.mark.parametrize("seed", [5, 17])
def test_inverse_matches_the_geometric_series(seed):
    """Exact x, inverted at DEFAULT_PREC, and x truncated at prec = v + rel
    for rel in {1, 2, 5} and rel <= 0, which cuts every digit."""
    import random
    rng = random.Random(seed)
    towers = _fuzzed_towers(seed, 12)
    seen = set()
    for _ in range(300):
        E = rng.choice(towers)
        digits = {v: E.residue.gen_power(rng.randrange(E.residue.q - 1))
                  for v in rng.sample(range(-4, 10), rng.randrange(6))}
        rel = rng.choice([INF, 1, 2, 5, 0, -2])
        x = TameElement(E, digits, min(digits, default=0) + rel)
        want = _outcome(_geometric_inverse, x)
        assert _outcome(x.inverse) == want
        seen.add(want[0] if isinstance(want[0], type) else
                 "exact" if want[1] is INF else rel)
    assert seen == {DomainError, PrecisionError, "exact", INF, 1, 2, 5}


def test_inverse_builds_one_element(E_ram2, monkeypatch):
    """One TameElement and at most DEFAULT_PREC·len(x.digits) residue
    products for an exact 3-digit x; the geometric series built 259 for
    this x."""
    from strata_kit.residue import FqElem
    x = mono(E_ram2, -1) + mono(E_ram2, 0, 3) + mono(E_ram2, 2, 1)
    counts = {"elements": 0, "products": 0}
    init, mul = TameElement.__init__, FqElem.__mul__

    def counted_init(self, *args):
        counts["elements"] += 1
        init(self, *args)

    def counted_mul(self, other):
        counts["products"] += 1
        return mul(self, other)

    monkeypatch.setattr(TameElement, "__init__", counted_init)
    monkeypatch.setattr(FqElem, "__mul__", counted_mul)
    y = x.inverse()
    monkeypatch.undo()
    assert counts["elements"] == 1
    assert counts["products"] <= DEFAULT_PREC * len(x.digits)
    assert y.prec == DEFAULT_PREC + 1 and not (x * y - E_ram2.one()).digits


def test_exact_product_serializes(E_ram2):
    from strata_kit.serialize import element_from_json, element_to_json
    x = (mono(E_ram2, -1) + mono(E_ram2, 2, 1)) * mono(E_ram2, 3)
    doc = element_to_json(x, E_ram2)
    assert doc["prec"] is None
    assert element_from_json(doc, E_ram2).equals(x)


# -- closed-form degree of a monomial -----------------------------------------

def test_monomial_degree_matches_subfield_generated():
    import random

    from strata_kit.tower import monomial_degree
    rng = random.Random(12)
    checked = shared = twisted = 0
    for E in _fuzzed_towers(12, 100):
        for level in E.levels:
            n = level.residue.q - 1
            digits = {0, 1, n - 1} | set(rng.sample(range(n), min(n, 5)))
            for v in range(-3, 4):
                for a in sorted(digits):
                    x = coerce(level.monomial(v, level.residue.gen_power(a)), E)
                    deg = subfield_generated([x], E).degree
                    assert monomial_degree(level, v, a) == deg
                    (w, c), = x.digits.items()      # the same x, read in E
                    assert monomial_degree(E, w, E.residue.dlog(c)) == deg
                    checked += 1
                    shared += math.gcd(v, level.e_abs) > 1
                    twisted += level.acc_twist != level.residue.one
    assert checked > 5000 and shared > 1000 and twisted > 1000


def test_monomial_degree_matches_embedding_scan():
    # [F[x]:F] is the number of distinct image digits of x = g^k*pi^v over
    # the [E:F] embeddings h, each of discrete log k*res_scale + v*mu_dlog
    from strata_kit.tower import monomial_degree
    checked = 0
    for E in _fuzzed_towers(13, 60):
        homs, ML = embeddings(E), splitting_field(E).residue.q - 1
        n = E.residue.q - 1
        for v in range(-2 * E.e_abs, 2 * E.e_abs + 1):
            for k in range(0, n, max(1, n // 30)):
                want = len({(k * h.res_scale + v * h.mu_dlog) % ML for h in homs})
                assert monomial_degree(E, v, k) == want
                checked += 1
    assert checked > 10000


def test_generating_log_agrees_with_monomial_degree():
    # g^k*pi^v generates a level exactly when monomial_degree says [E:F]:
    # every log k for residue fields up to GF(729), else a sample with the
    # ends 0, 1 and q - 2
    import random

    from strata_kit.fuzz import random_tower
    from strata_kit.tower import generating_log, monomial_degree
    rng = random.Random(30)
    towers = _fuzzed_towers(30, 120) + [random_tower(rng, q=3) for _ in range(40)]
    checked = generating = shared = twisted = two_primes = 0
    for E in towers:
        for level in E.levels:
            n = level.residue.q - 1
            logs = (range(n) if n < 729
                    else sorted({0, 1, n - 1} | set(rng.sample(range(n), 60))))
            e, f = level.e_abs, level.degree // level.e_abs
            for v in range(-2 * e, 2 * e + 1):
                for k in logs:
                    want = monomial_degree(level, v, k) == level.degree
                    assert (generating_log(level, v, [k]) == k) == want, (level, v, k)
                    checked += 1
                    generating += want
                    shared += math.gcd(v, e) > 1
                    twisted += level.acc_twist != level.residue.one
                    two_primes += f == 6
                first = next((k for k in logs
                              if monomial_degree(level, v, k) == level.degree), None)
                assert generating_log(level, v, logs) == first
    assert checked > 100000 and generating > 50000
    assert shared > 20000 and twisted > 50000 and two_primes > 5000


# -- operator results: filtered digits, built without a second scan ------------

_OPERATOR_FIELDS = (base_field(2), base_field(3), base_field(5),
                    extend(base_field(5), 2, 2, 2))     # twisted, GF(25) digits


def _state(x):
    return sorted((v, a.log) for v, a in x.digits.items()), x.prec


def _checked_reference(op, x, y):
    """op's result through the public constructor, which filters: every
    digit sum and product accumulated unfiltered, zeros and digits at or
    above the precision included."""
    E = x.owner
    if op == "neg":
        return TameElement(E, {v: -a for v, a in x.digits.items()}, x.prec)
    digits = dict(x.digits)
    if op in ("add", "sub"):
        for v, a in y.digits.items():
            a = a if op == "add" else -a
            digits[v] = a if v not in digits else digits[v] + a
        return TameElement(E, digits, min(x.prec, y.prec))
    digits = {}
    for v, a in x.digits.items():
        for w, b in y.digits.items():
            digits[v + w] = digits[v + w] + a * b if v + w in digits else a * b
    lower = [min(z.digits) if z.digits else z.prec for z in (x, y)]
    return TameElement(E, digits, min(x.prec + lower[1], y.prec + lower[0]))


def _operand(data, E):
    """An exact, inexact, zero-to-precision or exact-zero element; digits
    are ±1 or g, so sums cancel often."""
    kind = data.draw(st.sampled_from(["exact", "inexact", "zero", "exact zero"]))
    if kind == "exact zero":
        return TameElement(E, {}, INF)
    prec = INF if kind == "exact" else data.draw(st.integers(-3, 6))
    if kind == "zero":
        return TameElement(E, {}, prec)
    k = E.residue
    logs = sorted({0, (k.q - 1) // 2 if k.p != 2 else 0, 1 % (k.q - 1)})
    digits = data.draw(st.dictionaries(st.integers(-3, 4),
                                       st.sampled_from(logs), max_size=4))
    return TameElement(E, {v: k.gen_power(a) for v, a in digits.items()}, prec)


@pytest.mark.parametrize("E", _OPERATOR_FIELDS, ids=lambda E: repr(E))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_operator_results_keep_the_element_invariant(E, data):
    """+, -, unary - and * build their digits already filtered: no zero
    digit, none at or above prec, and ``prec is INF`` exactly when prec is
    infinite.  Each result equals the public constructor's filtering of its
    own digits and of the unfiltered accumulation.  The second operand is
    drawn independently, or is x (x - x cancels), -x (x + (-x) cancels) or
    x with its odd-valuation digits negated (the cross terms of the product
    cancel)."""
    x = _operand(data, E)
    pair = data.draw(st.sampled_from(["free", "same", "neg", "conj"]))
    y = {"free": lambda: _operand(data, E), "same": lambda: x,
         "neg": lambda: -x,
         "conj": lambda: TameElement(E, {v: -a if v % 2 else a
                                         for v, a in x.digits.items()},
                                     x.prec)}[pair]()
    results = {"add": x + y, "sub": x - y, "neg": -x, "mul": x * y}
    for op, r in results.items():
        assert r.owner is E
        assert all(not a.is_zero() and v < r.prec for v, a in r.digits.items())
        assert (r.prec is INF) == (r.prec == math.inf)
        assert _state(TameElement(E, dict(r.digits), r.prec)) == _state(r)
        assert _state(r) == _state(_checked_reference(op, x, y)), op
    if pair == "same":
        assert not results["sub"].digits
    if pair == "neg":
        assert not results["add"].digits


@pytest.mark.parametrize("E", _OPERATOR_FIELDS[1:], ids=lambda E: repr(E))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_products_have_the_schoolbook_digits_and_precision(E, data):
    """x * y over GF(3), GF(5) and the twisted GF(25)-digit tower, for
    exact, inexact, zero-to-precision and exact-zero operands: the
    schoolbook digits below min(x.prec + vlb(y), y.prec + vlb(x)), vlb
    being the least digit valuation, or prec when there is none.  The
    product is exact, ``prec is INF``, exactly when both operands are exact
    or one is an exact zero, whose vlb is infinite."""
    x, y = _operand(data, E), _operand(data, E)

    def vlb(z):
        return min(z.digits) if z.digits else z.prec

    prec = min(x.prec + vlb(y), y.prec + vlb(x))
    digits = {}
    for v, a in x.digits.items():
        for w, b in y.digits.items():
            if v + w < prec:
                digits[v + w] = digits[v + w] + a * b if v + w in digits else a * b
    r = x * y
    assert _state(r) == (sorted((v, a.log) for v, a in digits.items()
                                if not a.is_zero()), prec)
    exact_zero = any(z.prec is INF and not z.digits for z in (x, y))
    assert (r.prec is INF) == ((x.prec is INF and y.prec is INF) or exact_zero)


def test_unchecked_elements_are_built_only_by_the_operators():
    """``TameElement._unchecked`` keeps its digits and precision as given,
    so only code that builds them already filtered may name it: the four
    arithmetic operators."""
    import ast
    import pathlib

    import strata_kit
    allowed = {"tower.py": {"TameElement.__add__", "TameElement.__sub__",
                            "TameElement.__neg__", "TameElement.__mul__"}}
    uses, outside = [], []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, path, f"{scope}.{child.name}".lstrip("."))
                continue
            if "_unchecked" in (getattr(child, "id", None),
                                getattr(child, "attr", None)):
                where = f"{path.name}:{child.lineno} {scope}"
                uses.append(where)
                if scope not in allowed.get(path.name, ()):
                    outside.append(where)
            visit(child, path, scope)

    for path in sorted(pathlib.Path(strata_kit.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    assert uses and outside == []
