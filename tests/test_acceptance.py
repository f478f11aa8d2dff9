"""End-to-end acceptance gate.

Nine property suites, each pinned to an explicit corpus or seed:

1. standard-representative laws on an exhaustive small-element corpus;
2. three-way minimality agreement plus stability under principal units;
3. fuzzed factorization soundness and ten rejected mutation classes;
4. valuation and critical-exponent scaling against the matrix oracle;
5. the four index/depth correspondences against direct lattices, plus
   centralizer-intersection filtrations;
6. product-presentation equality on fuzzed strata, confirmed by the
   Lie-lattice oracle on small instances;
7. translation round trips (including depth zero) with certified
   genericity of every realizer;
8. the index identity (J1 : H1) = product of per-step pair indices,
   symbolically and via lattice_index;
9. the trace-character equality criterion with constructive witnesses.
"""

import copy
import itertools
import time
from fractions import Fraction
from math import ceil

import pytest

from strata_kit.fuzz import perturb, random_depth_zero, random_stratum, rng_from_seed
from strata_kit.minimal import (Factorization, check_factorization,
                                howe_factorize, is_generic, is_minimal)
from strata_kit.oracle import (ChainRealized, Mat, MatrixLattice,
                               chain_from_field, eval_psi_c, filt_lattice,
                               intersect_with_centralizer, lattice_index,
                               psi_witness, regular_rep, uniform_chain,
                               v_A_direct)
from strata_kit.strata import (STAB_MARKER, FiltDepth, GroupPresentation,
                               OrderSkeleton, defining_sequence,
                               depth_of_index, index_card, index_of_depth, k0,
                               presentation_secherre, presentation_yu,
                               standard_order, v_order)
from strata_kit.strata import compare_presentations
from strata_kit.tower import (INF, base_field, embeddings, extend,
                              apply_embedding, sr, subfield_generated,
                              tower_subfield)
from strata_kit.translate import (factchar_indices, roundtrip_check,
                                 secherre_to_yu)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def mono(E, v, a=0):
    return E.monomial(v, E.residue.gen_power(a))


def tower_family():
    """Fixed tower family: q in {3, 5, 9}, degrees 1 through 8."""
    out = []
    for q in (3, 5, 9):
        F = base_field(q)
        ram2 = extend(F, 1, 2, 1)
        unram2 = extend(F, 2, 1, 1)
        mixed4 = extend(unram2, 1, 2, 1)
        out += [ram2, unram2, mixed4]
    out.append(extend(extend(base_field(3), 2, 1, 1), 1, 4, 1))   # degree 8
    out.append(extend(base_field(5), 1, 4, 2))                    # twisted quartic
    return out


def elements_of(E, max_pair_coeffs=4, max_triple_coeffs=3):
    """Deterministic 1-3-digit element enumeration for one tower."""
    nz = E.residue.q - 1
    for v in range(-5, 4):
        for a in range(nz):
            yield E.monomial(v, E.residue.gen_power(a))
    vals = (-4, -3, -2, -1, 0, 1)
    cp = range(min(max_pair_coeffs, nz))
    for v1, v2 in itertools.combinations(vals, 2):
        for a1 in cp:
            for a2 in cp:
                yield mono(E, v1, a1) + mono(E, v2, a2)
    ct = range(min(max_triple_coeffs, nz))
    for v1, v2, v3 in itertools.combinations(vals, 3):
        for a1 in ct:
            for a2 in ct:
                for a3 in ct:
                    yield mono(E, v1, a1) + mono(E, v2, a2) + mono(E, v3, a3)


@pytest.fixture(scope="module")
def corpus():
    out = []
    for E in tower_family():
        for c in elements_of(E):
            out.append((E, c))
    assert len(out) >= 10_000
    return out


# ---------------------------------------------------------------------------
# 1. standard-representative laws
# ---------------------------------------------------------------------------

def test_criterion_1_standard_representatives(corpus):
    t0 = time.time()
    emb_cache = {}
    for E, c in corpus:
        s = sr(c)
        v, lead = c.leading()
        # single leading digit, and c/s lies in the principal units
        assert list(s.digits.items()) == [(v, lead)]
        u = (c * s.inverse()) - E.one()
        assert not u.digits or u.ord() > 0
        # the difference sits strictly above the leading term
        d = s - c
        if d.digits:
            assert d.ord() > c.ord()
        # uniqueness: twisting the coefficient breaks the principal-unit law
        alt = E.monomial(v, lead * E.residue.generator)
        if not (alt - s).digits:
            continue
        u2 = (c * alt.inverse()) - E.one()
        assert u2.digits and u2.ord() <= 0
    # embedding-difference law for every single-digit corpus element
    for E, c in corpus:
        if len(c.digits) != 1:
            continue
        if E not in emb_cache:
            emb_cache[E] = embeddings(E)
        images = [apply_embedding(h, c) for h in emb_cache[E]]
        for im1, im2 in itertools.combinations(images, 2):
            d = im1 - im2
            if d.digits:
                assert d.ord() == c.ord()
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. minimality agreement and unit stability
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def minimality_reports(corpus):
    out = []
    for E, c in corpus:
        out.append((E, c, is_minimal(c, E.base())))
    return out


def test_criterion_2_three_criteria_agree(minimality_reports):
    for E, c, rep in minimality_reports:
        assert rep.agree(), (E, c.digits, rep.verdicts)


def test_criterion_2_minimality_survives_principal_units(minimality_reports):
    rng = rng_from_seed(20_2)
    # the stability lemma is about elements minimal relative to E/F, i.e.
    # elements generating the ambient tower field
    sample = [(E, c) for E, c, rep in minimality_reports
              if rep.minimal and E.degree <= 4
              and rep.witnesses["crit2"]["deg_c"] == E.degree]
    step = max(1, len(sample) // 20)
    sample = sample[::step][:20]
    assert len(sample) == 20
    for E, c in sample:
        for _ in range(1000):
            c2 = perturb(rng, c)
            rep2 = is_minimal(c2, E.base())
            assert rep2.agree() and rep2.minimal


# ---------------------------------------------------------------------------
# 3. factorization soundness and mutation rejection
# ---------------------------------------------------------------------------

def test_criterion_3_fuzzed_factorizations():
    rng = rng_from_seed(30_1)
    done = 0
    while done < 1000:
        st = random_stratum(rng)
        if st.n == 0:
            continue
        rep = check_factorization(st.fac)
        assert rep.ok, (rep.clause, rep.message)
        done += 1


def test_criterion_3_ten_mutation_classes():
    F = base_field(3)
    E = extend(F, 1, 2, 1)
    beta = mono(E, -4) + mono(E, -1)
    fac = howe_factorize(beta, F)
    whole, base_sub = fac.fields

    def variant(chunks=None, fields=None, beta2=None):
        return Factorization(beta2 if beta2 is not None else beta, F,
                             chunks if chunks is not None else list(fac.chunks),
                             fields if fields is not None else list(fac.fields))

    class _BadTails(Factorization):
        def partial_tail(self, i):
            tail = super().partial_tail(i)
            return tail + mono(E, -6) if i == 1 else tail

    # quartic setup for the generation mutation
    Q = extend(extend(F, 2, 1, 1), 1, 2, 1)
    mid = tower_subfield(Q.parent, Q)
    q_c0 = mono(Q, -2)                 # lies in the middle field already
    q_c1 = mono(Q, -4, 1)              # generates the middle field
    bad_gen = Factorization(q_c0 + q_c1, F, [q_c0, q_c1],
                            [tower_subfield(Q, Q), mid])

    # merged non-minimal chunk
    whole_r = subfield_generated([E.uniformizer()], E)
    bad_min = Factorization(beta, F, [beta], [whole_r])

    # tampered top-field stabilizer (defensive clause): inside the quartic
    # ambient the quadratic subfield keeps 2 of the 4 embeddings, so
    # dropping one leaves the degree intact but breaks the stabilizer set
    g = mono(Q, -2, 1)                 # generates the middle field of Q
    facU = howe_factorize(g, F)
    assert len(facU.fields[0].stabilizer) == 2
    fake_top = copy.copy(facU.fields[0])
    fake_top.stabilizer = facU.fields[0].stabilizer[:1]
    bad_top = Factorization(g, F, list(facU.chunks), [fake_top])

    cases = [
        ("empty_chunk", variant(chunks=[E.zero(INF), fac.chunks[1]])),
        ("empty_chunk", Factorization(beta, F, list(fac.chunks),
                                      [fac.fields[0]])),
        ("sum_mismatch", variant(beta2=beta + E.one())),
        ("ord_not_decreasing", variant(chunks=[fac.chunks[1], fac.chunks[0]])),
        ("chunk_not_in_field", variant(fields=[base_sub, base_sub])),
        ("field_not_nested", variant(fields=[whole, whole])),
        ("field_not_generated", bad_gen),
        ("chunk_not_minimal", bad_min),
        ("jump_mismatch", _BadTails(beta, F, list(fac.chunks),
                                    list(fac.fields))),
        ("top_field_mismatch", bad_top),
    ]
    assert len(cases) == 10
    for clause, bad in cases:
        rep = check_factorization(bad)
        assert not rep.ok and rep.clause == clause, (clause, rep.clause,
                                                     rep.message)


# ---------------------------------------------------------------------------
# 4. valuations and critical exponents against the matrix oracle
# ---------------------------------------------------------------------------

def interleaved_chain(E, copies):
    """The copy-interleaved chain of period copies*e for a block-diagonal
    regular representation, refining the field chain."""
    e, f = E.e_abs, E.f_over_base
    profile = []
    for j in range(copies):
        for b in range(e):
            profile.extend([copies * b + j] * f)
    return ChainRealized(E.degree * copies, copies * e, profile)


def test_criterion_4_valuation_and_k0_scaling():
    t0 = time.time()
    towers4 = [E for E in tower_family() if E.degree <= 4]
    checked = 0
    for E in towers4:
        chain = chain_from_field(E)
        order = standard_order(E)
        nz = E.residue.q - 1
        elems = [E.monomial(v, E.residue.gen_power(a))
                 for v in range(-4, 3) for a in range(min(nz, 4))]
        elems += [mono(E, v1, 0) + mono(E, v2, 1)
                  for v1, v2 in itertools.combinations((-3, -2, -1, 1), 2)]
        for x in elems:
            vA = v_A_direct(regular_rep(x), chain)
            # v_A(x) * e(E/F) = e_A * v_E(x), with e_A = e(E/F) here
            assert vA * E.e_abs == order.e_A * int(x.ord() * E.e_abs)
            assert vA == v_order(x, order)
            checked += 1
    assert checked >= 300

    # critical-exponent scaling at doubled period, via block-diagonal copies
    F3, F5, F9 = base_field(3), base_field(5), base_field(9)
    small = [extend(F3, 1, 2, 1), extend(F3, 2, 1, 1), extend(F3, 3, 1, 1),
             extend(F5, 1, 2, 1), extend(F5, 1, 3, 1), extend(F9, 1, 2, 1)]
    for E in small:
        base = E.base()
        betas = [mono(E, -1, 1), mono(E, -3, 1), mono(E, -3, 1) + mono(E, -1)]
        for beta in betas:
            fac = howe_factorize(beta, base)
            if fac.degenerate:
                continue
            c0 = fac.chunks[0]
            for copies in (1, 2):
                e_A = copies * E.e_abs
                order = OrderSkeleton(m=E.degree * copies, d=1, e_A=e_A,
                                      pure_over=E)
                kk = k0(beta, order, fac)
                chain = interleaved_chain(E, copies)
                assert v_A_direct(regular_rep(c0, copies), chain) == kk
                assert v_A_direct(regular_rep(beta, copies), chain) == \
                    -(-v_order(beta, order))
    elapsed = time.time() - t0
    assert elapsed < 120, f"criterion 4 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 5. index/depth correspondences against direct lattices
# ---------------------------------------------------------------------------

CHAIN_SHAPES = [(1, 2), (1, 4), (2, 2), (2, 4), (4, 4)]


def test_criterion_5_four_correspondences():
    F = base_field(3)
    for e_A, N in CHAIN_SHAPES:
        order = OrderSkeleton(m=N, d=1, e_A=e_A, pure_over=F)
        chain = uniform_chain(N, e_A)
        lats = [filt_lattice(chain, n, F) for n in range(0, 14)]
        for n in range(0, 13):
            # plain: P^n <-> n/e_A
            d = depth_of_index(n, order, "plain")
            assert d == FiltDepth(Fraction(n, e_A), False)
            assert index_of_depth(d, order, "plain") == n
            # plus: P^(n+1) <-> (n/e_A)+
            dp = depth_of_index(n, order, "plus")
            assert dp == FiltDepth(Fraction(n, e_A), True)
            assert index_of_depth(dp, order, "plus") == n + 1
            # half / half_plus floor formulas
            dh = depth_of_index(n, order, "half")
            assert index_of_depth(dh, order, "half") == (n + 1) // 2
            dhp = depth_of_index(n, order, "half_plus")
            assert index_of_depth(dhp, order, "half_plus") == n // 2 + 1
            # direct lattices: strict one-step inclusions of fixed index
            for col in lats[n + 1].cols:
                assert lats[n].contains_vector(col)
            assert not lats[n].same_as(lats[n + 1])
            assert lattice_index(lats[n], lats[n + 1]) == N * N // e_A
            # half-mode pair P^(floor(n/2)+1) inside P^(floor((n+1)/2))
            a, b = (n + 1) // 2, n // 2 + 1
            expected = 0 if n % 2 else N * N // e_A
            assert lattice_index(lats[a], lats[b]) == expected
        # periodicity: one full period multiplies by t (index q^(N^2))
        for n in range(0, 13 - e_A):
            assert lattice_index(lats[n], lats[n + e_A]) == N * N
        # lattice equality is independent of the generator set
        mixed = [c for c in lats[3].cols]
        zero = F.zero(INF)
        extra = [{u: mixed[0].get(u, zero) + c.get(u, zero)
                  for u in mixed[0].keys() | c.keys()} for c in mixed[1:]]
        redundant = MatrixLattice(F, N * N, mixed + extra)
        assert redundant.same_as(lats[3])


def test_criterion_5_centralizer_intersections():
    F = base_field(3)
    ram2 = extend(F, 1, 2, 1)
    unram2 = extend(F, 2, 1, 1)
    for E, copies in [(ram2, 1), (ram2, 2), (unram2, 1), (unram2, 2)]:
        N = E.degree * copies
        e_A = E.e_abs
        dim = N * N // E.degree
        chain = chain_from_field(E, copies=copies)
        gens = [regular_rep(E.uniformizer(), copies),
                regular_rep(E.residue_gen_elem(), copies)]
        lats = [intersect_with_centralizer(gens, chain, n, F)
                for n in range(0, 7)]
        for n in range(0, 6):
            assert lats[n].rank() == dim
            assert lattice_index(lats[n], lats[n + 1]) == dim // e_A
            for col in lats[n + 1].cols:
                assert lats[n].contains_vector(col)
        for n in range(0, 6 - e_A):
            assert lattice_index(lats[n], lats[n + e_A]) == dim


# ---------------------------------------------------------------------------
# presentation -> Lie-lattice realization (shared by criteria 6 and 8)
# ---------------------------------------------------------------------------

def window_index(dep, e_A):
    """Smallest radical-power index inside a depth window."""
    n0 = ceil(dep.value * e_A)
    if dep.plus and n0 == dep.value * e_A:
        n0 += 1
    return int(n0)


def level_subfields(stratum):
    stages = defining_sequence(stratum)
    fields = [sg.level_field for sg in stages]
    ambient = stratum.beta.owner
    if fields[-1].degree != 1:
        fields.append(tower_subfield(ambient.base(), ambient))
    return fields


def centralizer_gens(field_sub, ambient):
    return [regular_rep(g) for g in field_sub.generators]


def lie_lattice(pres, fields, chain, base):
    """Sum of per-factor lattices C_level intersect P^index (stabilizer
    factors skipped: they carry no Lie content)."""
    N = chain.N
    cols = []
    for lvl, dep in pres.factors:
        if dep == STAB_MARKER:
            continue
        idx = window_index(dep, pres.e_A)
        sub = intersect_with_centralizer(centralizer_gens(fields[lvl], None),
                                         chain, idx, base)
        cols.extend(sub.cols)
    return MatrixLattice(base, N * N, cols)


# ---------------------------------------------------------------------------
# 6. presentation equality on fuzzed strata
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fuzzed_strata():
    rng = rng_from_seed(60_1)
    out = []
    while len(out) < 200:
        st = (random_depth_zero(rng) if len(out) % 10 == 9
              else random_stratum(rng))
        out.append(st)
    return out


def test_k0_is_the_first_stage_k0(fuzzed_strata):
    for st in fuzzed_strata:
        assert st.kind == "simple"
        assert k0(st.beta, st.order, st.fac) == defining_sequence(st)[0].k0_value


def test_criterion_6_presentations_equal(fuzzed_strata):
    small_checked = 0
    for st in fuzzed_strata:
        yu = secherre_to_yu(st)     # re-checks genericity + presentations
        if st.n == 0:
            continue
        sec = presentation_secherre(st)
        yup = presentation_yu(yu)
        for a, b in zip(sec, yup):
            equal, diff = compare_presentations(a, b)
            assert equal, (a.label, diff)
        # Lie-lattice oracle on every small instance
        if st.order.N > 4:
            continue
        ambient = st.beta.owner
        base = ambient.base()
        chain = chain_from_field(ambient)
        assert chain.period == st.order.e_A
        fields = level_subfields(st)
        for a, b in zip(sec, yup):
            La = lie_lattice(a, fields, chain, base)
            Lb = lie_lattice(b, fields, chain, base)
            assert La.same_as(Lb), (a.label, st.n)
        small_checked += 1
    assert small_checked >= 20


# ---------------------------------------------------------------------------
# 7. round trips
# ---------------------------------------------------------------------------

def test_criterion_7_roundtrips():
    rng = rng_from_seed(70_1)
    depth_zero_seen = 0
    for k in range(200):
        st = random_depth_zero(rng) if k % 10 == 9 else random_stratum(rng)
        if st.n == 0:
            depth_zero_seen += 1
        rep = roundtrip_check(st)
        assert rep.ok, rep.checks
        # genericity of every emitted realizer, by both tests, which agree
        fac = st.fac
        ambient = st.beta.owner
        for i, c in enumerate(fac.chunks):
            big = fac.fields[i]
            if big.degree == 1:
                continue
            small = (fac.fields[i + 1] if i + 1 < len(fac.fields)
                     else tower_subfield(ambient.base(), ambient))
            g_rep = is_generic(c, (big, small))
            assert g_rep.equivalence_holds()
            assert g_rep.ge1 and g_rep.minimal_consensus and g_rep.generates
    assert depth_zero_seen >= 20


# ---------------------------------------------------------------------------
# 8. index identity
# ---------------------------------------------------------------------------

def j1_presentation(stratum):
    """J cap U^1: the level-0 unit factor of J deepened to the principal
    units of the centralizer order."""
    _, j, _ = presentation_secherre(stratum)
    zero = FiltDepth(Fraction(0), False)
    factors = [(l, FiltDepth(Fraction(0), True) if (l, d) == (0, zero) else d)
               for l, d in j.factors]
    return GroupPresentation("J1", j.tower_degrees, j.e_A, j.N, factors)


def pair_index_symbolic(yu, i, degs, e_A, N):
    """(J^i : J^i_plus) exponent as a difference of two index cards."""
    s = Fraction(yu.depths[i - 1], 2)
    top = len(degs) - 1
    deep = FiltDepth(Fraction(10 ** 6), False)

    def card(level):
        num = GroupPresentation("n", degs, e_A, N,
                                [(level, FiltDepth(s, False)), (top, deep)])
        den = GroupPresentation("d", degs, e_A, N,
                                [(level, FiltDepth(s, True)), (top, deep)])
        return index_card(num, den)

    return card(i) - card(i - 1)


def pair_index_oracle(yu, i, fields, chain, base, e_A):
    s = Fraction(yu.depths[i - 1], 2)
    lo = window_index(FiltDepth(s, False), e_A)
    hi = window_index(FiltDepth(s, True), e_A)

    def step(level):
        gens = centralizer_gens(fields[level], None)
        L1 = intersect_with_centralizer(gens, chain, lo, base)
        L2 = intersect_with_centralizer(gens, chain, hi, base)
        return lattice_index(L1, L2)

    return step(i) - step(i - 1)


def test_criterion_8_index_identity(fuzzed_strata):
    checked = 0
    for st in fuzzed_strata:
        if st.n == 0 or st.order.N > 4:
            continue
        yu = secherre_to_yu(st, check=False)
        h1, _, _ = presentation_secherre(st)
        j1 = j1_presentation(st)
        degs, e_A, N = h1.tower_degrees, h1.e_A, h1.N
        lhs_sym = index_card(j1, h1)
        rhs_sym = sum(pair_index_symbolic(yu, i, degs, e_A, N)
                      for i in range(1, yu.d + 1))
        assert lhs_sym == rhs_sym, (lhs_sym, rhs_sym, st.n, degs)

        ambient = st.beta.owner
        base = ambient.base()
        chain = chain_from_field(ambient)
        fields = level_subfields(st)
        L_j1 = lie_lattice(j1, fields, chain, base)
        L_h1 = lie_lattice(h1, fields, chain, base)
        lhs_lat = lattice_index(L_j1, L_h1)
        rhs_lat = sum(pair_index_oracle(yu, i, fields, chain, base, e_A)
                      for i in range(1, yu.d + 1))
        assert lhs_lat == lhs_sym == rhs_lat, (lhs_lat, lhs_sym, rhs_lat)
        checked += 1
    assert checked >= 20


# ---------------------------------------------------------------------------
# 9. trace-character equality criterion
# ---------------------------------------------------------------------------

def random_matrix_above(rng, base, chain_bound, depth_budget=2):
    """A matrix whose (i,k) entry has a few digits at valuations at or
    above the per-entry bound."""
    N = len(chain_bound)
    rows = [[base.zero(INF)] * N for _ in range(N)]
    kF = base.residue
    for i in range(N):
        for k in range(N):
            lo = chain_bound[i][k]
            for v in range(lo, lo + depth_budget):
                a = rng.randrange(kF.q)
                if a:
                    rows[i][k] = rows[i][k] + \
                        base.monomial(v, kF.gen_power(a - 1))
    return Mat(base, rows)


def test_criterion_9_character_equality():
    F = base_field(3)
    ram2 = extend(F, 1, 2, 1)
    chains = [uniform_chain(2, 1), uniform_chain(2, 2),
              chain_from_field(ram2), uniform_chain(4, 2)]
    rng = rng_from_seed(90_1)
    for trial in range(100):
        chain = chains[trial % len(chains)]
        i = trial % 4
        D_neg = chain.filt_bound(-i)
        D_pos = chain.filt_bound(i + 1)
        c = random_matrix_above(rng, F, chain.filt_bound(-i - 2))
        delta = random_matrix_above(rng, F, D_neg)
        if delta.is_zero():
            delta = Mat.monomial_entry(F, chain.N, 0, 0, D_neg[0][0],
                                       F.residue.one)
        c2 = c + delta
        assert v_A_direct(delta, chain) >= -i
        for _ in range(100):
            z = random_matrix_above(rng, F, D_pos, depth_budget=1)
            assert eval_psi_c(c, z) == eval_psi_c(c2, z)
        # now break the congruence and exhibit a disagreement witness
        pos = trial % chain.N
        bad = Mat.monomial_entry(F, chain.N, pos, pos,
                                 D_neg[pos][pos] - 1, F.residue.one)
        c3 = c + bad
        assert v_A_direct(bad, chain) < -i
        w = psi_witness(bad, chain, i + 1)
        assert w is not None
        assert eval_psi_c(c, w) != eval_psi_c(c3, w)


def test_factchar_indices_against_the_oracle():
    """Each chunk's truncation index t_i from ``factchar_indices`` is the
    least depth at which psi_{c_i}(1 + x) = psi(tr(c_i x)) is a character
    of U^{t_i + 1}: the pairing annihilates P^{2 t_i + 2}, and when t_i > 0
    some x, y in P^{t_i} pair to a nonzero value.  The pair splits the
    witness t^w e_ik in P^{2 t_i} into matrix units t^d e_ij and
    t^(w - d) e_jk, d = D[i][j], with D[i][j] + D[j][k] <= w for the bound
    D of P^{t_i}: a j with c_j = c_i - t_i mod the period makes the sum
    the bound of P^{2 t_i} at (i, k), and the field's chain has every
    class.  Fuzzed strata with N <= 4 and n > 0."""
    rng = rng_from_seed(90_2)
    strata = chunks = 0
    while strata < 80:
        st = random_stratum(rng)
        if st.n == 0 or st.order.N > 4:
            continue
        E = st.beta.owner
        F, chain = E.base(), chain_from_field(E)
        strata += 1
        for i, vA, t_i in factchar_indices(st, 0).rows:
            R = regular_rep(st.fac.chunks[i])
            assert v_A_direct(R, chain) == vA
            assert psi_witness(R, chain, 2 * t_i + 2) is None, (vA, t_i)
            chunks += 1
            if t_i == 0:
                continue
            w = psi_witness(R, chain, 2 * t_i)
            assert w is not None, (vA, t_i)
            [(a, b, x)] = [(a, b, x) for a, row in enumerate(w.rows)
                           for b, x in enumerate(row) if x.digits]
            [(v, coeff)] = x.digits.items()
            D = chain.filt_bound(t_i)
            j = next(j for j in range(chain.N) if D[a][j] + D[j][b] <= v)
            pair = (Mat.monomial_entry(F, chain.N, a, j, D[a][j], F.residue.one)
                    @ Mat.monomial_entry(F, chain.N, j, b, v - D[a][j], coeff))
            assert eval_psi_c(R, pair) != 0, (vA, t_i)
    assert chunks >= strata
