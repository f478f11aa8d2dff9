"""Matrix/lattice oracle: regular representation, chains, echelon bases,
centralizer lattices as kernels of the bracket map, and the trace-pairing
character."""

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from strata_kit.errors import DomainError, PrecisionError
from strata_kit.oracle import (ChainRealized, Mat, MatrixLattice, absolute_trace,
                               block_diag, chain_from_field, eval_psi_c,
                               filt_lattice, intersect_with_centralizer,
                               lattice_index, psi_witness, regular_rep,
                               uniform_chain, v_A_direct)
from strata_kit.tower import INF, TameElement, base_field, coerce, extend


def mono(E, v, a=0):
    return E.monomial(v, E.residue.gen_power(a))


def mats_equal(A, B):
    return all(A.rows[i][k].equals(B.rows[i][k])
               for i in range(A.n) for k in range(A.n))


def test_regular_rep_uniformizer_frozen(E_ram2):
    M = regular_rep(E_ram2.uniformizer())
    one = E_ram2.base().residue.one
    assert list(M.rows[0][1].digits) == [1]     # entry t at (0, 1)
    assert list(M.rows[1][0].digits) == [0]     # entry 1 at (1, 0)
    assert not M.rows[0][0].digits and not M.rows[1][1].digits


def test_regular_rep_is_ring_hom(E_ram2, towers):
    """On towers up to the degree-8 one, with one copy and, where N <= 8,
    with two: products, sums and differences go to ``@``, ``+`` and ``-``,
    and the trace of each matrix is the sum of its diagonal entries.  y
    and x * y have two digits, so entries collect several digits."""
    checked = 0
    for E in [E_ram2] + [T for T in towers if 1 < T.degree <= 8]:
        x, y = mono(E, -1, 1), mono(E, 2, 2) + mono(E, 0)
        for copies in (1, 2):
            if E.degree * copies > 8:
                continue
            X, Y, XY = (regular_rep(z, copies) for z in (x, y, x * y))
            assert mats_equal(XY, X @ Y)
            assert mats_equal(regular_rep(x + y, copies), X + Y)
            assert mats_equal(regular_rep(x - y, copies), X - Y)
            for M in (X, Y, XY):
                diagonal = sum((M.rows[i][i] for i in range(M.n)),
                               E.base().zero(INF))
                assert M.trace().equals(diagonal)
            checked += 1
    assert checked == 23


def test_regular_rep_respects_twist():
    F = base_field(5)
    E = extend(F, 1, 4, 2)          # pi^4 * 2 = t
    pi = E.uniformizer()
    M4 = regular_rep(pi ** 4)
    # pi^4 = t / 2 = 3t
    want = regular_rep(coerce(F.monomial(0, F.residue.from_int(3)), E)
                       * E.from_base_t_power(1))
    assert mats_equal(M4, want)


@pytest.mark.xfail(strict=True, reason=(
    "residue.embed is additive only between compatible generators, so the "
    "decomposition over GF(5) of GF(125) digits is not linear"))
def test_regular_reps_of_a_twisted_unramified_cubic_commute():
    """pi and the residue generator commute in E = GF(125)((pi)) over
    GF(5)((t)) with twist (0, 1, 0), so their regular representations must
    too.  They do not, and the index of the centralizer lattices of the
    two at n and n + 1 reads 1 instead of f = 3."""
    from strata_kit.residue import make_field
    E = extend(base_field(5), 3, 1, make_field(5, 3).elem((0, 1, 0)))
    P, Z = regular_rep(E.uniformizer()), regular_rep(E.residue_gen_elem())
    assert mats_equal(P @ Z, Z @ P)


def test_trace_of_field_element(E_ram2):
    # trace of pi over the base is 0; trace of a base scalar is N * scalar
    assert not regular_rep(E_ram2.uniformizer()).trace().digits
    c = coerce(E_ram2.base().monomial(1, E_ram2.base().residue.one), E_ram2)
    tr = regular_rep(c).trace()
    assert tr.digits[1].coords[0] == 2


def test_v_A_matches_field_valuation(E_ram2):
    ch = chain_from_field(E_ram2)
    for v in range(-4, 5):
        x = mono(E_ram2, v, 1)
        assert v_A_direct(regular_rep(x), ch) == v


def _scan_filt_bound(chain, n):
    """filt_bound by scanning one full period of the chain: D(i, k) is the
    max over j of d(j + n, i) - d(j, k), with d(j, i) = ceil((j - c_i) /
    period) the exponent of e_i in the j-th lattice."""
    c, e = chain.profile, chain.period

    def d(j, i):
        return -((c[i] - j) // e)
    return [[max(d(j + n, i) - d(j, k) for j in range(e))
             for k in range(chain.N)] for i in range(chain.N)]


def test_filt_bound_matches_the_period_scan(towers):
    import random
    rng = random.Random(5)
    chains = [chain_from_field(E, copies) for E in towers if E.degree <= 6
              for copies in (1, 2) if E.degree * copies <= 6]
    chains += [uniform_chain(N, e_A) for N in range(1, 7)
               for e_A in range(1, N + 1) if N % e_A == 0]
    for _ in range(1000):
        N, period = rng.randrange(1, 7), rng.randrange(1, 7)
        chains.append(ChainRealized(N, period, [rng.randrange(-period, 2 * period)
                                                for _ in range(N)]))
    for chain in chains:
        for n in range(-2 * chain.period, 2 * chain.period + 1):
            assert chain.filt_bound(n) == _scan_filt_bound(chain, n)


def test_v_A_uniform_chain():
    F = base_field(3)
    ch = uniform_chain(4, 2)
    x = Mat.monomial_entry(F, 4, 0, 3, 0, F.residue.one)
    # e_01-type entry crossing the chain step
    assert v_A_direct(x, ch) in (-1, 0, 1)
    d = Mat.identity(F, 4)
    assert v_A_direct(d, ch) == 0


def test_v_A_direct_raises_when_the_answer_hangs_on_unknown_digits():
    """A matrix with a zero to precision among its entries is refused when
    it is built, whether or not the unknown digits could move v_A; its
    exact completion, and the zero matrix, get v_A's answers."""
    F = base_field(3)
    t, z = mono(F, 1), TameElement(F, {}, INF)
    ch = uniform_chain(2, 1)
    for rows in ([[t, TameElement(F, {}, 0)], [z, t]],
                 [[t, TameElement(F, {}, 1)], [z, t]],
                 [[TameElement(F, {}, 3), z], [z, z]]):
        with pytest.raises(PrecisionError):
            Mat(F, rows)
    assert v_A_direct(Mat(F, [[t, z], [z, t]]), ch) == 1
    with pytest.raises(DomainError) as err:
        v_A_direct(Mat.zero(F, 2), ch)
    assert err.value.clause == "v_A_of_zero"


def _scan_v_A(x, chain):
    """v_A by scanning n: the largest n with every entry that has digits in
    the n-th radical power (entry (i, k) of valuation w is in it when
    w >= filt_bound(n)[i][k])."""
    known = [(i, k, a.val()) for i, row in enumerate(x.rows)
             for k, a in enumerate(row) if a.digits]
    if not known:
        raise DomainError("zero matrix", clause="v_A_of_zero")

    def ok(n):
        D = chain.filt_bound(n)
        return all(v >= D[i][k] for i, k, v in known)

    n = chain.period * (min(v for _, _, v in known) - 1)
    while not ok(n):
        n -= 1
    while ok(n + 1):
        n += 1
    return n


def _exact_mat(F, rows):
    """Mat(F, rows) when every entry is exact; otherwise, after checking
    that Mat refuses rows, the Mat of their exact completion."""
    if _inexact(rows):
        with pytest.raises(PrecisionError):
            Mat(F, rows)
        rows = [[_completed(a) for a in r] for r in rows]
    return Mat(F, rows)


def test_v_A_direct_matches_the_period_scan():
    """Matrices with an inexact entry are refused; exact ones, and the
    exact completions of the refused ones, get the scan's v_A."""
    import random
    rng = random.Random(20)
    F = base_field(3)

    def entry():
        kind = rng.randrange(4)
        if kind == 0:
            return TameElement(F, {}, INF)                  # exact zero
        if kind == 1:
            return TameElement(F, {}, rng.randrange(-4, 7))  # zero to precision
        v = rng.randrange(-4, 7)
        digits = {v: F.residue.gen_power(rng.randrange(2))}
        return TameElement(F, digits, INF if kind == 2 else v + rng.randrange(1, 4))

    outcomes, refused = set(), 0
    for _ in range(1500):
        N, period = rng.randrange(1, 7), rng.randrange(1, 7)
        chain = ChainRealized(N, period, [rng.randrange(-period, 2 * period)
                                          for _ in range(N)])
        rows = [[entry() for _ in range(N)] for _ in range(N)]
        refused += _inexact(rows)
        x = _exact_mat(F, rows)
        try:
            want = _scan_v_A(x, chain)
        except DomainError:
            with pytest.raises(DomainError):
                v_A_direct(x, chain)
            outcomes.add(DomainError)
        else:
            assert v_A_direct(x, chain) == want
            outcomes.add(int)
    assert outcomes == {int, DomainError} and 0 < refused < 1500


def test_filt_lattice_indices():
    F = base_field(3)
    for e_A in (1, 2, 4):
        ch = uniform_chain(4, e_A)
        L0 = filt_lattice(ch, 0, F)
        # one full period scales by t: index q^(N^2) spread over e_A steps
        total = 0
        for j in range(e_A):
            a = filt_lattice(ch, j, F)
            b = filt_lattice(ch, j + 1, F)
            total += lattice_index(a, b)
        assert total == 16
        Le = filt_lattice(ch, e_A, F)
        assert lattice_index(L0, Le) == 16


def test_lattice_periodicity():
    F = base_field(3)
    ch = uniform_chain(2, 2)
    for n in range(0, 4):
        a = filt_lattice(ch, n, F)
        b = filt_lattice(ch, n + 2, F)
        shifted = MatrixLattice(
            F, 4, [{u: x * F.monomial(1, F.residue.one) for u, x in c.items()}
                   for c in a.cols])
        assert b.same_as(shifted)


def test_echelon_form_is_stable():
    F = base_field(3)
    one = F.residue.one
    # two generating sets of the same lattice in F^2
    c1 = [{0: F.monomial(0, one), 1: F.monomial(1, one)},
          {1: F.monomial(2, one)}]
    c2 = [{0: F.monomial(0, one), 1: F.monomial(1, one) + F.monomial(2, one)},
          {1: F.monomial(2, one)},
          {0: F.monomial(2, one), 1: F.monomial(3, one)}]
    L1 = MatrixLattice(F, 2, c1)
    L2 = MatrixLattice(F, 2, c2)
    assert L1.same_as(L2)
    assert [v for _, v in L1.pivots] == [0, 2]


def test_same_as_and_contains_vector_read_entries_not_only_pivots():
    F = base_field(3)
    one, t = F.one(), mono(F, 1)
    A = MatrixLattice(F, 2, [{0: one}, {1: t}])            # span{e0, t e1}
    B = MatrixLattice(F, 2, [{0: one, 1: one}, {1: t}])    # span{e0 + e1, t e1}
    assert A.pivots == B.pivots == [(0, 0), (1, 1)]
    assert not A.same_as(B) and not B.same_as(A)
    assert A.contains_vector({0: one}) and not B.contains_vector({0: one})
    unit = one + t                                      # exact, two digits
    for L in (A, B):
        scaled = MatrixLattice(F, 2, [{u: x * unit for u, x in c.items()}
                                      for c in L.cols])
        assert scaled.same_as(L) and L.same_as(scaled)
        assert all(x.prec is INF for c in scaled.cols for x in c.values())


def test_centralizer_of_a_field_is_the_field(towers):
    # the commutant of E inside End_F(E) is E itself: rank [E:F] at n = 0
    fields = [E for E in towers if 1 < E.degree <= 6]
    assert len(fields) == 10
    for E in fields:
        gens = [regular_rep(g) for g in (E.uniformizer(), E.residue_gen_elem())]
        L = intersect_with_centralizer(gens, chain_from_field(E), 0, E.base())
        assert L.rank() == E.degree


def test_centralizer_of_nothing_is_the_radical_power():
    F = base_field(3)
    for N, e_A in ((3, 1), (3, 3), (4, 2)):
        chain = uniform_chain(N, e_A)
        for n in range(-1, e_A + 2):
            L = intersect_with_centralizer([], chain, n, F)
            assert L.same_as(filt_lattice(chain, n, F))


def test_intersect_with_centralizer_field_filtration(E_ram2):
    F = E_ram2.base()
    ch = chain_from_field(E_ram2)
    gens = [regular_rep(E_ram2.uniformizer())]
    L = [intersect_with_centralizer(gens, ch, n, F) for n in range(4)]
    assert L[0].rank() == 2
    # o_E-filtration steps: index q per step of the field valuation
    for n in range(3):
        assert lattice_index(L[n], L[n + 1]) == 1


def test_psi_duality_scan(E_ram2):
    F = E_ram2.base()
    ch = chain_from_field(E_ram2)
    for v in range(-3, 3):
        d = Mat.monomial_entry(F, 2, 0, 1, v, F.residue.one)
        vA = v_A_direct(d, ch)
        for i in range(-2, 3):
            w = psi_witness(d, ch, i + 1)
            assert (w is None) == (vA >= -i)
            if w is not None:
                assert eval_psi_c(d, w) != 0


def test_eval_psi_c_additive(E_ram2):
    F = E_ram2.base()
    c = regular_rep(mono(E_ram2, -1, 1))
    y1 = Mat.monomial_entry(F, 2, 0, 1, 0, F.residue.one)
    y2 = Mat.monomial_entry(F, 2, 1, 0, 1, F.residue.gen_power(1))
    s = (eval_psi_c(c, y1) + eval_psi_c(c, y2)) % F.p
    assert eval_psi_c(c, y1 + y2) == s


def _dense_psi(c, y):
    """eval_psi_c by the dense pairing: the t^0 digit of trace(c @ y)."""
    z = (c @ y).trace()
    return absolute_trace(z.digits[0]) if 0 in z.digits else 0


def test_eval_psi_c_matches_the_dense_pairing():
    """Matrices with an inexact entry are refused; on exact ones, and the
    exact completions of the refused ones, the pairing is the dense one."""
    import random
    rng = random.Random(16)
    seen = {"refused": 0, "zero": 0, "nonzero": 0}
    for q in (3, 9):
        F = base_field(q)
        z = TameElement(F, {}, INF)

        def entry():
            r = rng.random()
            if r < 0.3:
                return z
            if r < 0.4:
                return TameElement(F, {}, rng.randrange(-1, 6))   # zero to prec
            digits = {v: F.residue.gen_power(rng.randrange(q - 1))
                      for v in rng.sample(range(-3, 3), rng.randrange(1, 3))}
            return TameElement(F, digits, rng.choice((INF, INF, 3, 5)))

        for _ in range(300):
            N = rng.randrange(1, 4)
            rows = [[[entry() for _ in range(N)] for _ in range(N)]
                    for _ in range(2)]
            seen["refused"] += _inexact(rows[0] + rows[1])
            c, y = (_exact_mat(F, r) for r in rows)
            want = _dense_psi(c, y)
            assert eval_psi_c(c, y) == want
            seen["nonzero" if want else "zero"] += 1
    assert min(seen.values()) >= 80, seen


def test_oracle_cap():
    F = base_field(3)
    E8 = extend(extend(F, 2, 1, 1), 1, 4, 1)
    with pytest.raises(DomainError):
        regular_rep(E8.uniformizer(), copies=2)     # 16 > cap


def test_size_mismatches_are_domain_errors():
    F = base_field(3)
    E = extend(F, 1, 2, 1)              # pi^2 = t
    R2, R4 = regular_rep(E.uniformizer()), regular_rep(E.uniformizer(), 2)
    C2, C4 = chain_from_field(E), chain_from_field(E, 2)
    probes = [lambda: v_A_direct(R2, C4), lambda: v_A_direct(R4, C2),
              lambda: intersect_with_centralizer([R4], C2, 0, F),
              lambda: intersect_with_centralizer([R2], C4, 0, F),
              lambda: intersect_with_centralizer([R2, R4], C2, 0, F),
              lambda: psi_witness(R4, C2, -1), lambda: psi_witness(R2, C4, -1)]
    for A, B in ((R2, R4), (R4, R2)):
        probes += [lambda A=A, B=B: A @ B, lambda A=A, B=B: A + B,
                   lambda A=A, B=B: A - B]
    one = F.one()
    wide, tall, ragged = [[one, one]], [[one], [one]], [[one, one], [one]]
    probes += [lambda: Mat(F, ragged),
               lambda: v_A_direct(Mat(F, wide), uniform_chain(1, 1)),
               lambda: eval_psi_c(Mat(F, tall), R2), lambda: R2 @ Mat(F, tall),
               lambda: intersect_with_centralizer([Mat(F, wide)],
                                                  uniform_chain(1, 1), 0, F)]
    L = MatrixLattice(F, 2, [{0: one}])
    L3 = MatrixLattice(F, 3, [{0: one}])
    probes += [lambda: L.same_as(L3), lambda: L3.same_as(L),
               lambda: MatrixLattice.sum(L, L3)]
    for row in (-1, 2):                 # rows of F^2 are 0 and 1
        probes += [lambda row=row: L.contains_vector({row: one}),
                   lambda row=row: MatrixLattice(F, 2, [{0: one}, {row: one}])]
    for probe in probes:
        with pytest.raises(DomainError) as err:
            probe()
        assert err.value.clause == "shape_mismatch"


@pytest.mark.parametrize("probe", [
    lambda: uniform_chain(4, 0),
    lambda: ChainRealized(2, 0, [0, 0]).filt_bound(1),
    lambda: ChainRealized(2, -1, [0, 0]).filt_bound(1),
    lambda: uniform_chain(4, -1),
], ids=["uniform_chain_period_0", "period_0_bound", "period_minus_1_bound",
        "uniform_chain_period_minus_1"])
def test_a_chain_period_below_one_is_refused(probe):
    """A period of 0 ended in ``ZeroDivisionError``, and one of -1 gave
    bounds of -1; both are refused when the chain is built."""
    with pytest.raises(DomainError) as err:
        probe()
    assert err.value.clause == "nonpositive_period"


def test_entries_of_another_field_are_refused():
    """An element of an extension of the base is refused with clause
    ``owner_mismatch``: as a lattice entry (the constructor read pi_E's
    digit as a t-exponent, pivots [(0, 1), (1, 0)]), as a vector or as the
    columns of another lattice, as a ``Mat`` entry (``v_A_direct`` of
    diag(pi_E, 1) read 0), and as a generator of
    ``intersect_with_centralizer`` over another base, which returned
    pivots.  ``same_as`` and ``lattice_index`` refuse two lattices over
    different bases also when their pivots differ: the index read 1; so
    does ``MatrixLattice.sum``.  ``Mat`` ``+``, ``-``, ``@``,
    ``block_diag`` and ``eval_psi_c`` refuse a matrix over another base:
    over E = GF(3)((pi)) the digits are logs in the same residue field, and
    ``eval_psi_c`` paired a GF(3)((t)) matrix with a GF(5)((t)) one to 0."""
    F = base_field(3)
    E = extend(F, 1, 2, 1)              # pi^2 = t
    pi, zF, zE = E.uniformizer(), TameElement(F, {}, INF), TameElement(E, {}, INF)
    L = MatrixLattice(F, 2, [{0: F.one()}])
    L_E = MatrixLattice(E, 2, [{0: pi}])
    over_E = Mat(E, [[E.one(), zE], [zE, E.one()]])
    probes = [lambda: MatrixLattice(F, 2, [{0: pi}, {1: F.one()}]),
              lambda: L.contains_vector({0: E.one()}),
              lambda: MatrixLattice(E, 2, [{0: E.one()}]).same_as(L),
              lambda: L_E.same_as(L),
              lambda: L.same_as(L_E),
              lambda: lattice_index(L, L_E),
              lambda: MatrixLattice.sum(L, L_E),
              lambda: v_A_direct(Mat(F, [[pi, zF], [zF, F.one()]]),
                                 uniform_chain(2, 1)),
              lambda: Mat(F, over_E.rows),
              lambda: intersect_with_centralizer([over_E], uniform_chain(2, 1),
                                                 0, F)]
    I_F = Mat.identity(F, 2)
    for A, B in ((I_F, over_E), (over_E, I_F)):
        probes += [lambda A=A, B=B: A + B, lambda A=A, B=B: A - B,
                   lambda A=A, B=B: A @ B, lambda A=A, B=B: eval_psi_c(A, B)]
    F5 = base_field(5)
    t5 = Mat.monomial_entry(F5, 2, 0, 0, 1, F5.residue.one)
    probes += [lambda: block_diag(F, [I_F, over_E]),
               lambda: eval_psi_c(I_F, t5), lambda: eval_psi_c(t5, I_F)]
    for probe in probes:
        with pytest.raises(DomainError) as err:
            probe()
        assert err.value.clause == "owner_mismatch"


def test_one_echelon_pass_per_lattice(monkeypatch):
    """The constructor reduces its columns once, ``filt_lattice`` not at
    all, and a centralizer lattice once, over the bracket rows and the
    rows below them; each membership question is one more pass."""
    from strata_kit import oracle
    calls = []
    echelon = oracle._echelon

    def counted(*args):
        calls.append(args[1])
        return echelon(*args)

    monkeypatch.setattr(oracle, "_echelon", counted)
    F = base_field(3)
    chain = uniform_chain(2, 2)
    P = filt_lattice(chain, 1, F)
    assert calls == []
    L = MatrixLattice(F, 2, [{0: F.one()}, {1: mono(F, 1)}])
    assert calls == [2]
    E = extend(F, 1, 2, 1)
    intersect_with_centralizer([regular_rep(E.uniformizer())] * 2,
                               chain_from_field(E), 0, F)
    assert calls[1:] == [12]            # 2 * 4 bracket rows, then 4 rows
    calls.clear()
    assert L.contains_vector({1: mono(F, 2)}) and not L.contains_vector({1: F.one()})
    assert P.contains_vector({0: mono(F, 1)})
    assert calls == [2, 2, 4]


def test_shifts_are_counted_per_bound_value_not_per_column(monkeypatch):
    """On the bench tower GF(3) -> e=2 -> f=3 (N = 6), over centralizer
    calls on the same generators at every n over two periods, up and then
    down, the assembly shifts the digit-log map of each stored generator
    entry, counted once by row and once by column, at most once per value
    d of the bound D in total, since each ``Mat`` keeps its shifted maps;
    the first call shifts at least once, so the count is not vacuous, and
    every shift of a call comes before its echelon pass.
    ``filt_lattice``, which makes no echelon pass, shifts nothing."""
    from collections import Counter
    from strata_kit import oracle
    shifts, at_echelon = Counter(), []
    shift, echelon = oracle._shift_logs, oracle._echelon

    def counted_shift(x, k):
        shifts[k] += 1
        return shift(x, k)

    def marked_echelon(*args):
        at_echelon.append(sum(shifts.values()))
        return echelon(*args)

    monkeypatch.setattr(oracle, "_shift_logs", counted_shift)
    monkeypatch.setattr(oracle, "_echelon", marked_echelon)
    E = extend(extend(base_field(3), 1, 2, 1), 3, 1, 1)
    F, chain = E.base(), chain_from_field(E)
    gens = [regular_rep(g) for g in (E.uniformizer(), E.residue_gen_elem())]
    stored = 2 * sum(bool(x.digits) for G in gens for row in G.rows for x in row)
    assert chain.N == 6 and stored > 0
    ns = list(range(2 * chain.period + 1))
    totals = []
    for n in ns + ns[::-1]:
        at_echelon.clear()
        intersect_with_centralizer(gens, chain, n, F)
        totals.append(sum(shifts.values()))
        assert at_echelon == totals[-1:]
        filt_lattice(chain, n, F)
        assert sum(shifts.values()) == totals[-1]
    values = {d for n in ns for row in chain.filt_bound(n) for d in row}
    assert totals[0] > 0
    assert set(shifts) <= values and all(c <= stored for c in shifts.values())
    assert totals[-1] <= len(values) * stored


def test_lattice_columns_are_copied_without_exact_zeros():
    """The constructor and contains_vector reduce copies of the caller's
    dicts, and contains_vector copies of the basis; exact zeros given in
    them are not stored, an entry that cancels is dropped, and an inexact
    entry, a zero to precision or not, raises before any dict changes."""
    F = base_field(3)
    one, t = F.one(), mono(F, 1)
    z, lost = TameElement(F, {}, INF), TameElement(F, {}, 5)
    cols = [{0: one, 1: t, 2: z}, {0: one, 1: one, 2: t}]
    given = [dict(c) for c in cols]
    L = MatrixLattice(F, 3, cols)
    assert [list(c.items()) for c in cols] == [list(c.items()) for c in given]
    assert L.pivots == [(0, 0), (1, 0)]
    assert all(x.digits and x.prec is INF for c in L.cols for x in c.values())
    assert 2 not in L.cols[0] and 0 not in L.cols[1]
    assert _entries([[L.cols[1][2]]]) == _entries([[cols[1][2]]])
    inexact_one = TameElement(F, {0: F.residue.one}, 3)
    for bad in ([{0: one, 2: lost}], [{0: one}, {1: inexact_one}]):
        kept = [list(c.items()) for c in bad]
        with pytest.raises(PrecisionError):
            MatrixLattice(F, 3, bad)
        assert [list(c.items()) for c in bad] == kept
    basis = [list(c.items()) for c in L.cols]
    for vec in ({0: one, 1: t, 2: z}, {0: t, 1: one, 2: lost}, {1: t, 2: t}):
        given = list(vec.items())
        if vec[2] is lost:
            with pytest.raises(PrecisionError):
                L.contains_vector(vec)
        else:
            L.contains_vector(vec)
        assert list(vec.items()) == given
        assert [list(c.items()) for c in L.cols] == basis


def test_decomposer_lives_on_its_field():
    import gc

    from strata_kit import residue
    from strata_kit.tower import TameField

    def live_fields():
        gc.collect()
        return sum(isinstance(o, TameField) for o in gc.get_objects())

    before = live_fields()
    for k in range(12):
        q, f = ((3, 2), (5, 3), (3, 3))[k % 3]
        E = extend(base_field(q), f, 1, 1)
        kE, kF = E.residue, E.base().residue
        # one table per pair of residue fields, whatever tower asks for it
        dec = residue._decomposition(kE, kF)
        assert residue._decomposition(kE, kF) is dec and len(dec) == kE.q
        # the regular representation of 1 is the identity on this field
        assert mats_equal(regular_rep(E.one()), Mat.identity(E.base(), E.degree))
        del E, dec
    # the tables are keyed by residue fields alone, so they keep no tower
    assert live_fields() <= before


@pytest.mark.parametrize("fob", range(1, 7))
def test_decomposition_sums_back_to_its_key(fob):
    from strata_kit import residue

    for q in (2, 4):
        if q ** fob > 2 ** 12:
            continue
        E = extend(base_field(q), fob, 1, 1)
        kE, kF = E.residue, E.base().residue
        for u in kE.elements():
            cs = residue.decompose(u, kF)
            assert len(cs) == fob and all(c.owner is kF for c in cs)
            v = kE.zero
            for a, c in enumerate(cs):
                v = v + residue.embed(c, kE) * kE.gen_power(a)
            assert v == u
        if fob > 1:
            assert len(residue._decomposition(kE, kF)) == kE.q


def test_every_oracle_domain_error_names_a_clause():
    """In oracle.py, in tower.py, whose arithmetic the oracle runs on, and in
    every other module of the package."""
    import ast
    from pathlib import Path

    import strata_kit
    paths = sorted(Path(strata_kit.__file__).parent.glob("*.py"))
    assert {"oracle.py", "tower.py", "strata.py"} <= {p.name for p in paths}
    missing = []
    for path in paths:
        tree = ast.parse(path.read_text())
        missing += [(path.name, node.lineno) for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "DomainError"
                    and not any(k.arg == "clause" for k in node.keywords)]
    assert missing == []


# -- exact zeros: the sparse row operations against the dense loops ---------

def _dense_hermite(base, dim, cols):
    """Pivots and pivot columns of the column Hermite form by the dense
    loops: pivots normalized to monic powers of t by pivot-unit inverses,
    entries above them reduced, and every row operation over all dim
    entries.  The reference for MatrixLattice's pivots and lattice."""
    one = base.residue.one
    cols = [list(c) for c in cols if any(x.digits for x in c)]
    pivots, done = [], []
    for row in range(dim):
        cands = [(c[row].val(), i) for i, c in enumerate(cols)
                 if c[row].digits and all(c is not d for d in done)]
        if not cands:
            continue
        v, i = min(cands)
        col = cols[i]
        inv = (col[row] * base.monomial(-v, one)).inverse()
        col[:] = [x * inv for x in col]
        for c2 in cols:
            e2 = c2[row]
            if any(c2 is d for d in done):
                e2 = TameElement(base, {w: a for w, a in e2.digits.items()
                                        if w >= v}, e2.prec)
            if c2 is not col and e2.digits:
                q = e2 * base.monomial(-v, one)
                c2[:] = [x - y * q for x, y in zip(c2, col)]
        pivots.append((row, v))
        done.append(col)
    return pivots, done


def _dense_commutant(gens, N, base):
    """An F-basis of the commutant of gens, as flattened vectors, by
    Gauss-Jordan elimination on the bracket equations over F."""
    dim, z = N * N, TameElement(base, {}, INF)
    rows = []
    for G in gens:
        for i in range(N):
            for k in range(N):
                row = [z] * dim
                for j in range(N):
                    row[i * N + j] = row[i * N + j] + G.rows[j][k]
                    row[j * N + k] = row[j * N + k] - G.rows[i][j]
                rows.append(row)
    piv, red = {}, []
    for r in rows:
        for col, idx in piv.items():
            if r[col].digits:
                r = [x - r[col] * y for x, y in zip(r, red[idx])]
        nz = [(x.val(), u) for u, x in enumerate(r) if x.digits]
        if not nz:
            continue
        j = min(nz)[1]
        inv = r[j].inverse()
        r = [x * inv for x in r]
        red = [[x - p[j] * y for x, y in zip(p, r)] if p[j].digits else p
               for p in red]
        piv[j] = len(red)
        red.append(r)
    return [[-red[piv[u]][free] if u in piv else base.one() if u == free else z
             for u in range(dim)] for free in range(dim) if free not in piv]


def _entries(vecs):
    return [[(sorted((v, a.coords) for v, a in x.digits.items()), x.prec)
             for x in vec] for vec in vecs]


def _least_prec(cols):
    return min((x.prec for c in cols for x in c.values()), default=INF)


def _dense(base, dim, col):
    """The sparse column col as a dense list of dim entries."""
    zero = TameElement(base, {}, INF)
    return [col.get(u, zero) for u in range(dim)]


def _check_lattice(L, pivots, want):
    """L against a dense reference basis ``want`` with pivots ``pivots``:
    equal pivots, and L inside the reference lattice by the dense loops
    alone (L's columns added to the reference leave its pivots, hence its
    index, unchanged), which together make the two lattices equal;
    ``same_as`` in both orders when the reference is exact (its pivot-unit
    inverses may not be, and lattices take exact entries only); and no
    entry of L less precise than the least precise entry of the
    reference."""
    assert L.pivots == pivots
    dense = [_dense(L.base, L.dim, c) for c in L.cols]
    assert _dense_hermite(L.base, L.dim, want + dense)[0] == pivots
    sparse = [dict(enumerate(c)) for c in want]
    if _least_prec(sparse) is INF:
        W = MatrixLattice(L.base, L.dim, sparse)
        assert L.same_as(W) and W.same_as(L)
    assert _least_prec(L.cols) >= _least_prec(sparse)


def _completed_reps(F):
    """Pairs (regular_rep(x'), regular_rep(pi)) over F, x' the exact
    completion of an inexact x, whose regular representation would hold
    zeros to precision: each x is checked to be refused."""
    out = []
    for E in (extend(F, 1, 2, 1), extend(F, 2, 1, 1), extend(F, 1, 4, 1)):
        for prec in (2, 5):
            x = TameElement(E, {-1: E.residue.one, 0: E.residue.gen_power(1)}, prec)
            with pytest.raises(PrecisionError):
                regular_rep(x)
            out.append((regular_rep(_completed(x)), regular_rep(E.uniformizer())))
    return out


def _inexact(vecs):
    """Whether some entry of the rows or sparse columns ``vecs`` is
    inexact."""
    return any(x.prec is not INF
               for v in vecs for x in (v.values() if isinstance(v, dict) else v))


def _completed(x):
    """The exact completion of an entry: its known digits, with every
    unknown digit taken to be 0."""
    return x if x.prec is INF else TameElement(x.owner, x.digits, INF)


def test_sparse_hermite_form_matches_dense_loops():
    """Columns with an inexact entry are refused; exact columns, and the
    exact completions of the refused ones, give the dense loops' pivots
    and lattice."""
    import random
    F = base_field(3)
    z, lost = TameElement(F, {}, INF), TameElement(F, {}, 5)
    rng = random.Random(11)
    cases = [R.rows for R, _ in _completed_reps(F)]
    for _ in range(40):
        dim = rng.randrange(2, 5)
        cases.append([[rng.choice([z, z, lost, mono(F, rng.randrange(-1, 3), 1),
                                   TameElement(F, {0: F.residue.one,
                                                   2: F.residue.one}, 6)])
                       for _ in range(dim)] for _ in range(rng.randrange(1, 5))])
    refused = 0
    for cols in cases:
        if _inexact(cols):
            with pytest.raises(PrecisionError):
                MatrixLattice(F, len(cols[0]), [dict(enumerate(c)) for c in cols])
            refused += 1
            cols = [[_completed(x) for x in c] for c in cols]
        L = MatrixLattice(F, len(cols[0]), [dict(enumerate(c)) for c in cols])
        _check_lattice(L, *_dense_hermite(F, len(cols[0]), cols))
    assert 0 < refused < len(cases)


def test_sparse_product_matches_dense_loops():
    F = base_field(3)
    z = TameElement(F, {}, INF)
    for R, P in _completed_reps(F):
        for A, B in ((R, P), (P, R), (R, R)):
            want = [[sum((A.rows[i][j] * B.rows[j][k] for j in range(A.n)), z)
                     for k in range(A.n)] for i in range(A.n)]
            assert _entries((A @ B).rows) == _entries(want)


def _dense_fq_kernel(cols, k):
    """A nonzero GF(q)-vector lam with sum lam_i * cols[i] = 0, or None: the
    first free column of the reduced row echelon form of the matrix with
    columns ``cols``, by the dense loops."""
    r = len(cols)
    piv, red = {}, []
    for row in ([c[u] for c in cols] for u in range(len(cols[0]) if cols else 0)):
        for j, idx in piv.items():
            row = [a - row[j] * b for a, b in zip(row, red[idx])]
        j = next((i for i, a in enumerate(row) if not a.is_zero()), None)
        if j is None:
            continue
        inv = row[j].inverse()
        row = [a * inv for a in row]
        red = [[a - p[j] * b for a, b in zip(p, row)] for p in red]
        piv[j] = len(red)
        red.append(row)
    free = next((i for i in range(r) if i not in piv), None)
    if free is None:
        return None
    return [-red[piv[i]][free] if i in piv else k.one if i == free else k.zero
            for i in range(r)]


def _dense_centralizer(basis, chain, n, base):
    """Pivots and pivot columns of C intersect P^n by the earlier algorithm
    and the dense loops: scale a commutant basis into the unit lattice, then
    saturate (while the reductions mod t are dependent, divide a dependent
    combination by t).  Every scaling is a product by a monic monomial t^k,
    over all dim entries."""
    N, kF = chain.N, base.residue
    dim, z = N * N, TameElement(base, {}, INF)
    D = [d for row in chain.filt_bound(n) for d in row]

    def scale(vec, ks):
        return [x * base.monomial(k, kF.one) for x, k in zip(vec, ks)]

    def min_val(vec):
        return min(x.val() for x in vec if x.digits)

    cols = []
    for vec in basis:
        vec = scale(vec, [-d for d in D])
        cols.append(scale(vec, [-min_val(vec)] * dim))
    while True:
        lam = _dense_fq_kernel([[c[u].digits.get(0, kF.zero) for u in range(dim)]
                                for c in cols], kF)
        if lam is None:
            break
        comb = [z] * dim
        for l, c in zip(lam, cols):
            comb = [a + x * TameElement(base, {0: l}, INF) for a, x in zip(comb, c)]
        comb = scale(comb, [-1] * dim)
        last = max(i for i, l in enumerate(lam) if not l.is_zero())
        cols[last] = scale(comb, [-min_val(comb)] * dim)
    return _dense_hermite(base, dim, [scale(c, D) for c in cols])


def _check_field_centralizer(E, copies):
    """The centralizer lattices of E's generators at n over one period
    against the dense loops; returns the number of n checked."""
    F = E.base()
    gens = [regular_rep(g, copies)
            for g in (E.uniformizer(), E.residue_gen_elem())]
    chain = chain_from_field(E, copies)
    basis = _dense_commutant(gens, chain.N, F)
    for n in range(chain.period):
        L = intersect_with_centralizer(gens, chain, n, F)
        pivots, want = _dense_centralizer(basis, chain, n, F)
        _check_lattice(L, pivots, want)
        assert all(x.prec is INF for c in L.cols for x in c.values())
    return chain.period


def test_centralizer_intersection_matches_dense_loops():
    menu = ((3, 1, 2, 1), (3, 2, 1, 1), (3, 3, 1, 1), (5, 1, 2, 1),
            (5, 1, 3, 2), (5, 1, 4, 2), (9, 1, 2, 1), (9, 2, 1, 1))
    checked = 0
    for q, f, e, twist in menu:
        E = extend(base_field(q), f, e, twist)
        for copies in (1, 2):
            if E.degree * copies > 6:
                continue
            checked += _check_field_centralizer(E, copies)
    assert checked == 28


def test_centralizer_intersection_matches_dense_loops_on_the_bench_menu():
    """Three copies and two-level towers, as in the oracle benchmark."""
    menu = ((3, ((1, 2, 1),), 3), (3, ((2, 1, 1),), 3),
            (3, ((2, 1, 1), (1, 2, 1)), 1), (3, ((1, 2, 1), (3, 1, 1)), 1),
            (5, ((2, 3, 1),), 1))
    checked = 0
    for q, levels, copies in menu:
        checked += _check_field_centralizer(_menu_tower(q, levels), copies)
    assert checked == 10


def test_scalar_generators_cancel_to_the_radical_power():
    """Every bracket entry of a scalar c * I cancels during assembly, so its
    centralizer lattice is the whole radical power."""
    F = base_field(3)
    E = extend(F, 1, 2, 1)
    z = TameElement(F, {}, INF)
    for c in (F.one() + mono(F, 1, 1), mono(F, -2, 1)):    # a unit, a monomial
        for chain in (uniform_chain(4, 2), uniform_chain(3, 1),
                      chain_from_field(E), chain_from_field(E, 2)):
            N = chain.N
            scalar = Mat(F, [[c if i == k else z for k in range(N)]
                             for i in range(N)])
            for n in range(-1, chain.period + 1):
                L = intersect_with_centralizer([scalar], chain, n, F)
                assert L.same_as(filt_lattice(chain, n, F))


def test_centralizer_of_random_exact_generators_matches_dense_loops():
    """Random generators test the pivot rule: a kernel pass that pivots on
    the largest valuation still agrees with the reference on regular
    representations, but not on these."""
    import random
    F = base_field(3)
    z = TameElement(F, {}, INF)
    rng = random.Random(15)
    for _ in range(200):
        N = rng.choice((2, 3))
        chain = uniform_chain(N, rng.choice((1, N)))
        gens = [Mat(F, [[mono(F, rng.randrange(-2, 3), rng.randrange(2))
                         if rng.random() < 0.5 else z for _ in range(N)]
                        for _ in range(N)]) for _ in range(rng.randrange(1, 3))]
        n = rng.randrange(-1, chain.period + 1)
        L = intersect_with_centralizer(gens, chain, n, F)
        _check_lattice(L, *_dense_centralizer(_dense_commutant(gens, N, F),
                                              chain, n, F))
        assert all(x.prec is INF for c in L.cols for x in c.values())


def test_centralizer_of_inexact_generators_raises():
    """Inexact field elements are refused by regular_rep; the regular
    representations of their exact completions, with multi-digit entries,
    give the dense loops' lattice."""
    F = base_field(3)
    for R, P in _completed_reps(F):
        for gens in ([R], [R, P]):
            basis = _dense_commutant(gens, R.n, F)
            for chain in (uniform_chain(R.n, 1), uniform_chain(R.n, R.n)):
                for n in range(-1, chain.period + 1):
                    L = intersect_with_centralizer(gens, chain, n, F)
                    _check_lattice(L, *_dense_centralizer(basis, chain, n, F))


def _dense_kernel(gens, chain, n, base):
    """Pivots and pivot columns of intersect_with_centralizer by the same
    kernel pass over dense columns: every bracket entry and every row
    operation runs over all top + dim entries, exact zeros included, and
    every shift is a product by an exact monomial."""
    N, one = chain.N, base.residue.one
    dim, z = N * N, TameElement(base, {}, INF)
    top = len(gens) * dim
    cols = []
    for u, d in enumerate(d for row in chain.filt_bound(n) for d in row):
        i, j = divmod(u, N)
        t_d = base.monomial(d, one)
        col = [z] * (top + dim)
        for off, G in zip(range(0, top, dim), gens):
            for k in range(N):
                col[off + i * N + k] = col[off + i * N + k] + G.rows[j][k] * t_d
                col[off + k * N + j] = col[off + k * N + j] - G.rows[k][i] * t_d
        col[top + u] = t_d
        cols.append(col)
    for r in range(top):
        live = [c for c in cols if c[r].digits]
        if not live:
            continue
        col = min(live, key=lambda c: c[r].val())
        v = col[r].val()
        inv = (col[r] * base.monomial(-v, one)).inverse()
        for c2 in live:
            if c2 is not col:
                q = c2[r] * base.monomial(-v, one) * inv
                c2[:] = [x - y * q for x, y in zip(c2, col)]
        cols = [c for c in cols if c is not col]
    return _dense_hermite(base, dim, [c[top:] for c in cols])


def test_sparse_kernel_pass_matches_dense_loops():
    """Generators with an inexact entry, a zero to precision or not, are
    refused when they are built; exact generators, and the exact
    completions of the refused ones, give the lattice of the dense kernel
    pass."""
    import random
    F = base_field(3)
    z, one = TameElement(F, {}, INF), F.residue.one
    rng = random.Random(16)
    cases = [([G.rows for G in gens], chain, n) for R, P in _completed_reps(F)
             for gens in ([R], [R, P])
             for chain in (uniform_chain(R.n, 1), uniform_chain(R.n, R.n))
             for n in range(-1, chain.period + 1)]
    for _ in range(60):
        N = rng.choice((2, 3))
        chain = uniform_chain(N, rng.choice((1, N)))
        entries = [z, z, TameElement(F, {}, rng.randrange(0, 4)),
                   mono(F, rng.randrange(-1, 2), 1),
                   TameElement(F, {0: one, 1: one}, rng.choice((3, 5)))]
        gens = [[[rng.choice(entries) for _ in range(N)] for _ in range(N)]
                for _ in range(rng.randrange(1, 3))]
        cases.append((gens, chain, rng.randrange(-1, chain.period + 1)))
    refused = 0
    for gens, chain, n in cases:
        refused += _inexact(r for G in gens for r in G)
        gens = [_exact_mat(F, G) for G in gens]
        L = intersect_with_centralizer(gens, chain, n, F)
        _check_lattice(L, *_dense_kernel(gens, chain, n, F))
    assert 0 < refused < len(cases)


# -- shifts: products by monic powers of t -----------------------------------

def test_log_shift_is_the_monomial_product():
    """On the digit-log maps of exact nonzero entries, the only ones the
    oracle stores, the shift by k is the product with t^k, and it leaves
    the map it is given as it is."""
    from strata_kit.oracle import _shift_logs
    for q in (3, 5, 9):
        F = base_field(q)
        one, g = F.residue.one, F.residue.gen_power(1)
        for x in (TameElement(F, {-1: one, 0: g, 2: one}, INF),
                  TameElement(F, {-2: g, 1: one}, INF), F.one()):
            logs = _digit_logs({0: x})[0]
            given = dict(logs)
            for k in range(-3, 4):
                got = _shift_logs(logs, k)
                assert got == _digit_logs({0: x * F.monomial(k, one)})[0]
                assert logs == given


def _digit_logs(col):
    """A column of exact nonzero elements as digit-log maps, the form the
    elimination pass takes."""
    return {u: {v: a.log for v, a in x.digits.items()} for u, x in col.items()}


def test_clear_skips_only_an_exact_unit_one():
    """c2 <- unit * c2 - col * q entry by entry, on digit-log maps, is the
    element arithmetic; a unit 1 leaves the rows col does not store as they
    are, any other unit scales them, and an entry that cancels is
    dropped."""
    from strata_kit.oracle import _clear
    F = base_field(3)
    one, g = F.residue.one, F.residue.gen_power(1)
    col = {0: F.one(), 1: TameElement(F, {2: g}, INF)}
    start = {0: TameElement(F, {0: g}, INF), 2: TameElement(F, {1: g}, INF)}
    q = start[0]
    for unit in (F.one(), TameElement(F, {0: g}, INF),
                 TameElement(F, {0: one, 2: g}, INF)):
        c2 = _digit_logs(start)
        kept = c2[2]
        _clear(c2, _digit_logs(col), _digit_logs({0: unit})[0],
               _digit_logs({0: q})[0], F.residue, (-F.residue.one).log)
        zero = F.zero(INF)
        want = {u: unit * start.get(u, zero) - col.get(u, zero) * q for u in range(3)}
        assert c2 == _digit_logs({u: x for u, x in want.items() if x.digits})
        assert (0 in c2) == bool(want[0].digits)
        assert (c2[2] is kept) == (unit.digits == {0: one})


# -- one echelon pass: the earlier algorithms as references ------------------

#: the oracle benchmark's tower menu: (base q, levels (f, e, twist), copies)
BENCH_MENU = (
    (3, ((1, 2, 1),), 1), (3, ((1, 2, 1),), 2), (3, ((1, 2, 1),), 3),
    (3, ((2, 1, 1),), 1), (3, ((2, 1, 1),), 2), (3, ((2, 1, 1),), 3),
    (3, ((3, 1, 1),), 1), (3, ((3, 1, 1),), 2),
    (3, ((2, 1, 1), (1, 2, 1)), 1), (3, ((1, 2, 1), (3, 1, 1)), 1),
    (5, ((1, 2, 1),), 1), (5, ((1, 3, 2),), 1), (5, ((1, 3, 2),), 2),
    (5, ((1, 4, 2),), 1), (5, ((2, 3, 1),), 1),
    (9, ((1, 2, 1),), 1), (9, ((1, 2, 1),), 2),
)


def _menu_tower(q, levels):
    E = base_field(q)
    for f, e, twist in levels:
        E = extend(E, f, e, twist)
    return E


def _ref_contains(L, vec):
    """The earlier ``contains_vector``: clear vec's pivot rows in order by the
    pivot columns, c <- unit * c - t^-v * e * col for the pivot entry
    t^v * unit, and answer False at an entry below its pivot exponent, else
    whether no digit is left.  Every shift is a product by a monomial."""
    F = L.base
    z, one = TameElement(F, {}, INF), F.residue.one
    rem = {u: x for u, x in vec.items() if x.digits or x.prec is not INF}
    for (r, v), col in zip(L.pivots, L.cols):
        e = rem.get(r, z)
        if not e.digits:
            continue
        if e.val() < v:
            return False
        t_v = F.monomial(-v, one)
        unit, q = col[r] * t_v, e * t_v
        rem = {u: rem.get(u, z) * unit - col.get(u, z) * q
               for u in set(rem) | set(col)}
    return all(not x.digits for x in rem.values())


def _ref_same_as(A, B):
    """The earlier ``same_as``: equal pivots and every column of A in B."""
    return A.pivots == B.pivots and all(_ref_contains(B, c) for c in A.cols)


def _pool(F):
    one, g = F.residue.one, F.residue.gen_power(1)
    z = TameElement(F, {}, INF)
    return [z, z, z, TameElement(F, {}, 0), TameElement(F, {}, 2),
            F.monomial(-1, one), F.one(), F.monomial(1, g), F.monomial(2, one),
            TameElement(F, {0: one, 2: one}, INF),
            TameElement(F, {0: one, 1: g}, 3), TameElement(F, {-1: g}, 1)]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_membership_pass_matches_the_update_loop(data):
    """A lattice or vector with an inexact entry, a zero to precision
    included, raises ``PrecisionError``; on every drawn lattice and vector,
    or its exact completion when it was refused, ``contains_vector`` and
    ``same_as`` give the earlier loop's answers.  The vectors and the second
    lattice are often combinations of the first lattice's generators, so
    both answers occur."""
    F = base_field(3)
    pool = _pool(F)
    z = pool[0]
    dim = data.draw(st.integers(1, 4))
    entry = st.sampled_from(pool)
    column = st.fixed_dictionaries({u: entry for u in range(dim)})
    gens = data.draw(st.lists(column, min_size=1, max_size=4))
    scalars = st.sampled_from([z, F.one(), F.monomial(1, F.residue.one),
                               TameElement(F, {0: F.residue.gen_power(1)}, 4)])

    def combination():
        cs = data.draw(st.lists(scalars, min_size=len(gens), max_size=len(gens)))
        vec = {u: sum((c * g.get(u, z) for c, g in zip(cs, gens)), z)
               for u in range(dim)}
        if data.draw(st.booleans()):
            vec[data.draw(st.integers(0, dim - 1))] = data.draw(entry)
        return vec

    def completed(cols):
        return [{u: _completed(x) for u, x in c.items()} for c in cols]

    def lattice(cols):
        if _inexact(cols):
            with pytest.raises(PrecisionError):
                MatrixLattice(F, dim, cols)
        return MatrixLattice(F, dim, completed(cols))

    L = lattice(gens)
    vecs = [data.draw(column), combination(), combination()]
    others = [lattice(data.draw(st.lists(column, min_size=1, max_size=4))),
              lattice(gens + [combination()]),
              lattice([combination() for _ in gens])]
    for vec in vecs:
        if _inexact([vec]):
            with pytest.raises(PrecisionError):
                L.contains_vector(vec)
        [vec] = completed([vec])
        assert L.contains_vector(vec) == _ref_contains(L, vec)
    for M in others:
        assert M.same_as(L) == _ref_same_as(M, L)
        assert L.same_as(M) == _ref_same_as(L, M)


def _two_pass_centralizer(gens, chain, n, base):
    """The earlier ``intersect_with_centralizer``: the bracket columns, built
    by products with monomials, one element-arithmetic pass over the
    bracket rows only, and a second pass, the constructor's, over the lower
    parts of the columns left."""
    N, one = chain.N, base.residue.one
    dim, z = N * N, TameElement(base, {}, INF)
    top = len(gens) * dim
    cols = []
    for u, d in enumerate(d for row in chain.filt_bound(n) for d in row):
        i, j = divmod(u, N)
        t_d = base.monomial(d, one)
        col = {top + u: t_d}
        for off, G in zip(range(0, top, dim), gens):
            for k in range(N):
                col[off + i * N + k] = col.get(off + i * N + k, z) + G.rows[j][k] * t_d
                col[off + k * N + j] = col.get(off + k * N + j, z) - G.rows[k][i] * t_d
        cols.append({r: x for r, x in col.items() if x.digits})
    _row_scan_echelon(cols, top)
    return MatrixLattice(base, dim, [{u - top: x for u, x in c.items() if u >= top}
                                     for c in cols])


def _same_basis(L, M):
    """Equal pivots and equal columns, entry by entry, with equal rows
    stored."""
    assert L.pivots == M.pivots
    assert [sorted(c) for c in L.cols] == [sorted(c) for c in M.cols]
    assert ([_entries([[c[u] for u in sorted(c)]]) for c in L.cols]
            == [_entries([[c[u] for u in sorted(c)]]) for c in M.cols])


def test_one_pass_centralizer_matches_the_two_pass_kernel_on_the_bench_menu():
    checked = 0
    for q, levels, copies in BENCH_MENU:
        E = _menu_tower(q, levels)
        F, chain = E.base(), chain_from_field(E, copies)
        gens = [regular_rep(g, copies)
                for g in (E.uniformizer(), E.residue_gen_elem())]
        for n in range(2 * chain.period + 1):
            _same_basis(intersect_with_centralizer(gens, chain, n, F),
                        _two_pass_centralizer(gens, chain, n, F))
            checked += 1
    assert checked == 85


def test_one_pass_centralizer_matches_the_two_pass_kernel_on_inexact_generators():
    """Inexact field elements are refused by regular_rep; the regular
    representations of their exact completions, with multi-digit entries,
    give the two-pass kernel's basis."""
    F = base_field(3)
    for R, P in _completed_reps(F):
        for gens in ([R], [R, P]):
            for chain in (uniform_chain(R.n, 1), uniform_chain(R.n, R.n)):
                for n in range(-1, chain.period + 1):
                    _same_basis(intersect_with_centralizer(gens, chain, n, F),
                                _two_pass_centralizer(gens, chain, n, F))


def test_filt_lattice_is_the_echelon_basis_of_its_monomials():
    F = base_field(3)
    chains = [uniform_chain(N, e_A) for N, e_A in ((1, 1), (2, 2), (3, 1), (4, 2))]
    chains += [chain_from_field(_menu_tower(q, levels), copies)
               for q, levels, copies in BENCH_MENU[:10]]
    for chain in chains:
        N = chain.N
        for n in range(-1, 2 * chain.period + 1):
            D = chain.filt_bound(n)
            monomials = [{i * N + k: F.monomial(D[i][k], F.residue.one)}
                         for i in range(N) for k in range(N)]
            _same_basis(filt_lattice(chain, n, F), MatrixLattice(F, N * N, monomials))


def _ref_clear(c2, col, unit, q):
    """The earlier ``_clear``, on columns of exact elements: c2 becomes
    unit * c2 - col * q by the element operators, an exact unit 1 scales
    nothing, and an entry that cancels is dropped."""
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


def _row_scan_echelon(cols, scanned):
    """The earlier ``_echelon``, in element arithmetic: at each row, scan
    every remaining column for a stored entry, take the least (valuation,
    position) as the pivot, remove it with ``del``, which keeps the order,
    and clear the row from the other live columns by :func:`_ref_clear`."""
    pivots = []
    for r in range(scanned):
        live = [(e.val(), j, c) for j, c in enumerate(cols)
                if (e := c.get(r)) is not None]
        if not live:
            continue
        v, j, col = min(live)
        del cols[j]
        F = col[r].owner
        t_v = F.monomial(-v, F.residue.one)
        unit = col[r] * t_v
        for _, _, c2 in live:
            if c2 is not col:
                _ref_clear(c2, col, unit, c2[r] * t_v)
        pivots.append(((r, v), col))
    return pivots


def _column_digits(cols):
    """Each column as sorted (row, sorted (valuation, log) digits) pairs,
    from columns of elements or of digit-log maps alike."""
    return [sorted((u, sorted(x.items() if isinstance(x, dict) else
                              ((v, a.log) for v, a in x.digits.items())))
                   for u, x in c.items()) for c in cols]


@contextlib.contextmanager
def _against_the_row_scan():
    """Within the block, every ``oracle._echelon`` call also runs the row
    scan, in element arithmetic, on element copies of its digit-log
    columns, and checks that both passes give the same pivots, the same
    entry digits in each pivot column and the same columns left in
    ``cols``, in order; yields the list of the calls' ``scanned``
    arguments."""
    from strata_kit import oracle
    echelon, compared = oracle._echelon, []

    def both(cols, scanned, fld):
        base = base_field(fld.q)
        left = [{u: TameElement(base, {v: fld.gen_power(a) for v, a in x.items()},
                                INF) for u, x in c.items()} for c in cols]
        want = _row_scan_echelon(left, scanned)
        got = echelon(cols, scanned, fld)
        assert [p for p, _ in got] == [p for p, _ in want]
        assert _column_digits(c for _, c in got) == _column_digits(c for _, c in want)
        assert _column_digits(cols) == _column_digits(left)
        compared.append(scanned)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_echelon", both)
        yield compared


def test_bucketed_pass_matches_the_row_scan_on_the_bench_menu():
    """Every pass made while building the 170 menu lattices: one per
    centralizer lattice, none per radical power."""
    with _against_the_row_scan() as compared:
        for q, levels, copies in BENCH_MENU:
            E = _menu_tower(q, levels)
            F, chain = E.base(), chain_from_field(E, copies)
            gens = [regular_rep(g, copies)
                    for g in (E.uniformizer(), E.residue_gen_elem())]
            for n in range(2 * chain.period + 1):
                filt_lattice(chain, n, F)
                intersect_with_centralizer(gens, chain, n, F)
    assert len(compared) == 85


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_bucketed_pass_matches_the_row_scan_on_sparse_columns(data):
    """Sparse exact columns over GF(3), empty ones among them, whose entries
    are mostly of valuation 0 or 1, so that a row often holds several
    entries of its least valuation: the constructor's pass, a membership
    pass and a pass over only the first rows, which leaves columns with
    entries in the rows below."""
    from strata_kit import oracle
    F = base_field(3)
    one, g = F.residue.one, F.residue.gen_power(1)
    entry = st.sampled_from([F.one(), F.monomial(0, g), F.monomial(1, one),
                             F.monomial(1, g), F.monomial(-1, one),
                             TameElement(F, {0: one, 1: g}, INF),
                             TameElement(F, {1: g, 3: one}, INF)])
    dim = data.draw(st.integers(1, 5))
    column = st.dictionaries(st.integers(0, dim - 1), entry, max_size=dim)
    cols = data.draw(st.lists(column, min_size=1, max_size=7))
    with _against_the_row_scan() as compared:
        L = MatrixLattice(F, dim, cols)
        L.contains_vector(data.draw(column))
        oracle._echelon([_digit_logs(c) for c in cols],
                        data.draw(st.integers(0, dim)), F.residue)
    assert len(compared) == 3


def _element_bracket_columns(gens, chain, n, base):
    """The earlier assembly of ``intersect_with_centralizer``'s columns, in
    element arithmetic: each stored generator entry times the monomial
    t^d, by row, and negated, by column; where the two terms meet in one
    row they are summed by the element ``+`` and a sum that cancels is not
    stored.  The lower entry is the monomial t^d itself.  Returns the
    columns and the number of rows that cancelled."""
    N, one = chain.N, base.residue.one
    dim = N * N
    top = len(gens) * dim
    cols, cancelled = [], 0
    for u, d in enumerate(d for row in chain.filt_bound(n) for d in row):
        i, j = divmod(u, N)
        t_d = base.monomial(d, one)
        col = {top + u: t_d}
        for off, G in zip(range(0, top, dim), gens):
            for k, g in enumerate(G.rows[j]):
                if g.digits:
                    col[off + i * N + k] = g * t_d
            for k in range(N):
                if (g := G.rows[k][i]).digits:
                    r, x = off + k * N + j, -(g * t_d)
                    if r in col:
                        x = col[r] + x
                        if not x.digits:
                            del col[r]
                            cancelled += 1
                            continue
                    col[r] = x
        cols.append(col)
    return cols, cancelled


def test_log_form_assembly_matches_the_element_assembly_on_the_bench_menu(monkeypatch):
    """On the 17 menu towers, at every n over two periods, the digit-log
    columns that ``intersect_with_centralizer`` hands to its pass are the
    element assembly's, the same rows stored with the same digits, so a
    diagonal entry that cancels is dropped by both; and its lattice, the
    pivots and every entry of the basis, is the one the element columns
    give under the row scan in element arithmetic."""
    from strata_kit import oracle
    echelon, seen = oracle._echelon, []

    def recorded(cols, scanned, fld):
        seen.append([{u: dict(x) for u, x in c.items()} for c in cols])
        return echelon(cols, scanned, fld)

    monkeypatch.setattr(oracle, "_echelon", recorded)
    checked = cancelled = 0
    for q, levels, copies in BENCH_MENU:
        E = _menu_tower(q, levels)
        F, chain = E.base(), chain_from_field(E, copies)
        gens = [regular_rep(g, copies)
                for g in (E.uniformizer(), E.residue_gen_elem())]
        dim = chain.N ** 2
        top = len(gens) * dim
        for n in range(2 * chain.period):
            seen.clear()
            L = intersect_with_centralizer(gens, chain, n, F)
            cols, dropped = _element_bracket_columns(gens, chain, n, F)
            assert seen == [[_digit_logs(c) for c in cols]]
            want = [((r - top, v), {u - top: x for u, x in c.items() if u >= top})
                    for (r, v), c in _row_scan_echelon(cols, top + dim) if r >= top]
            assert L.pivots == [p for p, _ in want]
            assert _column_digits(L.cols) == _column_digits(c for _, c in want)
            checked += 1
            cancelled += dropped
    assert checked == 68 and cancelled > 0


def test_generators_reused_across_calls_give_the_fresh_lattices():
    """On the 17 menu towers, centralizer calls on one set of generator
    ``Mat``s at n = 2e ... 0 and then 0 ... 2e, e the period, give the
    pivots and basis entries that calls on freshly built generators give;
    and afterwards each generator's stencil holds, for every value d it
    kept, the terms a fresh ``Mat`` builds for d: no call changed a map it
    shares with the stencil."""
    checked = kept = 0
    for q, levels, copies in BENCH_MENU:
        E = _menu_tower(q, levels)
        F, chain = E.base(), chain_from_field(E, copies)
        elems = (E.uniformizer(), E.residue_gen_elem())
        gens = [regular_rep(g, copies) for g in elems]
        ns = list(range(2 * chain.period, -1, -1))
        for n in ns + ns[::-1]:
            L = intersect_with_centralizer(gens, chain, n, F)
            M = intersect_with_centralizer(
                [regular_rep(g, copies) for g in elems], chain, n, F)
            assert L.pivots == M.pivots and L._basis == M._basis
            checked += 1
        for G, g in zip(gens, elems):
            fresh = regular_rep(g, copies)
            assert G._stencil == {d: fresh._bracket(d) for d in G._stencil}
            kept += len(G._stencil)
    assert checked == 170 and kept > 2 * len(BENCH_MENU)


def test_a_scalar_generator_leaves_the_lattice_as_it_is():
    """A scalar generator c * I, the zero matrix and the f = 1 menu
    towers' residue generator included, commutes with every matrix: on
    the 17 menu towers at every n over a period, it leaves the centralizer
    lattice of the uniformizer ``same_as`` the lattice without it, put
    before or after it, and alone it gives the radical power.  Its
    stencil is empty: it adds no bracket term."""
    checked = 0
    for q, levels, copies in BENCH_MENU:
        E = _menu_tower(q, levels)
        F, chain = E.base(), chain_from_field(E, copies)
        N, z = chain.N, TameElement(F, {}, INF)
        c = F.one() + mono(F, 1, 1)
        scalars = [Mat.zero(F, N), Mat.identity(F, N),
                   Mat(F, [[c if i == k else z for k in range(N)]
                           for i in range(N)])]
        if E.f_over_base == 1:
            scalars.append(regular_rep(E.residue_gen_elem(), copies))
        pi = regular_rep(E.uniformizer(), copies)
        for n in range(chain.period + 1):
            L = intersect_with_centralizer([pi], chain, n, F)
            for S in scalars:
                assert intersect_with_centralizer([pi, S], chain, n, F).same_as(L)
                assert intersect_with_centralizer([S, pi], chain, n, F).same_as(L)
                assert intersect_with_centralizer([S], chain, n, F).same_as(
                    filt_lattice(chain, n, F))
                checked += 1
        assert all(S._stencil == {} for S in scalars)
    assert checked == 184


def test_a_diagonal_generator_that_is_not_scalar_is_not_skipped():
    """Diagonal generators with two different diagonal entries, and a
    matrix with a constant diagonal and one entry off it, are not scalar:
    their centralizer lattices, alone and after a scalar, are the dense
    loops'."""
    F = base_field(3)
    z = TameElement(F, {}, INF)
    c = F.one() + mono(F, 1, 1)
    checked = 0
    for N in (2, 3):
        def mat(entry):
            return Mat(F, [[entry(i, k) for k in range(N)] for i in range(N)])

        scalar = mat(lambda i, k: c if i == k else z)
        for G in (mat(lambda i, k: (c if i else mono(F, 1)) if i == k else z),
                  mat(lambda i, k: (F.one() if i else mono(F, 0, 1))
                      if i == k else z),
                  mat(lambda i, k: c if i == k else mono(F, 1) if (i, k) == (0, 1)
                      else z)):
            for gens in ([G], [scalar, G]):
                basis = _dense_commutant(gens, N, F)
                for chain in (uniform_chain(N, 1), uniform_chain(N, N)):
                    for n in range(-1, chain.period + 1):
                        L = intersect_with_centralizer(gens, chain, n, F)
                        _check_lattice(L, *_dense_centralizer(basis, chain, n, F))
                        checked += 1
    assert checked == 90


def test_elimination_is_one_routine():
    """``_add_product`` is called only by ``_clear``, ``_clear`` only by
    ``_echelon``, and ``_echelon`` only by the ``MatrixLattice`` methods and
    ``intersect_with_centralizer``, so no second elimination loop can grow
    beside the one pass."""
    import ast
    import pathlib

    import strata_kit
    allowed = {"_add_product": lambda scope: scope == "_clear",
               "_clear": lambda scope: scope == "_echelon",
               "_echelon": lambda scope: (scope.startswith("MatrixLattice.")
                                          or scope == "intersect_with_centralizer")}
    uses, outside = [], []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, path, f"{scope}.{child.name}".lstrip("."))
                continue
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            if name in allowed:
                where = f"{path.name}:{child.lineno} {scope} {name}"
                uses.append(where)
                if not allowed[name](scope):
                    outside.append(where)
            visit(child, path, scope)

    for path in sorted(pathlib.Path(strata_kit.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    assert {u.split()[-1] for u in uses} == set(allowed) and outside == []


# -- ROADMAP item 3: decisions that hang on unknown digits -------------------

def _item3_probes():
    F = base_field(3)
    one, t, lost = F.one(), mono(F, 1), TameElement(F, {}, 0)
    return {
        # row 1 becomes t - O(t^0): the rank hangs on the unknown entry
        "rank": lambda: MatrixLattice(F, 2, [{0: one, 1: lost}, {0: one, 1: t}]).pivots,
        # the unknown entry could be 1
        "contains": lambda: MatrixLattice(F, 2, [{0: one}]).contains_vector(
            {0: one, 1: lost}),
        # the basis column (O(t^0), 1) holds (t^5, 1) iff its unknown entry
        # is t^5
        "contains_above_pivot": lambda: MatrixLattice(
            F, 2, [{0: lost, 1: one}]).contains_vector({0: mono(F, 5), 1: one}),
    }


@pytest.mark.parametrize("probe", sorted(_item3_probes()))
def test_a_decision_on_unknown_digits_raises(probe):
    with pytest.raises(PrecisionError):
        _item3_probes()[probe]()


def test_the_refusal_names_the_site_the_row_and_the_precision():
    """The lattice constructor and ``contains_vector`` refuse an inexact
    entry in row 2, ``Mat`` one at (1, 0), and ``regular_rep`` an inexact
    argument."""
    F = base_field(3)
    one, z = F.one(), TameElement(F, {}, INF)
    lost = TameElement(F, {0: F.residue.one}, 4)
    row = "oracle: the lattice entry in row 2 is known only to O(t^4)"
    probes = [(lambda: MatrixLattice(F, 3, [{0: one}, {2: lost}]), row),
              (lambda: MatrixLattice(F, 3, [{0: one}]).contains_vector({2: lost}),
               row),
              (lambda: Mat(F, [[one, z], [lost, z]]),
               "oracle: Mat entry (1, 0) is known only to O(t^4)"),
              (lambda: regular_rep(lost),
               "oracle: the argument of regular_rep is known only to O(t^4)")]
    for probe, message in probes:
        with pytest.raises(PrecisionError) as err:
            probe()
        assert str(err.value) == message


def test_lattice_columns_are_a_read_only_view():
    """``cols`` is a tuple of read-only mappings, built on first read and
    kept: neither it nor a column takes an assignment."""
    F = base_field(3)
    one, t = F.one(), mono(F, 1)
    L = MatrixLattice(F, 2, [{0: one, 1: t}, {1: t}])
    with pytest.raises(TypeError):
        L.cols[0] = {0: one}
    with pytest.raises(TypeError):
        L.cols[0][1] = one
    with pytest.raises(TypeError):
        L.cols[1][0] = one
    assert L.cols is L.cols
    assert _column_digits(L.cols) == [[(0, [(0, 0)]), (1, [(1, 0)])],
                                      [(1, [(1, 0)])]]


def test_mat_rows_are_a_read_only_view_and_entries_never_change():
    """``rows`` is a tuple of tuples of elements, built on first read and
    kept, and takes no assignment.  A matrix's entries are the ones it was
    built from, and stay so after ``+``, ``-``, ``@``, ``block_diag``,
    ``trace`` and a centralizer lattice read the maps it shares with
    them."""
    F = base_field(3)
    E = extend(F, 2, 1, 1)
    x = mono(E, -1, 1) + mono(E, 0) + mono(E, 2, 3)
    z = TameElement(F, {}, INF)
    given = [[mono(F, -1) + mono(F, 2, 1), z], [F.one(), mono(F, 1)]]
    for M in (regular_rep(x), Mat(F, given)):
        with pytest.raises(TypeError):
            M.rows[0] = M.rows[1]
        with pytest.raises(AttributeError):
            M.rows = ()
        assert M.rows is M.rows
        entries = _entries(M.rows)
        for use in (lambda: M + M, lambda: M - M, lambda: M @ M,
                    lambda: block_diag(F, [M, M]), M.trace,
                    lambda: intersect_with_centralizer(
                        [M, M @ M], uniform_chain(M.n, 1), 0, F)):
            use()
            assert _entries(Mat._of_logs(F, M._logs).rows) == entries
    assert _entries(Mat(F, given).rows) == _entries(given)


def test_lattice_answers_do_not_change_after_reads_or_passes():
    """Reading ``cols`` and repeating membership and equality passes leave
    the pivots, the entries of ``cols`` and every answer as they were.  The
    vectors outside L include ones whose pivot-row entry has a smaller
    valuation than L's pivot, so a pass that cleared L's own columns in
    place would change the basis it answers from."""
    F = base_field(3)
    one, t, t2 = F.one(), mono(F, 1), mono(F, 2)
    gens = [{0: t, 1: one}, {1: t, 2: one}]        # span{t e0 + e1, t e1 + e2}
    vecs = [{0: t, 1: one}, {0: t, 1: one + t, 2: one}, {0: t2, 1: t},
            {0: one}, {1: one}, {0: one, 1: t}, {2: one}]

    def answers(L, others):
        return (list(L.pivots), [L.contains_vector(v) for v in vecs],
                [L.same_as(M) for M in others], [M.same_as(L) for M in others])

    want = ([(0, 1), (1, 1)], [True] * 3 + [False] * 4,
            [True, True, False], [True, True, False])
    for read_first in (False, True):
        L = MatrixLattice(F, 3, gens)
        others = [L, MatrixLattice(F, 3, gens[::-1]),
                  MatrixLattice(F, 3, [{0: t}, {1: t, 2: one}])]
        if read_first:
            entries = _column_digits(L.cols)
        assert answers(L, others) == want
        if not read_first:
            entries = _column_digits(L.cols)
        for _ in range(3):
            assert answers(L, others) == want
            assert _column_digits(L.cols) == entries


def test_lattice_sum_is_the_constructor_on_the_joined_columns():
    """``MatrixLattice.sum`` gives the pivots and every entry that the
    constructor gives on the columns of its summands in order, here on
    centralizer and radical-power lattices of the bench tower
    GF(3) -> e=2 -> f=3, and their sum contains each summand."""
    E = extend(extend(base_field(3), 1, 2, 1), 3, 1, 1)
    F, chain = E.base(), chain_from_field(E)
    gens = [regular_rep(g) for g in (E.uniformizer(), E.residue_gen_elem())]
    for n in range(2 * chain.period):
        parts = [intersect_with_centralizer(gens, chain, n + 1, F),
                 intersect_with_centralizer(gens[:1], chain, n + 2, F),
                 filt_lattice(chain, n + 3, F)]
        S = MatrixLattice.sum(*parts)
        joined = MatrixLattice(F, chain.N ** 2, [c for L in parts for c in L.cols])
        assert S.pivots == joined.pivots
        assert _column_digits(S.cols) == _column_digits(joined.cols)
        assert all(S.contains_vector(c) for L in parts for c in L.cols)
        assert MatrixLattice.sum(parts[0]).same_as(parts[0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_lattices_raise_exactly_on_inexact_entries(data):
    """The lattice constructor, ``contains_vector`` and ``Mat``, which builds
    the generators of ``intersect_with_centralizer``, raise
    ``PrecisionError`` exactly when an entry they are given is inexact, a
    zero to precision or not, over GF(3); on exact draws, and on the exact
    completions of refused generators, the pivots and ``contains_vector``
    answers are the dense reference's.  A vector lies in L exactly when
    adding it leaves L's pivots, hence its index, unchanged."""
    F = base_field(3)
    entry = st.sampled_from(_pool(F))
    dim = data.draw(st.integers(1, 3))
    column = st.fixed_dictionaries({u: entry for u in range(dim)})
    cols = data.draw(st.lists(column, min_size=1, max_size=3))
    vec = data.draw(column)
    N = data.draw(st.integers(1, 2))
    gens = [[[data.draw(entry) for _ in range(N)] for _ in range(N)]
            for _ in range(data.draw(st.integers(1, 2)))]
    chain = uniform_chain(N, data.draw(st.sampled_from((1, N))))
    n = data.draw(st.integers(-1, chain.period))

    def dense(c):
        return [c[u] for u in range(dim)]

    if _inexact(cols):
        with pytest.raises(PrecisionError):
            MatrixLattice(F, dim, cols)
    else:
        L = MatrixLattice(F, dim, cols)
        pivots = _dense_hermite(F, dim, [dense(c) for c in cols])[0]
        assert L.pivots == pivots
        if _inexact([vec]):
            with pytest.raises(PrecisionError):
                L.contains_vector(vec)
        else:
            grown = _dense_hermite(F, dim, [dense(c) for c in cols + [vec]])[0]
            assert L.contains_vector(vec) == (grown == pivots)
    gens = [_exact_mat(F, G) for G in gens]
    L = intersect_with_centralizer(gens, chain, n, F)
    assert L.pivots == _dense_kernel(gens, chain, n, F)[0]


def test_lattice_code_reads_precision_only_at_the_boundary():
    """In oracle.py, ``.prec`` is read and ``PrecisionError`` named only by
    ``_exact``, the oracle's one check on precision, so no rule for inexact
    entries can grow back in the matrix or lattice code."""
    import ast
    import pathlib

    from strata_kit import oracle
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    readers = {name for name, node in defs.items()
               if any(isinstance(a, ast.Attribute) and a.attr == "prec"
                      for a in ast.walk(node))}
    raisers = {name for name, node in defs.items()
               if any(isinstance(a, ast.Name) and a.id == "PrecisionError"
                      for a in ast.walk(node))}
    assert readers == raisers == {"_exact"}


def test_the_exact_completion_keeps_its_pivots():
    """ROADMAP item 3's exact example, which agrees with the first probe
    above to its precision, gives its pivots with no error."""
    F = base_field(3)
    L = MatrixLattice(F, 2, [{0: F.one(), 1: F.one()}, {0: F.one(), 1: mono(F, 1)}])
    assert L.pivots == [(0, 0), (1, 0)]
