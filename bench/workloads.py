"""The three benchmark workloads: verify, oracle and cold_cli.

A workload has a fixed case population: ``classes`` x ``variants`` keys
"<class>/<variant>".  A case is fully determined by its key (its inputs are
generated from a ``random.Random`` seeded with the key), so every case has
a recorded result digest in ``golden.json``; the run seed only chooses the
order in which the population is dealt (see ``harness.make_plan``).

Every call into the program goes through ``call(name, fn, *args)``: the
plain call when tracing is off, ``Tracer.call`` in the traced run.
"""

from __future__ import annotations

import json
import operator
import os
import random
import subprocess
import sys
import time

from strata_kit import fuzz, minimal, oracle, residue, serialize, strata, translate
from strata_kit import tower
from strata_kit.tower import INF, base_field, extend

from cli_child import NO_EMBEDDINGS, SPAN_MARKER
from harness import CaseTimeout, CheckFailed, bytes_digest, check, plain_call

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: the console-script entry point of ``strata-kit``, run with ``python -c``
CLI_ENTRY = "import sys; from strata_kit.cli import main; sys.exit(main())"


def child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    env.pop("STRATA_KIT_PREC", None)
    return env


# ---------------------------------------------------------------------------
# canonical encodings for result records
# ---------------------------------------------------------------------------

def enc(x):
    """Digits, precision and owner degree of a tower element."""
    return [x.owner.degree,
            [[v, list(a.coords)] for v, a in sorted(x.digits.items())],
            None if x.prec == INF else int(x.prec)]


def enc_fac(fac):
    return {"chunks": [enc(c) for c in fac.chunks],
            "fields": [list(K.signature()) for K in fac.fields],
            "jumps": [str(j) for j in fac.depth_jumps()],
            "degenerate": fac.degenerate}


def bench_element(rng, E, vmin=-8, vmax=4, max_digits=3):
    """An exact element of E with 1..max_digits nonzero monomial digits.

    Built from ``TameField.monomial`` sums on an exact zero, not with
    ``fuzz.random_element``: that one sets ``prec=float("inf")``, which
    fails the library's ``prec is INF`` identity tests (its inverse never
    terminates and it cannot be serialized).
    """
    x = E.zero(INF)
    for v in rng.sample(range(vmin, vmax + 1), rng.randint(1, max_digits)):
        x = x + E.monomial(v, E.residue.gen_power(rng.randrange(E.residue.q - 1)))
    return x


# ---------------------------------------------------------------------------
# verify: the traffic of `strata-kit verify` and acceptance criteria 2/3/6/7
# ---------------------------------------------------------------------------

class Verify:
    """Alternating element and stratum cases on freshly fuzzed towers."""

    name = "verify"
    classes = ("element", "stratum")
    variants = 384
    shuffle_rounds = False
    budget_s = 5.0
    setup_runs = 5
    alarm = True
    #: every residue field the fuzzed towers and their splitting fields use
    #: (q in {3, 5, 9}, degree <= 8); built once in set-up
    FIELDS = ((3, 1), (3, 2), (3, 3), (3, 4), (3, 6), (3, 8),
              (5, 1), (5, 2), (5, 3), (5, 4), (5, 6))

    def setup(self):
        for p, f in self.FIELDS:
            residue.make_field(p, f)

    def execute(self, key, call=plain_call):
        cls, k = key.split("/")
        rng = random.Random(f"verify/{key}")
        if cls == "element":
            return self._element(rng, call)
        return self._stratum(rng, int(k), call)

    @staticmethod
    def _element(rng, call):
        E = call("fuzz.random_tower", fuzz.random_tower, rng)
        x = bench_element(rng, E)
        rep = call("tower.sr", tower.sr, x)
        sq = call("tower.mul", operator.mul, x, x)
        inv = call("tower.inverse", x.inverse)
        unit = call("tower.mul", operator.mul, x, inv)
        check(not (unit - E.one()).digits, "tower", "x * x.inverse() != 1")
        homs = call("tower.embeddings", tower.embeddings, E)
        images = [call("tower.apply_embedding", tower.apply_embedding, h, x)
                  for h in homs]
        K = call("tower.subfield_generated", tower.subfield_generated, [x], E)
        m = call("minimal.is_minimal", minimal.is_minimal, x, E.base())
        check(m.agree(), "minimal", f"criteria disagree: {m.verdicts}")
        fac = call("minimal.howe_factorize", minimal.howe_factorize, x, E.base())
        cert = call("minimal.check_factorization", minimal.check_factorization, fac)
        check(cert.ok, "minimal", f"certificate failed: {cert.clause}")
        return {"tower": serialize.tower_to_json(E), "x": enc(x),
                "sr": enc(rep), "sq": enc(sq), "inv": enc(inv),
                "images": [enc(y) for y in images],
                "subfield": list(K.signature()),
                "minimal": list(m.verdicts), "in_base": m.in_base,
                "fac": enc_fac(fac)}

    @staticmethod
    def _stratum(rng, k, call):
        if k % 10 == 9:
            st = call("fuzz.random_depth_zero", fuzz.random_depth_zero, rng)
        else:
            st = call("fuzz.random_stratum", fuzz.random_stratum, rng)
        doc = call("serialize.stratum_to_json", serialize.stratum_to_json, st)
        text = serialize.dumps(doc)
        st2 = call("serialize.stratum_from_json", serialize.stratum_from_json,
                   json.loads(text))
        again = call("serialize.stratum_to_json", serialize.stratum_to_json, st2)
        check(serialize.dumps(again) == text, "serialize", "JSON round trip changed")
        cert = call("minimal.check_factorization", minimal.check_factorization,
                    st2.fac)
        check(cert.ok, "minimal", f"certificate failed: {cert.clause}")
        yu = call("translate.secherre_to_yu", translate.secherre_to_yu, st2,
                  check=True)
        rt = call("translate.roundtrip_check", translate.roundtrip_check, st2)
        check(rt.ok, "translate", f"round trip failed: {rt.checks}")
        stages = call("strata.defining_sequence", strata.defining_sequence, st2)
        ours = call("strata.presentation_secherre", strata.presentation_secherre, st2)
        theirs = call("strata.presentation_yu", strata.presentation_yu, yu)
        for a, b in zip(ours, theirs):
            same, _ = call("strata.compare_presentations",
                           strata.compare_presentations, a, b)
            check(same, "strata", f"presentations {a.label}/{b.label} differ")
        tab = call("translate.factchar_indices", translate.factchar_indices, st2)
        vo = call("strata.v_order", strata.v_order, st2.beta, st2.order)
        check(st2.n == max(0, -vo), "strata", "n != -v_order(beta)")
        return {"doc": doc, "fac": enc_fac(st2.fac),
                "yu": serialize.yu_to_json(yu), "roundtrip": rt.checks,
                "stages": [[s.r, s.k0_value] for s in stages],
                "presentations": [p.to_json() for p in ours],
                "factchar": [list(r) for r in tab.rows], "v_order": vo}


# ---------------------------------------------------------------------------
# oracle: the brute-force side of every differential
# ---------------------------------------------------------------------------

#: (name, base q, levels as (f_rel, e_rel, twist), copies); N = degree*copies <= 6
ORACLE_MENU = (
    ("q3.e2.c1", 3, ((1, 2, 1),), 1),
    ("q3.e2.c2", 3, ((1, 2, 1),), 2),
    ("q3.e2.c3", 3, ((1, 2, 1),), 3),
    ("q3.f2.c1", 3, ((2, 1, 1),), 1),
    ("q3.f2.c2", 3, ((2, 1, 1),), 2),
    ("q3.f2.c3", 3, ((2, 1, 1),), 3),
    ("q3.f3.c1", 3, ((3, 1, 1),), 1),
    ("q3.f3.c2", 3, ((3, 1, 1),), 2),
    ("q3.f2e2.c1", 3, ((2, 1, 1), (1, 2, 1)), 1),
    ("q3.e2f3.c1", 3, ((1, 2, 1), (3, 1, 1)), 1),
    ("q5.e2.c1", 5, ((1, 2, 1),), 1),
    ("q5.e3.c1", 5, ((1, 3, 2),), 1),
    ("q5.e3.c2", 5, ((1, 3, 2),), 2),
    ("q5.e4.c1", 5, ((1, 4, 2),), 1),
    ("q5.f2e3.c1", 5, ((2, 3, 1),), 1),
    ("q9.e2.c1", 9, ((1, 2, 1),), 1),
    ("q9.e2.c2", 9, ((1, 2, 1),), 2),
)


class Oracle:
    """Matrix-oracle cases on a fixed tower menu, kept alive for the run
    because ``oracle._DECOMPOSERS`` is keyed by ``id(field)``."""

    name = "oracle"
    classes = tuple(m[0] for m in ORACLE_MENU)
    variants = 8
    shuffle_rounds = True
    budget_s = 5.0
    setup_runs = 5
    alarm = True

    def setup(self):
        self.menu = {}
        for name, q, levels, copies in ORACLE_MENU:
            E = base_field(q)
            for f, e, twist in levels:
                E = extend(E, f, e, twist)
            self.menu[name] = (E, copies)

    def execute(self, key, call=plain_call):
        name, _ = key.split("/")
        E, copies = self.menu[name]
        rng = random.Random(f"oracle/{key}")
        base = E.base()
        x = bench_element(rng, E, vmin=-4, vmax=2)
        N = E.degree * copies
        chain = oracle.chain_from_field(E, copies)
        R = call("oracle.regular_rep", oracle.regular_rep, x, copies)
        vA = call("oracle.v_A_direct", oracle.v_A_direct, R, chain)
        order = strata.OrderSkeleton(m=N, d=1, e_A=E.e_abs, pure_over=E)
        vo = call("strata.v_order", strata.v_order, x, order)
        check(vA == vo, "oracle", f"v_A {vA} != v_order {vo}")
        n = rng.randrange(2 * chain.period)
        L0 = call("oracle.filt_lattice", oracle.filt_lattice, chain, n, base)
        L1 = call("oracle.filt_lattice", oracle.filt_lattice, chain, n + 1, base)
        i_filt = call("oracle.lattice_index", oracle.lattice_index, L0, L1)
        check(i_filt == N * N // chain.period, "oracle",
              f"filtration index {i_filt} != N^2/e_A")
        gens = [call("oracle.regular_rep", oracle.regular_rep, g, copies)
                for g in (E.uniformizer(), E.residue_gen_elem())]
        C0 = call("oracle.intersect_with_centralizer",
                  oracle.intersect_with_centralizer, gens, chain, n, base)
        C1 = call("oracle.intersect_with_centralizer",
                  oracle.intersect_with_centralizer, gens, chain, n + 1, base)
        i_cent = call("oracle.lattice_index", oracle.lattice_index, C0, C1)
        dim = N * N // E.degree
        check(i_cent == dim // E.e_abs, "oracle",
              f"centralizer index {i_cent} != dim/e_A")
        w = call("oracle.psi_witness", oracle.psi_witness, R, chain, -vA)
        psi = None
        if w is not None:
            psi = call("oracle.eval_psi_c", oracle.eval_psi_c, R, w)
            check(psi != 0, "oracle", "witness pairs to zero")
            w = [[i, k, enc(a)] for i, row in enumerate(w.rows)
                 for k, a in enumerate(row) if a.digits]
        return {"x": enc(x), "n": n, "v_A": vA, "filt_index": i_filt,
                "cent_index": i_cent, "cent_pivots": C0.pivots,
                "witness": w, "psi": psi}


# ---------------------------------------------------------------------------
# cold_cli: single cold `strata-kit <cmd>` processes
# ---------------------------------------------------------------------------

#: (class, command, extra args, document kind, base q, size of the largest
#: residue field the call builds: its tower's and, for commands that use
#: embeddings, its splitting field's).  A round of 12 calls has 7 light
#: calls, 3 that build GF(3^6) and 2 that build GF(3^8) or GF(5^6).  Of the
#: 36 calls, the median then falls inside the light tier and the tail (the
#: eleventh slowest) in the middle of the GF(3^6) tier, away from the jumps
#: between tiers.  GF(3^10) and GF(2^16) are left out: one build of either
#: takes 10-20 s and would dominate a run.
CLI_CLASSES = (
    ("factorize.q3", "factorize", (), "element", 3, "light"),
    ("embeddings.q5", "embeddings", (), "element", 5, "light"),
    ("generic.q3", "generic", (), "element", 3, "light"),
    ("groups.q5", "groups", (), "stratum", 5, "light"),
    ("indices.q3", "indices", ("--t", "0"), "stratum", 3, "light"),
    ("stratum2yu.q9", "stratum2yu", (), "stratum", 9, "light"),
    ("yu2stratum.q3", "yu2stratum", (), "datum", 3, "light"),
    ("expand.q9", "expand", (), "element", 9, 3 ** 6),
    ("sr.q9", "sr", (), "element", 9, 3 ** 6),
    ("minimal.q3", "minimal", (), "element", 3, 3 ** 6),
    ("factorize.q9", "factorize", (), "element", 9, 3 ** 8),
    ("minimal.q5", "minimal", (), "element", 5, 5 ** 6),
)
LIGHT_MAX = 125


def largest_field(E, cmd):
    sizes = [E.p ** (E.base_f * node.f_over_base) for node in fuzz.tower_levels(E)]
    if cmd not in NO_EMBEDDINGS:
        sizes.append(tower.splitting_field(E).residue.q)
    return max(sizes)


def _fits(size, target):
    return size <= LIGHT_MAX if target == "light" else size == target


class ColdCli:
    """One cold CLI process per case; documents are generated before timing."""

    name = "cold_cli"
    classes = tuple(c[0] for c in CLI_CLASSES)
    variants = 3
    shuffle_rounds = True
    budget_s = 60.0
    setup_runs = 5
    alarm = False
    tracer = None
    child_counters = ()

    def setup(self):
        self.specs = {c[0]: c for c in CLI_CLASSES}
        self.docs = {}
        for cls in self.classes:
            for k in range(self.variants):
                self.docs[f"{cls}/{k}"] = self._document(cls, k)

    def _document(self, cls, k):
        _, cmd, _, kind, q, target = self.specs[cls]
        rng = random.Random(f"cold_cli/{cls}/{k}")
        for _ in range(5000):
            if kind == "element":
                E = fuzz.random_tower(rng, q=q)
                if E.degree == 1 or not _fits(largest_field(E, cmd), target):
                    continue
                x = bench_element(rng, E)
                if cmd == "generic" and \
                        tower.subfield_generated([x], E).degree != E.degree:
                    # The CLI reads "prec": null as 64 digits, so an element
                    # of a proper subfield ends in exit 3 (precision
                    # exhausted) instead of a verdict: a known defect, left
                    # to the precision-contract work, not measured here.
                    continue
                doc = {"tower": serialize.tower_to_json(E),
                       "element": serialize.element_to_json(x, E)}
            else:
                st = fuzz.random_stratum(rng, q=q)
                E = st.order.pure_over
                if E.degree == 1 or not _fits(largest_field(E, cmd), target):
                    continue
                doc = (serialize.stratum_to_json(st) if kind == "stratum" else
                       serialize.yu_to_json(translate.secherre_to_yu(st)))
            return serialize.dumps(doc).encode()
        raise RuntimeError(f"no document found for {cls}/{k}")

    def argv(self, key, traced):
        cls = key.split("/")[0]
        _, cmd, extra, _, _, _ = self.specs[cls]
        if traced:
            return [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"),
                    cmd, *extra]
        return [sys.executable, "-c", CLI_ENTRY, cmd, *extra]

    def execute(self, key, call=plain_call):
        traced = self.tracer is not None
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(self.argv(key, traced), input=self.docs[key],
                                  capture_output=True, timeout=self.budget_s,
                                  env=child_env(), cwd=ROOT)
        except subprocess.TimeoutExpired as exc:
            raise CaseTimeout(f"CLI call ran past {self.budget_s} s") from exc
        t1 = time.perf_counter()
        err = proc.stderr.decode(errors="replace")
        if traced:
            err = self._record_child(err, t0, t1)
        if proc.returncode != 0:
            raise CheckFailed("cli", f"exit {proc.returncode}: {err.strip()[-200:]}")
        return bytes_digest(b"%d\n" % proc.returncode + proc.stdout)

    def _record_child(self, err, t0, t1):
        """Add the wrapper child's spans under one cli.process span; return
        stderr without the span line."""
        head, sep, line = err.rpartition(SPAN_MARKER)
        if not sep:
            raise CheckFailed("cli", "traced child wrote no spans")
        data = json.loads(line)
        tr = self.tracer
        parent = tr.add("cli.process", t0, t1)
        for name, s0, s1 in data["spans"]:
            tr.add(name, s0, s1, parent)
        self.child_counters.append(data["make_field"])
        return head


WORKLOADS = {"verify": Verify, "oracle": Oracle, "cold_cli": ColdCli}
