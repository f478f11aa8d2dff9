"""Mutation gate: each law of the library is killed by a law, not a snapshot.

    python3 tests/mutants.py [NAME ...]

``MUTANTS`` is a table of named mutants: a file, an exact text, its
replacement and the reason the mutant is wrong.  For each mutant (all of
them, or the ones named), the script copies the repository to a temporary
directory, replaces the text, which must occur exactly once in its file,
and runs the tier-1 suite there with the snapshot tests in ``SNAPSHOTS``
deselected, stopping at the first failure.  A mutant is reported

- ``killed`` when a test fails or errors,
- ``survived`` when the suite passes,
- ``timed out`` when the run overruns ``BUDGET_S``, the per-mutant budget.

The last line of stdout is a JSON object mapping each mutant to its
verdict.  The exit status is 0 when every mutant run was killed, 1
otherwise, and 2 when the table or a snapshot name is wrong.  The script is
stdlib only, and its name has no ``test_`` prefix, so tier-1 does not
collect it; it costs about one tier-1 run per mutant.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: seconds allowed for one mutant's suite run
BUDGET_S = 180

#: tests that compare outputs with recorded values, so they would kill
#: almost any mutant; a mutant must be killed by a law without them
SNAPSHOTS = (
    "tests/test_golden_gate.py::test_cli_output_matches_golden_digests",
    "tests/test_fuzz.py::test_random_stratum_output_is_pinned",
    "tests/test_oracle.py::test_regular_rep_uniformizer_frozen",
    "tests/test_residue.py::test_embed_gf3_into_gf9_frozen_value",
    "tests/test_residue.py::test_large_fields_pinned",
    "tests/test_strata.py::test_index_card_frozen_examples",
    "tests/test_translate.py::test_secherre_to_yu_frozen_values",
    "tests/test_translate.py::test_factchar_frozen_values",
)

ORACLE = "src/strata_kit/oracle.py"
TOWER = "src/strata_kit/tower.py"

#: name -> (file, exact text, replacement, reason)
MUTANTS = {
    "echelon_last_on_tie": (
        ORACLE,
        "v, j = min((min(cols[j][r]), j) for j in bucket)",
        "v, j = max((-min(cols[j][r]), j) for j in bucket); v = -v",
        "the pivot is the first column of least valuation, not the last, "
        "so the basis stays the one the row scan gave"),
    "echelon_no_refile": (
        ORACLE,
        "at.setdefault(min(c2), []).append(j2)",
        "pass",
        "a cleared column that is not filed under its new least row is "
        "never reduced again"),
    "echelon_greatest_valuation": (
        ORACLE,
        "v, j = min((min(cols[j][r]), j) for j in bucket)",
        "v, j = max((min(cols[j][r]), j) for j in bucket)",
        "a pivot that is not of least valuation makes quotients outside "
        "o_F"),
    "mul_exact_self_only": (
        TOWER,
        "if self.prec is INF and other.prec is INF:",
        "if self.prec is INF:",
        "an exact element times an inexact one is inexact"),
    "mul_recurrence_sign": (
        TOWER,
        "neg, zero = -w[0], self.owner.residue.zero",
        "neg, zero = w[0], self.owner.residue.zero",
        "the reciprocal recurrence subtracts the convolution"),
    "clear_no_unit_scaling": (
        ORACLE,
        "if unit != _ONE:",
        "if False:",
        "without the unit, u * c2 - q * col is not a unimodular step"),
    "clear_no_negation": (
        ORACLE,
        "[(w, (b + minus) % order) for w, b in q.items()]",
        "[(w, (b + 0 * minus) % order) for w, b in q.items()]",
        "the step subtracts col * q; over an odd characteristic adding it "
        "leaves the pivot row uncleared"),
    "bracket_column_not_negated": (
        ORACLE,
        "{v: (a + minus) % order for v, a in x.items()}",
        "{v: (a + 0 * minus) % order for v, a in x.items()}",
        "the bracket X G - G X subtracts the by-column term; over an odd "
        "characteristic adding it gives the wrong kernel"),
    "bracket_rows_unshifted": (
        ORACLE,
        "[[(k, _shift_logs(x, d)) for k, x in r] for r in by_row]",
        "[[(k, x) for k, x in r] for r in by_row]",
        "X = t^d e_ij, so the by-row term of the bracket is t^d G[j][k], "
        "not G[j][k]"),
    "stencil_ignores_d": (
        ORACLE,
        "terms = stencil[d] = (",
        "terms = stencil[d + 1] = (",
        "a stencil keeps each value d's terms under d; under another key, a "
        "later call at that value gets terms shifted by the wrong power of t"),
    "scalar_test_diagonal_only": (
        ORACLE,
        "if all(x == c if i == k else not x",
        "if all(True if i == k else not x",
        "a diagonal matrix with two different diagonal entries does not "
        "commute with every matrix, so its brackets cannot be skipped"),
    "assembly_sums_into_shared_map": (
        ORACLE,
        "x = _add_logs(dict(y), x, fld)",
        "x = _add_logs(y, x, fld)",
        "the by-row map in a diagonal row is a stencil map that other "
        "columns and later calls share; a sum written into it changes them"),
    "same_as_pivots_only": (
        ORACLE,
        "cols = [dict(c) for c in other._basis + self._basis]\n"
        "        return ([p for p, _ in _echelon(cols, other.dim, other.base.residue)]\n"
        "                == other.pivots)",
        "return True",
        "equal pivots give equal indices, not equal lattices"),
    "lattice_pass_shares_basis": (
        ORACLE,
        "cols = [dict(c) for c in self._basis] + [",
        "cols = self._basis + [",
        "the pass changes the columns it clears in place, so a membership "
        "pass over the stored columns themselves rewrites the basis that "
        "later answers read"),
    "v_A_profile_swapped": (
        ORACLE,
        "e * min(a) + c[i] - c[k]",
        "e * min(a) + c[k] - c[i]",
        "entry (i, k) maps L_j into L_(j + n) through the profile difference "
        "c_i - c_k"),
    "regular_rep_overwrites_entry": (
        ORACLE,
        "block[b * f + a_r][b_c * f + a_c][m] = c.log",
        "block[b * f + a_r][b_c * f + a_c] = {m: c.log}",
        "an entry of regular_rep(x) collects a digit from each digit of x "
        "that lands in it; a map written anew keeps only the last"),
    "matmul_skips_base_check": (
        ORACLE,
        "    def __matmul__(self, other):\n        self._meet(other)",
        "    def __matmul__(self, other):\n        _check_size(self.n, other.n)",
        "entries are stored as residue logs, so a matrix over another base "
        "with the same residue field multiplies without an error; its "
        "digits are powers of another uniformizer"),
    "mat_sum_in_place": (
        ORACLE,
        "[_add_logs(dict(a), b, fld) for a, b in zip(r1, r2)]",
        "[_add_logs(a, b, fld) for a, b in zip(r1, r2)]",
        "matrices share their stored maps, so a sum written into an "
        "operand's map changes that operand and every matrix sharing it"),
    "embeddings_no_step": (
        TOWER,
        "d // e + k * step",
        "d // e + k",
        "the uniformizer images are the e-th roots of unity, step apart"),
    "generating_exit_before_shuffle": (
        "src/strata_kit/fuzz.py",
        "    rng.shuffle(order)\n",
        "    if generating_log(level, v_lvl, order) is None:\n"
        "        return None\n"
        "    rng.shuffle(order)\n",
        "the logs are shuffled before the valuation is decided, so the "
        "random stream does not depend on the answer"),
    "log_sum_ignores_cancellation": (
        "src/strata_kit/residue.py",
        "    if z < 0:\n        return -1\n",
        "",
        "Z[b - a] = -1 marks g^a + g^b = 0, not a log to add"),
    "generation_skips_a_maximal_subfield": (
        "src/strata_kit/residue.py",
        "for ell in _prime_factors(d):",
        "for ell in _prime_factors(d)[:1]:",
        "a residue degree divides out every prime of f/m, one maximal "
        "subfield each"),
    "criterion_1_times": (
        "src/strata_kit/minimal.py",
        "r0 = a ** e_rel / b ** v",
        "r0 = a ** e_rel * b ** v",
        "r0 divides by the base uniformizer's digit"),
    "factchar_third": (
        "src/strata_kit/translate.py",
        "t_i = max(t, (-vA) // 2)",
        "t_i = max(t, (-vA) // 3)",
        "psi_c annihilates P^(2 t_i + 2), so t_i is floor(-v_A / 2)"),
    "factchar_ceiling": (
        "src/strata_kit/translate.py",
        "t_i = max(t, (-vA) // 2)",
        "t_i = max(t, -(vA // 2))",
        "t_i is the floor of -v_A / 2, not its ceiling"),
    "yu_to_secherre_ignores_N": (
        "src/strata_kit/translate.py",
        "m=yu.N",
        "m=E.degree",
        "the rebuilt order lives in M_N(F) for the datum's N, which can "
        "exceed [E:F]"),
    "crit3_ignores_violations": (
        "src/strata_kit/minimal.py",
        "crit3 = not violations",
        "crit3 = True",
        "criterion 3 is the genericity of each chunk, which nothing after "
        "the certificate checks again"),
    "ords_not_checked": (
        "src/strata_kit/minimal.py",
        "if not ords[i] > ords[i + 1]:",
        "if False:",
        "the certified chunk ords strictly decrease, which makes the jumps "
        "of a defining sequence strictly increase"),
    "crit3_int_never_violates": (
        "src/strata_kit/minimal.py",
        "if d_val != c_val]",
        "if d_val is None]",
        "criterion 3 compares each pair's valuation with c's, both in the "
        "ambient field's units; an integer difference is still a violation"),
    "image_keys_no_mu": (
        TOWER,
        "(k * scale + v * mu) % order",
        "(k * scale) % order",
        "an embedding sends pi^v to mu^v pi_L^v, so the digit at v gains "
        "v times the log of mu"),
    "coerce_skips_the_ancestor_check": (
        TOWER,
        "if not x.owner.is_ancestor_of(target):",
        "if False:",
        "coerce is the one ancestry check, so an element of a sibling "
        "tower must be refused there, not read as the target's"),
    "adjoin_rechecks_new_generator_only": (
        TOWER,
        "for g in (generators if dropped else (x,)):",
        "for g in (x,):",
        "when the cut drops, an old generator can lose the guard digits "
        "it had at the old cut"),
    "tail_k0_no_remainder": (
        "src/strata_kit/strata.py",
        "    if rem:\n        raise DomainError(\"jump index is not integral",
        "    if rem and False:\n        raise DomainError(\"jump index is not integral",
        "k0 takes any beta, and e_A * ord(c_i) need not be an integer at "
        "an order its field is not pure over"),
    "j1_not_deepened": (
        "src/strata_kit/strata.py",
        "factors = [(0, FiltDepth(Fraction(0), True))]",
        "factors = [(0, FiltDepth(Fraction(0), False))]",
        "J^1 = J cap U^1 starts at depth 0+ at level 0, not at the units"),
}

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", ".bench_out")


def refuse(message):
    print(message, file=sys.stderr)
    raise SystemExit(2)


def check_table(names):
    """Refuse the run unless every named mutant's text occurs exactly
    once in its file."""
    bad = []
    for name in names:
        path, text, replacement, _ = MUTANTS[name]
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            found = fh.read().count(text)
        if found != 1 or text == replacement:
            bad.append(f"{name}: {text!r} occurs {found} times in {path}")
    if bad:
        refuse("refused:\n" + "\n".join(bad))


def check_snapshots():
    """Refuse the run unless tier-1 collects every snapshot test, so a
    renamed snapshot cannot silently stay selected."""
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--collect-only",
                           "-p", "no:cacheprovider"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    collected = set(proc.stdout.split())
    missing = [s for s in SNAPSHOTS if s not in collected]
    if missing:
        refuse("snapshot tests not collected: " + ", ".join(missing))


def run_mutant(name, budget_s):
    """(verdict, seconds, the first failing test or else the suite's last
    line) for one mutant, run in a fresh copy of the repository."""
    path, text, replacement, _ = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        target = os.path.join(copy, path)
        with open(target, encoding="utf-8") as fh:
            source = fh.read()
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(source.replace(text, replacement))
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        for node in SNAPSHOTS:
            argv += ["--deselect", node]
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=copy, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=budget_s)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return "timed out", time.perf_counter() - t0, ""
        dt = time.perf_counter() - t0
        lines = out.strip().splitlines()
        failed = [ln for ln in lines if ln.startswith(("FAILED ", "ERROR "))]
        return ("killed" if proc.returncode else "survived", dt,
                (failed or lines or [""])[0 if failed else -1])


def main(names):
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        refuse(f"unknown mutants: {', '.join(unknown)}")
    names = names or list(MUTANTS)
    check_table(names)
    check_snapshots()
    verdicts = {}
    for name in names:
        verdict, dt, detail = run_mutant(name, BUDGET_S)
        verdicts[name] = verdict
        print(f"{name}: {verdict} in {dt:.1f} s  {detail}", flush=True)
    print(json.dumps(verdicts))
    return 0 if all(v == "killed" for v in verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
