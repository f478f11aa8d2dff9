"""strata-kit benchmark: one command for every workload and metric.

    python3 bench/run.py --workload verify|oracle|cold_cli --seed N \\
        --seconds S --trace 0|1
    python3 bench/run.py --check       # untimed behaviour gate (CLI digests)
    python3 bench/run.py --record      # re-record golden.json (see NOTES.md)

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src``.  The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
run record (machine, seed, counts, budget, input digest).  The full
result, every failed case and, with ``--trace 1``, the spans are written
to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import signal
import subprocess
import sys
import time

import harness

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
GOLDEN = os.path.join(BENCH_DIR, "golden.json")

#: the seed used while writing changes, and the one kept for confirming
#: a claimed gain on inputs the change was not tuned on
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: wall-clock budget of one fresh set-up; a set-up that overruns it fails
#: the run instead of hanging it
SETUP_BUDGET_S = 60

#: reference-loop runs timed after each fresh set-up; the median of all
#: of them scales the median set-up time
REF_RUNS = 21

END_TO_END = (("throughput_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("ok_frac", "frac"))

#: traced calls per workload; every name is reported on every workload
SPANS = (
    "fuzz.random_tower", "fuzz.random_stratum", "fuzz.random_depth_zero",
    "tower.sr", "tower.mul", "tower.inverse", "tower.embeddings",
    "tower.apply_embedding", "tower.subfield_generated",
    "minimal.is_minimal", "minimal.howe_factorize", "minimal.check_factorization",
    "serialize.stratum_to_json", "serialize.stratum_from_json",
    "translate.secherre_to_yu", "translate.roundtrip_check",
    "translate.factchar_indices",
    "strata.defining_sequence", "strata.presentation_secherre",
    "strata.presentation_yu", "strata.compare_presentations", "strata.v_order",
    "oracle.regular_rep", "oracle.v_A_direct", "oracle.filt_lattice",
    "oracle.lattice_index", "oracle.intersect_with_centralizer",
    "oracle.psi_witness", "oracle.eval_psi_c",
    "cli.process", "cli.import", "residue.make_field", "tower.splitting_field",
    "cli.main",
)
FAIL_MODULES = ("fuzz", "tower", "minimal", "serialize", "translate", "strata",
                "oracle", "residue", "cli", "digest", "bench")


def per_layer_names():
    out = []
    for name in SPANS:
        out += [(f"{name}.calls", "count"), (f"{name}.busy_s", "s")]
    out += [("residue.fields_built", "count"),
            ("residue.make_field.lookups", "count"),
            ("residue.make_field.hit_ratio", "frac")]
    out += [(f"{m}.fails", "count") for m in FAIL_MODULES]
    out.append(("trace.overhead_frac", "frac"))
    return out


def _load_program():
    if not os.path.isfile(os.path.join(SRC, "strata_kit", "__init__.py")):
        sys.stderr.write(f"bench: no strata_kit sources under {SRC}\n")
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads
    return workloads


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def _first_round(wl, seed):
    return list(itertools.islice(
        harness.make_plan(wl.classes, wl.variants, seed, wl.shuffle_rounds),
        len(wl.classes)))


def probe(workload, seed):
    """Child side of a set-up measurement: set up, run one warm-up round,
    then say so."""
    wl = _load_program().WORKLOADS[workload]()
    wl.setup()
    for key in _first_round(wl, seed):
        wl.execute(key)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    refs = [harness.reference_seconds() for _ in range(REF_RUNS)]
    sys.stdout.write(json.dumps(refs) + "\n")


def setup_once(wl, seed, golden):
    """Seconds of one fresh set-up, and of the reference loop runs timed
    right after it (in the set-up process itself where there is one).
    In-process workloads: from starting a process to the end of its
    warm-up round.  cold_cli: one cold ``strata-kit --schema`` process, the
    fixed cost of every call."""
    import workloads
    t0 = time.perf_counter()
    if wl.name == "cold_cli":
        proc = subprocess.run(
            [sys.executable, "-c", workloads.CLI_ENTRY, "--schema"],
            capture_output=True, timeout=SETUP_BUDGET_S,
            env=workloads.child_env(), cwd=ROOT)
        elapsed = time.perf_counter() - t0
        refs = [harness.reference_seconds() for _ in range(REF_RUNS)]
        ok = (proc.returncode == 0
              and harness.bytes_digest(proc.stdout) == golden["schema"])
    else:
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--probe",
             "--workload", wl.name, "--seed", str(seed)],
            stdout=subprocess.PIPE, cwd=ROOT)
        ok = False
        old = signal.signal(signal.SIGALRM, harness.on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SETUP_BUDGET_S)
        try:
            ok = proc.stdout.readline() == b"ready\n"
            elapsed = time.perf_counter() - t0
        except harness.CaseTimeout:
            pass
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
            if not ok:
                proc.kill()
            rest, _ = proc.communicate()
        ok = ok and proc.returncode == 0
        if ok:
            refs = json.loads(rest)
    if not ok:
        raise RuntimeError(f"set-up run of {wl.name} failed")
    return elapsed, refs


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run(workload, seed, seconds, trace, golden=None):
    """One benchmark run; returns (result line, run record)."""
    workloads = _load_program()
    golden_all = golden if golden is not None else load_golden()
    wl = workloads.WORKLOADS[workload]()
    cases_golden = golden_all[workload]
    setup_raw, setup_refs = [], []
    for _ in range(0 if trace else wl.setup_runs):
        elapsed, refs = setup_once(wl, seed, golden_all)
        setup_raw.append(elapsed)
        setup_refs += refs
    wl.setup()
    alarm = wl.alarm
    warm, _ = harness.run_cases(_first_round(wl, seed), wl.execute, cases_golden,
                                wl.budget_s, alarm=alarm)
    plan = harness.make_plan(wl.classes, wl.variants, seed, wl.shuffle_rounds)
    head = list(itertools.islice(
        harness.make_plan(wl.classes, wl.variants, seed, wl.shuffle_rounds),
        harness.PLAN_DIGEST_KEYS))
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": bool(trace), "budget_s": wl.budget_s,
              "population": len(wl.classes) * wl.variants,
              "plan_digest": harness.digest(head),
              "warmup_failed": [r.key for r in warm if not r.ok],
              **harness.environment(ROOT)}
    if not trace:
        results, wall = harness.run_cases(
            plan, wl.execute, cases_golden, wl.budget_s,
            deadline=time.perf_counter() + seconds, alarm=alarm, reference=True)
        failed = [r for r in results if not r.ok]
        per_case = harness.case_times(results)
        times = list(per_case.values())
        bad_keys = {r.key for r in failed}
        tail_v, tail_pct = harness.tail(times)
        metrics = {
            "throughput_per_s": (len(per_case) - len(bad_keys)) / sum(times),
            "latency_p50_ms": harness.median(times) * 1e3,
            "latency_tail_ms": tail_v * 1e3,
            "setup_s": harness.at_reference_speed(harness.median(setup_raw),
                                                  harness.median(setup_refs)),
            "peak_rss_mb": _peak_rss_mb(workload),
            "ok_frac": (len(results) - len(failed)) / len(results),
        }
        refs = [r.ref for r in results]
        record.update(
            attempted=len(results), cases_timed=len(per_case),
            passes=len(results) / record["population"], wall_s=wall,
            latency_tail_pct=tail_pct,
            reference_median_s=harness.median(refs),
            raw_wall_throughput_per_s=(len(results) - len(failed)) / wall,
            raw_latency_p50_ms=harness.median([r.seconds for r in results]) * 1e3,
            raw_setup_s=setup_raw,
            setup_reference_median_s=harness.median(setup_refs))
    else:
        metrics, results, failed = _traced(wl, plan, cases_golden, seconds,
                                           alarm, record)
    record["failed_cases"] = [
        {"key": r.key, "module": r.module, "error": r.error} for r in failed]
    units = dict(END_TO_END if not trace else per_layer_names())
    line = {"correct": not failed, "attempted": len(results),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return line, record


def _traced(wl, plan, golden, seconds, alarm, record):
    """Each case runs twice, untraced and traced, in alternating order so
    that drift in machine speed cancels: the per-layer metrics come from
    the traced runs, and the throughput difference between the two sets
    is the tracing overhead."""
    tracer = harness.Tracer()
    wl.child_counters = []
    info0 = _make_field_info()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    for i, key in enumerate(plan):
        if time.perf_counter() >= deadline:
            break
        for traced_pass in ((False, True) if i % 2 == 0 else (True, False)):
            wl.tracer = tracer if traced_pass else None
            res, _ = harness.run_cases(
                [key], wl.execute, golden, wl.budget_s, alarm=alarm,
                call=tracer.call if traced_pass else harness.plain_call,
                tracer=tracer if traced_pass else None)
            (traced if traced_pass else plain).extend(res)
    wl.tracer = None
    info1 = _make_field_info()
    hits, misses = info1.hits - info0.hits, info1.misses - info0.misses
    for h, m in wl.child_counters:
        hits += h
        misses += m
    mismatched = [b for a, b in zip(plain, traced)
                  if b.ok and a.digest != b.digest]
    for r in mismatched:
        r.ok, r.module, r.error = False, "bench", "traced result differs"
    results = plain + traced
    failed = [r for r in results if not r.ok]
    totals = tracer.layer_totals()
    metrics = {}
    for name in SPANS:
        calls, busy = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.busy_s"] = busy
    lookups = hits + misses
    metrics["residue.fields_built"] = (misses if wl.name == "cold_cli"
                                       else info1.misses)
    metrics["residue.make_field.lookups"] = lookups
    metrics["residue.make_field.hit_ratio"] = hits / lookups if lookups else 0.0
    fails = {m: 0 for m in FAIL_MODULES}
    for r in failed:
        fails[r.module if r.module in fails else "bench"] += 1
    metrics.update({f"{m}.fails": n for m, n in fails.items()})
    busy_plain = sum(r.seconds for r in plain)
    busy_traced = sum(r.seconds for r in traced)
    metrics["trace.overhead_frac"] = 1 - busy_plain / busy_traced
    record.update(attempted=len(results), untraced_busy_s=busy_plain,
                  traced_busy_s=busy_traced, spans=len(tracer.spans))
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(
        OUT_DIR, f"spans-{wl.name}-seed{record['seed']}.json"))
    return metrics, results, failed


def _make_field_info():
    from strata_kit.residue import make_field
    return make_field.cache_info()


def _peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cold_cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("verify", "oracle", "cold_cli"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true",
                    help="run the untimed CLI behaviour gate and exit")
    ap.add_argument("--record", action="store_true",
                    help="re-record golden.json from this checkout and exit")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.check or args.record:
        _load_program()
        import gate
        return gate.record() if args.record else gate.check()
    if args.workload is None:
        ap.error("--workload is required")
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    line, record = run(args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump({"result": line, "record": record}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
