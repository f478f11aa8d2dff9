"""Self-test of the benchmark itself, with tiny case counts.

    python3 -m pytest -q bench/test_bench.py
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("verify", "oracle", "cold_cli")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def golden():
    return run.load_golden()


@pytest.fixture(scope="module")
def ready():
    """One set-up instance per workload."""
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        out[name] = cls()
        out[name].setup()
    return out


def _keys(wl, n, seed=1):
    return list(itertools.islice(
        harness.make_plan(wl.classes, wl.variants, seed, wl.shuffle_rounds), n))


def test_benchmark_json_matches_the_harness(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.per_layer_names()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(spec, workload, trace):
    line, record = run.run(workload, 1, 0.3, trace)
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert record["failed_cases"] == []


def test_command_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "3",
         "--seconds", "0.3", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert set(json.loads(lines[-1])) == {"correct", "attempted", "failed", "metrics"}
    assert json.loads(lines[-2])["record"]["seed"] == 3


def test_corrupted_digest_fails_the_case(golden, ready):
    wl = ready["oracle"]
    keys = _keys(wl, 3)
    bad = dict(golden["oracle"])
    bad[keys[1]] = "0" * 16
    results, _ = harness.run_cases(keys, wl.execute, bad, wl.budget_s)
    assert [r.ok for r in results] == [True, False, True]
    assert results[1].module == "digest"


def test_corrupted_golden_raises_failed_fraction(golden):
    bad = json.loads(json.dumps(golden))
    bad["oracle"] = {k: "0" * 16 for k in bad["oracle"]}
    line, record = run.run("oracle", 1, 0.3, 0, golden=bad)
    assert not line["correct"]
    assert line["failed"] == line["attempted"]
    assert line["metrics"]["ok_frac"]["value"] == 0
    assert len(record["failed_cases"]) == line["failed"]


def test_overrunning_case_fails_and_does_not_hang():
    def sleeper(key, call):
        time.sleep(30)

    t0 = time.perf_counter()
    results, _ = harness.run_cases(["slow/0", "slow/1"], sleeper, {}, 0.2)
    assert time.perf_counter() - t0 < 5
    assert [r.ok for r in results] == [False, False]
    assert all("budget" in r.error for r in results)


def test_overrunning_cli_call_fails_and_does_not_hang(ready):
    wl = workloads.ColdCli()
    wl.specs, wl.docs = ready["cold_cli"].specs, ready["cold_cli"].docs
    wl.budget_s = 0.01
    key = _keys(wl, 1)[0]
    t0 = time.perf_counter()
    results, _ = harness.run_cases([key], wl.execute, {}, wl.budget_s, alarm=False)
    assert time.perf_counter() - t0 < 5
    assert not results[0].ok and "past" in results[0].error


def test_overrunning_setup_fails_and_does_not_hang(monkeypatch, golden):
    monkeypatch.setattr(run, "SETUP_BUDGET_S", 0.05)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError):
        run.setup_once(workloads.Verify(), 1, golden)
    assert time.perf_counter() - t0 < 5


@pytest.mark.parametrize("workload,count", (("verify", 6), ("oracle", 4),
                                            ("cold_cli", 2)))
def test_traced_and_untraced_cases_agree(golden, ready, workload, count):
    wl = ready[workload]
    keys = _keys(wl, count, seed=5)
    plain, _ = harness.run_cases(keys, wl.execute, golden[workload],
                                 wl.budget_s, alarm=wl.alarm)
    tracer = harness.Tracer()
    wl.tracer, wl.child_counters = tracer, []
    try:
        traced, _ = harness.run_cases(keys, wl.execute, golden[workload],
                                      wl.budget_s, call=tracer.call,
                                      tracer=tracer,
                                      alarm=wl.alarm)
    finally:
        wl.tracer = None
    assert all(r.ok for r in plain + traced)
    assert [r.digest for r in plain] == [r.digest for r in traced]
    assert tracer.spans and all(s is not None for s in tracer.spans)
    totals = tracer.layer_totals()
    assert all(busy >= 0 for _, busy in totals.values())


def test_self_time_subtracts_children():
    tr = harness.Tracer()
    outer = tr.add("a", 0.0, 10.0)
    tr.add("b", 1.0, 4.0, outer)
    tr.add("b", 5.0, 6.0, outer)
    assert tr.layer_totals() == {"a": [1, 6.0], "b": [2, 4.0]}


def test_same_seed_same_plan():
    wl = workloads.Verify
    first = harness.digest(_keys(wl, 500, seed=4))
    assert first == harness.digest(_keys(wl, 500, seed=4))
    assert first != harness.digest(_keys(wl, 500, seed=5))


def test_tail_leaves_ten_samples_above():
    assert harness.tail(list(range(1, 101))) == (90, 90.0)
    assert harness.tail(list(range(1, 41))) == (30, 75.0)


def test_case_times_are_medians_at_reference_speed(monkeypatch):
    runs = []
    for key, seconds, ref in (("a/0", 2.0, 2 * harness.REF_NOMINAL_S),
                              ("b/0", 1.0, harness.REF_NOMINAL_S),
                              ("a/0", 1.2, harness.REF_NOMINAL_S),
                              ("a/0", 3.0, harness.REF_NOMINAL_S)):
        runs.append(harness.CaseResult(key, True, seconds, "x"))
        runs[-1].ref = ref
    # each run scaled by its own reference run
    monkeypatch.setattr(harness, "REF_WINDOW", 1)
    assert harness.case_times(runs) == {"a/0": 1.2, "b/0": 1.0}
    # each run scaled by the median reference of the runs around it
    monkeypatch.setattr(harness, "REF_WINDOW", 9)
    assert harness.case_times(runs) == {"a/0": 2.0, "b/0": 1.0}


def test_exits_nonzero_without_the_program():
    bare = os.path.join(run.OUT_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
