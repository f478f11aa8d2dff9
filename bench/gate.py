"""Behaviour gate: recorded digests of program output.

``record()`` writes ``golden.json``: the digest of every case record of
every workload population, of ``strata-kit --schema``, and of the untimed
CLI check set below.  ``check()`` re-runs the check set and compares.
Record only at a commit whose behaviour is the reference; a change that
means to keep behaviour must pass the gate without re-recording.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import harness
import workloads

README_ELEMENT = {
    "tower": {"base_q": 3, "levels": [{"f": 1, "e": 2, "twist": [1]}]},
    "element": {"field": 1, "digits": [[-4, [1]], [-1, [1]]], "prec": None}}

#: the first and third strata of ``strata-kit fuzz --seed 7``
STRATA = (
    {"beta": {"digits": [[-1, [3, 1]]], "field": 1, "prec": None},
     "kind": "simple", "n": 1,
     "order": {"b_maximal": True, "d": 1, "e_A": 4, "m": 8}, "r": 0,
     "schema": "strata-kit/v1",
     "tower": {"base_q": 5, "levels": [{"e": 4, "f": 2, "twist": [1, 1]}]}},
    {"beta": {"digits": [[-2, [2, 2, 1]], [-1, [0, 2, 1]]], "field": 1,
              "prec": None},
     "kind": "simple", "n": 2,
     "order": {"b_maximal": True, "d": 1, "e_A": 1, "m": 3}, "r": 0,
     "schema": "strata-kit/v1",
     "tower": {"base_q": 3, "levels": [{"e": 1, "f": 3, "twist": [1, 2, 0]}]}},
)

GOLDEN = os.path.join(workloads.BENCH_DIR, "golden.json")

VERIFY_SUITES = ("sr", "minimal", "factorize", "filtration", "presentations",
                 "roundtrip", "oracle")


def check_set():
    """(name, argv after ``strata-kit``, stdin document) of the gate set."""
    out = [("fuzz-seed7-count20", ["fuzz", "--seed", "7", "--count", "20"], None)]
    out += [(f"verify-{s}-seed1", ["verify", "--suite", s, "--seed", "1"], None)
            for s in VERIFY_SUITES]
    out.append(("factorize-readme", ["factorize"], README_ELEMENT))
    for i, st in enumerate(STRATA):
        out.append((f"groups-stratum{i}", ["groups"], st))
        out.append((f"indices-stratum{i}", ["indices", "--t", "0"], st))
    return out


def _cli(argv, doc=None, timeout=300):
    """(exit code, digest of exit code and stdout) of one CLI process."""
    data = b"" if doc is None else json.dumps(doc).encode()
    proc = subprocess.run([sys.executable, "-c", workloads.CLI_ENTRY, *argv],
                          input=data, capture_output=True, timeout=timeout,
                          env=workloads.child_env(), cwd=workloads.ROOT)
    return proc.returncode, harness.bytes_digest(
        b"%d\n" % proc.returncode + proc.stdout)


def check():
    want = _load()["check"]
    mismatched = []
    for name, argv, doc in check_set():
        _, got = _cli(argv, doc)
        if got != want.get(name):
            mismatched.append({"name": name, "digest": got,
                               "recorded": want.get(name)})
    print(json.dumps({"checked": len(check_set()), "mismatched": mismatched}))
    return 1 if mismatched else 0


def _load():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def record():
    golden = {"check": {}}
    for name, argv, doc in check_set():
        code, golden["check"][name] = _cli(argv, doc)
        if code != 0:
            raise RuntimeError(f"check command {name} exits {code}")
    proc = subprocess.run([sys.executable, "-c", workloads.CLI_ENTRY, "--schema"],
                          capture_output=True, timeout=60,
                          env=workloads.child_env(), cwd=workloads.ROOT)
    golden["schema"] = harness.bytes_digest(proc.stdout)
    for name, cls in workloads.WORKLOADS.items():
        wl = cls()
        wl.setup()
        keys = [f"{c}/{k}" for c in wl.classes for k in range(wl.variants)]
        results, _ = harness.run_cases(keys, wl.execute, {}, wl.budget_s,
                                       alarm=wl.alarm)
        broken = [(r.key, r.error) for r in results if r.digest is None]
        if broken:
            raise RuntimeError(f"{name}: cases fail, nothing recorded: {broken[:5]}")
        golden[name] = {r.key: r.digest for r in results}
        print(f"{name}: {len(results)} cases recorded", file=sys.stderr)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0
