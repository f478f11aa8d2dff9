"""Import graph of a cold CLI call: each subcommand loads only the
strata_kit modules it runs, and none loads the oracle, dataclasses or
copy.

Every cold ``strata-kit`` process imports and compiles each module it
loads, so a module pulled in by a subcommand that does not use it costs
every call.  Each group below runs in a fresh interpreter."""

import json
import os
import subprocess
import sys

import pytest

from strata_kit import serialize, translate

TOWER = {"base_q": 3, "levels": [{"f": 1, "e": 2, "twist": [1]}]}
ELEMENT = {"tower": TOWER,
           "element": {"field": 1, "digits": [[-4, [1]], [-1, [1]]], "prec": None}}
MINIMAL = {"tower": TOWER,
           "element": {"field": 1, "digits": [[-1, [1]]], "prec": None}}
STRATUM = {"tower": TOWER, "beta": ELEMENT["element"],
           "order": {"m": 2, "d": 1, "e_A": 2, "b_maximal": True}, "r": 0}
DATUM = serialize.yu_to_json(translate.secherre_to_yu(serialize.stratum_from_json(STRATUM)))

BASE = {"strata_kit", "strata_kit.cli", "strata_kit.errors",
        "strata_kit.residue", "strata_kit.serialize", "strata_kit.tower"}
WITH_MINIMAL = BASE | {"strata_kit.minimal"}
WITH_STRATA = WITH_MINIMAL | {"strata_kit.strata", "strata_kit.translate"}

CHILD = """
import io, json, sys
from strata_kit.cli import main
snapshots = []
for argv, doc in json.loads(sys.argv[1]):
    sys.stdin = io.StringIO(json.dumps(doc))
    sys.stdout = io.StringIO()
    code = main(argv)
    sys.stdout = sys.__stdout__
    snapshots.append([code, sorted(m for m in sys.modules
                                   if m.split(".")[0] in ("strata_kit", "dataclasses",
                                                          "copy"))])
print(json.dumps(snapshots))
"""


GROUPS = {
    "element": ([(["expand"], ELEMENT), (["sr"], ELEMENT),
                 (["embeddings"], {"tower": TOWER})], BASE),
    "minimal": ([(["minimal"], MINIMAL), (["factorize"], ELEMENT),
                 (["generic", "--small", "0"], MINIMAL)], WITH_MINIMAL),
    "stratum": ([(["stratum2yu"], STRATUM), (["yu2stratum"], DATUM),
                 (["groups"], STRATUM), (["indices", "--t", "0"], STRATUM)],
                WITH_STRATA),
    "fuzz": ([(["fuzz", "--seed", "7", "--count", "3"], None)],
             WITH_MINIMAL | {"strata_kit.strata", "strata_kit.fuzz"}),
    "verify": ([(["verify", "--suite", suite, "--seed", "1", "--count", "3"], None)
                for suite in ("sr", "minimal", "factorize", "presentations",
                              "roundtrip")],
               WITH_STRATA | {"strata_kit.fuzz"}),
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_subcommand_loads_only_what_it_runs(group):
    calls, want = GROUPS[group]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(calls)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for (argv, _), (code, loaded) in zip(calls, json.loads(proc.stdout)):
        assert code == 0, argv
        assert not {"strata_kit.oracle", "dataclasses", "copy"} & set(loaded), argv
        assert set(loaded) == want, argv
