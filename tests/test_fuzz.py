"""The seeded fuzzer is part of every suite's reproducibility: its output
for fixed seeds is pinned byte for byte, and its random stream is held to
a reference digit loop call by call."""

import hashlib
import math
import random
from collections import Counter

from strata_kit import fuzz, serialize, tower

#: sha256 over the newline-terminated stratum documents of seeds 0..199
RANDOM_STRATUM_DIGEST = \
    "4336c5ee55cb67b82cbc2e1811f6cd56d0a0ed9489a4f52955c5d265038396b8"


def test_random_stratum_output_is_pinned():
    h = hashlib.sha256()
    for seed in range(200):
        st = fuzz.random_stratum(random.Random(seed))
        h.update(serialize.dumps(serialize.stratum_to_json(st)).encode())
        h.update(b"\n")
    assert h.hexdigest() == RANDOM_STRATUM_DIGEST


def _trial_generating_monomial(rng, level, ambient, v_ambient):
    """The reference: the fuzzer's digit loop as first written, which
    shuffles the logs and tries the first 24 with ``monomial_degree``."""
    step = ambient.e_abs // level.e_abs
    if v_ambient % step != 0:
        return None
    v_lvl = v_ambient // step
    order = list(range(level.residue.q - 1))
    rng.shuffle(order)
    for a in order[:24]:
        if tower.monomial_degree(level, v_lvl, a) == level.degree:
            return tower.coerce(level.monomial(v_lvl, level.residue.gen_power(a)),
                                ambient)
    return None


def test_generating_monomial_keeps_the_random_stream():
    # same answer and same generator state as the reference, call by call,
    # whether the valuation is refused by the step, by gcd(v, e) or by
    # every tried digit
    towers = random.Random(30)
    seen = Counter()
    for _ in range(90):
        E = fuzz.random_tower(towers)
        for level in E.levels:
            step = E.e_abs // level.e_abs
            for v in range(-3 * E.e_abs, 1):
                seed = towers.randrange(2 ** 32)
                got_rng, want_rng = random.Random(seed), random.Random(seed)
                got = fuzz.generating_monomial(got_rng, level, E, v)
                want = _trial_generating_monomial(want_rng, level, E, v)
                assert got_rng.getstate() == want_rng.getstate()
                if want is None:
                    assert got is None
                else:
                    assert (got.owner, got.digits, got.prec) == \
                        (want.owner, want.digits, want.prec)
                seen["calls"] += 1
                seen["off_step"] += v % step != 0
                seen["shared"] += v % step == 0 and math.gcd(v // step, level.e_abs) > 1
                seen["found"] += want is not None
                seen["small_q" if level.residue.q - 1 < 24 else "large_q"] += 1
    assert seen["calls"] >= 2000 and seen["found"] > 500
    assert min(seen["off_step"], seen["shared"], seen["small_q"], seen["large_q"]) > 200
