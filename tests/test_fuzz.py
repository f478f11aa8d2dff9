"""The seeded fuzzer is part of every suite's reproducibility: its output
for fixed seeds is pinned byte for byte."""

import hashlib
import random

from strata_kit import fuzz, serialize

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
