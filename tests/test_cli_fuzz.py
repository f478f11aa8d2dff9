"""Every document reader answers or refuses in one line, on mutated input.

Valid stratum, datum and element documents come from the seeded fuzzer.
Hypothesis mutates them: it drops keys, deletes or duplicates list
entries, and swaps in values of other types and huge or negative
integers.  Each mutant runs through ``cli.main`` in-process on a
subcommand that reads its kind of document; each kind is drawn equally
often.  The exit code must be one of 0 to 3, no exception may escape, and
a refusal writes one stderr line.
"""

import contextlib
import copy
import functools
import io
import json
import sys
from unittest import mock

from hypothesis import given, settings, strategies as st

from strata_kit import serialize as ser
from strata_kit.cli import main
from strata_kit.fuzz import random_depth_zero, random_stratum, rng_from_seed
from strata_kit.translate import secherre_to_yu

#: kind of document -> the subcommands that read it
READERS = {"stratum": ("stratum2yu", "groups", "indices"),
           "datum": ("yu2stratum",),
           "element": ("expand", "sr", "minimal", "factorize", "embeddings",
                       "generic")}

#: values swapped in for a document's own
ODD_VALUES = (None, True, "x", 1.5, [], {}, -1, 0, 2 ** 63, -2 ** 40, 10 ** 12)

SEEDS = 4       # valid documents of each kind


@functools.cache
def valid_documents():
    """kind -> documents from fuzzed strata, the last of depth zero."""
    rng = rng_from_seed(5)
    docs = {"stratum": [], "datum": [], "element": []}
    for k in range(SEEDS):
        stratum = random_depth_zero(rng) if k == SEEDS - 1 else random_stratum(rng)
        E = stratum.beta.owner
        docs["stratum"].append(ser.stratum_to_json(stratum))
        docs["datum"].append(ser.yu_to_json(secherre_to_yu(stratum)))
        docs["element"].append({"tower": ser.tower_to_json(E),
                                "element": ser.element_to_json(stratum.beta, E)})
    return docs


def paths(doc, prefix=()):
    """The path to every value below the root of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def mutate(data, doc):
    """One to three edits of a copy of ``doc``, each drawn from ``data``."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        found = list(paths(doc))
        if not found:
            break
        *head, key = data.draw(st.sampled_from(found))
        parent = functools.reduce(lambda node, k: node[k], head, doc)
        edit = data.draw(st.sampled_from(("drop", "duplicate", "swap")))
        if edit == "drop":
            del parent[key]
        elif edit == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = data.draw(st.sampled_from(ODD_VALUES))
    return doc


@settings(max_examples=300, deadline=5000, derandomize=True, database=None)
@given(st.data())
def test_mutated_documents_answer_or_refuse_in_one_line(data):
    kind = data.draw(st.sampled_from(sorted(READERS)))
    cmd = data.draw(st.sampled_from(READERS[kind]))
    doc = mutate(data, data.draw(st.sampled_from(valid_documents()[kind])))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(doc))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([cmd])
    assert code in (0, 1, 2, 3)
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
