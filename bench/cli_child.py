"""Traced stand-in for one cold ``strata-kit <cmd>`` process.

Usage: python3 bench/cli_child.py <cmd> [args...] < document.json

Runs the same work as the CLI call, split into spans: ``cli.import``, one
``residue.make_field`` per residue field the document's tower names,
``tower.splitting_field`` (for commands that use embeddings), then
``cli.main``.  Stdout is the CLI's own output; the spans and the
``make_field`` cache counters go to the last line of stderr.
"""

import io
import json
import sys
import time

SPAN_MARKER = "BENCH_SPANS "
NO_EMBEDDINGS = ("expand", "sr")


def _prime_power(q):
    p = 2
    while q % p:
        p += 1
    f = 0
    while q > 1:
        q //= p
        f += 1
    return p, f


def main():
    spans = []

    def span(name, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            spans.append((name, t0, time.perf_counter()))

    def load_cli():
        import strata_kit.cli
        return strata_kit.cli

    cli = span("cli.import", load_cli)
    from strata_kit import residue, serialize, tower

    raw = sys.stdin.buffer.read()
    code = 1
    try:
        doc = json.loads(raw)
        p, f = _prime_power(int(doc["tower"]["base_q"]))
        span("residue.make_field", residue.make_field, p, f)
        for level in doc["tower"].get("levels", []):
            f *= int(level["f"])
            span("residue.make_field", residue.make_field, p, f)
        if sys.argv[1] not in NO_EMBEDDINGS:
            span("tower.splitting_field",
                 lambda: tower.splitting_field(serialize.tower_from_json(doc["tower"])))
        sys.stdin = io.StringIO(raw.decode("utf-8"))
        code = span("cli.main", cli.main, sys.argv[1:])
    finally:
        sys.stdout.flush()
        info = residue.make_field.cache_info()
        sys.stderr.write("\n" + SPAN_MARKER + json.dumps(
            {"spans": spans, "make_field": [info.hits, info.misses]}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
