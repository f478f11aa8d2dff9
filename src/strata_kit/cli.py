"""Command-line interface.

Every subcommand except ``fuzz`` and ``verify`` reads one JSON document
(stdin or --in FILE).  Every subcommand writes one JSON document to stdout
with sorted keys, so output is reproducible byte for byte.  Exit codes:
0 success, 1 malformed input, 2 domain error, 3 precision exhausted.

Handlers import what they call, and only ``errors`` and ``serialize`` load
here: a cold call loads and compiles only the modules its subcommand runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import DomainError, PrecisionError, SchemaError
from . import serialize as ser

#: Largest working precision that ``--prec`` or ``STRATA_KIT_PREC`` may set.
MAX_PREC = 4096

#: Largest number of cases that ``fuzz --count`` or ``verify --count`` may ask.
MAX_COUNT = 10000

SCHEMA_DOC = {
    "schema": ser.SCHEMA,
    "tower": {"base_q": "int (prime power)",
              "levels": [{"f": "int", "e": "int", "twist": "[int, ...]"}]},
    "element": {"field": "int (tower level index, 0 = base)",
                "digits": [["valuation", "[coords]"]],
                "prec": "int | null (null = exact)"},
    "stratum": {"tower": "...", "order": {"m": "int", "d": "int",
                                          "e_A": "int", "b_maximal": "bool"},
                "n": "int", "r": "int", "beta": "element"},
    "datum": {"tower": "...", "tower_degrees": "[int]", "depths": "['a/b']",
              "chunks": "[element | null]", "d": "int", "e_A": "int",
              "N": "int", "trivial_top": "bool", "depth_zero": "bool"},
    "rationals": "strings 'a/b'",
    "depths": {"value": "a/b", "plus": "bool"},
}


def _prec_setting(text: str) -> int:
    """The working precision named by ``--prec`` or ``STRATA_KIT_PREC``:
    an integer from 1 to :data:`MAX_PREC`."""
    try:
        prec = int(text)
    except ValueError:
        prec = 0
    if not 1 <= prec <= MAX_PREC:
        raise SchemaError("--prec / STRATA_KIT_PREC must be an integer from 1 "
                          f"to {MAX_PREC}, got {text!r}")
    return prec


def _count(text: str) -> int:
    """A ``--count`` value: an integer from 0 to :data:`MAX_COUNT`; anything
    else is an argparse usage error."""
    try:
        count = int(text)
    except ValueError:
        count = -1
    if not 0 <= count <= MAX_COUNT:
        raise argparse.ArgumentTypeError(
            f"must be an integer from 0 to {MAX_COUNT}, got {text!r}")
    return count


def _read_doc(args):
    try:
        if args.infile:
            with open(args.infile, "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.load(sys.stdin)
    except OSError as exc:
        raise SchemaError(f"cannot read input: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError; deep
        # nesting overflows the decoder's recursion
        raise SchemaError(f"invalid JSON input: {exc}") from exc


def _element_ctx(doc, prec):
    if not isinstance(doc, dict) or "tower" not in doc or "element" not in doc:
        raise SchemaError("document needs tower and element")
    E = ser.tower_from_json(doc["tower"])
    x = ser.element_from_json(doc["element"], E, default_prec=prec)
    return E, x


def _emit(obj):
    sys.stdout.write(ser.dumps(obj) + "\n")


def cmd_expand(args):
    E, x = _element_ctx(_read_doc(args), args.prec)
    out = {"schema": ser.SCHEMA, "element": ser.element_to_json(x, E)}
    if x.digits:
        out["val"] = x.val()
        out["ord"] = ser.rational_str(x.ord())
    _emit(out)


def cmd_sr(args):
    from .tower import sr
    E, x = _element_ctx(_read_doc(args), args.prec)
    rep = sr(x)
    gap = x - rep
    out = {"schema": ser.SCHEMA, "sr": ser.element_to_json(rep, E)}
    out["ord_gap"] = ser.rational_str(gap.ord()) if gap.digits else None
    _emit(out)


def cmd_minimal(args):
    from .minimal import is_minimal
    E, x = _element_ctx(_read_doc(args), args.prec)
    rep = is_minimal(x, E.base())
    out = {"schema": ser.SCHEMA,
           "criteria": list(rep.verdicts),
           "in_base": rep.in_base,
           "minimal": rep.minimal}
    if args.dump:
        out["witnesses"] = {k: str(v) for k, v in rep.witnesses.items()}
    _emit(out)


def cmd_factorize(args):
    from .minimal import howe_factorize
    E, x = _element_ctx(_read_doc(args), args.prec)
    fac = howe_factorize(x, E.base())    # raises unless self-certified
    out = {"schema": ser.SCHEMA,
           "chunks": [ser.element_to_json(c, E) for c in fac.chunks],
           "fields": [list(K.signature()) for K in fac.fields],
           "jumps": [ser.rational_str(r) for r in fac.depth_jumps()],
           "degenerate": fac.degenerate,
           "certified": True}
    _emit(out)


def cmd_embeddings(args):
    from .tower import embeddings, splitting_field
    doc = _read_doc(args)
    if not isinstance(doc, dict) or "tower" not in doc:
        raise SchemaError("document needs tower")
    E = ser.tower_from_json(doc["tower"])
    out = {"schema": ser.SCHEMA,
           "splitting": ser.tower_to_json(splitting_field(E)),
           "count": len(embeddings(E)),
           "embeddings": [s.to_json() for s in embeddings(E)]}
    _emit(out)


def cmd_generic(args):
    from .minimal import is_generic
    from .tower import coerce
    E, x = _element_ctx(_read_doc(args), args.prec)
    x = coerce(x, E)        # the levels below are built as subfields of E
    levels = E.levels
    big = args.big if args.big is not None else len(levels) - 1
    if not (0 <= big < len(levels) and 0 <= args.small < len(levels)):
        raise SchemaError("level index out of range")
    big, small = levels[big], levels[args.small]
    rep = is_generic(x, (big, small))
    out = {"schema": ser.SCHEMA,
           "ge1": rep.ge1,
           "generic": rep.ge1,
           "depth": ser.rational_str(rep.depth),
           "minimal": rep.minimal_consensus,
           "generates": rep.generates,
           "equivalence_holds": rep.equivalence_holds()}
    _emit(out)


def cmd_stratum2yu(args):
    from .translate import secherre_to_yu
    st = ser.stratum_from_json(_read_doc(args), default_prec=args.prec)
    _emit(ser.yu_to_json(secherre_to_yu(st)))


def cmd_yu2stratum(args):
    from .translate import yu_to_secherre
    yu = ser.yu_from_json(_read_doc(args), default_prec=args.prec)
    _emit(ser.stratum_to_json(yu_to_secherre(yu)))


def cmd_groups(args):
    from .strata import compare_presentations, presentation_secherre, presentation_yu
    from .translate import secherre_to_yu
    st = ser.stratum_from_json(_read_doc(args), default_prec=args.prec)
    h1, j, jhat = presentation_secherre(st)
    kp, kc, kk = presentation_yu(secherre_to_yu(st, check=False))
    out = {"schema": ser.SCHEMA, "pairs": {}}
    for a, b in ((h1, kp), (j, kc), (jhat, kk)):
        same, diff = compare_presentations(a, b)
        out["pairs"][f"{a.label}/{b.label}"] = {
            "equal": same, "normal_form": a.to_json(),
            **({"diff": diff} if diff else {})}
    _emit(out)


def cmd_indices(args):
    from .strata import index_card, j1_presentation, presentation_secherre
    from .translate import factchar_indices
    st = ser.stratum_from_json(_read_doc(args), default_prec=args.prec)
    h1, j, _ = presentation_secherre(st)
    tab = factchar_indices(st, t=args.t)
    out = {"schema": ser.SCHEMA,
           "J1_H1_q_exponent": index_card(j1_presentation(j), h1),
           "factchar": [{"chunk": i, "v_A": vA, "t_i": ti}
                        for i, vA, ti in tab.rows]}
    _emit(out)


def _suite_cases(args):
    from . import fuzz as fuzzmod
    rng = fuzzmod.rng_from_seed(args.seed)
    for i in range(args.count):
        if i % 10 == 9:
            yield fuzzmod.random_depth_zero(rng)
        else:
            yield fuzzmod.random_stratum(rng)


def cmd_fuzz(args):
    docs = [ser.stratum_to_json(st) for st in _suite_cases(args)]
    _emit({"schema": ser.SCHEMA, "seed": args.seed, "strata": docs})


def cmd_verify(args):
    from . import fuzz as fuzzmod, minimal, translate
    from .tower import sr
    failures = []
    cases = 0
    if args.suite in ("sr", "minimal"):
        rng = fuzzmod.rng_from_seed(args.seed)
        for _ in range(args.count):
            E = fuzzmod.random_tower(rng)
            x = fuzzmod.random_element(rng, E)
            cases += 1
            try:
                if args.suite == "sr":
                    rep = sr(x)
                    if not (rep.ord() == x.ord()):
                        failures.append("sr ord mismatch")
                else:
                    m = minimal.is_minimal(x, E.base())
                    if not m.agree():
                        failures.append("criteria disagree")
            except PrecisionError:
                continue
    elif args.suite == "factorize":
        for st in _suite_cases(args):
            cases += 1
            rep = minimal.check_factorization(st.fac)
            if not rep.ok:
                failures.append(rep.clause)
    elif args.suite == "presentations":
        for st in _suite_cases(args):
            cases += 1
            try:
                translate.secherre_to_yu(st)
            except DomainError as exc:
                failures.append(str(exc))
    elif args.suite == "roundtrip":
        for st in _suite_cases(args):
            cases += 1
            rep = translate.roundtrip_check(st)
            if not rep.ok:
                failures.append(str(rep.checks))
    elif args.suite in ("filtration", "oracle"):
        from .oracle import chain_from_field, regular_rep, v_A_direct
        from .strata import v_order
        for st in _suite_cases(args):
            E = st.order.pure_over
            if E.degree > 4:
                continue
            cases += 1
            ch = chain_from_field(E)
            got = v_A_direct(regular_rep(st.beta), ch)
            want = v_order(st.beta, st.order)
            if got != want:
                failures.append(f"v_A {got} != {want}")
    else:
        raise SchemaError(f"unknown suite {args.suite!r}")
    _emit({"schema": ser.SCHEMA, "suite": args.suite, "cases": cases,
           "failures": failures[:10], "failure_count": len(failures)})
    if failures:
        raise DomainError(f"suite {args.suite} failed {len(failures)} cases",
                          clause="suite_failed")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="strata-kit",
        description="Exact tame local-field and stratum calculus over GF(q)((t)).")
    parser.add_argument("--prec",
                        default=os.environ.get("STRATA_KIT_PREC", "64"),
                        help="default precision for elements without one "
                             f"(1 to {MAX_PREC})")
    parser.add_argument("--schema", action="store_true",
                        help="print the JSON schema sketch and exit")
    sub = parser.add_subparsers(dest="cmd")
    handlers = {}

    def add(name, fn, **extra):
        sp = sub.add_parser(name)
        for argname, kw in extra.items():
            sp.add_argument(argname, **kw)
        handlers[name] = fn
        return sp

    def add_reader(name, fn, **extra):
        # a subcommand that reads one JSON document
        sp = add(name, fn, **extra)
        sp.add_argument("--in", dest="infile", default=None,
                        help="input file (default: stdin)")
        return sp

    add_reader("expand", cmd_expand)
    add_reader("sr", cmd_sr)
    add_reader("minimal", cmd_minimal,
               **{"--dump": dict(action="store_true",
                                 help="include the criteria witnesses in the output")})
    add_reader("factorize", cmd_factorize)
    add_reader("embeddings", cmd_embeddings)
    add_reader("generic", cmd_generic,
               **{"--big": dict(type=int, default=None,
                                help="tower level index of the larger field"),
                  "--small": dict(type=int, default=0,
                                  help="tower level index of the smaller field")})
    add_reader("stratum2yu", cmd_stratum2yu)
    add_reader("yu2stratum", cmd_yu2stratum)
    add_reader("groups", cmd_groups)
    add_reader("indices", cmd_indices, **{"--t": dict(type=int, default=0)})
    add("fuzz", cmd_fuzz,
        **{"--seed": dict(type=int, default=0),
           "--count": dict(type=_count, default=10)})
    add("verify", cmd_verify,
        **{"--suite": dict(required=True,
                           choices=["sr", "minimal", "factorize", "filtration",
                                    "presentations", "roundtrip", "oracle"]),
           "--seed": dict(type=int, default=0),
           "--count": dict(type=_count, default=50)})
    return parser, handlers


def main(argv=None) -> int:
    parser, handlers = build_parser()
    args = parser.parse_args(argv)
    try:
        args.prec = _prec_setting(args.prec)
        if args.schema:
            _emit(SCHEMA_DOC)
            return 0
        if not args.cmd:
            parser.print_help()
            return 0
        handlers[args.cmd](args)
        return 0
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 1
    except PrecisionError as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"domain error [{exc.clause}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
