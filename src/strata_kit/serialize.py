"""Deterministic JSON serialization for towers, elements, and strata.

Every document carries the schema tag and serializes with sorted keys so
that output is byte-identical across runs.  Malformed input raises
SchemaError; semantic violations (bad twist, wrong residue coords, ...)
surface as DomainError from the constructors.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import DomainError, SchemaError
from .residue import make_field
from .tower import INF, TameElement, TameField, base_field, extend

SCHEMA = "strata-kit/v1"

#: most digits one element document, or all chunks of one datum together,
#: may list; work grows with the digit count, so this bounds one document
MAX_DIGITS = 256


def rational_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def rational_from_str(s: str) -> Fraction:
    try:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    except (AttributeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {s!r}") from exc


def _int(value, what: str) -> int:
    """``value`` as an int; SchemaError for bools, for numbers with a
    fractional part and for what int() rejects."""
    if not isinstance(value, bool) and not (isinstance(value, float)
                                            and not value.is_integer()):
        try:
            return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise SchemaError(f"{what} must be an integer, not {value!r}")


def _bool(obj: dict, key: str, default: bool) -> bool:
    """``obj[key]`` (``default`` when missing), which must be a JSON boolean."""
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise SchemaError(f"{key} must be true or false, not {value!r}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a list, not {value!r}")
    return value


def _check_digit_count(count: int) -> None:
    if count > MAX_DIGITS:
        raise DomainError(f"{count} digits exceed the cap of {MAX_DIGITS} per document",
                          clause="too_many_digits")


def _coords(coords, f: int) -> list:
    """A residue coordinate list of at most ``f`` entries, zero-padded to ``f``."""
    if not isinstance(coords, list):
        raise SchemaError("residue coordinates must be a list")
    if len(coords) > f:
        raise SchemaError(f"{len(coords)} residue coordinates exceed f = {f}")
    return [_int(c, "residue coordinate") for c in coords] + [0] * (f - len(coords))


def tower_to_json(E: TameField) -> dict:
    levels = [{"f": nd.f_rel, "e": nd.e_rel, "twist": list(nd.twist.coords)}
              for nd in E.levels[1:]]
    return {"base_q": E.q, "levels": levels}


def tower_from_json(obj) -> TameField:
    if not isinstance(obj, dict) or "base_q" not in obj:
        raise SchemaError("tower document needs base_q")
    cur = base_field(_int(obj["base_q"], "base_q"))
    levels = obj.get("levels", [])
    if not isinstance(levels, list):
        raise SchemaError("tower levels must be a list")
    for lvl in levels:
        if not isinstance(lvl, dict) or "f" not in lvl or "e" not in lvl:
            raise SchemaError("tower level needs f and e")
        f, e = _int(lvl["f"], "level f"), _int(lvl["e"], "level e")
        res = make_field(cur.p, cur.base_f * cur.f_over_base * f)
        cur = extend(cur, f, e, res.elem(_coords(lvl.get("twist", [1]), res.f)))
    return cur


def element_to_json(x: TameElement, tower: TameField) -> dict:
    if not x.owner.is_ancestor_of(tower):
        raise SchemaError("element owner is not a level of the given tower")
    digits = sorted((v, list(a.coords)) for v, a in x.digits.items())
    return {"field": len(x.owner.levels) - 1,
            "digits": [[v, c] for v, c in digits],
            "prec": None if x.prec is INF else int(x.prec)}


def element_from_json(obj, tower: TameField, default_prec=None) -> TameElement:
    if not isinstance(obj, dict) or "digits" not in obj:
        raise SchemaError("element document needs digits")
    levels = tower.levels
    idx = obj.get("field", len(levels) - 1)
    if type(idx) is not int or not 0 <= idx < len(levels):
        raise SchemaError(f"field index {idx!r} out of range")
    owner = levels[idx]
    if not isinstance(obj["digits"], list):
        raise SchemaError("digits must be [valuation, coords] pairs")
    _check_digit_count(len(obj["digits"]))
    digits = {}
    for pair in obj["digits"]:
        if (not isinstance(pair, list) or len(pair) != 2
                or type(pair[0]) is not int or not isinstance(pair[1], list)):
            raise SchemaError("digits must be [valuation, coords] pairs")
        v, coords = pair
        if v in digits:
            raise SchemaError(f"digits name valuation {v} twice")
        digits[v] = owner.residue.elem(_coords(coords, owner.residue.f))
    prec = obj.get("prec")
    if prec is None:
        prec = INF if default_prec is None else default_prec
    else:
        prec = _int(prec, "prec")
    return TameElement(owner, digits, prec)


def stratum_to_json(st) -> dict:
    E = st.order.pure_over
    return {"schema": SCHEMA,
            "tower": tower_to_json(E),
            "order": {"m": st.order.m, "d": st.order.d, "e_A": st.order.e_A,
                      "b_maximal": st.order.b_maximal},
            "n": st.n, "r": st.r, "kind": st.kind,
            "beta": element_to_json(st.beta, E)}


def stratum_from_json(obj, default_prec=None):
    from .strata import OrderSkeleton, StratumSkeleton
    if not isinstance(obj, dict):
        raise SchemaError("stratum document must be an object")
    if obj.get("schema", SCHEMA) != SCHEMA:
        raise SchemaError(f"unknown schema tag {obj.get('schema')!r}")
    if "tower" not in obj or "beta" not in obj:
        raise SchemaError("stratum document needs tower and beta")
    E = tower_from_json(obj["tower"])
    beta = element_from_json(obj["beta"], E, default_prec)
    ospec = obj.get("order", {})
    if not isinstance(ospec, dict):
        raise SchemaError("order must be an object")
    m = _int(ospec.get("m", E.degree), "order m")
    d = _int(ospec.get("d", 1), "order d")
    e_A = _int(ospec.get("e_A", E.e_abs), "order e_A")
    b_maximal = _bool(ospec, "b_maximal", True)
    if d > 1:
        # nothing realizes M_m(D) for a division algebra D != F: the oracle
        # covers M_N(F) only, so a d > 1 answer could not be checked
        raise DomainError(f"order d = {d}: only split orders (d = 1) are "
                          "supported", clause="non_split_order")
    order = OrderSkeleton(m=m, d=d, e_A=e_A, pure_over=E, b_maximal=b_maximal)
    st = StratumSkeleton(order, beta, r=_int(obj.get("r", 0), "r"))
    if "n" in obj and _int(obj["n"], "n") != st.n:
        raise DomainError(f"stated n = {obj['n']} disagrees with the derived "
                          f"n = -v_A(beta) = {st.n}", clause="n_mismatch")
    if "kind" in obj:
        if not isinstance(obj["kind"], str):
            raise SchemaError(f"kind must be a string, not {obj['kind']!r}")
        if obj["kind"] != st.kind:
            raise DomainError(f"stated kind {obj['kind']!r} disagrees with the "
                              f"derived kind {st.kind!r}", clause="kind_mismatch")
    return st


def yu_to_json(yu) -> dict:
    E = yu.ambient
    return {"schema": SCHEMA,
            "tower": tower_to_json(E),
            "tower_degrees": list(yu.tower_degrees),
            "depths": [rational_str(r) for r in yu.depths],
            "chunks": [None if c is None else element_to_json(c, E)
                       for c in yu.chunks],
            "d": yu.d, "e_A": yu.e_A, "N": yu.N,
            "trivial_top": yu.trivial_top,
            "depth_zero": yu.depth_zero}


def yu_from_json(obj, default_prec=None):
    from .translate import YuSkeleton
    if not isinstance(obj, dict):
        raise SchemaError("datum document must be an object")
    if obj.get("schema", SCHEMA) != SCHEMA:
        raise SchemaError(f"unknown schema tag {obj.get('schema')!r}")
    for key in ("tower", "depths", "chunks", "d", "e_A", "N"):
        if key not in obj:
            raise SchemaError(f"datum document needs {key}")
    E = tower_from_json(obj["tower"])
    chunk_docs = _list(obj["chunks"], "chunks")
    chunks = [None if c is None else element_from_json(c, E, default_prec)
              for c in chunk_docs]
    _check_digit_count(sum(len(c["digits"]) for c in chunk_docs if c is not None))
    depths = [rational_from_str(s) for s in _list(obj["depths"], "depths")]
    degrees = _list(obj.get("tower_degrees", [E.degree] * (len(depths) - 1) + [1]),
                    "tower_degrees")
    return YuSkeleton(
        ambient=E,
        tower_degrees=tuple(_int(k, "tower degree") for k in degrees),
        depths=depths,
        chunks=chunks,
        d=_int(obj["d"], "d"), e_A=_int(obj["e_A"], "e_A"), N=_int(obj["N"], "N"),
        trivial_top=_bool(obj, "trivial_top", False),
        depth_zero=_bool(obj, "depth_zero", False))


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
