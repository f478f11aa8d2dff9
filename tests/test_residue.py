"""Finite residue field layer: deterministic moduli/generators, tables,
field axioms, frobenius, and embeddings."""

import ast
import itertools
import pathlib
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from strata_kit.errors import DomainError
from strata_kit import residue
from strata_kit.residue import (FqElem, _is_irreducible, degree_over, embed,
                                frobenius, make_field)


def test_gf25_modulus_is_lex_least():
    # frozen expected value: x^2 + x + 1 is irreducible over GF(5) and is
    # the lex-least monic irreducible quadratic there
    k = make_field(5, 2)
    assert k.modulus == (1, 1, 1)


def test_gf9_modulus_and_generator():
    k = make_field(3, 2)
    assert k.modulus == (1, 0, 1)       # x^2 + 1
    g = k.gen_power(1)
    assert g ** 8 == k.one and g ** 4 != k.one     # order 8


def test_embed_gf3_into_gf9_frozen_value():
    # frozen expected value: 2 in GF(3) maps to g^4 in GF(9)
    k3, k9 = make_field(3, 1), make_field(3, 2)
    two = k3.from_int(2)
    assert embed(two, k9) == k9.gen_power(4)


def test_embed_is_ring_homomorphism():
    k3, k9 = make_field(3, 2), make_field(3, 4)
    for a in list(k3.elements())[:9]:
        for b in list(k3.elements())[:9]:
            assert embed(a + b, k9) == embed(a, k9) + embed(b, k9)
            assert embed(a * b, k9) == embed(a, k9) * embed(b, k9)


@pytest.mark.xfail(strict=True, reason=(
    "residue.embed maps g_S to g_T^((q_T - 1)/(q_S - 1)) by logs: "
    "multiplicative, but additive only when the two generators are "
    "compatible, which nothing enforces"))
def test_embed_is_additive_on_every_subfield_pair():
    """embed(1 + x) = 1 + embed(x) for every x of GF(p^a) inside GF(p^b),
    p^b <= 4096; with multiplicativity that makes embed additive.  It fails
    on 23 of these 57 pairs, GF(5) -> GF(125) and GF(9) -> GF(3^6) among
    them."""
    bad = []
    for p in (p for p in range(2, 65) if all(p % d for d in range(2, p))):
        for b in range(2, 13):
            if p ** b > 4096:
                break
            T = make_field(p, b)
            for a in (a for a in range(1, b) if b % a == 0):
                S = make_field(p, a)
                if any(embed(S.one + x, T) != T.one + embed(x, T)
                       for x in S.elements()):
                    bad.append((S.q, T.q))
    assert bad == []


def test_embed_requires_divisible_degree():
    with pytest.raises(DomainError):
        embed(make_field(3, 2).one, make_field(3, 3))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_field_axioms_gf25(i, j, k):
    fld = make_field(5, 2)
    els = list(fld.elements())
    a, b, c = els[i], els[j], els[k]
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    assert (a - b) + b == a
    if not a.is_zero():
        assert a * a.inverse() == fld.one
    if not b.is_zero():
        assert (a / b) * b == a


def test_frobenius_is_additive_and_multiplicative():
    k = make_field(3, 3)
    els = list(k.elements())
    for a in els[:10]:
        for b in els[:10]:
            assert frobenius(a + b, 1) == frobenius(a, 1) + frobenius(b, 1)
            assert frobenius(a * b, 1) == frobenius(a, 1) * frobenius(b, 1)
    for a in els:
        assert frobenius(a, k.f) == a          # full orbit closes


def test_dlog_power_tables_consistent():
    k = make_field(7, 2)
    for e in range(k.q - 1):
        assert k.dlog(k.gen_power(e)) == e


def test_size_cap():
    for f in (17, 10 ** 9):              # rejected without computing 2^f
        with pytest.raises(DomainError):
            make_field(2, f)
    for p in (2 ** 61 - 1, 2 * (2 ** 61 - 1)):     # rejected before trial division
        with pytest.raises(DomainError, match="size cap"):
            make_field(p, 1)


def test_p_must_be_prime():
    for p in (-3, 0, 1, 4, 65535):
        with pytest.raises(DomainError, match="not prime"):
            make_field(p, 1)


@lru_cache(maxsize=None)
def _reference_tables(p, f):
    """The plain definitions: lex-least monic irreducible over every
    candidate, powers of the generator by one polynomial product each."""
    fld = make_field(p, f)
    if f == 1:
        modulus = (0, 1)
    else:
        modulus = next(tail + (1,) for tail in itertools.product(range(p), repeat=f)
                       if _is_irreducible(tail + (1,), p))
    assert fld.modulus == modulus
    one = (1,) + (0,) * (f - 1)
    gen = fld.generator.coords
    powers, cur = [], one
    for _ in range(fld.q - 1):
        powers.append(cur)
        cur = fld._mul_coords(cur, gen)
    assert cur == one
    dlog = {c: i for i, c in enumerate(powers)}
    assert len(dlog) == fld.q - 1                       # g has full order
    for coords in itertools.product(range(p), repeat=f):
        if coords == gen:
            break
        if any(coords):                                 # lex-smaller: not a generator
            assert gcd(dlog[coords], fld.q - 1) > 1
    return powers, dlog


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_tables_match_plain_lex_search(p):
    f = 1
    while p ** f <= 4096:
        fld = make_field(p, f)
        powers, dlog = _reference_tables(p, f)
        assert [fld.gen_power(k).coords for k in range(fld.q - 1)] == powers
        assert all(fld.dlog(fld.elem(c)) == k for c, k in dlog.items())
        f += 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_zech_table_matches_coordinate_addition(p):
    # Z[k] = dlog(1 + g^k), with 1 + g^k added coordinate by coordinate,
    # and -1 exactly where g^k = -1
    f = 1
    while p ** f <= 4096:
        fld = make_field(p, f)
        powers, dlog = _reference_tables(p, f)
        minus_one = (p - 1,) + (0,) * (f - 1)
        for k, c in enumerate(powers):
            one_plus = ((c[0] + 1) % p,) + c[1:]
            assert fld._zech[k] == (-1 if c == minus_one else dlog[one_plus])
        assert [k for k, z in enumerate(fld._zech) if z == -1] == [dlog[minus_one]]
        f += 1


def test_gf2_generator_is_one():
    # q - 1 = 1: every log is 0 mod 1, and -1 = 1
    k = make_field(2, 1)
    assert k.generator == k.one and k.generator.log == 0
    assert k.one + k.one == k.zero and -k.one == k.one
    assert k.one - k.one == k.zero and k.one * k.one == k.one


def _ref_mul(c, d, modulus, p):
    """Product of coordinate vectors: schoolbook, then x^f reduced by the
    monic modulus."""
    f = len(modulus) - 1
    prod = [0] * (2 * f - 1)
    for i, x in enumerate(c):
        for j, y in enumerate(d):
            prod[i + j] += x * y
    for i in reversed(range(f, len(prod))):
        for j in range(f):
            prod[i - f + j] -= prod[i] * modulus[j]
    return tuple(x % p for x in prod[:f])


@pytest.mark.parametrize("p, f", [(2, 4), (3, 3), (7, 2)])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_log_arithmetic_matches_coordinates(p, f, data):
    fld = make_field(p, f)
    vectors = st.tuples(*[st.integers(0, p - 1)] * f)
    c, d = data.draw(vectors), data.draw(vectors)
    a, b = fld.elem(c), fld.elem(d)
    assert a.coords == c and a.is_zero() == (not any(c))
    assert (a + b).coords == tuple((x + y) % p for x, y in zip(c, d))
    assert (a - b).coords == tuple((x - y) % p for x, y in zip(c, d))
    assert (-a).coords == tuple(-x % p for x in c)
    assert (a * b).coords == _ref_mul(c, d, fld.modulus, p)
    frob = (1,) + (0,) * (f - 1)
    for _ in range(p):
        frob = _ref_mul(frob, c, fld.modulus, p)
    assert frobenius(a, 1).coords == frob
    if any(d):
        assert _ref_mul((a / b).coords, d, fld.modulus, p) == c
    else:
        with pytest.raises(DomainError):
            a / b


@pytest.mark.parametrize("p, f", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 2), (3, 3)])
def test_log_sum_is_the_log_of_the_coordinate_sum(p, f):
    """``log_sum``, the one Zech rule, on every pair of logs, -1 (zero)
    included: the log of the coordinate sum.  Exactly q - 1 pairs of
    nonzero terms cancel, one for each nonzero term."""
    fld = make_field(p, f)
    logs = range(-1, fld.q - 1)
    coords = {k: (fld.gen_power(k) if k >= 0 else fld.zero).coords for k in logs}
    log_of = {c: k for k, c in coords.items()}
    cancelling = 0
    for a, b in itertools.product(logs, repeat=2):
        s = residue.log_sum(fld, a, b)
        assert s == log_of[tuple((x + y) % p for x, y in zip(coords[a], coords[b]))]
        cancelling += a >= 0 and b >= 0 and s < 0
    assert cancelling == fld.q - 1


def test_log_tables_are_read_only_in_residue():
    # every other module adds logs through log_sum and converts through the
    # public helpers, so the table layout is residue's own decision
    tables = {"_zech", "_dlog", "_pow", "_half"}
    reads, outside = [], []
    for path in sorted(pathlib.Path(residue.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in tables:
                reads.append(f"{path.name}:{node.lineno} {node.attr}")
                if path.name != "residue.py":
                    outside.append(reads[-1])
    assert {r.split()[-1] for r in reads} == tables and outside == []


def test_large_fields_pinned():
    k = make_field(3, 10)
    assert k.modulus == (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1)
    assert k.generator.coords == (0, 0, 0, 0, 0, 0, 1, 0, 2, 1)
    k = make_field(2, 16)
    assert k.modulus == (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1)
    assert k.generator.coords == (0,) * 14 + (1, 1)
    assert k.dlog(k.gen_power(12345)) == 12345


def test_make_field_is_one_object_per_field():
    assert make_field(3, 2) is make_field(3, 2)
    with pytest.raises(TypeError):
        make_field(p=3, f=2)


def test_fields_are_built_only_by_make_field():
    # residue fields compare by identity, which holds only while make_field's
    # cache is the one place that constructs them
    builders = []
    for path in sorted(pathlib.Path(residue.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "make_field":
                allowed = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and id(node) not in allowed
                    and "FqField" in (getattr(node.func, "id", None),
                                      getattr(node.func, "attr", None))):
                builders.append(f"{path.name}:{node.lineno}")
    assert builders == []


def test_coords_are_read_only_at_the_boundary():
    # arithmetic runs on discrete logs; coordinates are decoded only where
    # they cross into JSON or a repr, or where a GF(p) value becomes an int
    files = {"residue.py", "serialize.py"}
    scopes = {"tower.py": ["TameElement.__repr__"],
              "oracle.py": ["absolute_trace"]}
    reads, outside = [], []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, path, f"{scope}.{child.name}".lstrip("."))
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "coords"
                    and isinstance(child.ctx, ast.Load)):
                where = f"{path.name}:{child.lineno} {scope}"
                reads.append(where)
                if path.name not in files and not any(
                        f"{scope}.".startswith(f"{a}.") for a in scopes.get(path.name, [])):
                    outside.append(where)
            visit(child, path, scope)

    for path in sorted(pathlib.Path(residue.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    assert reads and outside == []


def _orbit_degree(a, m):
    """Reference: the length of the orbit of a under x -> x^(p^m)."""
    d, cur = 1, frobenius(a, m)
    while cur != a:
        cur, d = frobenius(cur, m), d + 1
    return d


@pytest.mark.parametrize("p", [2, 3, 5])
def test_degree_over_matches_frobenius_orbit(p):
    for f in range(1, 12):
        if p ** f > 729:
            break
        k = make_field(p, f)
        for m in (m for m in range(1, f + 1) if f % m == 0):
            assert degree_over(k, -1, m) == 1
            for a in k.elements():
                assert degree_over(k, a.log, m) == _orbit_degree(a, m), (k, a, m)
