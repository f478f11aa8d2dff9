"""Finite residue field layer: deterministic moduli/generators, tables,
field axioms, frobenius, and embeddings."""

import ast
import itertools
import pathlib
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from strata_kit.errors import DomainError
from strata_kit import residue
from strata_kit.residue import (FqElem, _is_irreducible, embed, frobenius,
                                make_field)


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
        assert fld._pow == powers and fld._dlog == dlog
        f += 1


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
