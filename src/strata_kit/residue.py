"""Exact arithmetic in finite fields GF(p^f), the coefficient layer.

Elements are coordinate vectors in the polynomial basis for a fixed monic
irreducible modulus.  Both the modulus and the distinguished multiplicative
generator are chosen deterministically, so that serialized data is portable
across runs:

* the modulus is the lexicographically least monic irreducible polynomial
  of degree f (coefficient tuples compared from the constant term up).  For
  f > 1 the search starts at constant term 1: every candidate with constant
  term 0 is divisible by x, so the result is the one the plain search over
  all candidates returns;
* the generator is the lexicographically least coordinate vector of
  multiplicative order q - 1.

The power table g^0, ..., g^(q-2) and the discrete-log table inverting it
are built by stepping integer indices through the GF(p)-linear map "multiply
by g", two table lookups per step (see :meth:`FqField._build_tables`); they
equal the tables built with one polynomial product per step.  Compatibility
of embeddings between fields of the same characteristic is enforced by the
index formula ``generator_src -> generator_tgt ** ((p^ft - 1) / (p^fo - 1))``.

Fields are capped at p^f <= 2^16 so that discrete-log tables stay small;
multiplication, division, powers, Frobenius and embeddings all run through
those tables.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import DomainError

SIZE_CAP = 2 ** 16


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division (n <= 2^16 here)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); polynomials are tuples (a_0, a_1, ...)
# with trailing zeros stripped (the zero polynomial is ()).
# ---------------------------------------------------------------------------

def _trim(poly):
    i = len(poly)
    while i > 0 and poly[i - 1] == 0:
        i -= 1
    return tuple(poly[:i])


def _poly_add(a, b, p):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], p - 2, p)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + len(b) - 1] * inv_lead) % p
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - c * bj) % p
    return _trim(q), _trim(a)


def _poly_mod(a, b, p):
    return _poly_divmod(a, b, p)[1]


def _poly_gcd(a, b, p):
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _poly_powmod(a, e, mod, p):
    result = (1,)
    a = _poly_mod(a, mod, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, a, p), mod, p)
        a = _poly_mod(_poly_mul(a, a, p), mod, p)
        e >>= 1
    return result


def _is_irreducible(m, p):
    """Monic-degree-f irreducibility via x^(p^k) - x criteria."""
    f = len(m) - 1
    x = (0, 1)
    # x^(p^f) == x (mod m)
    if _poly_powmod(x, p ** f, m, p) != _poly_mod(x, m, p):
        return False
    for ell in _prime_factors(f):
        power = _poly_powmod(x, p ** (f // ell), m, p)
        diff = _poly_add(power, _poly_mul((p - 1,), x, p), p)
        if len(_poly_gcd(m, diff, p)) > 1:
            return False
    return True


class FqField:
    """The finite field GF(p^f) with a fixed modulus and generator.

    Immutable after construction.  Use :func:`make_field`; do not call the
    constructor directly: fields are compared by identity, so there must be
    one object per (p, f), and construction builds the full power/dlog tables.
    """

    __slots__ = ("p", "f", "q", "modulus", "generator", "_pow", "_dlog", "zero", "one")

    def __init__(self, p: int, f: int):
        if f < 1:
            raise DomainError(f"f = {f} must be >= 1", clause="nonpositive_degree")
        # the cap comes first so that trial division only sees p <= 2^16
        if f >= SIZE_CAP.bit_length() or p ** f > SIZE_CAP:
            raise DomainError(f"GF({p}^{f}) exceeds the size cap {SIZE_CAP}",
                              clause="size_cap")
        if _prime_factors(p) != [p]:    # [] for p < 2
            raise DomainError(f"p = {p} is not prime", clause="not_prime")
        q = p ** f
        self.p = p
        self.f = f
        self.q = q
        self.modulus = self._least_irreducible()
        self._pow = None
        self._dlog = None
        gen_coords = self._least_generator()
        self._build_tables(gen_coords)
        self.generator = FqElem(self, gen_coords)
        self.zero = FqElem(self, (0,) * f)
        self.one = FqElem(self, tuple([1] + [0] * (f - 1)))

    # -- deterministic construction helpers ---------------------------------

    def _least_irreducible(self):
        p, f = self.p, self.f
        if f == 1:
            return (0, 1)  # x
        # A zero constant term means x divides the candidate; those are the
        # first p^(f-1) candidates in lex order, none of them irreducible.
        for tail in itertools.product(range(1, p), *[range(p)] * (f - 1)):
            m = tail + (1,)
            if _is_irreducible(m, p):
                return m
        raise DomainError("no irreducible polynomial found (unreachable)",
                          clause="no_irreducible")

    def _mul_coords(self, a, b):
        prod = _poly_mod(_poly_mul(_trim(a), _trim(b), self.p), self.modulus, self.p)
        return tuple(prod) + (0,) * (self.f - len(prod))

    def _least_generator(self):
        order = self.q - 1
        prime_divs = _prime_factors(order)
        for coords in itertools.product(range(self.p), repeat=self.f):
            if not any(coords):
                continue
            ok = True
            for ell in prime_divs:
                if self._coords_pow(coords, order // ell) == self._one_coords():
                    ok = False
                    break
            if ok:
                return coords
        raise DomainError("no multiplicative generator found (unreachable)",
                          clause="no_generator")

    def _one_coords(self):
        return tuple([1] + [0] * (self.f - 1))

    def _coords_pow(self, coords, e):
        result = self._one_coords()
        base = coords
        while e:
            if e & 1:
                result = self._mul_coords(result, base)
            base = self._mul_coords(base, base)
            e >>= 1
        return result

    def _build_tables(self, gen_coords):
        """Powers of the generator, stepped on integer indices.

        The element with coordinates c has index n = sum(c_i p^i).  Split n
        into its low h digits and high f - h digits; multiplication by g is
        GF(p)-linear, so the image of n is the digitwise sum mod p of the
        tabulated images of the two halves.  Images are packed in base
        2p - 1, where that sum cannot carry, and each packed half of the sum
        is mapped back to its part of the index by one table lookup.  The
        coordinate tuple of each power is read off the same split of n.
        """
        p, f, q = self.p, self.f, self.q
        h = f // 2
        split, base = p ** h, 2 * p - 1

        def images(start, stop):
            # packed g * c for every c supported on coordinates start..stop-1,
            # listed by index; built one output coordinate at a time
            cols = [self._mul_coords((0,) * i + (1,) + (0,) * (f - 1 - i), gen_coords)
                    for i in range(start, stop)]
            packed = [0] * p ** (stop - start)
            for j in reversed(range(f)):
                digit = [0]
                for col in reversed(cols):
                    digit = [(d * col[j] + v) % p for v in digit for d in range(p)]
                packed = [base * a + b for a, b in zip(packed, digit)]
            return packed

        def unpack(k, scale):
            # packed k-digit sums with digits < 2p - 1 -> scale * index
            out = [0]
            for _ in range(k):
                out = [d % p + p * v for v in out for d in range(base)]
            return [scale * v for v in out]

        def coords(k):
            out = [()]
            for _ in range(k):
                out = [(d,) + c for c in out for d in range(p)]
            return out

        low_img, high_img = images(0, h), images(h, f)
        low_idx, high_idx = unpack(h, 1), unpack(f - h, split)
        low, high = coords(h), coords(f - h)
        pack_split = base ** h
        powers = []
        n = 1
        for _ in range(q - 1):
            hi, lo = divmod(n, split)
            powers.append(low[lo] + high[hi])
            hi, lo = divmod(low_img[lo] + high_img[hi], pack_split)
            n = low_idx[lo] + high_idx[hi]
        if n != 1:
            raise DomainError("generator does not have full order (unreachable)",
                              clause="generator_order")
        self._pow = powers
        self._dlog = dict(zip(powers, range(q - 1)))

    # -- public helpers -----------------------------------------------------

    def elem(self, coords) -> "FqElem":
        coords = tuple(int(c) % self.p for c in coords)
        if len(coords) != self.f:
            raise DomainError(f"coords length {len(coords)} != f = {self.f}",
                              clause="coords_length")
        return FqElem(self, coords)

    def from_int(self, n: int) -> "FqElem":
        """The image of the integer n (prime-subfield element)."""
        return FqElem(self, tuple([n % self.p] + [0] * (self.f - 1)))

    def gen_power(self, k: int) -> "FqElem":
        """generator ** k (k taken mod q-1)."""
        return FqElem(self, self._pow[k % (self.q - 1)])

    def dlog(self, a: "FqElem") -> int:
        if not any(a.coords):
            raise DomainError("discrete log of zero", clause="log_of_zero")
        return self._dlog[a.coords]

    def elements(self):
        """All field elements, deterministic order (0 first, then powers of g)."""
        yield self.zero
        for coords in self._pow:
            yield FqElem(self, coords)

    def __repr__(self):
        return f"GF({self.p}^{self.f})"


class FqElem:
    """An element of an :class:`FqField`, as polynomial-basis coordinates."""

    __slots__ = ("owner", "coords")

    def __init__(self, owner: FqField, coords):
        self.owner = owner
        self.coords = tuple(coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def _check(self, other):
        if self.owner is not other.owner:
            raise DomainError("owner mismatch in residue-field arithmetic",
                              clause="owner_mismatch")

    def __add__(self, other):
        self._check(other)
        p = self.owner.p
        return FqElem(self.owner, tuple((a + b) % p for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        p = self.owner.p
        return FqElem(self.owner, tuple((a - b) % p for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        p = self.owner.p
        return FqElem(self.owner, tuple((-a) % p for a in self.coords))

    def __mul__(self, other):
        self._check(other)
        if self.is_zero() or other.is_zero():
            return self.owner.zero
        fld = self.owner
        return fld.gen_power(fld.dlog(self) + fld.dlog(other))

    def __truediv__(self, other):
        self._check(other)
        if other.is_zero():
            raise DomainError("division by zero in residue field",
                              clause="division_by_zero")
        if self.is_zero():
            return self.owner.zero
        fld = self.owner
        return fld.gen_power(fld.dlog(self) - fld.dlog(other))

    def inverse(self):
        return self.owner.one / self

    def __pow__(self, e: int):
        fld = self.owner
        if self.is_zero():
            if e < 0:
                raise DomainError("division by zero in residue field",
                                  clause="division_by_zero")
            return fld.zero if e else fld.one
        return fld.gen_power(fld.dlog(self) * e)

    def __eq__(self, other):
        return (isinstance(other, FqElem) and self.owner is other.owner
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.owner.p, self.owner.f, self.coords))

    def __repr__(self):
        return f"{list(self.coords)}@{self.owner!r}"


@lru_cache(maxsize=None)
def make_field(p: int, f: int, /) -> FqField:
    """Deterministic GF(p^f): lex-least monic irreducible modulus, lex-least
    full-order generator.  Cached, so there is one field object per (p, f)
    and fields compare by identity; the arguments are positional-only so
    that a keyword call cannot miss the cache and build a second object."""
    return FqField(p, f)


def frobenius(a: FqElem, k: int) -> FqElem:
    """a ** (p^k); frobenius(., f) is the identity."""
    if a.is_zero():
        return a
    fld = a.owner
    return fld.gen_power(fld.dlog(a) * pow(fld.p, k % fld.f, fld.q - 1))


def embed(a: FqElem, target: FqField) -> FqElem:
    """The canonical embedding GF(p^fo) -> GF(p^ft), fixed by sending the
    source generator to target_generator ** ((p^ft - 1)/(p^fo - 1))."""
    src = a.owner
    if src.p != target.p:
        raise DomainError("cannot embed between different characteristics",
                          clause="characteristic_mismatch")
    if target.f % src.f != 0:
        raise DomainError(f"degree {src.f} does not divide {target.f}",
                          clause="degree_not_dividing")
    if src.f == target.f:
        return FqElem(target, a.coords)
    if a.is_zero():
        return target.zero
    ratio = (target.q - 1) // (src.q - 1)
    return target.gen_power(src.dlog(a) * ratio)
