"""Exact arithmetic in finite fields GF(p^f), the coefficient layer.

Each field has a fixed monic irreducible modulus and a distinguished
multiplicative generator g, both chosen deterministically so that
serialized data is portable across runs:

* the modulus is the lexicographically least monic irreducible polynomial
  of degree f (coefficient tuples compared from the constant term up).  For
  f > 1 the search starts at constant term 1: every candidate with constant
  term 0 is divisible by x, so the result is the one the plain search over
  all candidates returns;
* the generator is the lexicographically least coordinate vector of
  multiplicative order q - 1.

An element is stored as its discrete log: the nonzero element g^k holds
the integer k in [0, q - 2], and zero holds the sentinel -1.  Products,
quotients, powers, Frobenius and embeddings are then integer arithmetic
mod q - 1.  Sums go through the Zech table Z, Z[n] = dlog(1 + g^n)
(K. Huber, "Some comments on Zech's logarithms", IEEE Trans. Inf. Theory
36(4), 1990): g^a + g^b = g^(a + Z[b - a]), where Z[n] = -1 marks
1 + g^n = 0.  :func:`log_sum` is that one rule, on bare logs: ``+`` and
``-`` call it, and so does code outside this module that keeps digits as
logs, so no other module reads the tables.  Negation adds (q - 1)/2 to the
log for odd p, since that power of g is -1, and is the identity for p = 2.

Each field keeps three integer tables, all built from the integer index
n = sum(c_i p^i) of the coordinate vector (c_0, ..., c_{f-1}) in the
polynomial basis (see :meth:`FqField._build_tables`): the index of each
power of g, the log of each index, and Z.  Coordinates appear only at the
boundary: :attr:`FqElem.coords` decodes the index of an element and
:meth:`FqField.elem` encodes coordinates to one.  :func:`embed` sends the
source generator to ``generator_tgt ** ((p^ft - 1) / (p^fo - 1))``.  That
map is multiplicative, but nothing makes the two lex-least generators
compatible, so it is not additive for 23 of the 57 pairs GF(p^a) inside
GF(p^b) with p^b <= 4096, GF(5) -> GF(125) among them.  Two strict xfails
pin this, ``test_embed_is_additive_on_every_subfield_pair`` and
``test_regular_reps_of_a_twisted_unramified_cubic_commute``; item 16 of
ROADMAP.md is the fix.

Residue degrees are read off logs too: GF(p^n) inside GF(q) is zero and
the powers of g^((q - 1)/(p^n - 1)), so :func:`degree_over` gives the
degree of g^k over GF(p^m) as the least d dividing f/m for which
(q - 1)/(p^(m d) - 1) divides k, dividing the primes of f/m out of d one
at a time.  Coefficients over a subfield are read off logs as well:
:func:`decompose` writes an element over the basis 1, g, g^2, ... by one
lookup in a table keyed by log, built once per pair of fields.

Fields are capped at p^f <= 2^16 so that the tables stay small.
"""

from __future__ import annotations

import itertools
from array import array
from functools import lru_cache

from .errors import DomainError

SIZE_CAP = 2 ** 16


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n by trial division (n <= 2^16 here),
    cached: :func:`degree_over` asks for the same few n on every call."""
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
    return tuple(out)


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
    """The finite field GF(p^f) with a fixed modulus and generator g.

    Immutable after construction.  Use :func:`make_field`; do not call the
    constructor directly: fields are compared by identity, so there must be
    one object per (p, f), and construction builds the full tables.

    The tables are ``array('i')`` integer arrays, 4 bytes an entry, where
    a list holds a pointer and, above 256, an int object per entry.
    ``_pow[k]`` is the index of g^k, ``_dlog[n]`` the log of the element
    with index n (-1 for n = 0, the zero element) and ``_zech[k]`` the Zech
    log dlog(1 + g^k), -1 where g^k = -1.  ``_half`` is the log of -1 for
    odd p and 0 for p = 2.
    """

    __slots__ = ("p", "f", "q", "modulus", "generator", "_pow", "_dlog", "_zech",
                 "_half", "zero", "one")

    def __init__(self, p: int, f: int):
        if f < 1:
            raise DomainError(f"f = {f} must be >= 1", clause="nonpositive_degree")
        # the cap comes first so that trial division only sees p <= 2^16
        if f >= SIZE_CAP.bit_length() or p ** f > SIZE_CAP:
            raise DomainError(f"GF({p}^{f}) exceeds the size cap {SIZE_CAP}",
                              clause="size_cap")
        if _prime_factors(p) != (p,):   # () for p < 2
            raise DomainError(f"p = {p} is not prime", clause="not_prime")
        q = p ** f
        self.p = p
        self.f = f
        self.q = q
        self.modulus = self._least_irreducible()
        self._build_tables(self._least_generator())
        self._half = (q - 1) // 2 if p != 2 else 0
        self.generator = FqElem(self, 1 % (q - 1))     # log 0 in GF(2), where g = 1
        self.zero = FqElem(self, -1)
        self.one = FqElem(self, 0)

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
        """The index, log and Zech tables, by stepping integer indices.

        The element with coordinates c has index n = sum(c_i p^i).  Split n
        into its low h digits and high f - h digits; multiplication by g is
        GF(p)-linear, so the image of n is the digitwise sum mod p of the
        tabulated images of the two halves.  Images are packed in base
        2p - 1, where that sum cannot carry, and each packed half of the sum
        is mapped back to its part of the index by one table lookup.  Adding
        1 to an element adds 1 mod p to the constant digit of its index,
        which gives the Zech table once every log is known.
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

        low_img, high_img = images(0, h), images(h, f)
        low_idx, high_idx = unpack(h, 1), unpack(f - h, split)
        pack_split = base ** h
        powers = [0] * (q - 1)
        dlog = [-1] * q
        n = 1
        for k in range(q - 1):
            powers[k] = n
            dlog[n] = k
            hi, lo = divmod(n, split)
            hi, lo = divmod(low_img[lo] + high_img[hi], pack_split)
            n = low_idx[lo] + high_idx[hi]
        if n != 1:
            raise DomainError("generator does not have full order (unreachable)",
                              clause="generator_order")
        # built as lists, which step faster than arrays, then stored compactly
        self._pow = array("i", powers)
        self._dlog = array("i", dlog)
        self._zech = array("i", [dlog[n + 1 if n % p != p - 1 else n + 1 - p]
                                 for n in powers])

    # -- public helpers -----------------------------------------------------

    def elem(self, coords) -> "FqElem":
        """The element with polynomial-basis coordinates (c_0, ..., c_{f-1})."""
        p = self.p
        coords = [int(c) % p for c in coords]
        if len(coords) != self.f:
            raise DomainError(f"coords length {len(coords)} != f = {self.f}",
                              clause="coords_length")
        n = 0
        for c in reversed(coords):
            n = n * p + c
        return FqElem(self, self._dlog[n])

    def from_int(self, n: int) -> "FqElem":
        """The image of the integer n (prime-subfield element)."""
        return FqElem(self, self._dlog[n % self.p])

    def gen_power(self, k: int) -> "FqElem":
        """generator ** k (k taken mod q-1)."""
        return FqElem(self, k % (self.q - 1))

    def dlog(self, a: "FqElem") -> int:
        if a.log < 0:
            raise DomainError("discrete log of zero", clause="log_of_zero")
        return a.log

    def elements(self):
        """All field elements, deterministic order (0 first, then powers of g)."""
        yield self.zero
        for k in range(self.q - 1):
            yield FqElem(self, k)

    def __repr__(self):
        return f"GF({self.p}^{self.f})"


def _owner_mismatch():
    raise DomainError("owner mismatch in residue-field arithmetic",
                      clause="owner_mismatch")


def log_sum(fld: FqField, a: int, b: int) -> int:
    """The log of g^a + g^b in fld, for logs a, b in [-1, q - 2], -1
    standing for 0 both ways: the one Zech rule, a + Z[b - a] mod q - 1,
    or -1 where the two terms cancel.  ``+``, ``-`` and
    :func:`_decomposition` add through it, and so does code that keeps
    residue digits as bare logs, such as the oracle's elimination pass."""
    if a < 0:
        return b
    if b < 0:
        return a
    z = fld._zech[b - a]        # the table has q - 1 entries: b - a < 0 wraps
    if z < 0:
        return -1
    return (a + z) % (fld.q - 1)


class FqElem:
    """An element g^log of an :class:`FqField`; ``log`` is -1 for zero.

    ``coords`` decodes the polynomial-basis coordinates; arithmetic never
    reads them.
    """

    __slots__ = ("owner", "log")

    def __init__(self, owner: FqField, log: int):
        self.owner = owner
        self.log = log

    @property
    def coords(self) -> tuple:
        """Polynomial-basis coordinates (c_0, ..., c_{f-1})."""
        fld = self.owner
        p = fld.p
        n = fld._pow[self.log] if self.log >= 0 else 0
        out = []
        for _ in range(fld.f):
            n, c = divmod(n, p)
            out.append(c)
        return tuple(out)

    def is_zero(self) -> bool:
        return self.log < 0

    def __add__(self, other):
        fld = self.owner
        if other.owner is not fld:
            _owner_mismatch()
        return FqElem(fld, log_sum(fld, self.log, other.log))

    def __sub__(self, other):
        fld = self.owner
        if other.owner is not fld:
            _owner_mismatch()
        b = other.log
        return FqElem(fld, log_sum(fld, self.log,
                                   (b + fld._half) % (fld.q - 1) if b >= 0 else b))

    def __neg__(self):
        fld = self.owner
        if self.log < 0 or not fld._half:
            return self
        return FqElem(fld, (self.log + fld._half) % (fld.q - 1))

    def __mul__(self, other):
        fld = self.owner
        if other.owner is not fld:
            _owner_mismatch()
        if self.log < 0 or other.log < 0:
            return fld.zero
        return FqElem(fld, (self.log + other.log) % (fld.q - 1))

    def __truediv__(self, other):
        fld = self.owner
        if other.owner is not fld:
            _owner_mismatch()
        if other.log < 0:
            raise DomainError("division by zero in residue field",
                              clause="division_by_zero")
        if self.log < 0:
            return fld.zero
        return FqElem(fld, (self.log - other.log) % (fld.q - 1))

    def inverse(self):
        return self.owner.one / self

    def __pow__(self, e: int):
        fld = self.owner
        if self.log < 0:
            if e < 0:
                raise DomainError("division by zero in residue field",
                                  clause="division_by_zero")
            return fld.zero if e else fld.one
        return FqElem(fld, self.log * e % (fld.q - 1))

    def __eq__(self, other):
        return (isinstance(other, FqElem) and self.owner is other.owner
                and self.log == other.log)

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
    if a.log < 0:
        return a
    fld = a.owner
    order = fld.q - 1
    return FqElem(fld, a.log * pow(fld.p, k % fld.f, order) % order)


def embed(a: FqElem, target: FqField) -> FqElem:
    """The map GF(p^fo) -> GF(p^ft) sending the source generator to
    target_generator ** ((p^ft - 1)/(p^fo - 1)): multiplicative, but not
    additive for every pair of fields (see the module docstring), so not
    yet a field embedding in general."""
    src = a.owner
    if src.p != target.p:
        raise DomainError("cannot embed between different characteristics",
                          clause="characteristic_mismatch")
    if target.f % src.f != 0:
        raise DomainError(f"degree {src.f} does not divide {target.f}",
                          clause="degree_not_dividing")
    if a.log < 0:
        return target.zero
    # log * ratio < q_target - 1, as log < q_source - 1
    return FqElem(target, a.log * ((target.q - 1) // (src.q - 1)))


def decompose(u: FqElem, sub: FqField) -> tuple:
    """The coefficients (c_0, ..., c_{n-1}) in sub of u over the basis
    1, g, ..., g^(n-1) of its field over sub, g the generator of u's field
    and n the degree: u = sum_a embed(c_a) * g^a.  That is (u,) when the
    fields are one; otherwise a lookup by log in :func:`_decomposition`."""
    if u.owner is sub:
        return (u,)
    return _decomposition(u.owner, sub)[u.log]


@lru_cache(maxsize=None)
def _decomposition(fld: FqField, sub: FqField) -> dict:
    """The table of :func:`decompose`, built once per pair of fields: the
    log of each element of fld (-1 for zero) -> its coefficient tuple.

    Built by summing every coefficient tuple, one power of g at a time,
    by :func:`log_sum` in fld: q sums in all.  The powers of g below
    the degree are a basis over sub, so the table has q keys; fewer would
    mean a singular basis."""
    elems = list(sub.elements())
    terms = [[(embed(c, fld) * fld.gen_power(a)).log for c in elems]
             for a in range(fld.f // sub.f)]
    sums = [(t, (c,)) for t, c in zip(terms[0], elems)]
    for row in terms[1:]:
        sums = [(log_sum(fld, s, t), cs + (c,)) for s, cs in sums
                for t, c in zip(row, elems)]
    dec = dict(sums)
    if len(dec) != fld.q:
        raise DomainError("residue basis is singular",
                          clause="singular_residue_basis")
    return dec


def degree_over(fld: FqField, log: int, m: int) -> int:
    """[GF(p^m)(a) : GF(p^m)] for a = g^log in fld, m dividing fld.f: the
    least d dividing f/m with (q - 1)/(p^(m d) - 1) dividing log; 1 for
    zero (log -1).

    Starting from d = f/m, each prime l of f/m is divided out of d while
    a lies in GF(p^(m d/l)), so a generator costs one check per maximal
    subfield."""
    if log < 0:
        return 1
    d = fld.f // m
    for ell in _prime_factors(d):
        while d % ell == 0 and log % ((fld.q - 1) // (fld.p ** (m * d // ell) - 1)) == 0:
            d //= ell
    return d
