"""Towers of tamely ramified extensions of F = GF(q)((t)).

A tower node carries a relative residue degree ``f_rel``, a relative
ramification index ``e_rel`` prime to p, and a root-of-unity ``twist``
fixing the compatible-uniformizer relation  ``pi_new^e_rel * twist =
pi_parent`` exactly.  Because the base has equal characteristic, every
node is literally a Laurent-series field  k((pi))  over its residue field,
and element arithmetic is plain (finite-precision) Laurent arithmetic;
the tower structure only matters for coercion, embeddings and subfields.

Elements are valuation -> nonzero-digit maps with an explicit precision
bound; precision is propagated pessimistically and equality at working
precision is decided with an explicit error when the window is too small.

Embeddings of a node E into a splitting field L are parameterized by a
Frobenius exponent on the residue field together with the image of the
top uniformizer (a root-of-unity multiple of the uniformizer of L); there
are exactly [E:F] of them and they are enumerated deterministically with
the identity-like embedding first.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

from .errors import DomainError, PrecisionError
from . import residue
from .residue import FqElem, make_field

#: default working precision, in valuation steps of the top field
DEFAULT_PREC = 64

#: minimal number of certain digit positions required beyond the leading
#: digit before two finite-precision values are declared equal
GUARD_DIGITS = 4

INF = math.inf


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class TameField:
    """A node in a tower of tamely ramified extensions of GF(q)((t)).

    ``levels`` is the tower chain ``(base, ..., self)``, base first: level
    index i of a ``strata-kit/v1`` document names ``levels[i]``, and every
    walk along the tower reads this tuple.  Immutable after construction;
    build with :func:`base_field` and :func:`extend`.
    """

    __slots__ = ("parent", "levels", "p", "base_f", "f_rel", "e_rel", "twist",
                 "residue", "f_over_base", "e_abs", "degree", "acc_twist",
                 "_splitting", "_subfields")

    def __init__(self, parent, p, base_f, f_rel, e_rel, twist):
        self.parent = parent
        self.levels = (parent.levels if parent is not None else ()) + (self,)
        self.p = p
        self.base_f = base_f          # f0: degree of the base residue field over GF(p)
        self.f_rel = f_rel
        self.e_rel = e_rel
        if parent is None:
            self.f_over_base = 1
            self.e_abs = 1
            self.residue = make_field(p, base_f)
            self.twist = self.residue.one
            self.acc_twist = self.residue.one
        else:
            if e_rel < 1 or f_rel < 1:
                raise DomainError("relative degrees must be >= 1",
                                  clause="bad_relative_degree")
            if e_rel % p == 0:
                raise DomainError(f"wild ramification: p = {p} divides e_rel = {e_rel}",
                                  clause="wild_ramification")
            self.f_over_base = parent.f_over_base * f_rel
            self.e_abs = parent.e_abs * e_rel
            self.residue = make_field(p, base_f * self.f_over_base)
            if isinstance(twist, int):
                twist = self.residue.from_int(twist)
            if twist.owner is not self.residue:
                twist = residue.embed(twist, self.residue)
            if twist.is_zero():
                raise DomainError("twist must be a nonzero residue element",
                                  clause="zero_twist")
            self.twist = twist
            # pi^e_abs * acc_twist = t, accumulated down the tower
            self.acc_twist = (twist ** parent.e_abs) * residue.embed(parent.acc_twist, self.residue)
        self.degree = self.f_over_base * self.e_abs
        self._splitting = None
        self._subfields = {}          # tower level -> Subfield, see tower_subfield

    # -- structure helpers --------------------------------------------------

    @property
    def q(self) -> int:
        return self.p ** self.base_f

    def base(self) -> "TameField":
        return self.levels[0]

    def is_ancestor_of(self, other: "TameField") -> bool:
        """Whether self is a level of other's tower (other itself included)."""
        k = len(self.levels)
        return len(other.levels) >= k and other.levels[k - 1] is self

    def uniformizer(self) -> "TameElement":
        return TameElement(self, {1: self.residue.one}, INF)

    def residue_gen_elem(self) -> "TameElement":
        return TameElement(self, {0: self.residue.generator}, INF)

    def zero(self, prec) -> "TameElement":
        return TameElement(self, {}, prec)

    def one(self) -> "TameElement":
        return TameElement(self, {0: self.residue.one}, INF)

    def monomial(self, v: int, coeff: FqElem) -> "TameElement":
        """The exact element coeff * pi^v."""
        if coeff.owner is not self.residue:
            raise DomainError("monomial coefficient must lie in the residue field",
                              clause="coefficient_not_residue")
        if coeff.is_zero():
            return TameElement(self, {}, INF)
        return TameElement(self, {v: coeff}, INF)

    def from_base_t_power(self, k: int) -> "TameElement":
        """The element t^k coerced into this field (a single digit)."""
        return coerce(TameElement(self.base(), {k: self.base().residue.one}, INF), self)

    def __repr__(self):
        if self.parent is None:
            return f"F(q={self.q})"
        return f"Ext(f={self.f_rel},e={self.e_rel})/{self.parent!r}"


def base_field(q: int) -> TameField:
    """The base field GF(q)((t)), q = p^f0 <= residue.SIZE_CAP."""
    if q > residue.SIZE_CAP:
        raise DomainError(f"q = {q} exceeds the residue size cap {residue.SIZE_CAP}",
                          clause="size_cap")
    if q < 2:
        raise DomainError(f"q = {q} is not a prime power",
                          clause="not_prime_power")
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    f0, m = 0, q
    while m % p == 0:
        m //= p
        f0 += 1
    if m != 1:
        raise DomainError(f"q = {q} is not a prime power",
                          clause="not_prime_power")
    return TameField(None, p, f0, 1, 1, None)


def extend(parent: TameField, f_rel: int, e_rel: int, twist) -> TameField:
    """A new tower node with pi^e_rel * twist = pi_parent."""
    return TameField(parent, parent.p, parent.base_f, f_rel, e_rel, twist)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class TameElement:
    """A finite-precision canonical expansion sum_v a_v pi^v.

    Invariant: ``digits`` maps integer valuations to nonzero residue
    digits, all below ``prec``; digits at valuations >= ``prec`` are
    unknown.  ``prec`` is the :data:`INF` object for exact elements
    (finitely many digits, all known), so ``prec is INF`` decides
    exactness.  The constructor enforces the invariant on any input: it
    drops zero digits and digits at or above ``prec``, and stores any
    infinite ``prec``, such as ``float("inf")`` or ``INF + v``, as
    :data:`INF`.

    ``+``, ``-``, unary ``-`` and ``*`` build their result digits already
    filtered and construct the result through :meth:`_unchecked`, which
    skips that second scan.
    The product of two exact elements is exact, and ``*`` takes no
    precision arithmetic for it.  Elements are immutable, so results may
    share digit objects.
    """

    __slots__ = ("owner", "digits", "prec")

    def __init__(self, owner: TameField, digits: dict, prec):
        self.owner = owner
        self.digits = {}
        for v, a in digits.items():
            if v < prec and a.log >= 0:           # a nonzero
                self.digits[v] = a
        self.prec = INF if prec == INF else prec

    @classmethod
    def _unchecked(cls, owner: TameField, digits: dict, prec) -> "TameElement":
        """An element that keeps ``digits`` and ``prec`` as given: the
        caller guarantees the invariant (no zero digit, none at or above
        ``prec``, an infinite ``prec`` is the :data:`INF` object)."""
        x = object.__new__(cls)
        x.owner = owner
        x.digits = digits
        x.prec = prec
        return x

    # -- basic state --------------------------------------------------------

    def val(self):
        """Minimal digit valuation (owner-normalized), or None if zero-to-prec."""
        return min(self.digits) if self.digits else None

    def ord(self) -> Fraction:
        """Valuation normalized to the base field: val / e_abs."""
        if not self.digits:
            if self.prec is INF:
                raise DomainError("ord of exact zero is undefined (+infinity)",
                                  clause="ord_of_zero")
            raise PrecisionError("ord of a zero-to-precision element is uncertain")
        return Fraction(min(self.digits), self.owner.e_abs)

    def leading(self):
        """(valuation, digit) of the leading term."""
        if not self.digits:
            raise DomainError("zero element has no leading term",
                              clause="leading_of_zero")
        v = min(self.digits)
        return v, self.digits[v]

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if self.owner is not other.owner:
            raise DomainError("owner mismatch: coerce elements to a common field first",
                              clause="owner_mismatch")

    def __add__(self, other):
        self._check(other)
        prec = min(self.prec, other.prec)
        return TameElement._unchecked(
            self.owner, _sum_digits(self, other.digits.items(), prec), prec)

    def __neg__(self):
        return TameElement._unchecked(
            self.owner, {v: -a for v, a in self.digits.items()}, self.prec)

    def __sub__(self, other):
        self._check(other)
        prec = min(self.prec, other.prec)
        return TameElement._unchecked(self.owner, _sum_digits(
            self, ((v, -a) for v, a in other.digits.items()), prec), prec)

    def _val_lower_bound(self):
        return min(self.digits) if self.digits else self.prec

    def __mul__(self, other):
        self._check(other)
        if self.prec is INF and other.prec is INF:
            prec = INF
        else:
            prec = min(self.prec + other._val_lower_bound(),
                       other.prec + self._val_lower_bound())
            if prec == INF:
                prec = INF
        sd, od = self.digits, other.digits
        digits = {}
        for v, a in sd.items():
            for w, b in od.items():
                u = v + w
                if u >= prec:
                    continue
                c = a * b
                s = digits.get(u)
                digits[u] = c if s is None else s + c
        if len(sd) > 1 and len(od) > 1:     # only a sum of products can be zero
            digits = {u: c for u, c in digits.items() if c.log >= 0}
        return TameElement._unchecked(self.owner, digits, prec)

    def inverse(self) -> "TameElement":
        """Multiplicative inverse by the power-series reciprocal recurrence
        (Knuth, TAOCP 2, §4.7): x = sum_j x_j·pi^(v+j) has 1/x = sum_k w_k·pi^(k-v)
        with w_0 = x_0⁻¹ and w_k = -x_0⁻¹·sum_{1<=j<=k} x_j·w_(k-j).

        Precision contract: an exact monomial inverts exactly; any other x
        gives precision rel - v, with rel = prec - v >= 1 for inexact x and
        rel = :data:`DEFAULT_PREC` for exact multi-digit x, which no library
        or CLI path inverts.  A zero to precision raises PrecisionError, an
        exact zero DomainError."""
        if not self.digits:
            if self.prec is INF:
                raise DomainError("division by exact zero", clause="division_by_zero")
            raise PrecisionError("division by an element that is zero to precision")
        v, a = self.leading()
        w = [a.inverse()]
        if len(self.digits) == 1 and self.prec is INF:
            return TameElement(self.owner, {-v: w[0]}, INF)
        rel = (self.prec - v) if self.prec is not INF else DEFAULT_PREC
        neg, zero = -w[0], self.owner.residue.zero
        y = sorted((u - v, b * neg) for u, b in self.digits.items() if v < u < v + rel)
        for k in range(1, rel):
            s = None
            for j, b in y:
                if j > k:
                    break
                t = b * w[k - j]
                s = t if s is None else s + t
            w.append(zero if s is None else s)
        return TameElement(self.owner, {k - v: c for k, c in enumerate(w)}, rel - v)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = TameElement(self.owner, {0: self.owner.residue.one}, INF)
        b = self
        while e:
            if e & 1:
                result = result * b
            b = b * b
            e >>= 1
        return result

    def truncate(self, prec) -> "TameElement":
        if prec >= self.prec:
            return self
        return TameElement(self.owner, self.digits, prec)

    # -- comparisons --------------------------------------------------------

    def equals(self, other) -> bool:
        """Equality of all certain digits."""
        self._check(other)
        cut = min(self.prec, other.prec)
        for v in set(self.digits) | set(other.digits):
            if v >= cut:
                continue
            if self.digits.get(v) != other.digits.get(v):
                return False
        return True

    def __repr__(self):
        terms = ", ".join(f"{v}:{list(a.coords)}" for v, a in sorted(self.digits.items()))
        return f"<{terms} | prec={self.prec} @ {self.owner!r}>"


def _sum_digits(x, terms, prec):
    """The digits below prec of x plus the digits given as (valuation,
    digit) pairs ``terms``; a digit that cancels to zero is dropped."""
    out = (dict(x.digits) if x.prec == prec
           else {v: a for v, a in x.digits.items() if v < prec})
    for v, a in terms:
        if v >= prec:
            continue
        s = out.get(v)
        if s is not None:
            a = s + a
            if a.log < 0:
                del out[v]
                continue
        out[v] = a
    return out


def coerce(x: TameElement, target: TameField) -> TameElement:
    """Rewrite x in the canonical expansion of a descendant field.

    One source digit maps to one target digit: a pi_old^v becomes
    (embed(a) * twist^v) pi_new^(v*e_rel) at each tower step.
    """
    if x.owner is target:
        return x
    if not x.owner.is_ancestor_of(target):
        raise DomainError("coerce target is not a descendant of the element's field",
                          clause="not_a_descendant")
    for level in target.levels[len(x.owner.levels):]:
        digits = {}
        for v, a in x.digits.items():
            digits[v * level.e_rel] = residue.embed(a, level.residue) * (level.twist ** v)
        prec = x.prec * level.e_rel if x.prec is not INF else INF
        x = TameElement(level, digits, prec)
    return x


def sr(c: TameElement) -> TameElement:
    """The standard representative: the single leading-digit monomial s with
    c * s^-1 in 1 + (maximal ideal)."""
    if not c.digits:
        if c.prec is INF:
            raise DomainError("sr of zero is undefined", clause="sr_of_zero")
        raise PrecisionError("sr of a zero-to-precision element is uncertain")
    v, a = c.leading()
    return TameElement(c.owner, {v: a}, INF)


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

class Embedding:
    """An F-embedding of a tower node E into a splitting field L.

    Determined by ``frob_exp`` j (residue action a -> embed(a)^(q^j)) and
    ``mu_dlog``, the discrete log of mu (the image of the top uniformizer
    is mu * pi_L).  The compatible uniformizer relations at every level
    follow from the single constraint mu^e_abs = twist_L / tau_j(acc_twist_E),
    which the enumeration of embeddings solves.

    Both parts act on discrete logs mod |k_L^*|: a digit a at valuation v
    maps to the digit with dlog  dlog(a) * res_scale + v * mu_dlog, where
    ``res_scale`` is the log of the image of k_E's generator under
    ``residue.embed`` followed by the Frobenius power q^j, so the residue
    part of every embedding is read from ``residue.embed``.
    """

    __slots__ = ("source", "target", "frob_exp", "mu_dlog", "res_scale")

    def __init__(self, source: TameField, target: TameField, frob_exp: int, mu_dlog: int):
        self.source = source
        self.target = target
        self.frob_exp = frob_exp
        self.mu_dlog = mu_dlog
        self.res_scale = residue.frobenius(
            residue.embed(source.residue.generator, target.residue),
            source.base_f * frob_exp).log

    def to_json(self):
        return {"frob_exp": self.frob_exp, "root_choice": self.mu_dlog}

    def __repr__(self):
        return f"Emb(j={self.frob_exp}, mu=g^{self.mu_dlog})"


def splitting_field(E: TameField) -> TameField:
    """A single-level extension of the base receiving all [E:F] embeddings."""
    return _splitting_data(E)[0]


def embeddings(E: TameField):
    """All [E:F] embeddings of E into splitting_field(E), deterministically
    ordered (lex in (frob_exp, root choice)), identity-like first."""
    return _splitting_data(E)[1]


def _splitting_data(E: TameField):
    if E._splitting is not None:
        return E._splitting
    base = E.base()
    if E is base:
        E._splitting = (E, [Embedding(E, E, 0, 0)])
        return E._splitting
    Q = base.q
    fe, e = E.f_over_base, E.e_abs
    fp = fe
    while True:
        if base.p ** (base.base_f * fp) > residue.SIZE_CAP:
            raise DomainError("splitting field exceeds the residue size cap",
                              clause="size_cap")
        if (Q ** fp - 1) % e == 0:
            kL = make_field(base.p, base.base_f * fp)
            twist_L = residue.embed(E.acc_twist, kL)
            L = extend(base, f_rel=fp, e_rel=e, twist=twist_L)
            homs = _enumerate_embeddings(E, L)
            if homs is not None:
                E._splitting = (L, homs)
                return E._splitting
        fp += fe


def _enumerate_embeddings(E: TameField, L: TameField):
    """All (frob_exp, mu_dlog) embedding parameters, or None when L is too
    small.  For each Frobenius exponent j, mu runs over the e-th roots of
    g^d = twist_L / tau_j(acc_twist_E), e = e_abs.  They differ by e-th roots
    of unity, so :func:`_splitting_data` builds L only when e divides
    |k_L^*|; then the roots exist exactly when e divides d, and their logs
    are d/e + k*|k_L^*|/e for k < e, in increasing order."""
    kL = L.residue
    e = E.e_abs
    step = (kL.q - 1) // e
    homs = []
    for j in range(E.f_over_base):
        tau_T = residue.frobenius(residue.embed(E.acc_twist, kL), E.base_f * j)
        d = kL.dlog(L.twist / tau_T)
        if d % e != 0:
            return None
        homs.extend(Embedding(E, L, j, d // e + k * step) for k in range(e))
    return homs


def _image_keys(homs, x: TameElement, cut=INF) -> list:
    """One key per embedding h in ``homs``, for x owned by their source:
    the digits of h(x) below ``cut`` as ``(v, dlog)`` pairs sorted by v.
    Equal keys mean equal images below ``cut``, and two keys first differ
    at the valuation of the difference.  x's digits are read and sorted
    once for all of ``homs``."""
    digits = [(v, a.log) for v, a in sorted(x.digits.items()) if v < cut]
    keys = []
    for h in homs:
        scale, mu, order = h.res_scale, h.mu_dlog, h.target.residue.q - 1
        keys.append(tuple([(v, (k * scale + v * mu) % order) for v, k in digits]))
    return keys


def apply_embedding(sigma: Embedding, x: TameElement) -> TameElement:
    """Digit-wise image: a pi^v  ->  tau(a) mu^v pi_L^v."""
    x = coerce(x, sigma.source)
    gen_power = sigma.target.residue.gen_power
    return TameElement(sigma.target,
                       {v: gen_power(d) for v, d in _image_keys([sigma], x)[0]}, x.prec)


# ---------------------------------------------------------------------------
# subfields
# ---------------------------------------------------------------------------

def _solve_congruence_pair(r1, m1, r2, m2):
    """Intersect x = r1 (mod m1) with x = r2 (mod m2); None if empty."""
    g = gcd(m1, m2)
    if (r2 - r1) % g != 0:
        return None
    lcm = m1 // g * m2
    k = ((r2 - r1) // g * pow(m1 // g, -1, m2 // g)) % (m2 // g)
    return ((r1 + m1 * k) % lcm, lcm)


class Subfield:
    """The subfield generated over the base by a set of ambient elements.

    Resolved through the embedding enumeration of the ambient field: its
    degree is the number of distinct restriction tuples, and its stabilizer
    is the set of ambient embeddings agreeing with the identity-like one on
    every generator.  Numerical invariants (ramification, residue degree, a
    uniformizing monomial) are recovered from the stabilizer by discrete-log
    congruence solving.

    Incremental invariant: ``cut`` is the least generator precision and
    ``restriction_keys[i][k]`` is ``_image_keys(homs, generator k, cut)[i]``,
    the image of generator k under ambient embedding i below ``cut``.
    ``Subfield(ambient)`` is the base field viewed as a subfield, with no
    generators, and :meth:`adjoin` is the only code that embeds a
    generator; :func:`subfield_generated` folds it from there.  A Subfield
    is immutable apart from its lazily resolved invariants.
    """

    __slots__ = ("ambient", "generators", "splitting", "homs", "cut",
                 "degree", "stabilizer", "restriction_keys", "_invariants")

    def __init__(self, ambient: TameField):
        self.ambient = ambient
        self.splitting, self.homs = _splitting_data(ambient)
        n = len(self.homs)
        self.generators = []
        self.cut = INF
        self.restriction_keys = [()] * n
        self.degree = 1
        self.stabilizer = list(range(n))
        self._invariants = None

    def adjoin(self, x: TameElement) -> "Subfield":
        """The subfield generated by this one and x, which is coerced into
        the ambient field; applies the ambient embeddings to x only.

        Raises :class:`PrecisionError` when some generator, old or new,
        has fewer than :data:`GUARD_DIGITS` certain digits above its lead
        at the new cut."""
        x = coerce(x, self.ambient)
        generators = self.generators + [x]
        cut = min(self.cut, x.prec)
        dropped = cut < self.cut
        if cut is not INF:
            # every image of a generator has the generator's digit
            # valuations and precision, so the guard over all images is a
            # guard over the generators; the old ones passed it at the old
            # cut and only need re-checking when the cut drops
            for g in (generators if dropped else (x,)):
                lead = min(g.digits) if g.digits else cut
                if cut - lead < GUARD_DIGITS:
                    raise PrecisionError(
                        "precision too low to separate embeddings on a generator")
        keys = self.restriction_keys
        if dropped:
            keys = [tuple(tuple(d for d in key if d[0] < cut) for key in row)
                    for row in keys]
        keys = [row + (key,) for row, key in zip(keys, _image_keys(self.homs, x, cut))]
        K = object.__new__(Subfield)
        K.ambient, K.splitting, K.homs = self.ambient, self.splitting, self.homs
        K.generators, K.cut, K.restriction_keys = generators, cut, keys
        K.degree = len(set(keys))
        K.stabilizer = [i for i, k in enumerate(keys) if k == keys[0]]
        K._invariants = None
        return K

    # -- membership ---------------------------------------------------------

    def contains(self, x: TameElement) -> bool:
        x = coerce(x, self.ambient)
        ref, *rest = _image_keys([self.homs[i] for i in self.stabilizer], x)
        return all(key == ref for key in rest)

    # -- numerical invariants ----------------------------------------------

    def _monomial_congruences(self, v: int):
        """Congruences for dlog(a) making a*pi^v fixed by the stabilizer:
        its image key under each h there equals the one under ``homs[0]``."""
        ML = self.splitting.residue.q - 1
        h0 = self.homs[0]
        sol = (0, 1)
        for i in self.stabilizer:
            h = self.homs[i]
            a_i = (h.res_scale - h0.res_scale) % ML
            b_i = (-v * (h.mu_dlog - h0.mu_dlog)) % ML
            g = gcd(a_i, ML)
            if b_i % g != 0:
                return None
            m_i = ML // g
            r_i = (b_i // g) * pow(a_i // g, -1, m_i) % m_i
            sol = _solve_congruence_pair(sol[0], sol[1], r_i, m_i)
            if sol is None:
                return None
        return sol

    def _resolve_invariants(self):
        if self._invariants is not None:
            return self._invariants
        e_amb = self.ambient.e_abs
        v_min, unif = None, None
        for v in range(1, e_amb + 1):
            sol = self._monomial_congruences(v)
            if sol is not None:       # a*pi^v lies here for a = g^sol[0]
                v_min = v
                unif = self.ambient.monomial(v, self.ambient.residue.gen_power(sol[0]))
                break
        f_amb = self.ambient.f_over_base
        f_g = 0
        for i in self.stabilizer:
            f_g = gcd(f_g, self.homs[i].frob_exp)
        # residue field of the subfield = fixed field of the stabilizer's
        # Frobenius exponents; gcd with 0 (trivial action) gives f_amb.
        f_over_base = gcd(f_amb, f_g)
        e_over_base = e_amb // v_min
        if e_over_base * f_over_base != self.degree:
            raise DomainError(
                "internal consistency: subfield degree "
                f"{self.degree} != e*f = {e_over_base}*{f_over_base}",
                clause="subfield_invariants")
        self._invariants = (e_over_base, f_over_base, unif)
        return self._invariants

    @property
    def e_over_base(self) -> int:
        return self._resolve_invariants()[0]

    @property
    def f_over_base(self) -> int:
        return self._resolve_invariants()[1]

    def uniformizer(self) -> TameElement:
        """A uniformizing monomial of this subfield, inside the ambient."""
        return self._resolve_invariants()[2]

    def residue_degree_of(self, r0: FqElem) -> int:
        """Degree of a residue element over this subfield's residue field."""
        return residue.degree_over(r0.owner, r0.log,
                                   self.ambient.base_f * self.f_over_base)

    def signature(self):
        return (self.degree, self.e_over_base, self.f_over_base)

    def __repr__(self):
        return f"Subfield(deg={self.degree} of {self.ambient!r})"


def monomial_degree(E: TameField, v: int, k: int) -> int:
    """[F[x]:F] for the monomial x = g^k*pi^v of E, g its residue generator,
    in closed form: the degree of ``subfield_generated([x], E)``.

    With e = e(E/F) and d = gcd(v, e), pi^e*acc_twist = t gives
    x^(e/d) = u*t^(v/d) for the residue unit u = g^(k*e/d)*acc_twist^(-v/d),
    and v/d is prime to e/d, so [F[x]:F] = (e/d)*[k_F(u):k_F], read off
    dlog(u) by :func:`residue.degree_over`.  This is [E:F] = e*f only if
    d = 1, which :func:`generating_log` checks once per valuation.
    """
    e, res = E.e_abs, E.residue
    d = gcd(v, e)
    u = (k * e // d - v // d * res.dlog(E.acc_twist)) % (res.q - 1)
    return e // d * residue.degree_over(res, u, E.base_f)


def generating_log(E: TameField, v: int, logs):
    """The first k in ``logs`` for which the monomial g^k*pi^v generates E
    over F, ``monomial_degree(E, v, k) == E.degree``; None if none does.
    By :func:`monomial_degree` that degree is [E:F] = e*f only if
    gcd(v, e) = 1, so for any other v no k is tried; otherwise
    :func:`residue.degree_over` settles each k with one check per maximal
    subfield of k_E over k_F."""
    if gcd(v, E.e_abs) != 1:
        return None
    return next((k for k in logs if monomial_degree(E, v, k) == E.degree), None)


def subfield_generated(S, ambient: TameField) -> Subfield:
    """The subfield of the ambient field generated by the elements of S:
    every element is coerced first, so a foreign one is refused with
    ``not_a_descendant`` before the embeddings are enumerated, then
    :meth:`Subfield.adjoin` is folded over S from ``Subfield(ambient)``."""
    S = [coerce(x, ambient) for x in S]
    K = Subfield(ambient)
    for x in S:
        K = K.adjoin(x)
    return K


def tower_subfield(level: TameField, ambient: TameField) -> Subfield:
    """A tower level viewed as a Subfield of the ambient field: the one
    generated by its residue generator and uniformizer, cached on the
    ambient field.  A level that is not an ancestor is refused by
    :func:`coerce` (``not_a_descendant``)."""
    K = ambient._subfields.get(level)
    if K is None:
        K = ambient._subfields[level] = subfield_generated(
            [level.residue_gen_elem(), level.uniformizer()], ambient)
    return K
