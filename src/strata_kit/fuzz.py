"""Seeded random generators for towers, elements, and strata.

Everything is driven by an explicit ``random.Random`` so that suites are
reproducible from a seed.  Strata are generated "from the answer": we pick
a nested chain of tower levels, one generating monomial per level with
strictly decreasing negative ords, and sum them — the scan then has to
recover a factorization with exactly that field chain.
"""

from __future__ import annotations

import random

from .errors import DomainError
from .residue import SIZE_CAP, make_field
from .strata import StratumSkeleton, standard_order
from .tower import (INF, TameElement, TameField, base_field, coerce, extend,
                    generating_log)

Q_CHOICES = (3, 5, 9)
MAX_DEGREE = 8      # largest [E:F] of a random tower
MAX_CHUNKS = 3      # most chunks in a random beta


def rng_from_seed(seed: int) -> random.Random:
    return random.Random(seed)


def random_tower(rng: random.Random, q: int | None = None) -> TameField:
    """A random tame tower node over GF(q)((t)), with random twists."""
    if q is None:
        q = rng.choice(Q_CHOICES)
    cur = base_field(q)
    p = cur.p
    steps = rng.randint(0, 3)
    for _ in range(steps):
        opts = [(f, e) for f in (1, 2, 3) for e in (1, 2, 3, 4, 5)
                if f * e > 1 and e % p != 0
                and cur.degree * f * e <= MAX_DEGREE
                and p ** (cur.base_f * cur.f_over_base * f) <= SIZE_CAP]
        if not opts:
            break
        f, e = rng.choice(opts)
        new_res = make_field(p, cur.base_f * cur.f_over_base * f)
        twist = new_res.gen_power(rng.randrange(new_res.q - 1))
        cur = extend(cur, f, e, twist)
    return cur


def tower_levels(E: TameField):
    """All tower nodes from the base up to E: the tuple ``E.levels``."""
    return E.levels


def random_unit(rng: random.Random, field: TameField) -> TameElement:
    """A principal unit 1 + (positive valuation stuff)."""
    u = field.one()
    for _ in range(rng.randint(1, 3)):
        v = rng.randint(1, 6)
        digit = field.residue.gen_power(rng.randrange(field.residue.q - 1))
        u = u + field.monomial(v, digit)
    return u


def perturb(rng: random.Random, x: TameElement) -> TameElement:
    """x times a random principal unit (preserves ord, sr, minimality,
    generated field)."""
    return x * random_unit(rng, x.owner)


def random_element(rng: random.Random, field: TameField) -> TameElement:
    """A random nonzero exact element with one to three digits of valuation
    -8 to 4."""
    k = rng.randint(1, 3)
    vals = rng.sample(range(-8, 5), k)
    out = field.zero(prec=INF)
    for v in vals:
        digit = field.residue.gen_power(rng.randrange(field.residue.q - 1))
        out = out + field.monomial(v, digit)
    return out


def generating_monomial(rng: random.Random, level: TameField,
                        ambient: TameField, v_ambient: int):
    """A monomial of the given tower level, coerced into the ambient field
    at the given ambient valuation, that generates the level over the base;
    None if no digit choice works at this valuation.

    The q - 1 digit logs are always shuffled first, so the random stream
    does not depend on the answer.  :func:`tower.generating_log` then
    refuses a valuation that shares a factor with e(E/F) at once, and
    otherwise tries the first 24 shuffled logs, each with one check per
    maximal subfield of the level's residue field."""
    step = ambient.e_abs // level.e_abs
    if v_ambient % step != 0:
        return None
    v_lvl = v_ambient // step
    order = list(range(level.residue.q - 1))
    rng.shuffle(order)
    a = generating_log(level, v_lvl, order[:24])
    if a is None:
        return None
    return coerce(level.monomial(v_lvl, level.residue.gen_power(a)), ambient)


def random_beta(rng: random.Random, E: TameField):
    """A sum of generating monomials along a nested level chain from
    F[beta] = E downwards, with strictly decreasing negative ords."""
    levels = E.levels
    for _ in range(40):
        s = rng.randint(0, min(MAX_CHUNKS - 1, len(levels) - 1))
        # chunk fields: E itself first, then a decreasing sample of proper
        # ancestors (the base is allowed as the last one)
        lower = sorted(rng.sample(range(len(levels) - 1), s), reverse=True)
        fields = [E] + [levels[i] for i in lower]
        w_prev = 0
        chunks = []
        ok = True
        for M in fields:
            step = E.e_abs // M.e_abs
            got = None
            for _ in range(12):
                w = w_prev - rng.randint(1, 3) * step
                got = generating_monomial(rng, M, E, w)
                if got is not None:
                    break
            if got is None:
                ok = False
                break
            chunks.append(got)
            w_prev = got.val()
        if not ok:
            continue
        beta = chunks[0]
        for c in chunks[1:]:
            beta = beta + c
        return beta
    raise DomainError("fuzzer failed to assemble a beta for this tower",
                      clause="fuzz_beta_exhausted")


def random_stratum(rng: random.Random, q: int | None = None) -> StratumSkeleton:
    """A random simple stratum over a random tower (retrying towers whose
    random data collides)."""
    for _ in range(40):
        E = random_tower(rng, q=q)
        if E.degree == 1:
            return random_depth_zero(rng, q=E.q)
        try:
            return StratumSkeleton(standard_order(E), random_beta(rng, E))
        except DomainError:
            continue
    raise DomainError("fuzzer failed to build a stratum", clause="fuzz_stratum_exhausted")


def random_depth_zero(rng: random.Random, q: int | None = None) -> StratumSkeleton:
    if q is None:
        q = rng.choice(Q_CHOICES)
    F = base_field(q)
    digit = F.residue.gen_power(rng.randrange(F.residue.q - 1))
    beta = F.monomial(0, digit)
    return StratumSkeleton(standard_order(F), beta)
