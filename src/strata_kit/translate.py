"""Bidirectional translation between the two stratum-of-data shapes.

One direction turns a simple stratum (order, n, r, beta) into the tower
datum (nested fields, increasing depths, realizing chunk per step); the
other re-assembles beta from the chunks and rebuilds the stratum.  Every
chunk is generic (GE1) by construction: the stratum's certified
factorization proved it minimal on the embedding pairs GE1 reads.  What
is re-verified is the equality of the attached group presentations and,
on a roundtrip, the agreement of all numerical data with realizers
matching up to principal units.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .strata import (OrderSkeleton, StratumSkeleton, compare_presentations,
                     defining_sequence, k0, presentation_secherre, presentation_yu,
                     v_order)
from .tower import TameElement, TameField, sr


class YuSkeleton:
    """Tower-side datum: nested fields E_0 > ... > E_d = F with strictly
    increasing depths and a realizing element per step (None for a
    trivial final step)."""

    def __init__(self, ambient: TameField, tower_degrees: tuple, depths: list,
                 chunks: list, d: int, e_A: int, N: int, trivial_top: bool = False,
                 depth_zero: bool = False):
        self.ambient, self.tower_degrees = ambient, tower_degrees
        self.depths = depths    # Fractions
        self.chunks = chunks    # ambient elements; the last may be None
        self.d, self.e_A, self.N = d, e_A, N
        self.trivial_top, self.depth_zero = trivial_top, depth_zero
        if self.d < 0:
            raise DomainError(f"d must be non-negative, not {self.d}",
                              clause="negative_d")
        if len(self.depths) != self.d + 1 or len(self.tower_degrees) != self.d + 1:
            raise DomainError("tower/depth lengths must equal d + 1",
                              clause="datum_length")
        if self.tower_degrees[-1] != 1:
            raise DomainError("the tower must terminate at the base field",
                              clause="tower_not_at_base")
        body = self.depths[:-1] if self.trivial_top else self.depths
        for a, b in zip(body, body[1:]):
            if not a < b:
                raise DomainError("depths must be strictly increasing",
                                  clause="depths_not_increasing")
        if self.trivial_top and self.d < 1:
            raise DomainError("a trivial final step needs a step before it",
                              clause="trivial_top_depth")
        if self.trivial_top and self.depths[-1] != self.depths[-2]:
            raise DomainError("a trivial final step must repeat the last depth",
                              clause="trivial_top_depth")


def secherre_to_yu(stratum: StratumSkeleton, check: bool = True) -> YuSkeleton:
    """Stratum -> tower datum.

    The tower is the factorization's level chain (the chunk fields, then
    the base when the last chunk is not already central); depths are the
    normalized jumps r_{i+1}/e_A capped by n/e_A.  Postcondition (on by
    default): the three product presentations agree across the
    translation.
    """
    fac = stratum.fac
    order = stratum.order
    depths = [Fraction(st.r, order.e_A) for st in defining_sequence(stratum)[1:]]
    depths.append(Fraction(stratum.n, order.e_A))
    degrees = tuple(K.degree for K in fac.levels)
    chunks = list(fac.chunks)
    trivial_top = len(degrees) > len(fac.fields)
    if trivial_top:
        depths.append(depths[-1])
        chunks.append(None)
    yu = YuSkeleton(stratum.beta.owner, degrees, depths, chunks, len(degrees) - 1,
                    order.e_A, order.N, trivial_top=trivial_top,
                    depth_zero=stratum.n == 0)
    if check:
        _check_presentations(stratum, yu)
    return yu


def _check_presentations(stratum: StratumSkeleton, yu: YuSkeleton):
    h1, j, jhat = presentation_secherre(stratum)
    kplus, kcirc, kfull = presentation_yu(yu)
    for a, b in ((h1, kplus), (j, kcirc), (jhat, kfull)):
        same, diff = compare_presentations(a, b)
        if not same:
            raise DomainError(f"presentation mismatch {a.label}/{b.label}: {diff}",
                              clause="presentation_mismatch")


def yu_to_secherre(yu: YuSkeleton, r: int = 0) -> StratumSkeleton:
    """Tower datum -> stratum: beta is the sum of the realizing chunks and
    n = -v_order(beta), at the E-pure order of M_N(F) with the datum's N
    and period e_A.  The stated depths, tower degrees and depth-zero flag
    are checked, in that order, against the datum that secherre_to_yu
    derives from the rebuilt stratum."""
    real = [c for c in yu.chunks if c is not None]
    if not real:
        raise DomainError("datum carries no realizing chunks", clause="no_chunks")
    E = real[0].owner
    order = OrderSkeleton(m=yu.N, d=1, e_A=yu.e_A, pure_over=E)
    st = StratumSkeleton(order, sum(real[1:], real[0]), r=r)
    derived = secherre_to_yu(st, check=False)
    # the depths of the realizing steps, a trivial final step's repeat left out
    stated = yu.depths[:yu.d] if yu.trivial_top else list(yu.depths)
    steps = derived.depths[:len(st.fac.chunks)]
    if stated != steps:
        raise DomainError(f"stated depths {stated} disagree with derived {steps}",
                          clause="depth_mismatch")
    if tuple(yu.tower_degrees) != derived.tower_degrees:
        raise DomainError(f"stated tower degrees {list(yu.tower_degrees)} disagree "
                          f"with derived {list(derived.tower_degrees)}",
                          clause="tower_degrees_mismatch")
    if yu.depth_zero != derived.depth_zero:
        raise DomainError(f"stated depth_zero = {yu.depth_zero} disagrees with "
                          f"n = {st.n}", clause="depth_zero_mismatch")
    return st


class RoundtripReport:
    def __init__(self, ok: bool, checks: dict):
        self.ok, self.checks = ok, checks


def _unit_equivalent(c1: TameElement, c2: TameElement) -> bool:
    """Whether c2 = c1 * (1 + positive-valuation), i.e. ord(c2/c1 - 1) > 0.
    That holds exactly when c1 and c2 have the same leading term, since
    lead(c2/c1) = lead(c2)/lead(c1); so only the standard representatives
    are compared, and no series is inverted."""
    return sr(c1).equals(sr(c2))


def roundtrip_check(stratum: StratumSkeleton) -> RoundtripReport:
    """stratum -> datum -> stratum, then compare all numerical data and the
    realizers up to principal units."""
    yu = secherre_to_yu(stratum)
    st2 = yu_to_secherre(yu, r=stratum.r)
    checks = {}
    checks["n"] = st2.n == stratum.n
    checks["e_A"] = st2.order.e_A == stratum.order.e_A
    checks["kind"] = st2.kind == stratum.kind
    f1 = [f.degree for f in stratum.fac.fields]
    f2 = [f.degree for f in st2.fac.fields]
    checks["tower"] = f1 == f2
    checks["jumps"] = stratum.fac.depth_jumps() == st2.fac.depth_jumps()
    if checks["tower"] and len(stratum.fac.chunks) == len(st2.fac.chunks):
        checks["realizers"] = all(
            _unit_equivalent(a, b)
            for a, b in zip(stratum.fac.chunks, st2.fac.chunks))
    else:
        checks["realizers"] = False
    return RoundtripReport(all(checks.values()), checks)


class CharacterIndexTable:
    """Per-chunk truncation indices t_i = max(t, floor(-v_A(c_i)/2))."""

    def __init__(self, t: int, rows: list):
        self.t, self.rows = t, rows         # rows: (i, v_A(c_i), t_i)


def factchar_indices(stratum: StratumSkeleton, t: int = 0) -> CharacterIndexTable:
    order = stratum.order
    kk = k0(stratum.beta, order, stratum.fac)
    bound = -kk if kk is not None else stratum.n + 1
    if not (0 <= t < max(bound, 1)):
        raise DomainError(f"truncation level t={t} outside [0, {bound})",
                          clause="truncation_out_of_range")
    rows = []
    for i, c in enumerate(stratum.fac.chunks):
        vA = v_order(c, order)
        t_i = max(t, (-vA) // 2)
        rows.append((i, vA, t_i))
    return CharacterIndexTable(t, rows)
