"""Minimality tests, genericity tests, and chunk factorization.

Minimality of an element c over a base subfield is decided by three
independent code paths that must agree:

1. classical: gcd(v(c), e) = 1 together with the unit part of c^e
   generating the residue extension;
2. the leading-term representative already generates: base[sr(c)] = base[c];
3. every pair of distinct embeddings of base[c] over the base separates c
   at the critical valuation: ord(sigma(c) - sigma'(c)) = ord(c).

The factorization routine splits the canonical digit expansion of beta
into chunks at exactly the digits that enlarge the generated subfield;
each chunk is then minimal over the next smaller field by construction,
and an independent certifier re-verifies every invariant.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from .errors import DomainError, PrecisionError
from .tower import INF, Subfield, TameElement, TameField, sr, tower_subfield


def as_subfield(base, ambient: TameField) -> Subfield:
    """Normalize a base given as a tower field into a Subfield of ambient."""
    if isinstance(base, Subfield):
        if base.ambient is not ambient:
            raise DomainError("base subfield lives in a different ambient field",
                              clause="ambient_mismatch")
        return base
    if isinstance(base, TameField):
        return tower_subfield(base, ambient)
    raise DomainError(f"unsupported base type {type(base).__name__}",
                      clause="unsupported_base")


# ---------------------------------------------------------------------------
# minimality
# ---------------------------------------------------------------------------

def separating_pairs(Ec: Subfield, small: Subfield, big: Subfield):
    """The embedding-pair table behind criterion 3 and GE1.

    Returns ``[((i, j), v), ...]`` over the pairs i < j that agree on
    ``small`` but not on ``big``, where c is the last generator of ``Ec``
    and v is the valuation of sigma_i(c) - sigma_j(c) in the ambient
    field's units: ord(sigma_i(c) - sigma_j(c)) = v / e_abs, compared with
    ``min(c.digits)``.  v is the least valuation where c's image keys
    differ, decided below ``Ec.cut``: None when they agree and the cut is
    infinite (an exact zero), :class:`PrecisionError` when they agree below
    a finite cut.
    """
    images = [row[-1] for row in Ec.restriction_keys]
    small_keys, big_keys = small.restriction_keys, big.restriction_keys
    table = []
    for i, j in combinations(range(len(images)), 2):
        if small_keys[i] != small_keys[j] or big_keys[i] == big_keys[j]:
            continue
        diff = set(images[i]).symmetric_difference(images[j])
        if diff:
            table.append(((i, j), min(diff)[0]))
        elif Ec.cut is INF:
            table.append(((i, j), None))
        else:
            raise PrecisionError("embedding difference is zero to precision")
    return table


class MinimalityReport:
    """Outcome of the three independent minimality criteria."""

    def __init__(self, in_base: bool, crit1_classical: bool, crit2_sr_generates: bool,
                 crit3_embedding_ord: bool, witnesses: dict | None = None):
        self.in_base, self.witnesses = in_base, {} if witnesses is None else witnesses
        self.crit1_classical, self.crit2_sr_generates = crit1_classical, crit2_sr_generates
        self.crit3_embedding_ord = crit3_embedding_ord

    @property
    def verdicts(self):
        return (self.crit1_classical, self.crit2_sr_generates, self.crit3_embedding_ord)

    @property
    def minimal(self) -> bool:
        if len(set(self.verdicts)) != 1:
            raise DomainError(
                f"minimality criteria disagree: {self.verdicts}; "
                "this is an internal consistency error",
                clause="criteria_disagree")
        return self.crit1_classical

    def agree(self) -> bool:
        return len(set(self.verdicts)) == 1


def is_minimal(c: TameElement, base) -> MinimalityReport:
    """Evaluate all three minimality criteria of c relative to base[c]/base."""
    if not c.digits:
        raise (DomainError("minimality of zero is undefined",
                           clause="minimality_of_zero") if c.prec is INF
               else PrecisionError("element is zero to precision"))
    base_sub = as_subfield(base, c.owner)
    return _minimality(c, base_sub, base_sub.adjoin(c))


def _minimality(c: TameElement, base_sub: Subfield, Ec: Subfield) -> MinimalityReport:
    """The three criteria for a nonzero c, given ``Ec = base_sub.adjoin(c)``
    already built by the caller."""
    in_base = Ec.degree == base_sub.degree
    witnesses = {}

    # --- criterion 1: classical numerical test -----------------------------
    if Ec.e_over_base % base_sub.e_over_base != 0:
        raise DomainError("inconsistent ramification between base and base[c]",
                          clause="ramification_inconsistent")
    e_rel = Ec.e_over_base // base_sub.e_over_base
    e_amb = c.owner.e_abs
    c_val = min(c.digits)           # ord(c) = c_val / e_amb
    v, rem = divmod(c_val * Ec.e_over_base, e_amb)
    if rem:
        raise DomainError("valuation of c is not integral in base[c] (inconsistency)",
                          clause="valuation_not_integral")
    # with lead(c) = a*pi^w and the base's uniformizer b*pi^u, the unit part
    # c^e / (b*pi^u)^v has leading term (a^e / b^v)*pi^(w*e - u*v)
    w, a = c.leading()
    u, b = base_sub.uniformizer().leading()
    if w * e_rel != u * v:
        raise DomainError("unit part of c^e does not have valuation 0 (inconsistency)",
                          clause="unit_part_valuation")
    r0 = a ** e_rel / b ** v
    f_rel = Ec.f_over_base // base_sub.f_over_base
    res_deg = base_sub.residue_degree_of(r0)
    crit1 = (gcd(v, e_rel) == 1) and (res_deg == f_rel)
    witnesses["crit1"] = {"v": v, "e_rel": e_rel, "f_rel": f_rel,
                          "residue_degree": res_deg}

    # --- criterion 2: sr generates the same field --------------------------
    lead = sr(c)
    # an exact monomial is its own sr, so base[sr(c)] is base[c]
    Esr = Ec if c.prec is INF and lead.digits == c.digits else base_sub.adjoin(lead)
    crit2 = Esr.degree == Ec.degree
    witnesses["crit2"] = {"deg_sr": Esr.degree, "deg_c": Ec.degree}

    # --- criterion 3: embedding differences sit at the critical ord --------
    violations = [(pair, d_val) for pair, d_val in separating_pairs(Ec, base_sub, Ec)
                  if d_val != c_val]
    crit3 = not violations
    if violations:
        witnesses["crit3_violations"] = [
            {"pair": pair, "ord": None if d_val is None else str(Fraction(d_val, e_amb)),
             "expected": str(c.ord())}
            for pair, d_val in violations]
    return MinimalityReport(in_base, crit1, crit2, crit3, witnesses)


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

class Factorization:
    """Chunk decomposition beta = sum_i c_i with strictly growing fields.

    ``chunks[i]`` is c_i and ``fields[i]`` is E_i; index 0 is the shallowest
    correction (largest field E_0 = base[beta]) and index s the leading
    chunk (smallest field), so ord(c_0) > ... > ord(c_s) = ord(beta).

    ``levels`` is the field chain E_0 > ... > E_s as a tuple, followed by
    the base when E_s is bigger than it, set once here (empty when
    ``fields`` is).  Chunk i lies in ``levels[i]`` and, unless it is
    central (no level below it), generates ``levels[i]`` over
    ``levels[i + 1]``.
    """

    def __init__(self, beta: TameElement, base: TameField, chunks: list, fields: list):
        self.beta, self.base, self.chunks, self.fields = beta, base, chunks, fields
        self.levels = tuple(fields)
        if fields:
            base_sub = tower_subfield(base, beta.owner)
            if fields[-1].degree > base_sub.degree:
                self.levels += (base_sub,)

    @property
    def degenerate(self) -> bool:
        """Whether beta is central: no level below E_0."""
        return len(self.levels) == 1

    def partial_tail(self, i: int) -> TameElement:
        """beta_i = sum_{j >= i} c_j."""
        out = self.chunks[i]
        for j in range(i + 1, len(self.chunks)):
            out = out + self.chunks[j]
        return out

    def depth_jumps(self):
        """The decreasing ord list (ord(c_0), ..., ord(c_s))."""
        return tuple(c.ord() for c in self.chunks)


def howe_factorize(beta: TameElement, base: TameField) -> Factorization:
    """Split the canonical expansion of beta into minimal chunks.

    Scans digits from the most negative valuation upward, tracking the
    subfield generated by the digits seen so far; a chunk boundary occurs
    exactly where a digit strictly enlarges that subfield.  The output is
    certified by :func:`check_factorization` before being returned.
    """
    if not beta.digits:
        raise (DomainError("cannot factor zero",
                           clause="factor_of_zero") if beta.prec is INF
               else PrecisionError("beta is zero to precision"))
    ambient = beta.owner
    base_sub = tower_subfield(base, ambient)
    K = base_sub
    groups = []          # scan order: deepest chunk first
    cur = []
    for v in sorted(beta.digits):
        m = ambient.monomial(v, beta.digits[v])
        if K.contains(m):
            cur.append(m)
        else:
            if cur:
                groups.append((cur, K))
            K = K.adjoin(m)
            cur = [m]
    groups.append((cur, K))
    chunks, fields = [], []
    for idx, (monos, kfield) in enumerate(reversed(groups)):
        total = ambient.zero(INF)
        for m in monos:
            total = total + m
        if idx == 0:
            total = total.truncate(beta.prec)
        chunks.append(total)
        fields.append(kfield)
    fac = Factorization(beta, base, chunks, fields)
    report = check_factorization(fac)
    if not report.ok:
        raise DomainError(f"factorization failed self-certification: {report.clause}",
                          clause=report.clause)
    return fac


class FactorizationReport:
    def __init__(self, ok: bool, clause: str | None = None, message: str | None = None):
        self.ok, self.clause, self.message = ok, clause, message


def check_factorization(fac: Factorization) -> FactorizationReport:
    """Independently re-verify every factorization invariant.

    Checks, in order: chunk shape, exact digit sum, strict ord decrease,
    chunk membership, strict field growth and generation, per-chunk
    minimality over the next smaller field, identification of the top
    field with base[beta], and valuation/jump consistency.
    """
    def fail(clause, msg):
        return FactorizationReport(False, clause, msg)

    ambient = fac.beta.owner
    base_sub = tower_subfield(fac.base, ambient)
    n = len(fac.chunks)
    if n == 0 or len(fac.fields) != n:
        return fail("empty_chunk", "no chunks, or chunk/field length mismatch")
    for i, c in enumerate(fac.chunks):
        if not c.digits:
            return fail("empty_chunk", f"chunk {i} is zero")

    total = ambient.zero(INF)
    for c in fac.chunks:
        total = total + c
    if not total.equals(fac.beta):
        return fail("sum_mismatch", "sum of chunks differs from beta")

    e_amb = ambient.e_abs
    ords = [min(c.digits) for c in fac.chunks]      # ord(c_i) = ords[i] / e_amb
    for i in range(n - 1):
        if not ords[i] > ords[i + 1]:
            return fail("ord_not_decreasing",
                        f"ord(c_{i}) = {Fraction(ords[i], e_amb)} !> "
                        f"ord(c_{i+1}) = {Fraction(ords[i + 1], e_amb)}")

    for i, (c, K) in enumerate(zip(fac.chunks, fac.fields)):
        if not K.contains(c):
            return fail("chunk_not_in_field", f"chunk {i} is not in its declared field")

    levels = fac.levels
    gens = []       # gens[i] = E_{i+1}[c_i], reused by the minimality checks
    for i in range(len(levels) - 1):
        big, small = levels[i], levels[i + 1]
        if not set(big.stabilizer) <= set(small.stabilizer):
            return fail("field_not_nested", f"E_{i+1} is not contained in E_{i}")
        if small.degree >= big.degree:
            return fail("field_not_nested", f"E_{i+1} does not strictly grow to E_{i}")
        gen = small.adjoin(fac.chunks[i])
        if gen.degree != big.degree:
            return fail("field_not_generated",
                        f"E_{i+1}[c_{i}] has degree {gen.degree} != {big.degree}")
        gens.append(gen)
    if not set(fac.fields[-1].stabilizer) <= set(base_sub.stabilizer):
        return fail("field_not_nested", "E_s does not contain the base")

    for i, c in enumerate(fac.chunks):
        # a central chunk has no level below it: its own field is the base
        next_base = levels[min(i + 1, len(levels) - 1)]
        Ec = gens[i] if i < len(gens) else next_base.adjoin(c)
        rep = _minimality(c, next_base, Ec)
        if not rep.agree():
            return fail("criteria_disagree", f"minimality criteria disagree on chunk {i}")
        if not rep.minimal:
            return fail("chunk_not_minimal",
                        f"chunk {i} is not minimal over the next smaller field")

    top = base_sub.adjoin(fac.beta)
    if top.degree != fac.fields[0].degree or \
            set(top.stabilizer) != set(fac.fields[0].stabilizer):
        return fail("top_field_mismatch", "E_0 is not base[beta]")

    for i in range(n):
        beta_i = fac.partial_tail(i)
        beta_next = fac.partial_tail(i + 1) if i + 1 < n else ambient.zero(INF)
        diff = beta_i - beta_next
        if not diff.digits or min(diff.digits) != ords[i]:
            return fail("jump_mismatch", f"ord(beta_{i} - beta_{i+1}) != ord(c_{i})")
        if ords[i] * fac.fields[i].e_over_base % e_amb:
            return fail("jump_mismatch",
                        f"v of chunk {i} is not integral in its field")
    return FactorizationReport(True)


# ---------------------------------------------------------------------------
# genericity
# ---------------------------------------------------------------------------

class GenericityReport:
    """GE1-style genericity of c for a Levi step E'/E, with cross-checks."""

    def __init__(self, depth: Fraction, ge1: bool, minimal_consensus: bool,
                 generates: bool):
        self.depth = depth          # r = -ord(c)
        self.ge1, self.minimal_consensus, self.generates = ge1, minimal_consensus, generates

    def equivalence_holds(self) -> bool:
        """Genericity must coincide with (minimality AND generation)."""
        return self.ge1 == (self.minimal_consensus and self.generates)


def is_generic(c: TameElement, levels) -> GenericityReport:
    """GE1 test: all embedding pairs agreeing on E but distinct on E' must
    separate c at ord = ord(c); cross-checked against the minimality test."""
    Eprime, Esmall = levels
    ambient = c.owner
    Eprime = as_subfield(Eprime, ambient)
    Esmall = as_subfield(Esmall, ambient)
    if not set(Eprime.stabilizer) <= set(Esmall.stabilizer):
        raise DomainError("levels are not nested (E must sit inside E')",
                          clause="levels_not_nested")
    if not Eprime.contains(c):
        raise DomainError("element does not lie in the bigger level E'",
                          clause="not_in_level")
    depth = -c.ord()
    c_val = min(c.digits)
    Ec = Esmall.adjoin(c)
    ge1 = all(d_val == c_val for _, d_val in separating_pairs(Ec, Esmall, Eprime))
    rep = _minimality(c, Esmall, Ec)
    return GenericityReport(depth=depth, ge1=ge1,
                            minimal_consensus=rep.agree() and rep.minimal,
                            generates=Ec.degree == Eprime.degree)
