"""Weyl characters as finite weight multisets, and their plethysms.

A character expansion is a plain dict mapping weight vectors to
multiplicities, invariant under the Weyl group.  Symmetric and exterior
powers go through the Newton / power-sum recursion on the weight
multiset, which works uniformly for any datum; decomposition into
irreducibles is leading-term subtraction along the dominance order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .errors import InvalidInput, NonDominantError
from .kostka import lusztig_q_analogue
from .rootdata import (
    RepSpec,
    RootDatum,
    Vec,
    dominant_below,
    dual_weight_vec,
    height2,
    sigma_grade,
    weyl_orbit,
)

CharExpansion = dict  # weight vector -> multiplicity


def weyl_dim(rd: RootDatum, lam: Vec) -> int:
    """Dimension of the highest-weight module, by the product formula."""
    if not rd.is_dominant(lam):
        raise NonDominantError(f"{lam} is not dominant")
    num = Fraction(1)
    rho2 = rd.rho_b_times2
    lam2 = tuple(2 * x + r for x, r in zip(lam, rho2))
    for form in rd.positive_coroot_forms:
        num *= Fraction(
            sum(a * b for a, b in zip(lam2, form)),
            sum(a * b for a, b in zip(rho2, form)),
        )
    if num.denominator != 1:
        raise RuntimeError(f"non-integral dimension for {lam}")
    return int(num)


@cache
def weight_multiplicities(rd: RootDatum, lam: Vec) -> CharExpansion:
    """Full weight multiset of the irreducible with highest weight lam."""
    if not rd.is_dominant(lam):
        raise NonDominantError(f"{lam} is not dominant")
    out = {}
    for mu in dominant_below(rd, lam):
        m = lusztig_q_analogue(rd, lam, mu).at_one()
        if m == 0:
            continue
        for nu in weyl_orbit(rd, mu):
            out[nu] = m
    if sum(out.values()) != weyl_dim(rd, lam):
        raise RuntimeError(f"weight count mismatch for {lam}")
    return out


def rep_weight_multiset(rd: RootDatum, rho_or_hw) -> CharExpansion:
    hw = rho_or_hw.highest_weight if isinstance(rho_or_hw, RepSpec) else rho_or_hw
    return weight_multiplicities(rd, hw)


def rep_weight_list(rd: RootDatum, rho_or_hw) -> list[Vec]:
    """The weights as a flat list, descending, each repeated by its multiplicity."""
    out = []
    for w, m in sorted(rep_weight_multiset(rd, rho_or_hw).items(), reverse=True):
        out.extend([w] * m)
    return out


def char_mul(a: CharExpansion, b: CharExpansion) -> CharExpansion:
    out = {}
    for va, ca in a.items():
        for vb, cb in b.items():
            key = tuple(x + y for x, y in zip(va, vb))
            c = out.get(key, 0) + ca * cb
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


def char_add(a: CharExpansion, b: CharExpansion, sign: int = 1) -> CharExpansion:
    out = dict(a)
    for v, c in b.items():
        n = out.get(v, 0) + sign * c
        if n:
            out[v] = n
        elif v in out:
            del out[v]
    return out


def adams(k: int, ch: CharExpansion) -> CharExpansion:
    """Power-sum operation: evaluate the character on k-th powers."""
    out = {}
    for v, c in ch.items():
        key = tuple(k * x for x in v)
        out[key] = out.get(key, 0) + c
    return out


def _check_invariant(rd: RootDatum, ch) -> None:
    for v, c in ch.items():
        for i in range(len(rd.simple_roots)):
            if ch.get(rd.reflect_simple(i, v)) != c:
                raise InvalidInput(f"expansion is not Weyl-invariant at {v}")


def decompose_generic(rd: RootDatum, ch, *, require_nonneg: bool):
    """Write a Weyl-invariant expansion as a combination of irreducibles.

    Coefficients may come from any commutative ring supporting +, -,
    multiplication by int and truthiness; with ``require_nonneg`` the
    input must be an actual (not virtual) character over the integers.
    """
    remaining = {v: c for v, c in ch.items() if c}
    _check_invariant(rd, remaining)
    parts = []
    guard = 0
    while remaining:
        guard += 1
        if guard > 100_000:
            raise RuntimeError("decomposition did not terminate")
        top = max(remaining, key=lambda v: (height2(rd, v), v))
        if not rd.is_dominant(top):
            raise InvalidInput(f"maximal weight {top} is not dominant")
        mult = remaining[top]
        if require_nonneg and mult < 0:
            raise InvalidInput(f"negative multiplicity {mult} at {top}")
        parts.append((top, mult))
        for v, m in weight_multiplicities(rd, top).items():
            delta = mult * m
            cur = remaining.get(v)
            new = -delta if cur is None else cur - delta
            if new:
                remaining[v] = new
            elif v in remaining:
                del remaining[v]
    parts.sort(key=lambda p: (height2(rd, p[0]), p[0]), reverse=True)
    return parts


def decompose(rd: RootDatum, ch: CharExpansion):
    """Integer decomposition; raises on virtual (negative) multiplicities."""
    return decompose_generic(rd, ch, require_nonneg=True)


def expand_decomp(rd: RootDatum, parts) -> CharExpansion:
    out = {}
    for lam, mult in parts:
        out = char_add(out, {v: mult * m for v, m in weight_multiplicities(rd, lam).items()})
    return out


def _power_series(rd: RootDatum, rho: RepSpec, k: int, signed: bool):
    """Newton recursion for complete (symmetric) or elementary (exterior)
    power characters of the weight multiset of rho."""
    base = rep_weight_multiset(rd, rho)
    series = [{(0,) * rd.rank: 1}]
    for n in range(1, k + 1):
        acc = {}
        for j in range(1, n + 1):
            term = char_mul(adams(j, base), series[n - j])
            sign = 1 if not signed else (1 if j % 2 == 1 else -1)
            acc = char_add(acc, term, sign)
        out = {}
        for v, c in acc.items():
            q, r = divmod(c, n)
            if r:
                raise RuntimeError(f"inexact division by {n} in power recursion")
            if q:
                out[v] = q
        series.append(out)
    return series


def sym_power_char(rd: RootDatum, rho: RepSpec, k: int) -> CharExpansion:
    if k < 0:
        raise InvalidInput("power must be nonnegative")
    return _power_series(rd, rho, k, signed=False)[k]


def ext_power_char(rd: RootDatum, rho: RepSpec, i: int) -> CharExpansion:
    n = sum(rep_weight_multiset(rd, rho).values())
    if not 0 <= i <= n:
        raise InvalidInput(f"exterior power {i} outside 0..{n}")
    return _power_series(rd, rho, i, signed=True)[i]


def _graded_decomp(rd: RootDatum, ch: CharExpansion, grade: int):
    parts = decompose(rd, ch)
    for lam, _ in parts:
        if sigma_grade(rd, lam) != grade:
            raise RuntimeError(f"constituent {lam} off grade {grade}")
    return parts


def sym_power_decomp(rd: RootDatum, rho: RepSpec, k: int):
    """Irreducible pieces of the k-th symmetric power of rho."""
    grade = k * sigma_grade(rd, rho.highest_weight)
    return _graded_decomp(rd, sym_power_char(rd, rho, k), grade)


def ext_power_decomp(rd: RootDatum, rho: RepSpec, i: int):
    """Irreducible pieces of the i-th exterior power of rho."""
    grade = i * sigma_grade(rd, rho.highest_weight)
    return _graded_decomp(rd, ext_power_char(rd, rho, i), grade)


def dual_weight(rd: RootDatum, lam: Vec) -> Vec:
    """Highest weight of the contragredient module."""
    if not rd.is_dominant(lam):
        raise NonDominantError(f"{lam} is not dominant")
    return dual_weight_vec(rd, lam)


def char_eval(ch: CharExpansion, point) -> complex:
    """Evaluate the expansion at a semisimple parameter (tuple of numbers)."""
    total = 0
    for v, c in ch.items():
        term = 1.0
        for x, e in zip(point, v):
            if e:
                term *= x**e
        total += c * term
    return total
