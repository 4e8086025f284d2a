"""Weyl characters, their products, and their plethysms.

A character expansion is a plain dict mapping weight vectors to
multiplicities, invariant under the Weyl group.  Everything else stays
in the basis of irreducible characters: a weight multiset times an
irreducible character is read off by straightening each shifted weight
under the dot action (``times_char``), which gives tensor products,
decomposition (times the trivial character), and symmetric and exterior
powers (Newton's power-sum recursion, one Adams operation at a time),
uniformly for any datum.
"""

from __future__ import annotations

import math
from functools import cache
from operator import add

from .errors import InvalidInput
from .kostka import kl_row
from .rootdata import (
    RepSpec,
    RootDatum,
    Vec,
    _straighten_labels,
    dominant_labels,
    dot,
    dynkin_labels,
    height2,
    mat_apply,
    sigma_grade,
    weyl_orbit,
)

CharExpansion = dict  # weight vector -> multiplicity


def weyl_dim(rd: RootDatum, lam: Vec) -> int:
    """Dimension of the highest-weight module, by the product formula."""
    return _weyl_dim(rd, tuple(lam))


@cache
def _weyl_dim(rd: RootDatum, lam: Vec) -> int:
    dominant_labels(rd, lam)
    rho2 = rd.rho_b_times2
    lam2 = tuple(2 * x + r for x, r in zip(lam, rho2))
    forms = rd.positive_coroot_forms
    dim, r = divmod(
        math.prod(dot(lam2, f) for f in forms), math.prod(dot(rho2, f) for f in forms)
    )
    if r:
        raise RuntimeError(f"non-integral dimension for {lam}")
    return dim


@cache
def weight_multiplicities(rd: RootDatum, lam: Vec) -> CharExpansion:
    """Full weight multiset of the irreducible with highest weight lam;
    ``kl_row`` refuses a lam that is not dominant."""
    out = {}
    for mu, kq in kl_row(rd, lam):
        m = sum(kq.terms.values())
        for nu in weyl_orbit(rd, mu):
            out[nu] = m
    if sum(out.values()) != weyl_dim(rd, lam):
        raise RuntimeError(f"weight count mismatch for {lam}")
    return out


def rep_weight_list(rd: RootDatum, rho: RepSpec) -> list[Vec]:
    """The weights as a flat list, descending, each repeated by its multiplicity."""
    out = []
    for w, m in sorted(weight_multiplicities(rd, rho.highest_weight).items(), reverse=True):
        out.extend([w] * m)
    return out


def _span_rank(vectors) -> int:
    """The rank of integer vectors by fraction-free elimination, each
    cleared row divided by the gcd of its entries."""
    rows = [list(v) for v in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            r = rows[i]
            if r[c]:
                r = [p[c] * x - r[c] * y for x, y in zip(r, p)]
                g = math.gcd(*r)
                rows[i] = [x // g for x in r] if g > 1 else r
        rank += 1
    return rank


@cache
def require_valid(rd: RootDatum, rho: RepSpec) -> None:
    """InvalidInput unless rho has a dominant highest weight, every weight
    of grade one under sigma, and weights that span the torus; cached, so
    each (rd, rho) is checked once.

    A torus-level proxy only: connectedness of the kernel and global
    faithfulness are group-level hypotheses weight data cannot show."""
    lam = rho.highest_weight
    if not rd.is_dominant(lam):
        raise InvalidInput(f"representation invalid: highest weight {lam} is not dominant")
    weights = weight_multiplicities(rd, lam)
    bad = sorted(w for w in weights if sigma_grade(rd, w) != 1)
    if bad:
        raise InvalidInput(
            f"representation invalid: weights with grade != 1: "
            f"{bad[:4]}{'...' if len(bad) > 4 else ''}"
        )
    span = _span_rank(weights)
    if span < rd.rank:
        raise InvalidInput(
            f"representation invalid: weights span only {span} of {rd.rank} torus directions"
        )


def adams(k: int, ch: CharExpansion) -> CharExpansion:
    """Power-sum operation: evaluate the character on k-th powers."""
    out = {}
    for v, c in ch.items():
        key = tuple(k * x for x in v)
        out[key] = out.get(key, 0) + c
    return out


def times_char(rd: RootDatum, weights: CharExpansion, lam: Vec, labelled=None) -> dict:
    """sum_nu m_nu sign chi_straighten(nu + lam + rho) over integer m_nu, as
    irreducible highest weight -> coefficient.  ``labelled``, when given,
    is ``_labelled(rd, weights)``.

    For a Weyl-invariant weight multiset this is the multiset times the
    lam-character (Brauer-Klimyk; Humphreys, *Introduction to Lie Algebras
    and Representation Theory*, 24 ex. 9); for any weights it is
    J(e^(lam + rho) sum_nu m_nu e^nu) / J(e^rho), with J the Weyl
    alternation.

    The shifted weight nu + lam + rho has the labels of nu plus those of
    lam, plus one each, every label of rho being one.  With every label
    positive it is its own straightening, with a zero label it lies on a
    wall, and only the rest are read from ``_straighten_labels``; when the
    least labels of the weights leave every shifted weight positive, the
    sum is the weights moved by lam."""
    labels, low = _labelled(rd, weights) if labelled is None else labelled
    shift = tuple([x + 1 for x in dynkin_labels(rd, lam)])
    if min(map(add, low, shift), default=1) > 0:
        return {tuple(map(add, nu, lam)): m for nu, m in weights.items() if m}
    out = {}
    for (nu, m), nu_labels in zip(weights.items(), labels):
        v = tuple(map(add, nu_labels, shift))
        if min(v) > 0:
            sign = 1
            top = tuple(map(add, nu, lam))
        elif 0 in v:
            continue
        else:
            hit = _straighten_labels(rd, v)
            if hit is None:
                continue
            sign, delta = hit
            top = tuple([x + y + d for x, y, d in zip(nu, lam, delta)])
        c = out.get(top, 0) + sign * m
        if c:
            out[top] = c
        elif top in out:
            del out[top]
    return out


def _labelled(rd: RootDatum, weights: CharExpansion) -> tuple:
    """The Dynkin labels of the weights, in their order, and the least of
    them in each place."""
    labels = tuple(dynkin_labels(rd, nu) for nu in weights)
    return labels, tuple(map(min, zip(*labels)))


@cache
def _weight_labels(rd: RootDatum, lam: Vec) -> tuple:
    """``_labelled`` of the weights of V(lam), which ``tensor`` reads
    for every product with V(lam)."""
    return _labelled(rd, weight_multiplicities(rd, lam))


def tensor(rd: RootDatum, lam: Vec, mu: Vec) -> tuple:
    """(nu, multiplicity) pairs of the irreducibles in V(lam) (x) V(mu)."""
    if _weyl_dim(rd, lam) < _weyl_dim(rd, mu):
        lam, mu = mu, lam
    weights = weight_multiplicities(rd, mu)
    return tuple(times_char(rd, weights, lam, _weight_labels(rd, mu)).items())


def _by_height(rd: RootDatum, chars: dict) -> list:
    return sorted(chars.items(), key=lambda p: (height2(rd, p[0]), p[0]), reverse=True)


@cache
def _newton_series(rd: RootDatum, hw: Vec, signed: bool) -> tuple:
    """Grade -> symmetric (exterior, when signed) power of V(hw) in the
    character basis, and j -> (psi^j, its ``_labelled``) with psi^j
    the j-th Adams operation on the weights of hw, whose labels are j
    times theirs; ``_power`` fills in both on demand."""
    return {0: {(0,) * rd.rank: 1}}, {}


def _power(rd: RootDatum, hw: Vec, n: int, signed: bool) -> dict:
    """Newton's identity m S^m = sum_j psi^j S^(m-j), signed for exterior
    powers.  Grade m is written once grades below it are present, and
    always with the same value, so concurrent callers agree."""
    series, psis = _newton_series(rd, hw, signed)
    if len(series) <= n:
        base = weight_multiplicities(rd, hw)
        labels, low = _weight_labels(rd, hw)
        for j in range(len(psis) + 1, n + 1):
            scaled = [tuple([j * x for x in l]) for l in labels], [j * x for x in low]
            psis[j] = adams(j, base), scaled
    for m in range(len(series), n + 1):
        acc = {}
        for j in range(1, m + 1):
            sign = -1 if signed and j % 2 == 0 else 1
            psi, labelled = psis[j]
            for lam, c in series[m - j].items():
                for nu, k in times_char(rd, psi, lam, labelled).items():
                    acc[nu] = acc.get(nu, 0) + sign * c * k
        out = {}
        for nu, c in acc.items():
            q, r = divmod(c, m)
            if r:
                raise RuntimeError(f"inexact division by {m} in power recursion")
            if q:
                out[nu] = q
        series[m] = out
    return series[n]


def _graded_decomp(rd: RootDatum, rho: RepSpec, n: int, signed: bool):
    hw = rho.highest_weight
    grade = n * sigma_grade(rd, hw)
    parts = _by_height(rd, _power(rd, hw, n, signed))
    for lam, _ in parts:
        if sigma_grade(rd, lam) != grade:
            raise RuntimeError(f"constituent {lam} off grade {grade}")
    return parts


def sym_power_decomp(rd: RootDatum, rho: RepSpec, k: int):
    """Irreducible pieces of the k-th symmetric power of rho."""
    if k < 0:
        raise InvalidInput("power must be nonnegative")
    return _graded_decomp(rd, rho, k, signed=False)


def ext_power_decomp(rd: RootDatum, rho: RepSpec, i: int):
    """Irreducible pieces of the i-th exterior power of rho."""
    n = weyl_dim(rd, rho.highest_weight)
    if not 0 <= i <= n:
        raise InvalidInput(f"exterior power {i} outside 0..{n}")
    return _graded_decomp(rd, rho, i, signed=True)


def dual_weight(rd: RootDatum, lam: Vec) -> Vec:
    """Highest weight of the contragredient module: -w0(lam)."""
    dominant_labels(rd, lam)
    return tuple([-x for x in mat_apply(rd.w0, lam)])


def require_defined(point, w: Vec) -> None:
    """InvalidInput unless x^w is defined at the point: no zero coordinate
    of it may carry a negative exponent."""
    if any(e < 0 and not x for x, e in zip(point, w)):
        raise InvalidInput(f"c^w is undefined at weight {w}: a zero coordinate of c "
                           "under a negative exponent")


def char_eval(ch: CharExpansion, point) -> complex:
    """Evaluate the expansion at a semisimple parameter (tuple of numbers)."""
    total = 0
    for v, c in ch.items():
        require_defined(point, v)
        term = 1.0
        for x, e in zip(point, v):
            if e:
                term *= x**e
        total += c * term
    return total
