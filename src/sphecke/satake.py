"""Graded double-coset elements, Weyl-character images, and the
transform between them.

Elements are graded by the value of the determinant-like form sigma on
their support.  A grade window records which grades are exactly known:
``Window(lo, hi)`` means every grade in [lo, hi] is stored exactly
(missing vectors are zero) and grades outside are unknown; ``None``
bounds mean knowledge extends to infinity on that side.  Products
refuse to fabricate grades that the inputs do not determine.

The transform and its inverse are changes of basis on each
dominance-order block, never an integral.  The transform sends the
mu-cell to v^(2<rho_B,mu>) times Macdonald's spherical function P_mu at
t = v^-2, summed over the Weyl group and straightened into characters
(``satake_basis_row``); the inverse reads the Kostka-Foulkes rows
(``kl_row``).  The product of two elements is computed on the character
side, one tensor product of irreducibles per pair of constituents,
which makes the transform multiplicative by construction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .characters import char_eval, tensor, times_char, weight_multiplicities
from .errors import InvalidInput, NonDominantError, WindowError
from .kostka import kl_row
from .laurent import Laurent
from .record import Record, Value
from .rootdata import (
    RootDatum,
    Vec,
    dot,
    dual_weight_vec,
    height2,
    sigma_grade,
    vsub,
)

CELLS = "cells"
CHARS = "chars"


class Window(Value):
    """Known-grade range; ``None`` means unbounded on that side."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int | None = None, hi: int | None = None):
        self._freeze(lo, hi)

    def knows(self, g: int) -> bool:
        return (self.lo is None or g >= self.lo) and (self.hi is None or g <= self.hi)

    def intersect(self, other: "Window") -> "Window":
        lo = self.lo if other.lo is None else other.lo if self.lo is None else max(self.lo, other.lo)
        hi = self.hi if other.hi is None else other.hi if self.hi is None else min(self.hi, other.hi)
        return Window(lo, hi)

    def to_json(self):
        return [self.lo, self.hi]


class GradedElement:
    """Finitely supported per grade, over the v,X integer ring."""

    __slots__ = ("rd", "basis", "grades", "window")

    def __init__(self, rd: RootDatum, basis: str, grades=None, window: Window = Window()):
        assert basis in (CELLS, CHARS)
        self.rd = rd
        self.basis = basis
        clean = {}
        for k, terms in (grades or {}).items():
            kept = {v: c for v, c in terms.items() if c}
            if kept:
                if not window.knows(k):
                    raise WindowError(f"grade {k} stored outside window {window}")
                clean[int(k)] = kept
        self.grades = clean
        self.window = window

    # -- bookkeeping helpers

    def support_min(self):
        return min(self.grades) if self.grades else math.inf

    def support_max(self):
        return max(self.grades) if self.grades else -math.inf

    def coefficient(self, k: int, vec: Vec) -> Laurent:
        if not self.window.knows(k):
            raise WindowError(f"grade {k} is outside the known window {self.window}")
        return self.grades.get(k, {}).get(vec, Laurent.zero())

    def is_known_zero(self) -> bool:
        return not self.grades and self.window == Window()

    def map_coeffs(self, fn):
        out = {k: {v: fn(k, v, c) for v, c in terms.items()} for k, terms in self.grades.items()}
        return GradedElement(self.rd, self.basis, out, self.window)

    def restrict(self, window: Window):
        out = {k: terms for k, terms in self.grades.items() if window.knows(k)}
        return GradedElement(self.rd, self.basis, out, self.window.intersect(window))

    def __add__(self, other):
        self._compat(other)
        window = self.window.intersect(other.window)
        out = {}
        for k in set(self.grades) | set(other.grades):
            if not window.knows(k):
                continue
            terms = dict(self.grades.get(k, {}))
            for v, c in other.grades.get(k, {}).items():
                terms[v] = terms.get(v, Laurent.zero()) + c
            out[k] = terms
        return GradedElement(self.rd, self.basis, out, window)

    def __neg__(self):
        return self.map_coeffs(lambda k, v, c: -c)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return self.map_coeffs(lambda k, v, x: x * c)

    def _compat(self, other):
        if self.rd is not other.rd and self.rd != other.rd:
            raise InvalidInput("mixed root data")
        if self.basis != other.basis:
            raise InvalidInput("mixed bases")

    def __eq__(self, other):
        return (
            isinstance(other, GradedElement)
            and self.basis == other.basis
            and self.rd == other.rd
            and self.window == other.window
            and self.grades == other.grades
        )

    def first_mismatch(self, other, lo: int, hi: int):
        """Leftmost differing (grade, vector, self-coeff, other-coeff)."""
        for k in range(lo, hi + 1):
            vecs = set(self.grades.get(k, {})) | set(other.grades.get(k, {}))
            for v in sorted(vecs, reverse=True):
                a = self.coefficient(k, v)
                b = other.coefficient(k, v)
                if a != b:
                    return (k, v, a, b)
        return None


def zero_below_bound(e: GradedElement):
    """Largest B with e known-zero at every grade < B (-inf if none)."""
    if e.window.lo is not None:
        return -math.inf
    if e.grades:
        return e.support_min()
    return math.inf if e.window.hi is None else e.window.hi + 1


def zero_above_bound(e: GradedElement):
    """Smallest B with e known-zero at every grade > B (+inf if none)."""
    if e.window.hi is not None:
        return math.inf
    if e.grades:
        return e.support_max()
    return -math.inf if e.window.lo is None else e.window.lo - 1


def conv_window(a: GradedElement, b: GradedElement) -> Window:
    """Grades of a*b exactly determined by the stored grades of a and b."""
    if a.is_known_zero() or b.is_known_zero():
        return Window()  # a known zero factor: product known zero everywhere
    his, los = [], []
    if a.window.hi is not None:
        his.append(a.window.hi + zero_below_bound(b))
    if b.window.hi is not None:
        his.append(b.window.hi + zero_below_bound(a))
    if a.window.lo is not None:
        los.append(a.window.lo + zero_above_bound(b))
    if b.window.lo is not None:
        los.append(b.window.lo + zero_above_bound(a))
    hi = min(his) if his else None
    lo = max(los) if los else None
    if hi == -math.inf or lo == math.inf or (lo is not None and hi is not None and lo > hi):
        raise WindowError("input windows determine no output grade exactly")
    hi = None if hi is None or hi == math.inf else int(hi)
    lo = None if lo is None or lo == -math.inf else int(lo)
    return Window(lo, hi)


# ---------------------------------------------------------------------------
# basis change


@cache
def _macdonald_factor(rd: RootDatum, walls: tuple) -> tuple:
    """D = prod over the positive roots alpha of (1 - t e^-alpha), with
    (1 - e^-alpha) on the wall roots, as {-beta: d_beta(t)} in v with
    t = v^-2; and |W_mu|, the order of the stabilizer the walls span,
    as the product of (ht + 1)/ht over the wall roots."""
    d = {((0,) * rd.rank, 0): 1}
    for alpha in rd.positive_roots:
        step = 0 if alpha in walls else 1
        nxt = dict(d)
        for (w, e), c in d.items():
            key = (vsub(w, alpha), e + step)
            c = nxt.get(key, 0) - c
            if c:
                nxt[key] = c
            else:
                del nxt[key]
        d = nxt
    weights = {}
    for (w, e), c in d.items():
        weights.setdefault(w, {})[(-2 * e, 0)] = c
    hts = [dot(rd.pair2_form, alpha) // 2 for alpha in walls]
    order = math.prod(h + 1 for h in hts) // math.prod(hts)
    return {w: Laurent(t) for w, t in weights.items()}, order


@cache
def satake_basis_row(rd: RootDatum, mu: Vec) -> tuple:
    """Expansion of the mu-cell indicator transform into characters,
    v^(2<rho_B,mu>) P_mu(t = v^-2), lam descending.

    Macdonald's formula for the spherical function P_mu, summed over
    the Weyl group and straightened into characters:
    |W_mu| P_mu = sum_beta d_beta(t) sign chi_straighten(2(mu - beta) + 2 rho),
    with D = sum_beta d_beta e^-beta from ``_macdonald_factor`` (Macdonald,
    *Spherical functions on a group of p-adic type*, 1971; Nelsen-Ram,
    *Kostka-Foulkes polynomials and Macdonald spherical functions*, 2003).
    """
    if not rd.is_dominant(mu):
        raise NonDominantError(f"{mu} is not dominant")
    walls = tuple(
        alpha
        for alpha, form in zip(rd.positive_roots, rd.positive_coroot_forms)
        if dot(form, mu) == 0
    )
    weights, order = _macdonald_factor(rd, walls)
    shift = height2(rd, mu)
    out = []
    for lam, c in times_char(rd, weights, mu).items():
        terms = {}
        for (a, b), x in c.terms.items():
            q, r = divmod(x, order)
            if r:
                raise RuntimeError(f"inexact division by |W_mu| = {order} at {lam}")
            terms[(a + shift, b)] = q
        out.append((lam, Laurent(terms)))
    return tuple(sorted(out, reverse=True))


def _change_basis(f: GradedElement, row, basis: str) -> GradedElement:
    """Expand every vector of f by ``row(rd, vector)``, grade by grade."""
    out = {}
    for k, terms in f.grades.items():
        acc = out[k] = {}
        for vec, c in terms.items():
            for target, w in row(f.rd, vec):
                acc[target] = acc.get(target, Laurent.zero()) + c * w
    return GradedElement(f.rd, basis, out, f.window)


def satake(f: GradedElement) -> GradedElement:
    """Cell basis to character basis, grade by grade."""
    assert f.basis == CELLS
    return _change_basis(f, satake_basis_row, CHARS)


def inverse_satake(phi: GradedElement) -> GradedElement:
    """Character basis back to cell basis, grade by grade."""
    assert phi.basis == CHARS
    return _change_basis(phi, kl_row, CELLS)


# ---------------------------------------------------------------------------
# ring structure


def satake_mul(a: GradedElement, b: GradedElement, window: Window | None = None) -> GradedElement:
    """Graded product of two character-side elements."""
    assert a.basis == CHARS and b.basis == CHARS
    wout = conv_window(a, b)
    if window is not None:
        _check_window_available(window, wout)
        wout = wout.intersect(window)
    out = {}
    for i, ta in a.grades.items():
        for j, tb in b.grades.items():
            g = i + j
            if not wout.knows(g):
                continue
            acc = out.setdefault(g, {})
            for lam, c1 in ta.items():
                for mu, c2 in tb.items():
                    c = c1 * c2
                    for nu, m in tensor(a.rd, lam, mu):
                        acc[nu] = acc.get(nu, Laurent.zero()) + c * m
    return GradedElement(a.rd, CHARS, out, wout)


def _check_window_available(requested: Window, available: Window):
    for bound, side in ((requested.lo, "lo"), (requested.hi, "hi")):
        if bound is not None and not available.knows(bound):
            raise WindowError(
                f"requested {side}={bound} not determined (known window {available})"
            )
    if requested.lo is None and available.lo is not None:
        raise WindowError(f"requested unbounded-below window, known {available}")
    if requested.hi is None and available.hi is not None:
        raise WindowError(f"requested unbounded-above window, known {available}")


def convolve(a: GradedElement, b: GradedElement, window: Window | None = None) -> GradedElement:
    """Product of two cell-side elements via the character side."""
    assert a.basis == CELLS and b.basis == CELLS
    prod = satake_mul(satake(a), satake(b), window)
    return inverse_satake(prod)


def dual(f: GradedElement) -> GradedElement:
    """The involution induced by inverting the group variable."""
    out = {}
    for k, terms in f.grades.items():
        out[-k] = {dual_weight_vec(f.rd, v): c for v, c in terms.items()}
    w = Window(
        None if f.window.hi is None else -f.window.hi,
        None if f.window.lo is None else -f.window.lo,
    )
    return GradedElement(f.rd, f.basis, out, w)


def twist(f: GradedElement, a: int, b: int) -> GradedElement:
    """Multiply the grade-k part by X^(a k) v^(b k) for every k."""
    return f.map_coeffs(lambda k, v, c: c.shift(v=b * k, x=a * k))


def specialize(f: GradedElement, s: Fraction) -> GradedElement:
    """Fold the symbolic X into v at a half-integral s."""
    return f.map_coeffs(lambda k, v, c: c.specialize_x(s))


def identity_element(rd: RootDatum) -> GradedElement:
    return GradedElement(rd, CELLS, {0: {(0,) * rd.rank: Laurent.one()}})


def cell(rd: RootDatum, mu: Vec, coeff: Laurent | int = 1) -> GradedElement:
    if isinstance(coeff, int):
        coeff = Laurent.term(coeff)
    if not rd.is_dominant(mu):
        raise InvalidInput(f"{mu} is not dominant")
    return GradedElement(rd, CELLS, {sigma_grade(rd, mu): {mu: coeff}})


# ---------------------------------------------------------------------------
# numeric evaluation


class EvalResult(Record):
    __slots__ = ("value", "grade_values", "tail_ratio", "tail_bound", "converged")

    def __init__(
        self,
        value: complex,
        grade_values: dict,
        tail_ratio: float | None,
        tail_bound: float | None,
        converged: bool,
    ):
        self.value = value
        self.grade_values = grade_values
        self.tail_ratio = tail_ratio
        self.tail_bound = tail_bound
        self.converged = converged


def eval_numeric(
    phi: GradedElement, c, q: float, s: complex, N: int
) -> EvalResult:
    """Partial sum of the grade values at a numeric parameter, grades
    ascending and each grade in sorted lam order.

    The tail report estimates the remainder geometrically from the last
    two grades; ``converged`` is False when the empirical ratio >= 1.
    """
    assert phi.basis == CHARS
    phi.rd.check_length(tuple(c))
    if not phi.window.knows(N):
        raise WindowError(f"grade {N} outside known window {phi.window}")
    lo = phi.support_min()
    if lo is math.inf:
        return EvalResult(0j, {}, None, 0.0, True)
    if phi.window.lo is not None and phi.window.lo > lo:
        raise WindowError("window does not reach the lowest stored grade")
    grade_values = {}
    total = 0j
    for k in range(int(lo), N + 1):
        terms = phi.grades.get(k, {})
        val = 0j
        for lam, coeff in sorted(terms.items()):
            val += coeff.eval_complex(q, s) * char_eval(weight_multiplicities(phi.rd, lam), c)
        grade_values[k] = val
        total += val
    mags = [abs(grade_values.get(k, 0j)) for k in range(int(lo), N + 1)]
    tail_ratio = None
    tail_bound = None
    converged = True
    nonzero = [m for m in mags if m > 0]
    if len(nonzero) >= 2 and nonzero[-1] > 0:
        tail_ratio = nonzero[-1] / nonzero[-2] if nonzero[-2] > 0 else math.inf
        if tail_ratio < 1:
            tail_bound = nonzero[-1] * tail_ratio / (1 - tail_ratio)
        else:
            converged = False
    return EvalResult(total, grade_values, tail_ratio, tail_bound, converged)
