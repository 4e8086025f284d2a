"""Graded L-series, the basic function, the Fourier kernel, and the
coefficientwise identity verifiers.

Everything here is exact in the v,X ring.  The two verifiers check the
fixed-point identity and the kernel-times-shifted-dual identity grade
by grade up to a truncation bound; both are arranged so that every
checked grade is a finite exact computation (the inverse-series factor
is a polynomial, so the telescoping products collapse before any
infinite tail is needed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from .characters import (
    char_eval,
    dual_weight,
    ext_power_decomp,
    rep_weight_list,
    rep_weight_multiset,
    sym_power_decomp,
    weight_multiplicities,
)
from .errors import InvalidInput, PoleError
from .kostka import QPoly, lusztig_q_analogue
from .laurent import Laurent
from .rootdata import (
    RepSpec,
    RootDatum,
    Vec,
    dominant_below,
    height2,
    l_constant,
    sigma_grade,
    validate_rho,
)
from .satake import (
    CELLS,
    CHARS,
    GradedElement,
    Window,
    convolve,
    dual,
    identity_element,
    inverse_satake,
    satake,
    satake_mul,
    specialize,
    twist,
)


def _require_valid(rd: RootDatum, rho: RepSpec):
    report = validate_rho(rd, rho)
    if not report.passed:
        raise InvalidInput(f"representation fails validation: {report.failures}")


def rho_dim(rd: RootDatum, rho: RepSpec) -> int:
    return sum(rep_weight_multiset(rd, rho).values())


# ---------------------------------------------------------------------------
# the L-series and the basic function


def l_series(rd: RootDatum, rho: RepSpec, N: int) -> GradedElement:
    """Character-side expansion: grade k holds the k-th symmetric power."""
    _require_valid(rd, rho)
    grades = {}
    for k in range(N + 1):
        x = Laurent.term(1, x=k)
        grades[k] = {lam: x * m for lam, m in sym_power_decomp(rd, rho, k)}
    return GradedElement(rd, CHARS, grades, Window(None, N))


def basic_coeff(rd: RootDatum, rho: RepSpec, mu: Vec) -> QPoly:
    """Cell coefficient as a polynomial in q^-1 (zero for negative grade)."""
    if not rd.is_dominant(mu):
        raise InvalidInput(f"{mu} is not dominant")
    k = sigma_grade(rd, mu)
    if k < 0:
        return QPoly.zero()
    total = QPoly.zero()
    for lam, mult in sym_power_decomp(rd, rho, k):
        kq = lusztig_q_analogue(rd, lam, mu) if _leq_fast(rd, mu, lam) else None
        if kq:
            total = total + kq.substitute_inverse().scale(mult)
    return total


def _leq_fast(rd: RootDatum, mu: Vec, lam: Vec) -> bool:
    return mu in set(dominant_below(rd, lam))


@dataclass
class BasicFunction:
    """Truncated basic element plus its coefficient table."""

    rd: RootDatum
    rho: RepSpec
    N: int
    element: GradedElement
    coeff_map: dict

    @property
    def l(self) -> int:
        return l_constant(self.rd, self.rho)


def basic_function(rd: RootDatum, rho: RepSpec, N: int) -> BasicFunction:
    """The cell-side element whose transform is the graded L-series.

    Coefficient of the mu-cell: c_mu(q) q^(-<rho_B,mu>) X^(sigma(mu)),
    assembled from the alternating-sum polynomials directly; agreement
    with ``l_series`` under the transform is the defining test.
    """
    _require_valid(rd, rho)
    grades = {}
    coeff_map = {}
    for k in range(N + 1):
        support = set()
        for lam, _ in sym_power_decomp(rd, rho, k):
            support.update(dominant_below(rd, lam))
        terms = {}
        for mu in sorted(support, reverse=True):
            cq = basic_coeff(rd, rho, mu)
            if not cq:
                continue
            coeff_map[mu] = cq
            lc = Laurent({(2 * e - height2(rd, mu), k): c for e, c in cq.coeffs.items()})
            terms[mu] = lc
        grades[k] = terms
    element = GradedElement(rd, CELLS, grades, Window(None, N))
    return BasicFunction(rd, rho, N, element, coeff_map)


def basic_at(basic: BasicFunction, s: Fraction) -> GradedElement:
    """Specialized basic element at a half-integral shift s."""
    return specialize(basic.element, Fraction(s))


# ---------------------------------------------------------------------------
# inverse L polynomial and the kernel


def inverse_l_image(
    rd: RootDatum, rho: RepSpec, dualize: bool, shift: tuple[int, int]
) -> GradedElement:
    """Character side of the reciprocal series: the finite alternating
    sum over exterior powers, with the grade-i term carrying u^i for
    u = X^a v^b."""
    _require_valid(rd, rho)
    a, b = shift
    hw = dual_weight(rd, rho.highest_weight) if dualize else rho.highest_weight
    rho_used = RepSpec(hw)
    n = rho_dim(rd, rho_used)
    grades = {}
    for i in range(n + 1):
        u_i = Laurent.term(1 if i % 2 == 0 else -1, v=b * i, x=a * i)
        terms = {lam: u_i * m for lam, m in ext_power_decomp(rd, rho_used, i)}
        g = i * sigma_grade(rd, hw)
        grades[g] = terms
    return GradedElement(rd, CHARS, grades, Window())


def inverse_l_element(
    rd: RootDatum, rho: RepSpec, dualize: bool = True, shift: tuple[int, int] | None = None
) -> GradedElement:
    """Finite cell-side element inverting the L-series factor.

    Default configuration (dualize, u = X^-1 v^l) is the kernel's
    denominator at symbolic s.
    """
    if shift is None:
        shift = (-1, l_constant(rd, rho))
    return inverse_satake(inverse_l_image(rd, rho, dualize, shift))


@dataclass
class KernelElement:
    """Fourier kernel truncation; s stays symbolic in X."""

    rd: RootDatum
    rho: RepSpec
    N: int
    element: GradedElement
    l: int

    def at_zero(self) -> GradedElement:
        return specialize(self.element, Fraction(0))


def gamma_kernel(rd: RootDatum, rho: RepSpec, N: int) -> KernelElement:
    """Shifted basic element convolved with the inverse-series polynomial."""
    _require_valid(rd, rho)
    l = l_constant(rd, rho)
    depth = rho_dim(rd, rho)
    basic = basic_function(rd, rho, N + depth)
    shifted = twist(basic.element, 0, -(2 + l))  # grade k picks up v^(-(2+l)k)
    inv = inverse_l_element(rd, rho)
    element = convolve(shifted, inv, Window(None, N))
    return KernelElement(rd, rho, N, element, l)


@dataclass
class SchwartzElement:
    """Pair (basic truncation, compactly supported h) standing for their
    convolution."""

    basic: BasicFunction
    h: GradedElement

    def __post_init__(self):
        if self.h.window != Window():
            raise InvalidInput("h must be compactly supported with full knowledge")


# ---------------------------------------------------------------------------
# Fourier transform


def fourier(f, rho: RepSpec, N: int) -> GradedElement:
    """Kernel convolution against the flipped argument, normalized by the
    inverse (l+1)-power of the grading character."""
    if isinstance(f, SchwartzElement):
        return _fourier_schwartz(f, rho, N)
    rd = f.rd
    if f.window != Window():
        raise InvalidInput("direct transform needs a compactly supported element")
    l = l_constant(rd, rho)
    top = int(f.support_max()) if f.grades else 0
    kern = gamma_kernel(rd, rho, N + max(top, 0)).at_zero()
    out = convolve(kern, dual(f), Window(None, N))
    return twist(out, 0, 2 * (l + 1))


def _fourier_schwartz(f: SchwartzElement, rho: RepSpec, N: int) -> GradedElement:
    """Transform of basic*h, collapsed through the verified telescope."""
    basic = f.basic
    rd = basic.rd
    l = l_constant(rd, rho)
    report = verify_fixed_point(rd, rho, min(basic.N, N), basic=basic)
    if report.status != "PASS":
        raise RuntimeError(f"telescope identity failed: {report.first_mismatch}")
    top = max(int(f.h.support_max()), 0) if f.h.grades else 0
    if basic.N < N + top:
        basic = basic_function(rd, rho, N + top)
    shifted = specialize(basic.element, Fraction(2 + l, 2))
    out = convolve(shifted, dual(f.h), Window(None, N))
    return twist(out, 0, 2 * (l + 1))


# ---------------------------------------------------------------------------
# verifiers


@dataclass
class VerifyReport:
    name: str
    status: str
    checks: list = field(default_factory=list)
    first_mismatch: tuple | None = None
    wall_time: float = 0.0

    def to_json(self):
        fm = None
        if self.first_mismatch is not None:
            k, v, want, got = self.first_mismatch
            fm = {"grade": k, "mu": list(v), "expected": str(want), "got": str(got)}
        return {
            "name": self.name,
            "status": self.status,
            "checks": self.checks,
            "first_mismatch": fm,
            "wall_time": round(self.wall_time, 6),
        }


def _identity_check(e: GradedElement, lo: int, hi: int, name: str, report: VerifyReport):
    """Transform-side comparison against the identity, with a cell-side
    re-derivation on the lowest two grades."""
    rd = e.rd
    ident = identity_element(rd)
    mismatch = satake(e).first_mismatch(satake(ident), lo, hi)
    report.checks.append({"part": name, "grades": [lo, hi], "ok": mismatch is None})
    if mismatch is not None and report.first_mismatch is None:
        report.first_mismatch = mismatch
        report.status = "FAIL"
        return
    low_hi = min(lo + 1, hi)
    cross = e.first_mismatch(ident, lo, low_hi)
    report.checks.append(
        {"part": f"{name} (cell-side cross-check)", "grades": [lo, low_hi], "ok": cross is None}
    )
    if cross is not None and report.first_mismatch is None:
        report.first_mismatch = cross
        report.status = "FAIL"


def verify_fixed_point(
    rd: RootDatum, rho: RepSpec, N: int, basic: BasicFunction | None = None
) -> VerifyReport:
    """Grades 0..N of: kernel convolved with the flipped basic element at
    shift -l/2 equals the basic element at shift 1+l/2.

    The product collapses through E = (inverse series) * (flipped basic),
    which must be the identity on [-N, 0]; that telescope carries the
    whole analytic content and every grade of it is exact.
    """
    start = time.monotonic()
    report = VerifyReport("fixed-point", "PASS")
    if basic is None:
        basic = basic_function(rd, rho, N)
    l = l_constant(rd, rho)
    flipped = dual(basic_at(basic, Fraction(-l, 2)))
    inv0 = specialize(inverse_l_element(rd, rho), Fraction(0))
    telescope = convolve(inv0, flipped)
    _identity_check(telescope, -N, 0, "inverse-series telescope", report)
    if report.status == "PASS":
        # promote the verified telescope to the exact identity and finish
        shifted = basic_at(basic, Fraction(2 + l, 2))
        lhs = convolve(shifted, identity_element(rd), Window(None, N))
        rhs = shifted.restrict(Window(None, N))
        mismatch = satake(lhs).first_mismatch(satake(rhs), 0, N)
        report.checks.append({"part": "transform-side comparison", "grades": [0, N], "ok": mismatch is None})
        if mismatch is not None:
            report.status = "FAIL"
            report.first_mismatch = mismatch
        else:
            low = lhs.first_mismatch(rhs, 0, min(1, N))
            report.checks.append({"part": "cell-side cross-check", "grades": [0, min(1, N)], "ok": low is None})
            if low is not None:
                report.status = "FAIL"
                report.first_mismatch = low
    report.wall_time = time.monotonic() - start
    return report


def verify_unitarity(
    rd: RootDatum, rho: RepSpec, N: int, basic: BasicFunction | None = None
) -> VerifyReport:
    """Kernel times its flipped (l+1)-twisted mirror equals one.

    Split into the two finite telescopes: (inverse series) against the
    flipped shifted basic on [-N, 0], and the shifted basic against the
    flipped inverse series on [0, N].
    """
    start = time.monotonic()
    report = VerifyReport("unitarity", "PASS")
    if basic is None:
        basic = basic_function(rd, rho, N)
    l = l_constant(rd, rho)
    inv0 = specialize(inverse_l_element(rd, rho), Fraction(0))
    b_shift = basic_at(basic, Fraction(2 + l, 2))
    factor_a = convolve(inv0, twist(dual(b_shift), 0, -2 * (l + 1)))
    _identity_check(factor_a, -N, 0, "flipped-basic telescope", report)
    factor_b = convolve(b_shift, twist(dual(inv0), 0, -2 * (l + 1)))
    _identity_check(factor_b, 0, N, "flipped-inverse telescope", report)
    if report.status == "PASS":
        # constant terms of the two factors multiply to one
        zero_vec = (0,) * rd.rank
        c0 = factor_a.coefficient(0, zero_vec) * factor_b.coefficient(0, zero_vec)
        ok = c0 == Laurent.one()
        report.checks.append({"part": "grade-0 scalar product", "grades": [0, 0], "ok": ok})
        if not ok:
            report.status = "FAIL"
            report.first_mismatch = (0, zero_vec, Laurent.one(), c0)
    report.wall_time = time.monotonic() - start
    return report


def verify_gj_standard(rd: RootDatum, rho: RepSpec, N: int) -> dict:
    """Indicator identity: the half-shift specialization of the basic
    element is the characteristic function of the nonnegative cells.

    Returns the report's JSON object directly (name, status,
    first_mismatch)."""
    if not rd.cartan.startswith("GL"):
        raise InvalidInput("the indicator identity is a GL preset statement")
    n = rd.rank
    if rho.highest_weight != (1,) + (0,) * (n - 1):
        raise InvalidInput("the indicator identity needs the standard rho")
    basic = basic_function(rd, rho, N)
    sp = specialize(basic.element, Fraction(-(n - 1), 2))
    mismatch = None
    for k in range(N + 1):
        seen = dict(sp.grades.get(k, {}))
        for mu, coeff in sorted(seen.items(), reverse=True):
            want = Laurent.one() if min(mu) >= 0 else Laurent.zero()
            if coeff != want:
                mismatch = {"grade": k, "mu": list(mu), "expected": str(want), "got": str(coeff)}
                break
        if mismatch is None:
            # every nonnegative dominant cell of this grade must be present
            for lam, _ in sym_power_decomp(rd, rho, k):
                for mu in dominant_below(rd, lam):
                    if min(mu) >= 0 and mu not in seen:
                        mismatch = {
                            "grade": k,
                            "mu": list(mu),
                            "expected": "1",
                            "got": "absent",
                        }
                        break
                if mismatch:
                    break
        if mismatch:
            break
    return {
        "name": "gj-standard",
        "status": "PASS" if mismatch is None else "FAIL",
        "first_mismatch": mismatch,
    }


# ---------------------------------------------------------------------------
# zeta evaluation


def h_value(rd: RootDatum, rho: RepSpec, h: GradedElement, c, q: float, s: complex) -> complex:
    """Transform of h at the numeric point, grade g shifted by q^(-(s+l/2) g)."""
    l = l_constant(rd, rho)
    total = 0j
    for g, terms in satake(h).grades.items():
        shift = q ** (-(s + l / 2) * g)
        for lam, coeff in terms.items():
            total += (
                shift
                * coeff.eval_complex(q, s)
                * char_eval(weight_multiplicities(rd, lam), c)
            )
    return total


def zeta_closed_form(
    rd: RootDatum, rho: RepSpec, f: SchwartzElement, c, q: float, s: complex
) -> complex:
    """Product formula for the zeta value of basic*h at a numeric point."""
    value = 1.0 + 0j
    for w in rep_weight_list(rd, rho):
        factor = 1.0 + 0j
        for ci, e in zip(c, w):
            if e:
                factor *= ci**e
        factor *= q ** (-s)
        if abs(factor) >= 1:
            raise PoleError(f"outside convergence region at weight {w}")
        value *= 1 / (1 - factor)
    return value * h_value(rd, rho, f.h, c, q, s)


@dataclass
class ZetaPolynomial:
    """Finite expansion in X^± with character-expansion coefficients."""

    terms: dict  # x-power -> {lambda: v-only Laurent}

    def x_support(self):
        return sorted(self.terms)

    def is_constant_one(self) -> bool:
        if set(self.terms) != {0}:
            return False
        inner = self.terms[0]
        return list(inner.items()) == [(next(iter(inner)), Laurent.one())] and all(
            x == 0 for x in next(iter(inner))
        )

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for xe in self.x_support():
            inner = " + ".join(
                f"({coeff})*ch{list(lam)}" if any(lam) else f"({coeff})"
                for lam, coeff in sorted(self.terms[xe].items(), reverse=True)
            )
            if xe == 0:
                chunks.append(inner)
            else:
                chunks.append(f"({inner})*X^{xe}" if xe != 1 else f"({inner})*X")
        return " + ".join(chunks)


def zeta_over_l(rd: RootDatum, rho: RepSpec, h: GradedElement) -> ZetaPolynomial:
    """The zeta value divided by the L-factor: a finite X-expansion.

    Each grade g of the transform of h contributes X^g v^(-g l) from the
    parameter shift; finite support in means a Laurent polynomial out.
    """
    if h.window != Window():
        raise InvalidInput("h must be compactly supported")
    l = l_constant(rd, rho)
    sh = satake(h)
    out = {}
    for g, terms in sh.grades.items():
        for lam, coeff in terms.items():
            moved = coeff.shift(v=-g * l, x=g)
            for (ve, xe), cval in moved.terms.items():
                slot = out.setdefault(xe, {})
                cur = slot.get(lam, Laurent.zero()) + Laurent.term(cval, v=ve)
                if cur:
                    slot[lam] = cur
                elif lam in slot:
                    del slot[lam]
    return ZetaPolynomial({xe: inner for xe, inner in sorted(out.items()) if inner})


def membership_witness(rd: RootDatum, rho: RepSpec, h_prime: GradedElement) -> GradedElement:
    """Solve basic(-l/2) * h = h' exactly for compactly supported h'.

    Multiplying the transform of h' by the finite inverse-series
    polynomial gives the witness; the defining equation is re-verified
    on a window covering the support of h'.
    """
    if h_prime.window != Window():
        raise InvalidInput("h' must be compactly supported")
    l = l_constant(rd, rho)
    inv = inverse_l_image(rd, rho, dualize=False, shift=(0, l))
    h = inverse_satake(satake_mul(satake(h_prime), inv))
    if h_prime.grades:
        top = int(h_prime.support_max())
        depth = max(top - int(h.support_min()), 0) if h.grades else top
        basic = basic_function(rd, rho, max(depth, 0))
        left = convolve(basic_at(basic, Fraction(-l, 2)), h, Window(None, top))
        mismatch = left.first_mismatch(h_prime.restrict(Window(None, top)),
                                       int(min(h_prime.support_min(), left.support_min())),
                                       top)
        if mismatch is not None:
            raise RuntimeError(f"witness failed verification at {mismatch}")
    return h
