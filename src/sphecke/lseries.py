"""Graded L-series, the basic function, the Fourier kernel, and the
coefficientwise identity verifiers.

Everything here is exact in the v,X ring and defined by its transform,
so products are ``satake_mul`` on the character side: an element
crosses the basis once, and ``inverse_satake`` runs only where a
cell-side result is returned or read.  The two verifiers check the
fixed-point identity and the kernel-times-shifted-dual identity grade
by grade up to a truncation bound; every checked grade is a finite exact
computation (the inverse-series factor is a polynomial, so the
telescoping products collapse before any infinite tail is needed).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .characters import (
    char_eval,
    dual_weight,
    ext_power_decomp,
    rep_weight_list,
    require_defined,
    require_valid,
    sym_power_decomp,
    weight_multiplicities,
    weyl_dim,
)
from .errors import InvalidInput, PoleError
from .laurent import Laurent
from .record import Record
from .rootdata import (
    RepSpec,
    RootDatum,
    dominant_below,
    l_constant,
    sigma_grade,
)
from .satake import (
    CHARS,
    GradedElement,
    Window,
    dual,
    identity_element,
    inverse_satake,
    satake,
    satake_mul,
    specialize,
    twist,
)


def _require_truncation(N: int):
    if N < 0:
        raise InvalidInput(f"truncation N must be nonnegative, got {N}")


def _cells(e: GradedElement, lo: int, hi: int) -> GradedElement:
    """Grades [lo, hi] of a character-side element, inverse-transformed."""
    return inverse_satake(e.restrict(Window(lo, hi)))


# ---------------------------------------------------------------------------
# the L-series and the basic function


def l_series(rd: RootDatum, rho: RepSpec, N: int) -> GradedElement:
    """Character-side expansion: grade k holds the k-th symmetric power."""
    require_valid(rd, rho)
    _require_truncation(N)
    grades = {}
    for k in range(N + 1):
        x = Laurent.term(1, x=k)
        grades[k] = {lam: x * m for lam, m in sym_power_decomp(rd, rho, k)}
    return GradedElement(rd, CHARS, grades, Window(None, N))


def basic_function(rd: RootDatum, rho: RepSpec, N: int) -> GradedElement:
    """The cell-side element whose transform is the graded L-series to
    grade N (its window is ``Window(None, N)``), built as the inverse
    transform of ``l_series``.

    Coefficient of the mu-cell: c_mu(q) q^(-<rho_B,mu>) X^(sigma(mu)),
    with c_mu the multiplicity-weighted sum of K[lam,mu](q^-1) over the
    constituents lam of Sym^k rho; ``kl_row`` supplies K(q^-1) and the
    normalization.
    """
    return inverse_satake(l_series(rd, rho, N))


# ---------------------------------------------------------------------------
# inverse L polynomial and the kernel


def inverse_l_image(
    rd: RootDatum, rho: RepSpec, dualize: bool, shift: tuple[int, int]
) -> GradedElement:
    """Character side of the reciprocal series: the finite alternating
    sum over exterior powers, with the grade-i term carrying u^i for
    u = X^a v^b."""
    require_valid(rd, rho)
    a, b = shift
    hw = dual_weight(rd, rho.highest_weight) if dualize else rho.highest_weight
    rho_used = RepSpec(hw)
    n = weyl_dim(rd, hw)
    grades = {}
    for i in range(n + 1):
        u_i = Laurent.term(1 if i % 2 == 0 else -1, v=b * i, x=a * i)
        terms = {lam: u_i * m for lam, m in ext_power_decomp(rd, rho_used, i)}
        g = i * sigma_grade(rd, hw)
        grades[g] = terms
    return GradedElement(rd, CHARS, grades, Window())


def inverse_l_element(rd: RootDatum, rho: RepSpec) -> GradedElement:
    """Finite cell-side element inverting the L-series factor: the
    inverse series of the dual at u = X^-1 v^l, the kernel's denominator
    at symbolic s."""
    return inverse_satake(inverse_l_image(rd, rho, True, (-1, l_constant(rd, rho))))


def gamma_kernel(rd: RootDatum, rho: RepSpec, N: int) -> GradedElement:
    """The cell-side element whose transform is the shifted L-series
    times the inverse series of the dual, to grade N; s stays symbolic
    in X.

    Grade k of the series picks up v^(-(2+l)k); the inverse series is
    a polynomial of depth dim rho, so the series to grade N + dim rho
    determines the product to grade N.
    """
    return inverse_satake(_kernel_image(rd, rho, N))


def _kernel_image(rd: RootDatum, rho: RepSpec, N: int) -> GradedElement:
    """The transform of ``gamma_kernel(rd, rho, N)``."""
    require_valid(rd, rho)
    _require_truncation(N)
    l = l_constant(rd, rho)
    series = twist(l_series(rd, rho, N + weyl_dim(rd, rho.highest_weight)), 0, -(2 + l))
    return satake_mul(series, inverse_l_image(rd, rho, True, (-1, l)), Window(None, N))


class SchwartzElement(Record):
    """Pair (basic truncation, compactly supported h) standing for their
    convolution."""

    __slots__ = ("basic", "h")

    def __init__(self, basic: GradedElement, h: GradedElement):
        if h.window != Window():
            raise InvalidInput("h must be compactly supported with full knowledge")
        self.basic = basic
        self.h = h


# ---------------------------------------------------------------------------
# Fourier transform


def fourier(f, rho: RepSpec, N: int) -> GradedElement:
    """Kernel convolution against the flipped argument, normalized by the
    inverse (l+1)-power of the grading character.  For basic*h the kernel
    collapses through the verified telescope to the shifted basic element."""
    h = f.h if isinstance(f, SchwartzElement) else f
    rd = h.rd
    l = l_constant(rd, rho)
    top = max(int(h.support_max()), 0) if h.grades else 0
    if isinstance(f, SchwartzElement):
        image = satake(f.basic)
        report = _fixed_point_report(rd, rho, min(f.basic.window.hi, N), f.basic, image)
        if report.status != "PASS":
            raise RuntimeError(f"telescope identity failed: {report.first_mismatch}")
        if f.basic.window.hi < N + top:
            image = l_series(rd, rho, N + top)
        factor = specialize(image, Fraction(2 + l, 2))
    elif f.window != Window():
        raise InvalidInput("direct transform needs a compactly supported element")
    else:
        factor = specialize(_kernel_image(rd, rho, N + top), Fraction(0))
    out = inverse_satake(satake_mul(factor, dual(satake(h)), Window(None, N)))
    return twist(out, 0, 2 * (l + 1))


# ---------------------------------------------------------------------------
# verifiers


class VerifyReport(Record):
    """A verifier's result: the checks it ran, in order, as {part, grades,
    ok}, and the first mismatch (grade, vector, expected, got) met."""

    __slots__ = ("name", "status", "checks", "first_mismatch")

    def __init__(
        self,
        name: str,
        status: str = "PASS",
        checks: list | None = None,
        first_mismatch: tuple | None = None,
    ):
        self.name = name
        self.status = status
        self.checks = [] if checks is None else checks
        self.first_mismatch = first_mismatch

    def check(self, part: str, lo: int, hi: int, mismatch) -> bool:
        """Record one check over grades [lo, hi]; the first mismatch seen
        turns the report into a FAIL.  True when this check passed."""
        self.checks.append({"part": part, "grades": [lo, hi], "ok": mismatch is None})
        if mismatch is not None and self.first_mismatch is None:
            self.first_mismatch = mismatch
            self.status = "FAIL"
        return mismatch is None

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
        }


def _char_one(rd: RootDatum) -> GradedElement:
    """``satake(identity_element(rd))``, built directly: 1 at weight 0."""
    return GradedElement(rd, CHARS, {0: {(0,) * rd.rank: Laurent.one()}}, Window())


def _telescope(
    report: VerifyReport, a: GradedElement, b: GradedElement, lo: int, hi: int, name: str
) -> GradedElement:
    """Check that a*b is the identity on grades [lo, hi], for character-side
    a and b; if that passed, inverse-transform the lowest two grades and
    check them on the cell side.  Returns the character-side product."""
    e = satake_mul(a, b)
    if report.check(name, lo, hi, e.first_mismatch(_char_one(e.rd), lo, hi)):
        low_hi = min(lo + 1, hi)
        report.check(f"{name} (cell-side cross-check)", lo, low_hi,
                     _cells(e, lo, low_hi).first_mismatch(identity_element(e.rd), lo, low_hi))
    return e


def verify_fixed_point(
    rd: RootDatum, rho: RepSpec, N: int, basic: GradedElement | None = None
) -> VerifyReport:
    """Grades 0..N of: kernel convolved with the flipped basic element at
    shift -l/2 equals the basic element at shift 1+l/2.

    The product collapses through E = (inverse series) * (flipped basic),
    which must be the identity on [-N, 0]; that telescope carries the
    whole analytic content and every grade of it is exact.  Both stages
    multiply transforms, of ``satake(basic)`` taken once.
    """
    _require_truncation(N)
    basic = basic_function(rd, rho, N) if basic is None else basic
    return _fixed_point_report(rd, rho, N, basic, satake(basic))


def _fixed_point_report(
    rd: RootDatum, rho: RepSpec, N: int, basic: GradedElement, image: GradedElement
) -> VerifyReport:
    """``verify_fixed_point`` given the transform ``image`` of ``basic``."""
    _require_truncation(N)
    report = VerifyReport("fixed-point")
    l = l_constant(rd, rho)
    flipped = dual(specialize(image, Fraction(-l, 2)))
    inv0 = specialize(inverse_l_image(rd, rho, True, (-1, l)), Fraction(0))
    _telescope(report, inv0, flipped, -N, 0, "inverse-series telescope")
    if report.status == "PASS":
        # promote the verified telescope to the exact identity and finish
        shifted = specialize(image, Fraction(2 + l, 2))
        lhs = satake_mul(shifted, _char_one(rd), Window(None, N))
        if report.check("transform-side comparison", 0, N,
                        lhs.first_mismatch(shifted.restrict(Window(None, N)), 0, N)):
            top = min(1, N)
            report.check("cell-side cross-check", 0, top, _cells(lhs, 0, top).first_mismatch(
                specialize(basic.restrict(Window(0, top)), Fraction(2 + l, 2)), 0, top))
    return report


def verify_unitarity(
    rd: RootDatum, rho: RepSpec, N: int, basic: GradedElement | None = None
) -> VerifyReport:
    """Kernel times its flipped (l+1)-twisted mirror equals one.

    Split into the two finite telescopes: (inverse series) against the
    flipped shifted basic on [-N, 0], and the shifted basic against the
    flipped inverse series on [0, N], both products of transforms.
    """
    _require_truncation(N)
    report = VerifyReport("unitarity")
    basic = basic_function(rd, rho, N) if basic is None else basic
    l = l_constant(rd, rho)
    inv0 = specialize(inverse_l_image(rd, rho, True, (-1, l)), Fraction(0))
    b_shift = specialize(satake(basic), Fraction(2 + l, 2))
    factor_a = _telescope(report, inv0, twist(dual(b_shift), 0, -2 * (l + 1)),
                          -N, 0, "flipped-basic telescope")
    factor_b = _telescope(report, b_shift, twist(dual(inv0), 0, -2 * (l + 1)),
                          0, N, "flipped-inverse telescope")
    if report.status == "PASS":
        # constant terms of the two factors multiply to one
        zero_vec = (0,) * rd.rank
        c0 = _cells(factor_a, 0, 0).coefficient(0, zero_vec)
        c0 *= _cells(factor_b, 0, 0).coefficient(0, zero_vec)
        report.check("grade-0 scalar product", 0, 0,
                     None if c0 == Laurent.one() else (0, zero_vec, Laurent.one(), c0))
    return report


def gj_standard_obstruction(rd: RootDatum, rho: RepSpec) -> str | None:
    """Why the indicator identity does not apply to (rd, rho), or None when
    it does: it is stated for the standard module of a GL preset only."""
    if not rd.cartan.startswith("GL"):
        return "the indicator identity is a GL preset statement"
    if rho.highest_weight != (1,) + (0,) * (rd.rank - 1):
        return "the indicator identity needs the standard rho"
    return None


def verify_gj_standard(rd: RootDatum, rho: RepSpec, N: int) -> VerifyReport:
    """Indicator identity: the half-shift specialization of the basic
    element is the characteristic function of the nonnegative cells."""
    _require_truncation(N)
    reason = gj_standard_obstruction(rd, rho)
    if reason is not None:
        raise InvalidInput(reason)
    report = VerifyReport("gj-standard")
    sp = specialize(basic_function(rd, rho, N), Fraction(-(rd.rank - 1), 2))
    report.check("half-shift indicator", 0, N, _indicator_mismatch(rd, rho, sp, N))
    return report


def _indicator_mismatch(rd: RootDatum, rho: RepSpec, sp: GradedElement, N: int):
    """First (grade, mu, expected, got) where sp is not the indicator of
    the nonnegative cells on [0, N]; got is "absent" for a missing cell."""
    for k in range(N + 1):
        seen = sp.grades.get(k, {})
        for mu, coeff in sorted(seen.items(), reverse=True):
            want = Laurent.one() if min(mu) >= 0 else Laurent.zero()
            if coeff != want:
                return (k, mu, want, coeff)
        # every nonnegative dominant cell of this grade must be present
        for lam, _ in sym_power_decomp(rd, rho, k):
            for mu in dominant_below(rd, lam):
                if min(mu) >= 0 and mu not in seen:
                    return (k, mu, Laurent.one(), "absent")
    return None


# ---------------------------------------------------------------------------
# zeta evaluation


def h_value(rd: RootDatum, rho: RepSpec, h: GradedElement, c, q: float, s: complex) -> complex:
    """Transform of h at the numeric point, grade g shifted by q^(-(s+l/2) g).

    Grades are summed in ascending order and each grade in sorted lam
    order, and ``Laurent.eval_complex`` sums a coefficient's terms in their
    stored order, so the float result depends on the element and on that
    order: equal elements whose terms are stored in other orders may
    differ in the last bits."""
    rd.check_length(tuple(c))
    l = l_constant(rd, rho)
    total = 0j
    for g, terms in sorted(satake(h).grades.items()):
        shift = q ** (-(s + l / 2) * g)
        for lam, coeff in sorted(terms.items()):
            total += (
                shift
                * coeff.eval_complex(q, s)
                * char_eval(weight_multiplicities(rd, lam), c)
            )
    return total


def zeta_closed_form(
    rd: RootDatum, rho: RepSpec, h: GradedElement, c, q: float, s: complex
) -> complex:
    """Product formula for the zeta value of basic*h at a numeric point;
    q is the residue-field size, so anything but q > 1 is refused, and a
    pole |c^w q^-s| >= 1 is found on logarithms before any power is taken.
    A zero coordinate of c under a negative exponent of a weight is refused."""
    rd.check_length(tuple(c))
    if not q > 1:
        raise InvalidInput(f"residue-field size q must exceed 1, got {q}")
    value = 1.0 + 0j
    for w in rep_weight_list(rd, rho):
        require_defined(c, w)
        log_abs = sum(e * (math.log(abs(ci)) if ci else -math.inf) for ci, e in zip(c, w) if e)
        if log_abs - s.real * math.log(q) >= 0:
            raise PoleError(f"outside convergence region at weight {w}")
        factor = math.prod((ci**e for ci, e in zip(c, w) if e), start=1.0 + 0j) * q ** (-s)
        value *= 1 / (1 - factor)
    return value * h_value(rd, rho, h, c, q, s)


class ZetaPolynomial(Record):
    """Finite expansion in X^± with character-expansion coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms  # x-power -> {lambda: v-only Laurent}

    def x_support(self):
        return sorted(self.terms)

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
    polynomial gives the witness; the defining equation is re-checked
    on transforms, over a window covering the support of h'.
    """
    if h_prime.window != Window():
        raise InvalidInput("h' must be compactly supported")
    l = l_constant(rd, rho)
    image = satake(h_prime)
    h = inverse_satake(satake_mul(image, inverse_l_image(rd, rho, dualize=False, shift=(0, l))))
    if h_prime.grades:
        top = int(h_prime.support_max())
        depth = max(top - int(h.support_min()), 0) if h.grades else top
        series = specialize(l_series(rd, rho, max(depth, 0)), Fraction(-l, 2))
        left = satake_mul(series, satake(h), Window(None, top))
        mismatch = left.first_mismatch(image.restrict(Window(None, top)),
                                       int(min(h_prime.support_min(), left.support_min())),
                                       top)
        if mismatch is not None:
            raise RuntimeError(f"witness failed verification at {mismatch}")
    return h
