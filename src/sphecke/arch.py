"""Archimedean toolkit: gamma-based local factors, asymptotic ratio
checks, decay thresholds, and the weight-norm constant.

The complex gamma evaluator is self-contained (Lanczos rational
approximation plus reflection); large-argument work happens in log
space.  A local or gamma factor that leaves the double range comes back
as None, flagged ``overflow``, rather than raising.

Thresholds and the weight-norm constant are exact.  The threshold walks
the Weyl orbit of the integer vector 2 rho by simple reflections
(``rootdata.weyl_orbit``), maximizes each weight's integer pairing over
it, and scales once by eps / 2.  The weight-norm constant solves
each vertex system by fraction-free elimination over the integers
(``rootdata.bareiss_solve``).  Neither builds the Weyl group as matrices.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

from .characters import rep_weight_list, weight_multiplicities
from .errors import InvalidInput, PoleError
from .record import Record
from .rootdata import RepSpec, RootDatum, Vec, bareiss_solve, dot, l_constant, weyl_orbit

# Lanczos g=7, n=9 coefficient set (double precision)
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_POLE_TOL = 1e-12


def _lanczos_sum(z: complex) -> tuple[complex, complex]:
    """Lanczos partial-fraction sum at z, and z + g - 1/2; for Re z >= 0.5."""
    x = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        x += c / (z + i - 1)
    return x, z + _LANCZOS_G - 0.5


def cgamma(z: complex) -> complex:
    """Complex gamma; raises at the poles."""
    z = complex(z)
    if z.imag == 0 and z.real <= 0 and abs(z.real - round(z.real)) < _POLE_TOL:
        raise PoleError(f"gamma pole at {z}")
    if z.real < 0.5:
        s = cmath.sin(cmath.pi * z)
        if s == 0:
            raise PoleError(f"gamma pole at {z}")
        return cmath.pi / (s * cgamma(1 - z))
    x, t = _lanczos_sum(z)
    return math.sqrt(2 * math.pi) * t ** (z - 0.5) * cmath.exp(-t) * x


def clgamma(z: complex) -> complex:
    """A logarithm of gamma (real part is branch-independent)."""
    z = complex(z)
    if z.real < 0.5:
        s = cmath.sin(cmath.pi * z)
        if s == 0:
            raise PoleError(f"gamma pole at {z}")
        return cmath.log(cmath.pi) - cmath.log(s) - clgamma(1 - z)
    x, t = _lanczos_sum(z)
    return 0.5 * math.log(2 * math.pi) + (z - 0.5) * cmath.log(t) - t + cmath.log(x)


def _exponent(p) -> Fraction:
    """p as a Fraction; InvalidInput unless 0 < p <= 2."""
    p = Fraction(p)
    if not 0 < p <= 2:
        raise InvalidInput("p must lie in (0, 2]")
    return p


class ArchParams(Record):
    """Spectral parameter, weight forms, and normalization data."""

    __slots__ = ("lam", "weights", "s", "l", "p", "field_tag")

    def __init__(
        self,
        lam: tuple,
        weights: tuple,  # integer linear forms, one per dimension of the module
        s: complex,
        l: int = 0,
        p: Fraction = Fraction(2),
        field_tag: str = "real",
    ):
        self.lam = lam
        self.weights = weights
        self.s = s
        self.l = l
        self.p = _exponent(p)
        if field_tag not in ("real", "complex"):
            raise InvalidInput("field_tag must be 'real' or 'complex'")
        self.field_tag = field_tag


def arch_params(
    rd: RootDatum,
    rho: RepSpec,
    lam,
    s: complex,
    p=Fraction(2),
    field_tag: str = "real",
) -> ArchParams:
    """Raises LengthMismatchError unless lam has one entry per coordinate."""
    lam = tuple(lam)
    rd.check_length(lam)
    return ArchParams(
        lam=lam,
        weights=tuple(rep_weight_list(rd, rho)),
        s=s,
        l=l_constant(rd, rho),
        p=p,
        field_tag=field_tag,
    )


def _weight_value(w: Vec, lam) -> complex:
    return sum(a * x for a, x in zip(w, lam))


# what a float that leaves the double range raises: OverflowError from exp,
# sin and real powers, ZeroDivisionError from a complex power of an underflow,
# ValueError from cmath on an infinite intermediate.  PoleError is a
# ValueError too, so every handler re-raises it first.
_RANGE_ERRORS = (OverflowError, ZeroDivisionError, ValueError)


def _finite(z: complex) -> complex | None:
    """z, or None once a product has overflowed to an infinity or NaN."""
    return z if cmath.isfinite(z) else None


def lfactor_real(params: ArchParams) -> complex | None:
    """Product of pi^(-(s+i w(lam))/2) Gamma((s+i w(lam))/2) over weights;
    None when the product leaves the double range."""
    total = 1.0 + 0j
    try:
        for w in params.weights:
            arg = (params.s + 1j * _weight_value(w, params.lam)) / 2
            total *= math.pi ** (-arg.real) * cmath.exp(-1j * arg.imag * math.log(math.pi))
            total *= cgamma(arg)
    except PoleError:
        raise
    except _RANGE_ERRORS:
        return None
    return _finite(total)


def lfactor_cplx(params: ArchParams) -> complex | None:
    """Product of 2 (2 pi)^(-(2s+i w(lam))/2) Gamma((2s+i w(lam))/2);
    None when the product leaves the double range."""
    total = 1.0 + 0j
    try:
        for w in params.weights:
            arg = (2 * params.s + 1j * _weight_value(w, params.lam)) / 2
            total *= 2.0 * cmath.exp(-arg * math.log(2 * math.pi))
            total *= cgamma(arg)
    except PoleError:
        raise
    except _RANGE_ERRORS:
        return None
    return _finite(total)


class GammaFactorResult(Record):
    __slots__ = ("value", "ratio_route", "rel_discrepancy", "flags")

    def __init__(
        self,
        value: complex | None,
        ratio_route: complex | None,
        rel_discrepancy: float | None,
        flags: list | None = None,
    ):
        self.value = value
        self.ratio_route = ratio_route
        self.rel_discrepancy = rel_discrepancy
        self.flags = [] if flags is None else flags


def gamma_factor(params: ArchParams) -> GammaFactorResult:
    """Two-route gamma factor.

    Route 1 is the ratio of shifted local factors (numerator at
    1+s+l/2, denominator at -s-l/2 with the flipped parameter); route 2
    eliminates the denominator gamma through the reflection identity.
    The returned value is route 2; the relative gap between routes is
    reported, and a denominator pole turns route 1 into an exact zero.
    A route that leaves the double range is dropped and flagged
    ``overflow``; the value is None when route 2 is the one dropped.
    """
    s, l, lam = params.s, params.l, params.lam
    flags = []
    real_case = params.field_tag == "real"
    lf = lfactor_real if real_case else lfactor_cplx
    num_params = ArchParams(lam, params.weights, 1 + s + l / 2, l, params.p, params.field_tag)
    den_params = ArchParams(
        tuple(-x for x in lam), params.weights, -s - l / 2, l, params.p, params.field_tag
    )
    route1 = None
    overflow = False
    try:
        num = lf(num_params)
        try:
            den = lf(den_params)
        except PoleError:
            flags.append("denominator-pole")
            route1 = 0j
        else:
            if num is None or not den:  # den None, or underflowed to 0
                overflow = True
            else:
                route1 = _finite(num / den)
                overflow = route1 is None
    except PoleError:
        flags.append("numerator-pole")

    route2 = 1.0 + 0j
    try:
        for w in params.weights:
            wv = _weight_value(w, lam)
            if real_case:
                u = s + l / 2 + 1j * wv
                route2 *= cmath.exp(-(0.5 + u) * math.log(math.pi))
                route2 *= cgamma((1 + u) / 2)
                route2 *= cmath.sin(math.pi * (2 + u) / 2) / math.pi
                route2 *= cgamma((2 + u) / 2)
            else:
                u = s + l / 2 + 1j * wv / 2
                route2 *= cmath.exp(-(1 + 2 * u) * math.log(2 * math.pi))
                g = cgamma(1 + u)
                route2 *= g * g * cmath.sin(math.pi * (1 + u)) / math.pi
        route2 = _finite(route2)
    except PoleError:
        raise
    except _RANGE_ERRORS:
        route2 = None
    if overflow or route2 is None:
        flags.append("overflow")
    rel = None
    if route1 is not None and route2 is not None:
        scale = max(abs(route1), abs(route2))
        rel = abs(route1 - route2) / scale if scale > 0 else 0.0
    return GammaFactorResult(route2, route1, rel, flags)


# ---------------------------------------------------------------------------
# asymptotic ratio probes


def stirling_ratio(x: float, y: float) -> float:
    """|Gamma(x+iy)| against sqrt(2 pi) |y|^(x-1/2) e^(-pi |y|/2), in logs."""
    if abs(y) < 1:
        raise InvalidInput("need |y| >= 1")
    log_gamma = clgamma(complex(x, y)).real
    log_form = 0.5 * math.log(2 * math.pi) + (x - 0.5) * math.log(abs(y)) - math.pi * abs(y) / 2
    return math.exp(log_gamma - log_form)


def _log_gamma_derivatives(z: complex, order: int) -> list:
    """Derivatives of log gamma by Richardson-extrapolated central
    differences; enough accuracy for ratio checks at |z| >> 1."""
    h = max(abs(z) * 1e-4, 1e-4)
    out = []
    for k in range(1, order + 1):
        def diff(step, k=k):
            if k == 1:
                return (clgamma(z + step) - clgamma(z - step)) / (2 * step)
            if k == 2:
                return (clgamma(z + step) - 2 * clgamma(z) + clgamma(z - step)) / step**2
            if k == 3:
                return (
                    clgamma(z + 2 * step)
                    - 2 * clgamma(z + step)
                    + 2 * clgamma(z - step)
                    - clgamma(z - 2 * step)
                ) / (2 * step**3)
            raise InvalidInput("derivative order capped at 3 for the log factor")

        d1 = diff(h)
        d2 = diff(h / 2)
        out.append((4 * d2 - d1) / 3)  # Richardson for O(h^2) schemes
    return out


def derivative_ratio(n: int, z: complex) -> complex:
    """Ratio of the n-th gamma derivative to gamma times log^n."""
    z = complex(z)
    if n < 1 or n > 4:
        raise InvalidInput("order must be 1..4")
    if z == 0 or abs(cmath.phase(z)) >= math.pi:
        raise InvalidInput("need |arg z| < pi")
    f = _log_gamma_derivatives(z, min(n, 3))
    p1 = f[0]
    ratios = {1: p1}
    if n >= 2:
        ratios[2] = f[1] + p1**2
    if n >= 3:
        ratios[3] = f[2] + 3 * f[1] * p1 + p1**3
    if n == 4:
        # fourth log-derivative is numerically noisy; build from polygamma-free
        # recursion D4 = D3' + D3*D1 using one extra difference of D3
        h = max(abs(z) * 1e-3, 1e-3)
        def d3(at):
            g = _log_gamma_derivatives(at, 3)
            return g[2] + 3 * g[1] * g[0] + g[0] ** 3
        d3p = (d3(z + h) - d3(z - h)) / (2 * h)
        ratios[4] = d3p + ratios[3] * p1
    return ratios[n] / cmath.log(z) ** n


# ---------------------------------------------------------------------------
# exact thresholds and the weight-norm constant


def _orbit_vertices(rd: RootDatum, eps: Fraction):
    """The distinct vertices eps w(rho) of the scaled half-sum orbit."""
    half = eps / 2
    return {tuple(half * x for x in image) for image in weyl_orbit(rd, rd.rho_b_times2)}


def threshold(
    rd: RootDatum, rho: RepSpec, p, which: str = "basic", field_tag: str = "real"
) -> Fraction:
    """Decay threshold for the real part of the twist parameter.

    Maximizes each weight form over the Weyl orbit of the scaled
    half-sum vector (the vertex set of its convex hull), then applies
    the offset for the requested object and ground field.  The scale
    eps / 2 is nonnegative, so the maximum is taken over the integer
    pairings with w(2 rho) and scaled once.
    """
    p = _exponent(p)
    if which not in ("basic", "kernel"):
        raise InvalidInput("which must be 'basic' or 'kernel'")
    eps = Fraction(2) / p - 1
    weights = weight_multiplicities(rd, rho.highest_weight)
    orbit = weyl_orbit(rd, rd.rho_b_times2)
    best = eps / 2 * max(dot(w, image) for w in weights for image in orbit)
    l = l_constant(rd, rho)
    if field_tag == "real":
        return best if which == "basic" else Fraction(-1) - Fraction(l, 2) + best
    if field_tag == "complex":
        half = best / 2
        return half if which == "basic" else Fraction(-1, 2) - Fraction(l, 4) + half
    raise InvalidInput("field_tag must be 'real' or 'complex'")


def c_rho_constant(rd: RootDatum, rho: RepSpec) -> Fraction:
    """Largest C with sum_k |w_k(x)| >= C sum_t |x_t| for all x.

    Exact: on each sign-orthant face of the unit cross-polytope the
    objective is piecewise linear, so the minimum sits at a vertex of
    the subdivision cut out by the weight hyperplanes; all candidate
    vertices are enumerated and solved exactly over the integers, each
    as numerators over one positive determinant.
    """
    m = rd.rank
    if m > 4:
        raise InvalidInput("weight-norm constant limited to rank <= 4")
    weights = rep_weight_list(rd, rho)
    units = [tuple(int(t == j) for t in range(m)) for j in range(m)]
    best = None
    for signs in itertools.product((1, -1), repeat=m):
        # face coordinates u >= 0 with sum u = 1; x_t = signs_t u_t
        forms = [tuple(w[t] * signs[t] for t in range(m)) for w in weights]
        for subset in itertools.combinations(forms + units, m - 1):
            solved = bareiss_solve([list(cut) + [0] for cut in subset] + [[1] * (m + 1)])
            if solved is None:
                continue  # singular: the cuts meet in no single vertex
            nums, d = solved
            if any(u < 0 for u in nums):
                continue
            val = Fraction(sum(abs(dot(f, nums)) for f in forms), d)
            if best is None or val < best:
                best = val
    if best is None or best <= 0:
        raise InvalidInput("weights do not span: no positive constant exists")
    return best


# ---------------------------------------------------------------------------
# seminorm probe


class ProbeReport(Record):
    __slots__ = ("max_log_value", "shell_max", "decayed", "pole_flag", "samples")

    def __init__(
        self, max_log_value: float, shell_max: list, decayed: bool, pole_flag: bool, samples: int
    ):
        self.max_log_value = max_log_value
        self.shell_max = shell_max
        self.decayed = decayed
        self.pole_flag = pole_flag
        self.samples = samples


def _directions(m: int, count: int):
    axes = []
    for i in range(m):
        e = [0.0] * m
        e[i] = 1.0
        axes.append(tuple(e))
        e2 = [0.0] * m
        e2[i] = -1.0
        axes.append(tuple(e2))
    diag = tuple(1.0 / math.sqrt(m) for _ in range(m))
    axes.append(diag)
    axes.append(tuple(-x for x in diag))
    # deterministic low-discrepancy extras
    k = 1
    while len(axes) < count:
        vec = tuple(math.cos(0.7 * k + 2.399963 * i) for i in range(m))
        norm = math.sqrt(sum(x * x for x in vec)) or 1.0
        axes.append(tuple(x / norm for x in vec))
        k += 1
    return axes[:count]


def seminorm_probe(
    rd: RootDatum,
    rho: RepSpec,
    s: complex,
    p,
    t: int,
    radii=(5.0, 15.0, 30.0, 60.0),
    directions: int = 8,
    pole_tol: float = 0.1,
) -> ProbeReport:
    """Sample (|lam|+1)^t |L(s, pi_lam)| over radial shells, with the
    imaginary part swept over the scaled orbit vertices.

    Reports log-magnitudes, whether the outermost shell decayed below
    the innermost, and whether any sample sat near a gamma pole.  A shell
    maximum is nan once a sample left the double range, -inf for poles only.
    The radii must be at least two, nonnegative and strictly increasing,
    or "outermost" and "innermost" mean nothing.
    """
    radii = tuple(radii)
    if len(radii) < 2 or not 0 <= radii[0] or not all(a < b for a, b in zip(radii, radii[1:])):
        raise InvalidInput(
            f"probe radii {radii} must be at least two, nonnegative and strictly increasing"
        )
    eps = Fraction(2) / _exponent(p) - 1
    weights = rep_weight_list(rd, rho)
    try:
        verts = [tuple(float(v) for v in vert) for vert in _orbit_vertices(rd, eps)]
    except OverflowError:
        raise InvalidInput(f"p = {p} scales the orbit vertices past the double range") from None
    dirs = _directions(rd.rank, directions)
    pole_flag = False
    shell_max = []
    samples = 0
    for r in radii:
        best = -math.inf
        for d in dirs:
            x = tuple(r * xi for xi in d)
            for y in verts:
                samples += 1
                log_val = 0.0
                try:
                    for w in weights:
                        wx = sum(a * b for a, b in zip(w, x))
                        wy = sum(a * b for a, b in zip(w, y))
                        arg = (s + 1j * wx - wy) / 2
                        if arg.real < 0.25:
                            near = round(arg.real)
                            if near <= 0 and abs(arg - near) < pole_tol:
                                pole_flag = True
                                break
                        log_val += clgamma(arg).real - arg.real * math.log(math.pi)
                    else:  # this sample is clear of the poles
                        norm = math.sqrt(sum(xi * xi for xi in x))
                        log_val += t * math.log(norm + 1.0)
                        best = log_val if math.isnan(log_val) else max(best, log_val)
                except PoleError:
                    raise
                except _RANGE_ERRORS:
                    best = math.nan
        shell_max.append(best)
    decayed = shell_max[-1] < shell_max[0]
    top = math.nan if any(map(math.isnan, shell_max)) else max(shell_max)
    return ProbeReport(top, shell_max, decayed, pole_flag, samples)
