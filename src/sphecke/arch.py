"""Archimedean toolkit: gamma-based local factors, asymptotic ratio
checks, decay thresholds, and the weight-norm constant.

The complex gamma evaluator is self-contained (Lanczos rational
approximation plus reflection); large-argument work happens in log
space.  One range rule, kept in ``in_range``, holds for the local factor,
both gamma routes, ``stirling_ratio``, ``derivative_ratio`` and each probe
sample: a float that leaves the double range gives None (a nan shell
maximum in the probe), and a pole still raises PoleError.  ``derivative_ratio``
builds Gamma^(n) / Gamma from the polygammas psi..psi''', which come from
reflection, the recurrence and the asymptotic series of psi (DLMF 5.11.2)
and of its derivatives (DLMF 5.15.8); nothing is a finite difference.

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
# seminorm_probe: radial directions per shell, and how near a gamma pole a
# sample may come before it is flagged instead of evaluated
_PROBE_DIRECTIONS = 8
_PROBE_POLE_TOL = 0.1


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


def exponent(p) -> Fraction:
    """p as a Fraction; InvalidInput unless 0 < p <= 2."""
    p = Fraction(p)
    if not 0 < p <= 2:
        raise InvalidInput("p must lie in (0, 2]")
    return p


def _weight_value(w: Vec, lam) -> complex:
    return sum(a * x for a, x in zip(w, lam))


# what a float that leaves the double range raises: OverflowError from exp,
# sin and real powers, ZeroDivisionError from a complex power of an underflow,
# ValueError from cmath on an infinite intermediate.  A pole, or any other
# InvalidInput, is a ValueError too, so in_range re-raises those first.
_RANGE_ERRORS = (OverflowError, ZeroDivisionError, ValueError)


def in_range(compute, *args, default=None):
    """compute(*args), or default once a float leaves the double range on the
    way; a pole or other invalid input still raises."""
    try:
        return compute(*args)
    except InvalidInput:
        raise
    except _RANGE_ERRORS:
        return default


def _finite(z: complex) -> complex | None:
    """z, or None once a product has overflowed to an infinity or NaN."""
    return z if cmath.isfinite(z) else None


def _checked(rd: RootDatum, rho: RepSpec, lam, field: str) -> tuple:
    """lam as a tuple, checked for length, and the weights of rho."""
    lam = tuple(lam)
    rd.check_length(lam)
    if field not in ("real", "complex"):
        raise InvalidInput("field must be 'real' or 'complex'")
    return lam, tuple(rep_weight_list(rd, rho))


def _product(weights: tuple, lam: tuple, s: complex, field: str) -> complex | None:
    """The local factor as a product over the weights w, at s + i w(lam):
    pi^(-(s+i w(lam))/2) Gamma((s+i w(lam))/2) over the reals, and
    2 (2 pi)^(-(2s+i w(lam))/2) Gamma((2s+i w(lam))/2) over the complex
    numbers; None once it has overflowed to an infinity or NaN."""
    total = 1.0 + 0j
    for w in weights:
        wv = _weight_value(w, lam)
        if field == "real":
            arg = (s + 1j * wv) / 2
            total *= math.pi ** (-arg.real) * cmath.exp(-1j * arg.imag * math.log(math.pi))
        else:
            arg = (2 * s + 1j * wv) / 2
            total *= 2.0 * cmath.exp(-arg * math.log(2 * math.pi))
        total *= cgamma(arg)
    return _finite(total)


def lfactor(rd: RootDatum, rho: RepSpec, lam, s: complex, field: str = "real") -> complex | None:
    """The local factor L(s, pi_lam, rho) over the real or complex field
    (``_product``); None when it leaves the double range, PoleError at a pole."""
    lam, weights = _checked(rd, rho, lam, field)
    return in_range(_product, weights, lam, s, field)


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


def _reflected(weights: tuple, lam: tuple, u0: complex, field: str) -> complex | None:
    """Route 2 of the gamma factor at u0 = s + l/2: the denominator gamma
    eliminated through the reflection identity, one factor per weight."""
    total = 1.0 + 0j
    for w in weights:
        wv = _weight_value(w, lam)
        if field == "real":
            u = u0 + 1j * wv
            total *= cmath.exp(-(0.5 + u) * math.log(math.pi))
            total *= cgamma((1 + u) / 2)
            total *= cmath.sin(math.pi * (2 + u) / 2) / math.pi
            total *= cgamma((2 + u) / 2)
        else:
            u = u0 + 1j * wv / 2
            total *= cmath.exp(-(1 + 2 * u) * math.log(2 * math.pi))
            g = cgamma(1 + u)
            total *= g * g * cmath.sin(math.pi * (1 + u)) / math.pi
    return _finite(total)


def gamma_factor(
    rd: RootDatum, rho: RepSpec, lam, s: complex, field: str = "real"
) -> GammaFactorResult:
    """Two-route gamma factor.

    Route 1 is the ratio of shifted local factors (numerator at
    1+s+l/2, denominator at -s-l/2 with the flipped parameter); route 2
    eliminates the denominator gamma through the reflection identity.
    The returned value is route 2; the relative gap between routes is
    reported, and a denominator pole turns route 1 into an exact zero.
    A route that leaves the double range is dropped and flagged
    ``overflow``; the value is None when route 2 is the one dropped.
    """
    lam, weights = _checked(rd, rho, lam, field)
    l = l_constant(rd, rho)
    flags = []
    route1 = None
    overflow = False
    try:
        num = in_range(_product, weights, lam, 1 + s + l / 2, field)
        try:
            den = in_range(_product, weights, tuple(-x for x in lam), -s - l / 2, field)
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
    route2 = in_range(_reflected, weights, lam, s + l / 2, field)
    if overflow or route2 is None:
        flags.append("overflow")
    rel = None
    if route1 is not None and route2 is not None:
        scale = max(abs(route1), abs(route2))
        rel = abs(route1 - route2) / scale if scale > 0 else 0.0
    return GammaFactorResult(route2, route1, rel, flags)


# ---------------------------------------------------------------------------
# asymptotic ratio probes


def stirling_ratio(x: float, y: float) -> float | None:
    """|Gamma(x+iy)| against sqrt(2 pi) |y|^(x-1/2) e^(-pi |y|/2), in logs;
    None when the ratio leaves the double range."""
    if abs(y) < 1:
        raise InvalidInput("need |y| >= 1")
    log_form = 0.5 * math.log(2 * math.pi) + (x - 0.5) * math.log(abs(y)) - math.pi * abs(y) / 2
    return in_range(lambda: _finite(math.exp(clgamma(complex(x, y)).real - log_form)))


_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
              43867 / 798, -174611 / 330)  # B_2, B_4, ..., B_20


def _polygammas(z: complex, s: complex) -> list:
    """s psi, s^2 psi', s^3 psi'' and s^4 psi''' at z: by reflection left of Re z = 1/2,
    else by the recurrence up to |z| >= 12 and then psi(z) ~ log z - 1/(2z) - sum_k
    B_2k / (2k z^2k) (DLMF 5.11.2), differentiated term by term (DLMF 5.15.8).  The
    reflection scales cot(pi z) by s before squaring it, so s^2 psi' can be in range
    where psi' ~ 1/z^2 is not."""
    if z.real < 0.5:  # psi^(k)(z) = (-1)^k psi^(k)(1 - z) - pi d^k/dz^k cot(pi z)
        c = s / cmath.tan(math.pi * (z - round(z.real)))  # s cot(pi z); cot has period 1
        u = s * s + c * c
        cots = (c, -math.pi * u, 2 * math.pi**2 * c * u, -2 * math.pi**3 * u * (s * s + 3 * c * c))
        right = _polygammas(1 - z, s)
        return [(-1) ** k * right[k] - math.pi * cots[k] for k in range(4)]
    psi = [0j] * 4
    while abs(z) < 12:  # psi^(k)(z) = psi^(k)(z + 1) - (-1)^k k! / z^(k+1)
        psi = [p - (-1) ** k * math.factorial(k) / z ** (k + 1) for k, p in enumerate(psi)]
        z += 1
    w = 1 / z
    series = [(1, -0.5)] + [(2 * k, -b / (2 * k)) for k, b in enumerate(_BERNOULLI, start=1)]
    psi[0] += cmath.log(z)
    for k in range(4):  # series: the terms a z^-j of psi^(k), less log z at k = 0
        psi[k] += sum(a * w**j for j, a in series)
        series = [(j + 1, -j * a) for j, a in series] + [(1, 1.0)] * (k == 0)  # + (log z)'
    return [p * s ** (k + 1) for k, p in enumerate(psi)]


def derivative_ratio(n: int, z: complex) -> complex | None:
    """Gamma^(n)(z) / (Gamma(z) log^n z) for n = 1..4: the complete Bell polynomial
    B_n(psi, psi', psi'', psi''') over log^n z.  B_n is homogeneous of degree n when
    psi^(k) has degree k + 1, so the sum runs on the polygammas each scaled by
    1/log^(k+1) z.  None when the value, or a scaled polygamma it is built from, leaves
    the double range, as at tiny |z|."""
    z = complex(z)
    if n < 1 or n > 4:
        raise InvalidInput("order must be 1..4")
    if z in (0, 1) or abs(cmath.phase(z)) >= math.pi:
        raise InvalidInput("need z != 1 and |arg z| < pi")
    return in_range(_bell_ratio, n, z)


def _bell_ratio(n: int, z: complex) -> complex | None:
    psi, bell = _polygammas(z, 1 / cmath.log(z)), [1]
    for m in range(n):  # B_(m+1) = sum_k C(m, k) B_(m-k) psi^(k)
        bell.append(sum(math.comb(m, k) * bell[m - k] * psi[k] for k in range(m + 1)))
    return _finite(bell[n])


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
    p = exponent(p)
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
            tails, d = solved
            nums = [u for u, in tails]
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


def _log_sample(weights, s: complex, x: tuple, y: tuple) -> float | None:
    """log |L| at spectral parameter x + i y: the sum over the weights w of
    log |pi^(-a) Gamma(a)| at a = (s + i w(x) - w(y))/2, or None once some a,
    taken weight by weight, sits near a gamma pole."""
    log_val = 0.0
    for w in weights:
        wx = sum(a * b for a, b in zip(w, x))
        wy = sum(a * b for a, b in zip(w, y))
        arg = (s + 1j * wx - wy) / 2
        if arg.real < 0.25:
            near = round(arg.real)
            if near <= 0 and abs(arg - near) < _PROBE_POLE_TOL:
                return None
        log_val += clgamma(arg).real - arg.real * math.log(math.pi)
    return log_val


def seminorm_probe(
    rd: RootDatum,
    rho: RepSpec,
    s: complex,
    p,
    t: int,
    radii=(5.0, 15.0, 30.0, 60.0),
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
    eps = Fraction(2) / exponent(p) - 1
    weights = rep_weight_list(rd, rho)
    try:
        verts = [tuple(float(v) for v in vert) for vert in _orbit_vertices(rd, eps)]
    except OverflowError:
        raise InvalidInput(f"p = {p} scales the orbit vertices past the double range") from None
    dirs = _directions(rd.rank, _PROBE_DIRECTIONS)
    pole_flag = False
    shell_max = []
    samples = 0
    for r in radii:
        best = -math.inf
        for d in dirs:
            x = tuple(r * xi for xi in d)
            for y in verts:
                samples += 1
                log_val = in_range(_log_sample, weights, s, x, y, default=math.nan)
                if log_val is None:
                    pole_flag = True
                    continue
                norm = math.sqrt(sum(xi * xi for xi in x))
                log_val += t * math.log(norm + 1.0)
                best = log_val if math.isnan(log_val) else max(best, log_val)
        shell_max.append(best)
    decayed = shell_max[-1] < shell_max[0]
    top = math.nan if any(map(math.isnan, shell_max)) else max(shell_max)
    return ProbeReport(top, shell_max, decayed, pole_flag, samples)
