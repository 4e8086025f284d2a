import cmath
import itertools
import math
import random
from fractions import Fraction
from functools import cache

import mpmath as mp
import pytest

from oracles import row_reduce, transform_datum, weyl_elements
from sphecke import arch
from sphecke.errors import InvalidInput, LengthMismatchError, PoleError
from sphecke.arch import (
    c_rho_constant,
    cgamma,
    clgamma,
    derivative_ratio,
    gamma_factor,
    lfactor,
    seminorm_probe,
    stirling_ratio,
    threshold,
)
from sphecke.characters import rep_weight_list, require_valid
from sphecke.rootdata import (
    RepSpec,
    build_gl,
    build_preset,
    l_constant,
    mat_apply,
)

mp.mp.dps = 30

GL1, GL2, GL3 = build_gl(1), build_gl(2), build_gl(3)
STD1, STD2, STD3 = RepSpec((1,)), RepSpec((1, 0)), RepSpec((1, 0, 0))


# -- the gamma evaluator itself


def test_cgamma_factorials():
    assert abs(cgamma(1) - 1) < 1e-14
    assert abs(cgamma(5) - 24) < 1e-12


def test_cgamma_half():
    assert abs(cgamma(0.5) - math.sqrt(math.pi)) < 1e-14


def test_cgamma_poles():
    for z in (0, -1, -2, -7):
        with pytest.raises(PoleError):
            cgamma(z)


def test_cgamma_validated_strip():
    rng = random.Random(17)
    for _ in range(200):
        z = complex(rng.uniform(-50, 50), rng.uniform(-200, 200))
        if z.real <= 0.5 and abs(z.imag) < 0.5 and abs(z.real - round(z.real)) < 0.1:
            continue  # stay off the pole line
        ref = complex(mp.gamma(mp.mpc(z.real, z.imag)))
        assert abs(cgamma(z) - ref) <= 1e-12 * abs(ref)


def test_cgamma_recursion_invariant():
    rng = random.Random(23)
    for _ in range(100):
        z = complex(rng.uniform(-40, 40), rng.uniform(1, 100))
        lhs = cgamma(z + 1)
        assert abs(lhs - z * cgamma(z)) <= 1e-12 * abs(lhs)


def test_cgamma_reflection_residual():
    rng = random.Random(29)
    for _ in range(100):
        z = complex(rng.uniform(0.1, 0.9), rng.uniform(-30, 30))
        resid = cgamma(z) * cgamma(1 - z) * cmath.sin(math.pi * z) / math.pi - 1
        assert abs(resid) < 1e-10


def test_cgamma_stirling_magnitude():
    # |G(2+50i)| against the magnitude form, within a few percent
    got = abs(cgamma(2 + 50j))
    form = math.sqrt(2 * math.pi) * 50**1.5 * math.exp(-math.pi * 25)
    assert abs(got / form - 1) < 0.03


def test_clgamma_matches_log_magnitude():
    for z in (3 + 40j, -10.3 + 77j, 0.25 + 3j):
        assert clgamma(z).real == pytest.approx(
            float(mp.log(abs(mp.gamma(mp.mpc(z.real, z.imag))))), rel=1e-10
        )


# -- local factors


def test_lfactor_real_gl1():
    assert abs(lfactor(GL1, STD1, (0.0,), 1.0) - 1.0) < 1e-13


def test_lfactor_cplx_gl1():
    assert abs(lfactor(GL1, STD1, (0.0,), 1.0, "complex") - 1 / math.pi) < 1e-14


def test_lfactor_real_gl2_against_reference():
    lam = (1.0, -1.0)
    s = 2.0
    got = lfactor(GL2, STD2, lam, s)
    want = mp.mpc(1)
    for wv in lam:
        arg = mp.mpc(s, wv) / 2
        want *= mp.pi ** (-arg) * mp.gamma(arg)
    assert abs(got - complex(want)) <= 1e-10 * abs(complex(want))


def test_lfactor_pole_flag():
    with pytest.raises(PoleError):
        lfactor(GL1, STD1, (0.0,), 0.0)


# -- two-route gamma factor


def test_gamma_factor_two_routes_agree():
    rng = random.Random(31)
    checked = 0
    for _ in range(100):
        lam = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        s = complex(rng.uniform(0.3, 2.5), rng.uniform(-1.0, 1.0))
        res = gamma_factor(GL2, STD2, lam, s)
        if res.rel_discrepancy is None:
            continue
        assert res.rel_discrepancy < 1e-9
        checked += 1
    assert checked >= 95


def test_gamma_factor_two_routes_agree_complex_field():
    rng = random.Random(37)
    for _ in range(60):
        lam = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        s = complex(rng.uniform(0.3, 2.0), rng.uniform(-0.7, 0.7))
        res = gamma_factor(GL2, STD2, lam, s, "complex")
        if res.rel_discrepancy is not None:
            assert res.rel_discrepancy < 1e-9


def test_gamma_factor_real_on_real_axis():
    res = gamma_factor(GL1, STD1, (0.0,), 0.7)
    assert abs(res.value.imag) < 1e-12


def test_gamma_factor_overflow_is_flagged():
    # route 1's denominator and route 2's sine leave the double range
    res = gamma_factor(GL2, STD2, (800.0, -800.0), 1.0)
    assert res.flags == ["overflow"]
    assert res.value is None and res.ratio_route is None and res.rel_discrepancy is None
    for field in ("real", "complex"):
        assert lfactor(GL2, STD2, (800.0, -800.0), -1.0, field) is None


def test_gamma_factor_sin_zero():
    # the denominator hits a pole, so the factor vanishes
    res = gamma_factor(GL1, STD1, (0.0,), 2.0)
    assert "denominator-pole" in res.flags
    assert res.ratio_route == 0
    assert abs(res.value) < 1e-10


# -- asymptotic ratio probes


def test_stirling_ratio_near_one():
    for x in (0.5, 1.0, 2.0):
        assert abs(stirling_ratio(x, 100.0) - 1) < 0.02


def test_stirling_ratio_requires_large_y():
    with pytest.raises(InvalidInput):
        stirling_ratio(1.0, 0.5)


def test_derivative_ratio_first_and_second():
    assert abs(derivative_ratio(1, 300) - 1) < 0.05
    assert abs(derivative_ratio(2, 300) - 1) < 0.05


def test_derivative_ratio_monotone_approach():
    near = abs(derivative_ratio(2, 100) - 1)
    far = abs(derivative_ratio(2, 1000) - 1)
    assert far < near


def test_derivative_ratio_matches_polygamma():
    z = 150.0
    psi0 = float(mp.digamma(z))
    psi1 = float(mp.polygamma(1, z))
    want1 = psi0 / math.log(z)
    want2 = (psi0**2 + psi1) / math.log(z) ** 2
    assert derivative_ratio(1, z).real == pytest.approx(want1, rel=1e-12)
    assert derivative_ratio(2, z).real == pytest.approx(want2, rel=1e-12)


def test_derivative_ratio_domain():
    with pytest.raises(InvalidInput):
        derivative_ratio(1, -5.0)
    with pytest.raises(InvalidInput):
        derivative_ratio(5, 100.0)
    for n in range(1, 5):  # log 1 = 0
        with pytest.raises(InvalidInput):
            derivative_ratio(n, 1)


def _bell_ratios(z):
    """Gamma^(n)(z) / (Gamma(z) log^n z) for n = 1..4, from mpmath's
    polygammas with the complete Bell polynomials written out."""
    x1, x2, x3, x4 = (mp.psi(k, z) for k in range(4))
    bell = (
        x1,
        x1**2 + x2,
        x1**3 + 3 * x1 * x2 + x3,
        x1**4 + 6 * x1**2 * x2 + 4 * x1 * x3 + 3 * x2**2 + x4,
    )
    return [b / mp.log(z) ** n for n, b in enumerate(bell, start=1)]


def test_bell_oracle_is_the_gamma_derivative():
    with mp.workdps(40):
        for z in (mp.mpf(5), mp.mpc(2.5, -3), mp.mpc(-3.5, 0.5)):
            for n, got in enumerate(_bell_ratios(z), start=1):
                want = mp.diff(mp.gamma, z, n) / (mp.gamma(z) * mp.log(z) ** n)
                assert abs(got - want) <= mp.mpf(10) ** -30 * abs(want)


def test_derivative_ratio_mpmath_sweep():
    # n = 1..4 on the right half-plane (|z| <= 1e4), the left one
    # (Re z in [-50, 1/2], |Im z| >= 0.1) and the positive real line,
    # against 40 digits; the worst relative error seen is about 1e-14
    rng = random.Random(41)
    right = [0.5 + 10 ** rng.uniform(0, 4) * cmath.exp(1j * rng.uniform(-1.57, 1.57))
             for _ in range(80)]
    left = [complex(rng.uniform(-50, 0.5), rng.choice((-1, 1)) * 10 ** rng.uniform(-1, 2))
            for _ in range(80)]
    real = [complex(10 ** rng.uniform(-3, 4)) for _ in range(80)]
    with mp.workdps(40):
        for z in right + left + real:
            for n, want in enumerate(_bell_ratios(mp.mpc(z.real, z.imag)), start=1):
                got = derivative_ratio(n, z)
                assert abs(got - want) <= 1e-12 * abs(want), (n, z, got, complex(want))


def test_derivative_ratio_at_tiny_z():
    # psi(z) ~ -1/z stays in range, so n = 1 is a number; psi'(z) ~ 1/z^2
    # does not, so n >= 2 is flagged None rather than raising
    z = 1e-300
    with mp.workdps(40):
        want = _bell_ratios(mp.mpf(z))[0]
    assert abs(derivative_ratio(1, z) - want) <= 1e-12 * abs(want)
    assert [derivative_ratio(n, z) for n in (2, 3, 4)] == [None, None, None]


def test_derivative_ratio_where_psi_prime_overflows_alone():
    # at z = 1e-155, psi'(z) ~ 1/z^2 leaves the double range, but
    # Gamma''(z) / (Gamma(z) log^2 z) ~ 1.57e305 does not; n = 3, 4 do not fit
    z = 1e-155
    with mp.workdps(40):
        want = _bell_ratios(mp.mpf(z))[1]
    assert abs(derivative_ratio(2, z) - want) <= 1e-12 * abs(want)
    assert [derivative_ratio(n, z) for n in (3, 4)] == [None, None]


# -- thresholds


def test_threshold_examples():
    assert threshold(GL2, STD2, 2) == 0
    assert threshold(GL2, STD2, 1) == Fraction(1, 2)
    assert threshold(GL2, STD2, 1, "kernel") == -1


def test_threshold_complex_field():
    assert threshold(GL2, STD2, 1, "basic", "complex") == Fraction(1, 4)
    assert threshold(GL2, STD2, 1, "kernel", "complex") == Fraction(-1, 2)


def test_threshold_monotone_in_epsilon():
    values = [threshold(GL3, STD3, p) for p in (Fraction(2), Fraction(3, 2), Fraction(1), Fraction(1, 2))]
    assert values == sorted(values)


def test_threshold_rejects_bad_p():
    with pytest.raises(InvalidInput):
        threshold(GL2, STD2, 3)


# -- the integer routes against the Fraction routes they replaced


PRESET_RHO = {
    "gl1": (1,),
    "gl2": (1, 0),
    "gl3": (1, 0, 0),
    "gl4": (1, 0, 0, 0),
    "b2": (1, 0, 1),
    "b3": (1, 0, 0, 1),
    "b4": (1, 0, 0, 0, 1),
    "c2": (1, 0, 1),
    "c3": (1, 0, 0, 1),
    "c4": (1, 0, 0, 0, 1),
    "d3": (1, 0, 0, 1),
    "d4": (1, 0, 0, 0, 1),
    "g2": (0, -1, 1),
}


def _threshold_fraction_route(rd, rho, p):
    """The threshold as first written, for every (which, field_tag): each
    Weyl matrix applied to eps rho in Fractions, and each weight form
    maximized over those vertices."""
    eps = Fraction(2) / Fraction(p) - 1
    half = [Fraction(x, 2) * eps for x in rd.rho_b_times2]
    verts = {
        tuple(sum(row[j] * half[j] for j in range(rd.rank)) for row in w)
        for w, _ in weyl_elements(rd)
    }
    best = max(
        sum(Fraction(a) * v for a, v in zip(w, vert))
        for w in rep_weight_list(rd, rho)
        for vert in verts
    )
    l = l_constant(rd, rho)
    return {
        ("basic", "real"): best,
        ("kernel", "real"): Fraction(-1) - Fraction(l, 2) + best,
        ("basic", "complex"): best / 2,
        ("kernel", "complex"): Fraction(-1, 2) - Fraction(l, 4) + best / 2,
    }


def _c_rho_fraction_route(rd, rho):
    """The weight-norm constant as first written, independent of the facet
    argument: every vertex that the weight hyperplanes cut out of a sign
    orthant's face of the unit cross-polytope, solved by Gauss-Jordan
    elimination over the rationals (one orthant of each pair +-x)."""
    m = rd.rank
    weights = rep_weight_list(rd, rho)
    best = None
    for signs in itertools.product((1, -1), repeat=m - 1):
        signs = (1,) + signs  # x and -x give the same ratio
        forms = [tuple(Fraction(w[t] * signs[t]) for t in range(m)) for w in weights]
        cuts = forms + [
            tuple(Fraction(1 if t == j else 0) for t in range(m)) for j in range(m)
        ]
        for subset in itertools.combinations(range(len(cuts)), m - 1):
            rows = [list(cuts[i]) + [Fraction(0)] for i in subset]
            rows.append([Fraction(1)] * m + [Fraction(1)])
            if len(row_reduce(rows, m)) < m:
                continue
            sol = [row[-1] for row in rows]
            if any(u < 0 for u in sol):
                continue
            val = sum(abs(sum(f[t] * sol[t] for t in range(m))) for f in forms)
            if best is None or val < best:
                best = val
    return best


@pytest.mark.parametrize("label", sorted(PRESET_RHO))
def test_threshold_matches_fraction_route(label):
    rd, rho = build_preset(label), RepSpec(PRESET_RHO[label])
    require_valid(rd, rho)
    for p in (Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(2, 5), Fraction(2)):
        for (which, field_tag), want in _threshold_fraction_route(rd, rho, p).items():
            assert threshold(rd, rho, p, which, field_tag) == want


@cache
def _c_rho_oracle(label, hw):
    return _c_rho_fraction_route(build_preset(label), RepSpec(hw))


# modules with weights of multiplicity above one: the constant sums over
# the weights with multiplicity, the facets over the distinct ones
_C_RHO_MULTIPLE = [("gl3", (2, 0, -1)), ("gl3", (2, 1, -2)), ("b2", (1, 1, 1)), ("c3", (1, 1, 0, 1))]


@pytest.mark.parametrize(
    "label, hw",
    [pytest.param(k, PRESET_RHO[k], id=k) for k in sorted(PRESET_RHO) if build_preset(k).rank <= 4]
    + [pytest.param(k, hw, id=f"{k}-{','.join(map(str, hw))}") for k, hw in _C_RHO_MULTIPLE],
)
def test_c_rho_matches_fraction_route(label, hw):
    assert c_rho_constant(build_preset(label), RepSpec(hw)) == _c_rho_oracle(label, hw)


def test_c_rho_fraction_route_catches_distinct_weights(monkeypatch):
    # summing over the distinct weights only drops the multiplicities:
    # 4, 6 and 11/3 where the oracle gives 5, 8 and 4
    cases = _C_RHO_MULTIPLE[:3]
    want = [_c_rho_oracle(label, hw) for label, hw in cases]
    assert want == [5, 8, 4]
    monkeypatch.setattr(
        arch, "rep_weight_list", lambda rd, rho: list(dict.fromkeys(rep_weight_list(rd, rho)))
    )
    got = [c_rho_constant(build_preset(label), RepSpec(hw)) for label, hw in cases]
    assert got == [4, 6, Fraction(11, 3)]


def test_c_rho_catches_a_flipped_normal(monkeypatch):
    # reading the normal as +row_i[j] at the pivots, in place of -row_i[j],
    # gives a vector the weights do not vanish on: 9/4 on g2 where the
    # oracle gives 2
    assert _c_rho_oracle("g2", (0, -1, 1)) == 2
    bareiss = arch.bareiss

    def flipped(rows, ncols):
        pivots, d = bareiss(rows, ncols)
        rows[:] = [[x if c in pivots else -x for c, x in enumerate(row)] for row in rows]
        return pivots, d

    monkeypatch.setattr(arch, "bareiss", flipped)
    assert c_rho_constant(build_preset("g2"), RepSpec((0, -1, 1))) == Fraction(9, 4)


# -- weight-norm constant


def test_c_rho_standard_is_one():
    for rd, rho in [(GL1, STD1), (GL2, STD2), (GL3, STD3)]:
        assert c_rho_constant(rd, rho) == 1


def test_c_rho_grade_two_module():
    # weights (2,0), (1,1), (0,2): minimum 2 attained at x = (1/2, -1/2)
    assert c_rho_constant(GL2, RepSpec((2, 0))) == 2


def test_c_rho_scaling():
    # doubling the weights doubles the constant: compare the squared-entry
    # module against the standard one
    base = c_rho_constant(GL2, STD2)
    doubled = c_rho_constant(GL2, RepSpec((2, 0)))
    assert doubled == 2 * base


def test_c_rho_cubic_module_positive():
    val = c_rho_constant(GL2, RepSpec((2, -1)))
    assert val > 0


def test_c_rho_ignores_the_order_of_coordinates():
    # |x|_1 is symmetric in the coordinates, so moving the last (central on
    # the B, C, D and G presets) to the front keeps the constant; a normal
    # read off with the last column taken as the free one gives 9/4 on g2
    # and 2 on the moved g2
    for label in sorted(k for k in PRESET_RHO if build_preset(k).rank <= 4):
        rd, hw = build_preset(label), PRESET_RHO[label]
        n = rd.rank
        U = [[int(j == (i - 1) % n) for j in range(n)] for i in range(n)]
        moved = transform_datum(rd, U, range(len(rd.simple_roots)))
        want = c_rho_constant(rd, RepSpec(hw))
        assert c_rho_constant(moved, RepSpec(mat_apply(U, hw))) == want, label


def test_c_rho_rank_cap():
    with pytest.raises(InvalidInput):
        c_rho_constant(build_gl(5), RepSpec((1, 0, 0, 0, 0)))


# -- seminorm probe


def test_probe_decay():
    rep = seminorm_probe(GL2, STD2, 3.0, 2, 4, radii=(5.0, 15.0, 30.0, 60.0))
    assert rep.decayed
    assert not rep.pole_flag


def test_probe_pole_flag_below_threshold():
    # threshold at p=1 is 1/2; sitting 0.1 below it puts a hull point on a pole
    rep = seminorm_probe(GL2, STD2, 0.4, 1, 0, radii=(2.0, 5.0))
    assert rep.pole_flag


def test_probe_t_zero_finite():
    rep = seminorm_probe(GL2, STD2, 2.5, 2, 0, radii=(3.0, 9.0))
    assert math.isfinite(rep.max_log_value)


# -- argument checks


@pytest.mark.parametrize("factor", [lfactor, gamma_factor])
def test_factors_reject_wrong_length(factor):
    for lam in ((0.5,), (0.5, 0.0, 1.0)):
        with pytest.raises(LengthMismatchError):
            factor(GL2, STD2, lam, 1.0)


@pytest.mark.parametrize("factor", [lfactor, gamma_factor])
def test_factors_check_the_field(factor):
    with pytest.raises(InvalidInput, match="field must be 'real' or 'complex'"):
        factor(GL1, STD1, (0.0,), 1.0, "wrong")
