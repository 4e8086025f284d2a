import itertools
import random
from fractions import Fraction

import pytest

from oracles import is_constant_one
from sphecke.errors import InvalidInput, LengthMismatchError, PoleError
from sphecke.laurent import Laurent
from sphecke.lseries import (
    SchwartzElement,
    _char_one,
    basic_function,
    fourier,
    gamma_kernel,
    gj_standard_obstruction,
    h_value,
    inverse_l_element,
    inverse_l_image,
    l_series,
    membership_witness,
    verify_fixed_point,
    verify_gj_standard,
    verify_unitarity,
    zeta_closed_form,
    zeta_over_l,
)
from sphecke.characters import sym_power_decomp, weight_multiplicities, weyl_dim
from sphecke.kostka import kl_row
from sphecke.rootdata import (
    RepSpec,
    build_gl,
    build_preset,
    dominant_below,
    height2,
    l_constant,
    sigma_grade,
)
from sphecke.satake import (
    CELLS,
    GradedElement,
    Window,
    cell,
    convolve,
    dual,
    eval_numeric,
    identity_element,
    inverse_satake,
    satake,
    specialize,
    twist,
)

GL1 = build_gl(1)
GL2 = build_gl(2)
GL3 = build_gl(3)
STD1, STD2, STD3 = RepSpec((1,)), RepSpec((1, 0)), RepSpec((1, 0, 0))
CUBIC = RepSpec((2, -1))  # four-dimensional grade-one module for GL(2)

# (datum, rho, kernel truncation) for the cell-side reference routes below
REFERENCE_CASES = [
    (GL3, STD3, 3),
    (GL2, CUBIC, 3),
    (GL2, RepSpec((4, -3)), 1),
    (build_preset("b2"), RepSpec((1, 0, 1)), 2),
    (build_preset("c2"), RepSpec((1, 0, 1)), 2),
    (build_preset("g2"), RepSpec((0, -1, 1)), 0),
]


def exact_eval(coeff: Laurent, v: Fraction, x: Fraction) -> Fraction:
    return sum(c * v**a * x**b for (a, b), c in coeff.terms.items())


def exact_char(rd, lam, c):
    return sum(
        m * _power_product(c, nu) for nu, m in weight_multiplicities(rd, lam).items()
    )


def _power_product(c, nu):
    out = Fraction(1)
    for ci, e in zip(c, nu):
        out *= Fraction(ci) ** e
    return out


# -- the graded L-series


def test_l_series_examples():
    ls = l_series(GL2, STD2, 3)
    assert ls.grades[0] == {(0, 0): Laurent.one()}
    assert ls.grades[2] == {(2, 0): Laurent.term(1, x=2)}
    ls1 = l_series(GL1, STD1, 4)
    for k in range(5):
        assert ls1.grades[k] == {(k,): Laurent.term(1, x=k)}


def test_l_series_requires_valid_rho():
    with pytest.raises(InvalidInput):
        l_series(GL2, RepSpec((2, 0)), 2)


# -- coefficients of the basic element


def basic_coeff(rd, rho, mu):
    """Grade sigma(mu) of the basic element at the mu-cell, as a polynomial
    in q^-1 = v^-2: the cell normalization and X^k taken back off (zero
    for negative grade)."""
    k = sigma_grade(rd, mu)
    if k < 0:
        return Laurent.zero()
    return basic_function(rd, rho, k).coefficient(k, mu).shift(v=height2(rd, mu), x=-k)


def test_basic_coeff_examples():
    assert basic_coeff(GL2, STD2, (1, 0)) == Laurent.one()
    assert basic_coeff(GL2, STD2, (1, 1)) == Laurent.term(1, v=-2)
    assert basic_coeff(GL2, STD2, (0, -1)) == Laurent.zero()
    assert basic_coeff(GL2, STD2, (-1, -1)) == Laurent.zero()


def test_basic_function_defining_identity():
    # the transform of the assembled element reproduces the graded series
    for rd, rho, n in [
        (GL1, STD1, 6),
        (GL2, STD2, 5),
        (GL3, STD3, 4),
        (GL2, CUBIC, 3),
        (GL2, RepSpec((4, -3)), 3),  # Sym^3 holds a constituent twice
        (build_preset("b2"), RepSpec((1, 0, 1)), 4),
        (build_preset("c2"), RepSpec((1, 0, 1)), 4),
        (build_preset("g2"), RepSpec((0, -1, 1)), 3),
    ]:
        basic = basic_function(rd, rho, n)
        assert satake(basic) == l_series(rd, rho, n)


def test_basic_function_matches_kostka_sum():
    # cell coefficients summed straight from the Kostka-Foulkes rows:
    # mult * K[lam,mu](q^-1) * v^(-height2 mu) * X^k over Sym^k rho, to
    # grade 3, where Sym^3 of GL(2) 4,-3 holds a constituent twice
    n = 3
    for rd, rho, _ in REFERENCE_CASES:
        grades = {}
        for k in range(n + 1):
            acc = grades[k] = {}
            for lam, mult in sym_power_decomp(rd, rho, k):
                for mu, row in kl_row(rd, lam):
                    kq = row.shift(v=height2(rd, mu))
                    acc[mu] = acc.get(mu, Laurent.zero()) + kq * mult
        want = {
            k: {mu: c.shift(v=-height2(rd, mu), x=k) for mu, c in terms.items()}
            for k, terms in grades.items()
        }
        assert basic_function(rd, rho, n) == GradedElement(rd, CELLS, want, Window(None, n))
        for mu, c in grades[n].items():
            assert basic_coeff(rd, rho, mu) == c, (rd.cartan, mu)


def test_basic_function_gl2_indicator_specialization():
    basic = basic_function(GL2, STD2, 2)
    sp = specialize(basic, Fraction(-1, 2))
    assert sp.grades[2] == {(2, 0): Laurent.one(), (1, 1): Laurent.one()}


def test_basic_function_gl1_tate():
    basic = basic_function(GL1, STD1, 5)
    for k in range(6):
        assert basic.grades[k] == {(k,): Laurent.term(1, x=k)}


def test_basic_function_zero_truncation():
    basic = basic_function(GL3, STD3, 0)
    assert basic.grades == identity_element(GL3).grades


def test_basic_function_indicator_sweep():
    # nonnegative dominant cells carry coefficient one, nothing else appears
    for n in (1, 2, 3):
        rd = build_gl(n)
        std = RepSpec((1,) + (0,) * (n - 1))
        basic = basic_function(rd, std, 4)
        sp = specialize(basic, Fraction(-(n - 1), 2))
        for k in range(5):
            terms = sp.grades.get(k, {})
            expected = {
                mu
                for mu in dominant_below(rd, (k,) + (0,) * (n - 1))
                if min(mu) >= 0
            }
            assert set(terms) == expected
            assert all(c == Laurent.one() for c in terms.values())


# -- inverse series polynomial


def test_inverse_l_gl1():
    inv = inverse_l_element(GL1, STD1)
    assert inv.grades == {
        0: {(0,): Laurent.one()},
        -1: {(-1,): Laurent.term(-1, x=-1)},
    }


def test_inverse_l_gl2_frozen():
    inv = inverse_l_element(GL2, STD2)
    assert inv.grades == {
        0: {(0, 0): Laurent.one()},
        -1: {(0, -1): Laurent.term(-1, x=-1)},
        -2: {(-1, -1): Laurent.term(1, v=2, x=-2)},
    }


def test_inverse_l_leading_term_always_one():
    for rd, rho in [(GL2, STD2), (GL3, STD3), (GL2, CUBIC)]:
        inv = inverse_l_element(rd, rho)
        assert inv.grades[0] == {(0,) * rd.rank: Laurent.one()}


def test_inverse_l_window_finite():
    inv = inverse_l_element(GL3, STD3)
    assert inv.window == Window()
    assert set(inv.grades) <= {0, -1, -2, -3}


# -- the kernel


def test_kernel_gl1_tate_grades():
    e = gamma_kernel(GL1, STD1, 3)
    assert e.grades[-1] == {(-1,): Laurent.term(-1, x=-1)}
    assert e.grades[0] == {(0,): Laurent({(0, 0): 1, (-2, 0): -1})}
    for g in (1, 2, 3):
        assert e.grades[g] == {
            (g,): Laurent({(-2 * g, g): 1, (-2 * g - 2, g): -1})
        }


def test_kernel_lowest_grade_is_top_exterior():
    kern = gamma_kernel(GL2, STD2, 2)
    inv = inverse_l_element(GL2, STD2)
    assert kern.grades[-2] == inv.grades[-2]


def test_kernel_window():
    kern = gamma_kernel(GL2, STD2, 3)
    assert kern.window == Window(None, 3)
    assert min(kern.grades) == -2


def test_kernel_matches_cell_side_convolution():
    # the shifted basic element to grade N + dim rho, convolved on the
    # cell side with the inverse-series element and cut at grade N
    for rd, rho, n in REFERENCE_CASES:
        l = l_constant(rd, rho)
        basic = basic_function(rd, rho, n + weyl_dim(rd, rho.highest_weight))
        shifted = twist(basic, 0, -(2 + l))
        want = convolve(shifted, inverse_l_element(rd, rho), Window(None, n))
        assert gamma_kernel(rd, rho, n) == want, rd.cartan


def test_kernel_series_division_oracle():
    # exact rational check: (transform of kernel) * denominator = numerator,
    # with numerator/denominator series computed directly from symmetric
    # function recursions, not through the library
    N = 5
    kern = gamma_kernel(GL2, STD2, N)
    img = satake(kern)
    c = (Fraction(2, 3), Fraction(5, 7))
    v = Fraction(2)  # q = 4
    x = Fraction(1, 9)
    q = v * v
    l = 1

    def phi_val(g):
        if g < -2:
            return Fraction(0)
        terms = img.grades.get(g, {})
        return sum(exact_eval(co, v, x) * exact_char(GL2, lam, c) for lam, co in terms.items())

    # numerator: complete homogeneous h_k(c) times (x v^(-2-l))^k
    h = [Fraction(1)]
    p = [None]  # power sums
    for k in range(1, N + 3):
        p.append(sum(Fraction(ci) ** k for ci in c))
        h.append(sum(p[j] * h[k - j] for j in range(1, k + 1)) / k)
    num = {k: h[k] * (x * v ** (-2 - l)) ** k for k in range(N + 3)}
    # denominator: elementary e_i of the inverted parameters times (v^l / x)^i
    cinv = [1 / Fraction(ci) for ci in c]
    e0, e1, e2 = Fraction(1), cinv[0] + cinv[1], cinv[0] * cinv[1]
    den = {0: e0, -1: -e1 * v**l / x, -2: e2 * (v**l / x) ** 2}

    for g in range(-2, N + 1):
        want = sum(den[j] * num.get(g - j, Fraction(0)) for j in (0, -1, -2))
        assert phi_val(g) == want, f"grade {g}"


# -- Fourier transform


def test_fourier_tate_fixed_point():
    basic = basic_function(GL1, STD1, 6)
    out = fourier(SchwartzElement(basic, identity_element(GL1)), STD1, 6)
    want = specialize(basic, Fraction(0)).restrict(Window(None, 6))
    assert out == want


def test_fourier_of_identity_is_twisted_kernel():
    from sphecke.satake import twist

    n = 3
    out = fourier(identity_element(GL2), STD2, n)
    kern = specialize(gamma_kernel(GL2, STD2, n), Fraction(0))
    want = twist(kern, 0, 2 * 2).restrict(Window(None, n))  # l = 1
    assert out == want


def test_fourier_transforms_the_basic_element_once(monkeypatch):
    # the fixed-point check and the product share one transform of f.basic
    import sphecke.satake as satake_mod

    n = 10
    basic = basic_function(GL3, STD3, n)
    f = SchwartzElement(basic, identity_element(GL3))
    real = satake_mod._change_basis
    forward = []

    def counting(e, row, basis):
        if basis != CELLS:
            forward.append(e)
        return real(e, row, basis)

    monkeypatch.setattr(satake_mod, "_change_basis", counting)
    fourier(f, STD3, n)
    assert [e is basic for e in forward].count(True) == 1


def test_fourier_linearity():
    rng = random.Random(21)
    f = cell(GL2, (1, 0), Laurent.term(2))
    g = cell(GL2, (1, 1)) + cell(GL2, (0, 0), Laurent.term(-1))
    lhs = fourier(f + g, STD2, 3)
    rhs = fourier(f, STD2, 3) + fourier(g, STD2, 3)
    assert lhs == rhs


# -- verifiers


def test_fixed_point_passes():
    assert verify_fixed_point(GL1, STD1, 8).status == "PASS"
    assert verify_fixed_point(GL2, STD2, 6).status == "PASS"


def test_fixed_point_custom_module():
    assert verify_fixed_point(GL2, CUBIC, 4).status == "PASS"


def _corrupted_basic():
    # the GL(2) basic element to grade 4 with X^3 added at the (3, 0) cell
    basic = basic_function(GL2, STD2, 4)
    grades = {k: dict(t) for k, t in basic.grades.items()}
    grades[3][(3, 0)] = grades[3][(3, 0)] + Laurent.term(1, x=3)
    return GradedElement(GL2, CELLS, grades, basic.window)


def test_fixed_point_detects_corruption():
    # the corruption at grade 3 surfaces at grade -4 of the telescope
    report = verify_fixed_point(GL2, STD2, 4, basic=_corrupted_basic())
    assert report.to_json() == {
        "name": "fixed-point",
        "status": "FAIL",
        "checks": [{"part": "inverse-series telescope", "grades": [-4, 0], "ok": False}],
        "first_mismatch": {"grade": -4, "mu": [0, -4], "expected": "-v^7", "got": "0"},
    }


def test_unitarity_detects_corruption():
    report = verify_unitarity(GL2, STD2, 4, basic=_corrupted_basic())
    assert report.to_json() == {
        "name": "unitarity",
        "status": "FAIL",
        "checks": [
            {"part": "flipped-basic telescope", "grades": [-4, 0], "ok": False},
            {"part": "flipped-inverse telescope", "grades": [0, 4], "ok": False},
        ],
        "first_mismatch": {"grade": -4, "mu": [0, -4], "expected": "-v^7", "got": "0"},
    }


@pytest.mark.parametrize(
    "corrupt, grade, mu, got",
    [
        (lambda g: g.__setitem__((1, 1), g[(1, 1)] + Laurent.term(1, x=2)), 2, [1, 1], "v^2 + 1"),
        (lambda g: g.pop((2, 0)), 2, [2, 0], "absent"),
    ],
    ids=["changed-coefficient", "missing-cell"],
)
def test_gj_standard_detects_corruption(monkeypatch, corrupt, grade, mu, got):
    import sphecke.lseries as ls_mod

    assert verify_gj_standard(GL2, STD2, 4).status == "PASS"
    real = ls_mod.basic_function

    def corrupted(rd, rho, N):
        basic = real(rd, rho, N)
        grades = {k: dict(t) for k, t in basic.grades.items()}
        corrupt(grades[2])
        return GradedElement(rd, CELLS, grades, basic.window)

    monkeypatch.setattr(ls_mod, "basic_function", corrupted)
    report = verify_gj_standard(GL2, STD2, 4)
    assert report.status == "FAIL"
    assert report.checks == [{"part": "half-shift indicator", "grades": [0, 4], "ok": False}]
    assert report.to_json()["first_mismatch"] == {
        "grade": grade, "mu": mu, "expected": "1", "got": got
    }


def test_gj_standard_domain():
    assert gj_standard_obstruction(GL2, STD2) is None
    assert "standard rho" in gj_standard_obstruction(GL2, CUBIC)
    b2 = build_preset("b2")
    assert "GL preset" in gj_standard_obstruction(b2, RepSpec((1, 0, 1)))
    for rd, rho in ((GL2, CUBIC), (b2, RepSpec((1, 0, 1)))):
        with pytest.raises(InvalidInput, match=gj_standard_obstruction(rd, rho)):
            verify_gj_standard(rd, rho, 2)


def test_unitarity_passes():
    assert verify_unitarity(GL1, STD1, 8).status == "PASS"
    assert verify_unitarity(GL2, STD2, 5).status == "PASS"


def test_unitarity_grade_zero_check_present():
    report = verify_unitarity(GL2, STD2, 3)
    names = [c["part"] for c in report.checks]
    assert "grade-0 scalar product" in names
    assert all(c["ok"] for c in report.checks)


def test_verifiers_stay_on_the_character_side(monkeypatch):
    # each verifier transforms the basic element once, and inverse-transforms
    # only the grades its cross-checks read: -N, -N+1, 0 and 1.  A whole
    # product sent through inverse_satake (and back) would add the grades
    # in between
    import sphecke.satake as satake_mod

    n = 12
    basic = basic_function(GL3, STD3, n)
    real = satake_mod._change_basis
    forward, inverse = [], []

    def counting(f, row, basis):
        (inverse if basis == CELLS else forward).append(f)
        return real(f, row, basis)

    monkeypatch.setattr(satake_mod, "_change_basis", counting)
    for verify, most in ((verify_fixed_point, 4), (verify_unitarity, 6)):
        forward.clear()
        inverse.clear()
        assert verify(GL3, STD3, n, basic=basic).status == "PASS"
        assert len(forward) == 1 and forward[0] is basic
        grades = [k for f in inverse for k in f.grades]
        assert set(grades) <= {-n, -n + 1, 0, 1}, verify.__name__
        assert len(grades) <= most, verify.__name__


@pytest.mark.parametrize(
    "label", ["gl1", "gl2", "gl3", "gl4", "b2", "b3", "b4", "c2", "c3", "c4", "d3", "d4", "g2"]
)
def test_character_unit_is_the_transform_of_the_identity(label):
    # the verifiers compare with the unit built directly, not transformed
    rd = build_preset(label)
    assert _char_one(rd) == satake(identity_element(rd))


def test_report_json_shape():
    rep = verify_fixed_point(GL1, STD1, 4)
    obj = rep.to_json()
    assert set(obj) == {"name", "status", "checks", "first_mismatch"}
    assert obj["status"] == "PASS"
    assert obj["first_mismatch"] is None


# -- zeta


def test_zeta_identity_gives_l_factor():
    c = (0.31, 0.17)
    q, s = 3.0, 1.0
    val = zeta_closed_form(GL2, STD2, identity_element(GL2), c, q, s)
    want = 1.0
    for ci in c:
        want *= 1 / (1 - ci * q**-s)
    assert abs(val - want) < 1e-14


def test_zeta_gl1_value_two():
    val = zeta_closed_form(GL1, STD1, identity_element(GL1), (1.0,), 2.0, 1.0)
    assert abs(val - 2.0) < 1e-14


def test_zeta_divergence_flag():
    with pytest.raises(PoleError):
        zeta_closed_form(GL1, STD1, identity_element(GL1), (1.0,), 2.0, 0.0)


def test_zeta_rejects_wrong_length():
    h = identity_element(GL2)
    ls = l_series(GL2, STD2, 2)
    for c in ((0.3,), (0.3, 0.1, 0.5)):
        with pytest.raises(LengthMismatchError):
            zeta_closed_form(GL2, STD2, h, c, 3.0, 1.0)
        with pytest.raises(LengthMismatchError):
            h_value(GL2, STD2, h, c, 3.0, 1.0)
        with pytest.raises(LengthMismatchError):
            eval_numeric(ls, c, 3.0, 1.0, 2)


def test_h_value_independent_of_insertion_order():
    # the same element stored in two orders; a float sum taken in stored
    # order differs in the last digit here (seed 1)
    rng = random.Random(1)
    grades = {}
    for k in range(4):
        pool = [v for v in itertools.product(range(-1, 4), repeat=3)
                if GL3.is_dominant(v) and sigma_grade(GL3, v) == k]
        grades[k] = {
            mu: Laurent({(rng.randint(-3, 3), 0): rng.choice([-2, -1, 1, 2])})
            for mu in rng.sample(pool, min(4, len(pool)))
        }
    fwd = GradedElement(GL3, CELLS, grades)
    rev = GradedElement(GL3, CELLS, {
        k: dict(reversed(list(t.items()))) for k, t in reversed(list(grades.items()))
    })
    assert fwd == rev
    c = (0.3, 0.2, 0.7)
    assert h_value(GL3, STD3, fwd, c, 3.0, 1.0) == h_value(GL3, STD3, rev, c, 3.0, 1.0)


def test_zeta_closed_vs_truncation():
    rng = random.Random(33)
    ls = l_series(GL2, STD2, 25)
    for _ in range(10):
        c = (rng.uniform(0.05, 0.45), rng.uniform(0.05, 0.45))
        s = rng.uniform(0.8, 2.0)
        res = eval_numeric(ls, c, 3.0, s, 25)
        closed = zeta_closed_form(GL2, STD2, identity_element(GL2), c, 3.0, s)
        assert abs(res.value - closed) / abs(closed) < 1e-9


def test_zeta_over_l_identity():
    zp = zeta_over_l(GL2, STD2, identity_element(GL2))
    assert is_constant_one(zp)


def test_zeta_over_l_single_cell():
    zp = zeta_over_l(GL2, STD2, cell(GL2, (1, 0)))
    assert zp.x_support() == [1]
    assert zp.terms[1] == {(1, 0): Laurent.one()}  # v * v^(-l) at l = 1


def test_zeta_over_l_grade_support():
    h = cell(GL2, (1, 1)) + cell(GL2, (0, 0), Laurent.term(5))
    zp = zeta_over_l(GL2, STD2, h)
    assert zp.x_support() == [0, 2]


def test_zeta_over_l_always_finite_random():
    rng = random.Random(44)
    pool = [v for v in itertools.product(range(-1, 3), repeat=2) if GL2.is_dominant(v)]
    for _ in range(20):
        h = identity_element(GL2).scale(0)
        h = GradedElement(GL2, CELLS, {})
        picks = rng.sample(pool, 3)
        acc = None
        for mu in picks:
            term = cell(GL2, mu, Laurent.term(rng.randint(-4, 4) or 1))
            acc = term if acc is None else acc + term
        zp = zeta_over_l(GL2, STD2, acc)
        assert len(zp.x_support()) <= 10  # finite by construction
        assert all(isinstance(xe, int) for xe in zp.x_support())


# -- compact factor solve (membership of the compact algebra)


def test_membership_witness_random():
    rng = random.Random(55)
    pool = [
        v for v in itertools.product(range(-1, 3), repeat=2)
        if GL2.is_dominant(v) and sigma_grade(GL2, v) >= 0
    ]
    for _ in range(5):
        picks = rng.sample(pool, 2)
        acc = None
        for mu in picks:
            term = cell(GL2, mu, Laurent.term(rng.randint(1, 3)))
            acc = term if acc is None else acc + term
        witness = membership_witness(GL2, STD2, acc)
        assert witness.window == Window()  # compactly supported, fully known


# (datum, rho, compactly supported test elements) for the convolve references
PRODUCT_CASES = [
    (GL2, STD2, [cell(GL2, (1, 0)) + cell(GL2, (1, 1), Laurent.term(2)),
                 cell(GL2, (0, -1), Laurent.term(3, v=1)) + identity_element(GL2)]),
    (GL3, STD3, [cell(GL3, (1, 1, 0)) + cell(GL3, (2, 0, 0), Laurent.term(-1, v=2))]),
    (build_preset("b2"), RepSpec((1, 0, 1)),
     [cell(build_preset("b2"), (1, 1, 0)) + identity_element(build_preset("b2"))]),
]


@pytest.mark.parametrize("rd, rho, elements", PRODUCT_CASES, ids=["gl2", "gl3", "b2"])
def test_products_match_cell_side_reference(rd, rho, elements):
    # fourier (both paths) and the witness's defining equation, against
    # products taken on the cell side by convolve
    n = 2
    l = l_constant(rd, rho)
    for h in elements:
        top = max(int(h.support_max()), 0)
        kern = specialize(gamma_kernel(rd, rho, n + top), Fraction(0))
        want = twist(convolve(kern, dual(h), Window(None, n)), 0, 2 * (l + 1))
        assert fourier(h, rho, n) == want
        shifted = specialize(basic_function(rd, rho, n + top), Fraction(2 + l, 2))
        want = twist(convolve(shifted, dual(h), Window(None, n)), 0, 2 * (l + 1))
        for depth in (n, n + top + 1):  # rebuilt, and long enough as passed
            assert fourier(SchwartzElement(basic_function(rd, rho, depth), h), rho, n) == want
        witness = membership_witness(rd, rho, h)
        top = int(h.support_max())
        basic = basic_function(rd, rho, top - int(witness.support_min()))
        left = convolve(specialize(basic, Fraction(-l, 2)), witness, Window(None, top))
        assert left == h.restrict(Window(None, top))


def test_membership_witness_identity():
    w = membership_witness(GL3, STD3, identity_element(GL3))
    # identity = basic(-l/2) * w must hold; w is the inverse-series element
    inv = inverse_satake(inverse_l_image(GL3, STD3, dualize=False, shift=(0, 2)))
    assert w == inv


def test_schwartz_element_requires_full_knowledge():
    basic = basic_function(GL2, STD2, 3)
    with pytest.raises(InvalidInput):
        SchwartzElement(basic, basic)


def test_rho_dim():
    assert weyl_dim(GL2, STD2.highest_weight) == 2
    assert weyl_dim(GL2, CUBIC.highest_weight) == 4
    assert weyl_dim(GL3, STD3.highest_weight) == 3


def test_fourier_requires_compact_support_for_direct_path():
    basic = basic_function(GL2, STD2, 3)
    with pytest.raises(InvalidInput):
        fourier(basic, STD2, 3)


def test_fourier_output_stays_in_space():
    # the transform of a compact-factor element is again one: dividing its
    # image by the series leaves a compactly supported element, and the
    # factorization reconstructs the transform on the whole window
    from sphecke.satake import satake_mul

    N = 6
    h = cell(GL2, (1, 0)) + cell(GL2, (1, 1), Laurent.term(2))
    basic = basic_function(GL2, STD2, N + 3)
    out = fourier(SchwartzElement(basic, h), STD2, N)
    l = 1
    peel = inverse_l_image(GL2, STD2, dualize=False, shift=(0, l))
    candidate = inverse_satake(satake_mul(satake(out), peel))
    # candidate must vanish well below the truncation edge
    top = int(candidate.support_max())
    assert top <= 2
    finite = GradedElement(GL2, CELLS, candidate.grades, Window())
    rebuilt = convolve(specialize(basic, Fraction(-l, 2)), finite, Window(None, N))
    assert rebuilt == out.restrict(Window(None, N))


def test_weight_cache_concurrent_reads():
    import threading

    from sphecke.characters import weight_multiplicities

    lams = [(k, 1, 0) for k in range(1, 7)]
    results = [None] * 8

    def work(slot):
        results[slot] = [sum(weight_multiplicities(GL3, lam).values()) for lam in lams]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    want = [sum(weight_multiplicities(GL3, lam).values()) for lam in lams]
    assert results == [want] * 8
