import itertools
import random
from fractions import Fraction

import pytest

from sphecke.errors import InvalidInput, LengthMismatchError, NonDominantError
from sphecke.rootdata import (
    RepSpec,
    build_gl,
    build_preset,
    datum_from_json,
    datum_to_json,
    dominance_leq,
    dominant_below,
    dual_weight_vec,
    l_constant,
    mat_apply,
    pair_rho_b,
    sigma_grade,
    validate_rho,
    vscale,
    vsub,
    weyl_elements,
    weyl_orbit,
)

GL1 = build_gl(1)
GL2 = build_gl(2)
GL3 = build_gl(3)


def test_build_gl2():
    assert GL2.rho_b_times2 == (1, -1)
    assert pair_rho_b(GL2, (1, 0)) == Fraction(1, 2)


def test_build_gl3_positive_roots():
    assert set(GL3.positive_roots) == {(1, -1, 0), (1, 0, -1), (0, 1, -1)}


def test_build_gl1_torus():
    assert GL1.positive_roots == ()
    assert GL1.rho_b_times2 == (0,)


def test_pair_rho_b_examples():
    assert pair_rho_b(GL2, (1, 0)) == Fraction(1, 2)
    assert pair_rho_b(GL2, (1, 1)) == 0
    assert pair_rho_b(GL3, (1, 0, 0)) == 1


def test_pair_rho_b_length_check():
    with pytest.raises(LengthMismatchError):
        pair_rho_b(GL2, (1, 0, 0))


def test_l_constant_gln_standard():
    for n in range(1, 5):
        rd = build_gl(n)
        std = RepSpec((1,) + (0,) * (n - 1))
        assert l_constant(rd, std) == n - 1


def test_l_constant_gl2_twice():
    assert l_constant(GL2, RepSpec((2, 0))) == 2


def test_l_constant_rejects_non_dominant():
    with pytest.raises(NonDominantError):
        l_constant(GL2, RepSpec((0, 2)))


def test_sigma_grade_examples():
    assert sigma_grade(GL3, (2, 1, 0)) == 3
    assert sigma_grade(GL2, (1, -1)) == 0
    assert sigma_grade(GL2, (-1, -1)) == -2


def test_dominance_examples():
    assert dominance_leq(GL2, (1, 1), (2, 0))
    assert not dominance_leq(GL2, (2, 0), (1, 1))
    assert dominance_leq(GL3, (1, 1, 1), (3, 0, 0))


def test_dominance_oracle_brute_force():
    # oracle: search coefficients of the simple roots directly
    def brute(rd, mu, lam, cap=8):
        k = len(rd.simple_roots)
        for coeffs in itertools.product(range(cap), repeat=k):
            v = lam
            for c, a in zip(coeffs, rd.simple_roots):
                v = vsub(v, vscale(c, a))
            if v == mu:
                return True
        return False

    doms = [v for v in itertools.product(range(-1, 3), repeat=3) if GL3.is_dominant(v)]
    rng = random.Random(11)
    for _ in range(40):
        mu, lam = rng.choice(doms), rng.choice(doms)
        if sigma_grade(GL3, mu) != sigma_grade(GL3, lam):
            continue
        assert dominance_leq(GL3, mu, lam) == brute(GL3, mu, lam)


def test_dominance_rejects_non_dominant():
    with pytest.raises(NonDominantError):
        dominance_leq(GL2, (0, 1), (2, 0))


def test_dominant_below_examples():
    assert dominant_below(GL2, (2, 0)) == [(2, 0), (1, 1)]
    assert dominant_below(GL2, (1, 0)) == [(1, 0)]
    assert dominant_below(GL3, (2, 1, 0)) == [(2, 1, 0), (1, 1, 1)]


def test_dominant_below_box_oracle():
    # oracle: exhaustive box search over coordinates
    lam = (3, 1, 0)
    box = [
        v
        for v in itertools.product(range(-2, 4), repeat=3)
        if GL3.is_dominant(v) and sigma_grade(GL3, v) == 4 and dominance_leq(GL3, v, lam)
    ]
    assert sorted(dominant_below(GL3, lam)) == sorted(box)


def test_dominant_below_downward_closed():
    for lam in [(3, 0, 0), (2, 2, 0), (4, 1, 1)]:
        below = dominant_below(GL3, lam)
        for mu in below:
            for nu in dominant_below(GL3, mu):
                assert nu in below


def test_dominant_below_grade_constant():
    for mu in dominant_below(GL3, (4, 2, 0)):
        assert sigma_grade(GL3, mu) == 6


def test_weyl_group_sizes():
    assert len(weyl_elements(GL2)) == 2
    assert {l for _, l in weyl_elements(GL2)} == {0, 1}
    elems = weyl_elements(GL3)
    assert len(elems) == 6
    assert max(l for _, l in elems) == 3


def test_weyl_c2_preset():
    c2 = build_preset("c2")
    assert len(weyl_elements(c2)) == 8


def test_weyl_closed_under_composition():
    from sphecke.rootdata import mat_mul

    elems = [w for w, _ in weyl_elements(GL3)]
    for a in elems:
        for b in elems:
            assert mat_mul(a, b) in elems


def test_sigma_invariant_under_weyl():
    for rd in (GL2, GL3, build_preset("c2"), build_preset("g2")):
        probe = tuple(range(1, rd.rank + 1))
        for w, _ in weyl_elements(rd):
            assert sigma_grade(rd, mat_apply(w, probe)) == sigma_grade(rd, probe)


def test_sigma_vanishes_on_roots():
    for rd in (GL2, GL3, build_preset("b3"), build_preset("g2")):
        for alpha in rd.positive_roots:
            assert sigma_grade(rd, alpha) == 0


def test_w0_involution_and_dominance():
    for rd in (GL2, GL3, build_preset("c2"), build_preset("g2")):
        from sphecke.rootdata import identity_mat, mat_mul

        assert mat_mul(rd.w0, rd.w0) == identity_mat(rd.rank)
        # -w0 preserves dominance
        doms = [v for v in itertools.product(range(0, 2), repeat=rd.rank) if rd.is_dominant(v)]
        for v in doms:
            assert rd.is_dominant(dual_weight_vec(rd, v))


def test_dominance_partial_order():
    below = dominant_below(GL3, (4, 2, 0))
    for mu in below:
        assert dominance_leq(GL3, mu, mu)
    for a in below:
        for b in below:
            if dominance_leq(GL3, a, b) and dominance_leq(GL3, b, a):
                assert a == b
            for c in below:
                if dominance_leq(GL3, a, b) and dominance_leq(GL3, b, c):
                    assert dominance_leq(GL3, a, c)


def test_weyl_orbit_gl3():
    assert weyl_orbit(GL3, (1, 0, 0)) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_validate_rho_std_passes():
    for n in (1, 2, 3):
        rd = build_gl(n)
        assert validate_rho(rd, RepSpec((1,) + (0,) * (n - 1))).passed


def test_validate_rho_sym2_fails_grade():
    report = validate_rho(GL2, RepSpec((2, 0)))
    assert not report.passed
    assert any("grade" in f for f in report.failures)


def test_validate_rho_fails_span():
    # a grade-one character of B2: one weight, three torus directions
    report = validate_rho(build_preset("b2"), RepSpec((0, 0, 1)))
    assert not report.passed
    assert report.failures == ["weights span only 1 of 3 torus directions"]


def test_validate_rho_notes_torus_proxy():
    report = validate_rho(GL1, RepSpec((1,)))
    assert report.passed
    assert any("torus-level" in n for n in report.notes)


def test_datum_json_roundtrip():
    for rd in (GL3, build_preset("c2"), build_preset("g2")):
        obj = datum_to_json(rd)
        back = datum_from_json(obj)
        assert back == rd


def test_datum_json_rejects_bad_positive_roots():
    obj = datum_to_json(GL2)
    obj["positive_roots"] = [[1, 1]]
    with pytest.raises(InvalidInput):
        datum_from_json(obj)


def test_preset_requires_known_label():
    with pytest.raises(InvalidInput):
        build_preset("e8")


def test_weyl_cap_enforced():
    import pytest as _pytest

    from sphecke.errors import WeylCapError

    d4 = build_preset("d4")
    with _pytest.raises(WeylCapError):
        weyl_elements(d4, cap=10)
