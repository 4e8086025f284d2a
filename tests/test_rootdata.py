import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    derived_fields_reference,
    dominance_leq,
    mat_mul,
    pair_rho_b,
    product_datum,
    random_unimodular,
    row_reduce,
    signed_orbit,
    solve_simple_coeffs,
    straighten,
    transform_datum,
    weyl_elements,
)
from sphecke import rootdata
from sphecke.characters import (
    _span_rank,
    dual_weight,
    require_valid,
    weight_multiplicities,
    weyl_dim,
)
from sphecke.errors import InvalidInput, LengthMismatchError, NonDominantError, WeylCapError
from sphecke.rootdata import (
    WEYL_CAP_DEFAULT,
    RepSpec,
    RootDatum,
    _orbit_walk,
    bareiss_solve,
    build_gl,
    build_preset,
    datum_from_json,
    datum_to_json,
    dominant_below,
    dynkin_labels,
    height2,
    identity_mat,
    l_constant,
    mat_apply,
    root_coeffs,
    sigma_grade,
    vscale,
    vsub,
    weyl_orbit,
)
from sphecke.kostka import kl_row, lusztig_q_analogue
from sphecke.satake import satake_basis_row
from test_coordinates import PRODUCTS

GL1 = build_gl(1)
GL2 = build_gl(2)
GL3 = build_gl(3)

PRESETS = ["gl1", "gl2", "gl3", "gl4", "b2", "b3", "b4", "c2", "c3", "c4", "d3", "d4", "g2"]


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


# a few dominant weights per preset, some with a nonzero central coordinate
BOX_ORACLE_WEIGHTS = {
    "gl1": [(3,), (-2,)],
    "gl2": [(2, 0), (3, -1), (1, 1)],
    "gl3": [(3, 1, 0), (2, 0, -2), (1, 1, -1)],
    "gl4": [(2, 1, 0, -1), (2, 0, 0, 0), (1, 1, -1, -1)],
    "b2": [(1, 0, 1), (2, 1, -1), (3, 0, 0)],
    "b3": [(1, 1, 0, 2), (2, 0, 0, -1)],
    "b4": [(1, 0, 0, 0, 1), (2, 1, 0, 0, -3)],
    "c2": [(1, 0, 1), (2, 2, 0), (3, 1, -2)],
    "c3": [(1, 0, 0, 1), (2, 1, 1, 0)],
    "c4": [(1, 1, 0, 0, 2), (2, 0, 0, 0, -1)],
    "d3": [(1, 1, -1, 0), (2, 1, 1, 1), (2, 0, 0, -3)],
    "d4": [(1, 1, 0, 0, 0), (2, 1, 1, -1, 2)],
    "g2": [(0, -1, 0), (-1, -2, 2), (-2, -4, -1)],
}


def test_dominant_below_box_oracle():
    # oracle: exhaustive search of the coordinate box of lam's Weyl orbit,
    # whose convex hull holds every mu <= lam
    for label, weights in BOX_ORACLE_WEIGHTS.items():
        rd = build_preset(label)
        for lam in weights:
            orbit = weyl_orbit(rd, lam)
            ranges = [range(min(c), max(c) + 1) for c in zip(*orbit)]
            grade = sigma_grade(rd, lam)
            box = [
                v
                for v in itertools.product(*ranges)
                if rd.is_dominant(v)
                and sigma_grade(rd, v) == grade
                and dominance_leq(rd, v, lam)
            ]
            assert dominant_below(rd, lam) == box[::-1], (label, lam)


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
        assert mat_mul(rd.w0, rd.w0) == identity_mat(rd.rank)
        # -w0 preserves dominance
        doms = [v for v in itertools.product(range(0, 2), repeat=rd.rank) if rd.is_dominant(v)]
        for v in doms:
            assert rd.is_dominant(dual_weight(rd, v))


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


def test_weyl_orbit_refuses_a_non_dominant_weight():
    # the walk takes only the steps that raise the depth from a dominant start
    with pytest.raises(NonDominantError):
        weyl_orbit(GL3, (0, 1, 0))


def _straighten_oracle(rd, v2):
    """Search the whole Weyl group for the w taking v2 strictly dominant."""
    hits = []
    for w, length in weyl_elements(rd):
        u = mat_apply(w, v2)
        if all(sum(a * b for a, b in zip(f, u)) > 0 for f in rd.simple_coroot_forms):
            lam = tuple((x - r) // 2 for x, r in zip(u, rd.rho_b_times2))
            hits.append(((-1) ** length, lam))
    assert len(hits) <= 1
    return hits[0] if hits else None


@pytest.mark.parametrize("label", [p for p in PRESETS if p != "gl1"])  # gl1: its own test
def test_straighten_weyl_group_oracle(label):
    rd = build_preset(label)
    rng = random.Random(f"straighten:{label}")
    walls = 0
    for _ in range(300):
        v = tuple(rng.randint(-6, 6) for _ in range(rd.rank))
        v2 = tuple(2 * x + r for x, r in zip(v, rd.rho_b_times2))
        got = straighten(rd, v2)
        assert got == _straighten_oracle(rd, v2), v
        walls += got is None
    assert 0 < walls < 300


def test_straighten_memo_keeps_data_apart():
    # GL3 and B2 both live in Z^3, so the same v2 reaches the memo under
    # both data; each answer must still be its own datum's
    b2 = build_preset("b2")
    rng = random.Random("straighten:gl3+b2")
    vectors = [tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(150)]
    for _ in range(2):
        for v2 in vectors:
            for rd in (GL3, b2):
                assert straighten(rd, v2) == _straighten_oracle(rd, v2), (rd.cartan, v2)


def test_straighten_gl1_oracle():
    # no simple roots, so no walls: every vector is already dominant
    rng = random.Random("straighten:gl1")
    for _ in range(50):
        x = rng.randint(-6, 6)
        assert straighten(GL1, (2 * x,)) == _straighten_oracle(GL1, (2 * x,)) == (1, (x,))


def test_straighten_examples():
    # GL2: 2(gamma + rho) for gamma = (0, 2) reflects to 2((1, 1) + rho), sign -1
    assert straighten(GL2, (1, 3)) == (-1, (1, 1))
    assert straighten(GL2, (2, 2)) is None
    assert straighten(GL3, (2, 0, -2)) == (1, (0, 0, 0))


def test_validate_rho_std_passes():
    for n in (1, 2, 3):
        rd = build_gl(n)
        assert require_valid(rd, RepSpec((1,) + (0,) * (n - 1))) is None


def test_validate_rho_sym2_fails_grade():
    with pytest.raises(InvalidInput, match=r"^representation invalid: weights with grade != 1"):
        require_valid(GL2, RepSpec((2, 0)))


def test_validate_rho_fails_span():
    # a grade-one character of B2: one weight, three torus directions
    with pytest.raises(InvalidInput) as info:
        require_valid(build_preset("b2"), RepSpec((0, 0, 1)))
    assert str(info.value) == "representation invalid: weights span only 1 of 3 torus directions"


def test_validate_rho_fails_span_on_a_custom_datum():
    # a rank-2 torus graded by its first coordinate: the character (1, 5)
    # has grade one, but its one weight spans one of two directions
    torus = RootDatum("T2", 2, [], [], (1, 0))
    with pytest.raises(InvalidInput) as info:
        require_valid(torus, RepSpec((1, 5)))
    assert str(info.value) == "representation invalid: weights span only 1 of 2 torus directions"


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@example((2, [[1, 2], [2, 4]]))  # dependent rows
@example((3, [[0, 0, 3], [0, 2, 1], [0, 4, 2]]))  # a zero column, dependent rows
@example((1, []))  # no vectors
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=6)
    )
))
def test_span_rank_matches_row_reduce(case):
    n, rows = case
    ref = [[Fraction(x) for x in row] for row in rows]
    assert _span_rank(rows) == len(row_reduce(ref, n))


def test_datum_json_roundtrip():
    for rd in (GL3, build_preset("c2"), build_preset("g2")):
        obj = datum_to_json(rd)
        back = datum_from_json(obj)
        assert back == rd


@pytest.mark.parametrize("label", PRESETS)
def test_datum_json_roundtrip_every_preset(label):
    # through JSON text, and with the coroot forms left to be derived
    rd = build_preset(label)
    text = json.dumps(datum_to_json(rd))
    assert datum_from_json(json.loads(text)) == rd
    assert datum_to_json(datum_from_json(json.loads(text))) == json.loads(text)
    if label != "g2":  # g2's forms are not 2 alpha / (alpha, alpha) in its coordinates
        bare = {k: v for k, v in json.loads(text).items() if k != "simple_coroot_forms"}
        assert datum_from_json(bare) == rd


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("rank", 2.9, "rank must be an integer, got 2.9"),
        ("rank", True, "rank must be an integer, got True"),
        ("sigma", [1, "1"], "sigma[1] must be an integer, got '1'"),
        ("sigma", [True, True], "sigma[0] must be an integer, got True"),
        ("sigma", [1.0, 1], "sigma[0] must be an integer, got 1.0"),
        ("sigma", "11", "sigma must be a list of integers, got '11'"),
        ("simple_roots", [[1.9, -1]], "simple_roots[0][0] must be an integer, got 1.9"),
        ("simple_coroot_forms", [[1, False]], "simple_coroot_forms[0][1] must be an integer, got False"),
        ("positive_roots", [[1, "-1"]], "positive_roots[0][1] must be an integer, got '-1'"),
        ("rho_b_times_2", [1, -1.0], "rho_b_times_2[1] must be an integer, got -1.0"),
        ("cartan", [1], "cartan must be a string, got [1]"),
    ],
)
def test_datum_json_refuses_mistyped_entries(key, value, message):
    with pytest.raises(InvalidInput) as info:
        datum_from_json({**datum_to_json(GL2), key: value})
    assert str(info.value) == f"malformed datum: {message}"


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




def _nonzero_dominant(rd):
    """The first fundamental direction, or its G2 analogue in root-basis coordinates."""
    return (0, -1, 0) if rd.cartan == "G2" else (1,) + (0,) * (rd.rank - 1)


@pytest.mark.parametrize("label", PRESETS)
def test_signed_orbit_matches_weyl_matrices(label):
    rd = build_preset(label)
    for lam in ((0,) * rd.rank, _nonzero_dominant(rd)):
        assert rd.is_dominant(lam)
        v = tuple(2 * x + r for x, r in zip(lam, rd.rho_b_times2))
        oracle = sorted((mat_apply(w, v), (-1) ** length) for w, length in weyl_elements(rd))
        orbit = signed_orbit(rd, v)
        assert orbit[0] == (v, 1, (0,) * len(rd.simple_roots))
        assert sorted((u, sign) for u, sign, _ in orbit) == oracle
        for u, _, coeffs in orbit:
            # the carried coefficients spell out u - v in the simple roots
            spelled = tuple(sum(c * a[i] for c, a in zip(coeffs, rd.simple_roots)) for i in range(rd.rank))
            assert spelled == vsub(u, v)


@pytest.mark.parametrize("label", PRESETS)
def test_root_coeffs_match_the_rational_solve(label):
    rd = build_preset(label)
    box = range(-1, 2) if rd.rank > 3 else range(-2, 3)
    for v in itertools.product(box, repeat=rd.rank):
        exact = solve_simple_coeffs(rd.simple_roots, v)
        if exact is None or any(c.denominator != 1 for c in exact):
            assert root_coeffs(rd, v) is None, v
        else:
            assert root_coeffs(rd, v) == tuple(int(c) for c in exact), v


@pytest.mark.parametrize("label", PRESETS)
def test_w0_is_the_longest_matrix(label):
    rd = build_preset(label)
    assert rd.w0 == weyl_elements(rd)[-1][0]


def test_signed_orbit_cap_and_regularity(monkeypatch):
    d4 = build_preset("d4")
    monkeypatch.setattr(rootdata, "WEYL_CAP_DEFAULT", 10)
    with pytest.raises(WeylCapError, match="cap 10"):
        _orbit_walk(d4, dynkin_labels(d4, d4.rho_b_times2), d4.rho_b_times2, d4.simple_roots)
    with pytest.raises(NonDominantError):
        signed_orbit(GL3, (1, 0, 0))  # on a wall


def test_large_weyl_group_loads_and_caps_at_the_first_orbit_walk():
    # |W(GL9)| = 9! > WEYL_CAP_DEFAULT: loading builds w0 from a reduced
    # word, so only a full orbit walk meets the cap
    gl9 = datum_from_json(datum_to_json(build_gl(9)))
    assert len(gl9.positive_roots) == 36
    assert gl9.w0 == tuple(tuple(int(i + j == 8) for j in range(9)) for i in range(9))
    with pytest.raises(WeylCapError, match=f"cap {WEYL_CAP_DEFAULT}"):
        signed_orbit(gl9, gl9.rho_b_times2)


def _det(a):
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@example([[0, 1, 2], [1, 0, 3]])  # needs a row swap
@example([[1, 2, 3], [2, 4, 6]])  # singular
@example([[2, 1, 0, 1], [1, 2, 1, 0], [3, 3, 1, 1]])  # singular, rank 2
@example([[2, -1, 1, 0], [-1, 2, 0, 1]])  # the A2 Cartan matrix with F = I
@given(st.tuples(st.integers(1, 4), st.integers(1, 3)).flatmap(
    lambda nm: st.lists(
        st.lists(st.integers(-3, 3), min_size=sum(nm), max_size=sum(nm)),
        min_size=nm[0], max_size=nm[0],
    )
))
def test_bareiss_solve_matches_row_reduce(rows):
    # [A | B] with one to three right-hand sides, as _coeff_map solves them
    n = len(rows)
    ref = [[Fraction(x) for x in row] for row in rows]
    rank = len(row_reduce(ref, n))
    got = bareiss_solve([list(row) for row in rows])
    if rank < n:
        assert got is None
        return
    nums, d = got
    assert d == abs(_det([row[:n] for row in rows]))
    assert [[Fraction(x, d) for x in row] for row in nums] == [row[n:] for row in ref]


def test_datum_derives_its_fields():
    # the five inputs of B2 give the preset, positive roots and w0 included
    b2 = RootDatum("B2", 3, [(1, -1, 0), (0, 1, 0)], [(1, -1, 0), (0, 2, 0)], (0, 0, 1))
    assert b2 == build_preset("b2")
    assert b2.positive_roots == ((1, 1, 0), (1, 0, 0), (1, -1, 0), (0, 1, 0))
    assert b2.rho_b_times2 == (3, 1, 0) and b2.pair2_form == (4, 2, 0)


@pytest.mark.parametrize(
    "simples, forms, sigma, error, match",
    [
        ([(1, 0)], [(2, 0), (0, 2)], (0, 1), InvalidInput, "must pair up"),
        ([(1, 0, 0)], [(2, 0)], (0, 0, 1), LengthMismatchError, "want 3"),
        ([(1, 0)], [(1, 0)], (0, 1), InvalidInput, "does not pair to 2"),
        ([(1, 0)], [(2, 0)], (1, 1), InvalidInput, "nonzero grade"),
        ([(1, 0), (-1, 0)], [(2, 0), (-2, 0)], (0, 1), InvalidInput, "height form"),
        # Cartan matrix [[2, 1], [1, 2]]: alpha_1 - alpha_2 is a root, neither
        # positive nor negative, and w0's reduced word never reaches -rho2
        ([(1, 0, 0), (0, 1, 0)], [(2, 1, 0), (1, 2, 0)], (0, 0, 1), InvalidInput,
         "not regular"),
        # affine A1: the closure never ends, so it stops at the cap
        ([(1, 0, 0), (0, 1, 0)], [(2, -2, 0), (-2, 2, 0)], (0, 0, 1), WeylCapError,
         f"root system exceeds cap {WEYL_CAP_DEFAULT}"),
        # Cartan matrix [[2, -1], [0, 2]]: the walk finds alpha_1, alpha_2 and
        # their sum, and s_2 sends the sum to alpha_1 - alpha_2, so no finite
        # root system; the whole closure never ends
        ([(1, -1, 0), (0, 1, -1)], [(1, -1, 0), (1, 1, -1)], (1, 1, 1), InvalidInput,
         "the simple reflections do not permute the positive roots"),
        # one simple root given twice: dependent simple roots
        ([(1, 0), (1, 0)], [(2, 0), (2, 0)], (0, 1), InvalidInput,
         "the simple reflections do not permute the positive roots"),
    ],
    ids=["pair-up", "length", "pairing", "sigma", "height", "not-regular", "affine",
         "not-permuted", "repeated"],
)
def test_datum_refuses_inconsistent_inputs(simples, forms, sigma, error, match):
    with pytest.raises(error, match=match):
        RootDatum("X", len(sigma), simples, forms, sigma)


def _derived_cases():
    """The data the derivation is checked on: the 13 presets, two copies
    of each in the coordinates of a seeded unimodular U with the simple
    roots shuffled, and GL9, past the Weyl cap."""
    cases = [pytest.param(build_preset(label), id=label) for label in PRESETS]
    for label in PRESETS:
        rd = build_preset(label)
        for seed in (1, 2):
            rng = random.Random(f"derived-{label}-{seed}")
            perm = list(range(len(rd.simple_roots)))
            while len(perm) > 1 and perm == sorted(perm):
                rng.shuffle(perm)
            U = random_unimodular(rng, rd.rank)
            cases.append(pytest.param(transform_datum(rd, U, perm), id=f"{label}-U{seed}"))
    return cases + [pytest.param(build_gl(9), id="gl9")]


def _derived_mismatch(rd):
    """The first field the constructor derives differently from the
    reference closure and reduced word, or None."""
    for name, want in derived_fields_reference(rd).items():
        if getattr(rd, name) != want:
            return name
    return None


@pytest.mark.parametrize("rd", _derived_cases())
def test_derived_fields_match_the_whole_closure(rd):
    # positive roots (in order), coroot forms, simple-root coefficients,
    # rho_b_times2, pair2_form and w0 against the whole root system
    assert _derived_mismatch(rd) is None


def test_derived_fields_catch_a_walk_that_skips_a_reflection(monkeypatch):
    # the upward walk with s_1 never tried: the constructor refuses every
    # preset with two or more simple roots, or derives a field the
    # reference does not
    def skip_first(pairs, start=0):
        walked = enumerate(pairs, start)
        return ((i, x) for i, x in walked if i != start) if type(pairs) is zip else walked

    monkeypatch.setattr(rootdata, "enumerate", skip_first, raising=False)
    for label in PRESETS[2:]:
        try:
            assert _derived_mismatch(build_preset(label)) is not None, label
        except InvalidInput:
            pass


@pytest.mark.parametrize("rd", _derived_cases() + [
    pytest.param(product_datum(rd1, rd2), id=name)
    for name, ((rd1, _), (rd2, _)) in sorted(PRODUCTS.items())
])
def test_every_label_of_rho_is_one(rd):
    # <rho, alpha_i^vee> = <rho^vee, alpha_i> = 1 for each simple root
    # (Humphreys, *Introduction to Lie Algebras and Representation
    # Theory*, 10.2): the label walks shift every label by one for rho and
    # read height2 of lam - mu as twice its coefficient sum
    k = len(rd.simple_roots)
    assert dynkin_labels(rd, rd.rho_b_times2) == (2,) * k
    assert [height2(rd, alpha) for alpha in rd.simple_roots] == [2] * k


# each entry point that takes one dominant weight, by a call on it
ONE_WEIGHT = {
    "kl_row": kl_row,
    "satake_basis_row": satake_basis_row,
    "weight_multiplicities": weight_multiplicities,
    "weyl_dim": weyl_dim,
    "dual_weight": dual_weight,
    "dominant_below": dominant_below,
    "weyl_orbit": weyl_orbit,
    "lusztig_q_analogue lam": lambda rd, v: lusztig_q_analogue(rd, v, (0, 0, 0)),
    "lusztig_q_analogue mu": lambda rd, v: lusztig_q_analogue(rd, (1, 0, 0), v),
}


def _refusal(call):
    with pytest.raises(InvalidInput) as caught:
        call()
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize("name", sorted(ONE_WEIGHT))
def test_entry_points_refuse_a_weight_by_length_then_dominance(name):
    # b2: the labels of (a, b, c) are a - b and 2b.  A short vector is
    # refused for its length, even where its labels would be negative, and
    # a vector of the right length for a negative label
    b2, call = build_preset("b2"), ONE_WEIGHT[name]
    short, negative = (0, 1), (0, 1, 0)
    assert _refusal(lambda: call(b2, short)) == (LengthMismatchError, "(0, 1) has length 2, want 3")
    assert _refusal(lambda: call(b2, negative)) == (NonDominantError, "(0, 1, 0) is not dominant")


def test_lusztig_q_analogue_checks_lam_before_mu():
    b2 = build_preset("b2")
    for lam, mu, want in [
        ((0, 1, 0), (0, 1), (NonDominantError, "(0, 1, 0) is not dominant")),
        ((0, 1), (0, 1, 0), (LengthMismatchError, "(0, 1) has length 2, want 3")),
        ((1, 0, 0), (0, 1, 0, 0), (LengthMismatchError, "(0, 1, 0, 0) has length 4, want 3")),
        ((1, 0, 0), (0, -1, 0), (NonDominantError, "(0, -1, 0) is not dominant")),
    ]:
        assert _refusal(lambda: lusztig_q_analogue(b2, lam, mu)) == want, (lam, mu)
