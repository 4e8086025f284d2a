import functools
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import element_from_json, element_to_json
import sphecke.characters
import sphecke.satake
from sphecke.errors import WindowError
from sphecke.lseries import h_value
from sphecke.laurent import Laurent
from sphecke.rootdata import (
    RepSpec,
    build_gl,
    build_preset,
    dominant_below,
    height2,
    sigma_grade,
    signed_orbit,
    weyl_orbit,
)
from sphecke.satake import (
    CELLS,
    CHARS,
    GradedElement,
    Window,
    cell,
    conv_window,
    convolve,
    dual,
    eval_numeric,
    identity_element,
    inverse_satake,
    kl_row,
    satake,
    satake_basis_row,
    satake_mul,
    specialize,
    twist,
)
from sphecke.serialize import element_from_obj, element_to_obj

GL1 = build_gl(1)
GL2 = build_gl(2)
GL3 = build_gl(3)


def L(spec):
    return Laurent(spec)


def rand_element(rd, rng, max_grade=3, basis=CELLS):
    grades = {}
    for k in range(0, max_grade + 1):
        terms = {}
        pool = [v for v in itertools.product(range(-1, 3), repeat=rd.rank)
                if rd.is_dominant(v) and sigma_grade(rd, v) == k]
        for mu in rng.sample(pool, min(2, len(pool))):
            c = rng.randint(-3, 3)
            if c:
                terms[mu] = Laurent.term(c, v=rng.randint(-1, 1), x=rng.randint(0, 1))
        if terms:
            grades[k] = terms
    return GradedElement(rd, basis, grades)


# -- transform basis


def test_satake_basis_gl2_examples():
    assert dict(satake_basis_row(GL2, (1, 0))) == {(1, 0): L({(1, 0): 1})}
    assert dict(satake_basis_row(GL2, (1, 1))) == {(1, 1): Laurent.one()}
    assert dict(satake_basis_row(GL2, (2, 0))) == {
        (2, 0): L({(2, 0): 1}),
        (1, 1): L({(0, 0): -1}),
    }


def test_satake_basis_element_shape():
    e = satake(cell(GL2, (2, 0)))
    assert e.basis == CHARS
    assert set(e.grades) == {2}


# small tops on every preset, regular and singular; GL(2) (2,-1) and
# (4,-2) are the cubic module and its square's grade
TOPS = [
    ("gl1", (3,)),
    ("gl2", (3, 0)), ("gl2", (2, 2)), ("gl2", (4, 1)), ("gl2", (2, -1)), ("gl2", (4, -2)),
    ("gl3", (3, 1, 0)), ("gl3", (1, 1, 0)), ("gl4", (2, 1, 1, 0)), ("gl4", (2, 2, 0, 0)),
    ("b2", (1, 0, 1)), ("b2", (2, 1, 0)), ("b3", (1, 1, 0, 0)), ("b4", (1, 1, 0, 0, 0)),
    ("c2", (1, 0, 1)), ("c2", (1, 1, 0)), ("c3", (1, 1, 0, 0)), ("c4", (1, 1, 0, 0, 0)),
    ("d3", (1, 1, 0, 0)), ("d4", (1, 1, 0, 0, 0)),
    ("g2", (0, -1, 1)), ("g2", (0, -2, 2)),
]


def test_unitriangular_inversion():
    # the Kostka-Foulkes rows (kl_row) times the Macdonald rows
    # (satake_basis_row) give the identity on each block; the two share
    # no code
    for label, lam in TOPS:
        rd = build_preset(label)
        for a in dominant_below(rd, lam):
            acc = {}
            for nu, coeff in kl_row(rd, a):
                for b, w in satake_basis_row(rd, nu):
                    acc[b] = acc.get(b, Laurent.zero()) + coeff * w
            assert {b: v for b, v in acc.items() if v} == {a: Laurent.one()}, (label, a)


def _add_alternant(acc, rd, v2, c):
    """acc += c * sum_w sign(w) e^(w v2), for a regular dominant v2."""
    for u, sign, _ in signed_orbit(rd, v2):
        acc[u] = acc.get(u, 0) + sign * c


@pytest.mark.parametrize("label, lam", TOPS, ids=[f"{g}-{','.join(map(str, v))}" for g, v in TOPS])
def test_satake_basis_row_oracles(label, lam):
    # at v = 1 the row is the orbit sum m_mu, checked through Weyl's
    # numerators in doubled coordinates: sum_lam c_lam(1) A(2 lam + 2 rho)
    # = m_mu A(2 rho); its v^height2(mu) coefficient is delta (P_mu at
    # t = 0 is chi_mu), and no power of v is higher
    rd = build_preset(label)
    rho2 = rd.rho_b_times2
    for mu in dominant_below(rd, lam):
        row = satake_basis_row(rd, mu)
        lhs, rhs = {}, {}
        for b, c in row:
            _add_alternant(lhs, rd, tuple(2 * x + r for x, r in zip(b, rho2)), sum(c.terms.values()))
        for nu in weyl_orbit(rd, mu):
            for u, sign, _ in signed_orbit(rd, rho2):
                key = tuple(2 * x + y for x, y in zip(nu, u))
                rhs[key] = rhs.get(key, 0) + sign
        assert {u: c for u, c in lhs.items() if c} == {u: c for u, c in rhs.items() if c}, (label, mu)
        top = height2(rd, mu)
        for b, c in row:
            assert max(a for a, _ in c.terms) <= top
            assert c.terms.get((top, 0), 0) == (1 if b == mu else 0), (label, mu, b)


def test_satake_basis_row_reads_no_kostka_row(monkeypatch):
    # the inversion test above is independent only while this holds
    def refuse(*args):
        raise AssertionError("satake_basis_row read a Kostka-Foulkes row")

    monkeypatch.setattr(sphecke.satake, "kl_row", refuse)
    monkeypatch.setattr(sphecke.characters, "kl_row", refuse)
    satake_basis_row.cache_clear()
    rd = build_preset("b2")
    for mu in dominant_below(rd, (2, 1, 0)):
        assert satake_basis_row(rd, mu)


def test_package_does_not_shadow_the_satake_module():
    import sphecke
    import sphecke.satake as m

    assert m.kl_row is sphecke.kostka.kl_row
    assert m.satake is satake


def test_satake_identity():
    st = satake(identity_element(GL3))
    assert st.grades == {0: {(0, 0, 0): Laurent.one()}}


def test_transform_order_after_cancellation():
    # (2, 0, 0) cancels after the second cell and returns with the last
    # one; built in the reverse order, the transform stores its terms in
    # another order, but h_value sums in sorted order, bit for bit alike
    terms = {
        (3, 1, -2): L({(2, 0): 1}),
        (3, 0, -1): L({(2, 0): 1}),
        (2, 2, -2): L({(4, 0): -1}),
        (2, 0, 0): L({(0, 0): -1}),
    }
    f = GradedElement(GL3, CELLS, {2: terms})
    g = GradedElement(GL3, CELLS, {2: dict(reversed(list(terms.items())))})
    assert list(satake(f).grades[2]) != list(satake(g).grades[2])
    assert satake(f) == satake(g)
    std = RepSpec((1, 0, 0))
    c = (0.31, 0.17, 0.9)
    assert h_value(GL3, std, f, c, 3.0, 1.0) == h_value(GL3, std, g, c, 3.0, 1.0)


def test_inverse_satake_example():
    img = GradedElement(GL2, CHARS, {1: {(1, 0): Laurent.one()}})
    back = inverse_satake(img)
    assert back.grades == {1: {(1, 0): L({(-1, 0): 1})}}


def test_round_trip_random():
    for label in ("gl3", "b2", "c2", "g2"):
        rd = build_preset(label)
        rng = random.Random(5)
        for _ in range(10):
            f = rand_element(rd, rng)
            assert inverse_satake(satake(f)) == f, label
            phi = rand_element(rd, rng, basis=CHARS)
            assert satake(inverse_satake(phi)) == phi, label


# -- convolution


def test_convolve_gl2_square():
    a = cell(GL2, (1, 0))
    prod = convolve(a, a)
    assert prod.grades == {
        2: {(2, 0): Laurent.one(), (1, 1): L({(2, 0): 1, (0, 0): 1})}
    }


def test_convolve_central_translation():
    prod = convolve(cell(GL2, (1, 1)), cell(GL2, (1, 0)))
    assert prod.grades == {3: {(2, 1): Laurent.one()}}


def test_convolve_identity():
    rng = random.Random(9)
    f = rand_element(GL2, rng)
    assert convolve(identity_element(GL2), f) == f


def _pval(x, p):
    if x == 0:
        return 99
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def lattice_chain_oracle(p):
    """Chains L > L' > L'' of colength-one steps in Z^2, bucketed by the
    elementary-divisor type of L/L'', via explicit Hermite enumeration."""
    # columns generate: [[1,0],[j,p]] has columns (1,j),(0,p)
    hermites = [((1, 0), (j, p)) for j in range(p)] + [((p, 0), (0, 1))]

    def elementary_type(mat):
        (a, b), (c, d) = mat
        g = min(_pval(x, p) for x in (a, b, c, d))
        return (_pval(a * d - b * c, p) - g, g)

    def mat_mul2(m1, m2):
        (a, b), (c, d) = m1
        (e, f), (g, h) = m2
        return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))

    counts = {}
    lattices = {}
    for m1 in hermites:
        for m2 in hermites:
            prod = mat_mul2(m1, m2)
            t = elementary_type(prod)
            counts[t] = counts.get(t, 0) + 1
            # normalize the lattice to its Hermite form to count distinct ones
            lattices.setdefault(t, set()).add(_hermite2(prod, p))
    return counts, {t: len(s) for t, s in lattices.items()}


def _hermite2(mat, p):
    """Canonical triangular basis of the column lattice of a 2x2 matrix."""
    (a, b), (c, d) = mat
    cols = [(a, c), (b, d)]
    while cols[1][0] != 0:
        if abs(cols[0][0]) > abs(cols[1][0]) or cols[0][0] == 0:
            cols[0], cols[1] = cols[1], cols[0]
        q = cols[1][0] // cols[0][0]
        cols[1] = (cols[1][0] - q * cols[0][0], cols[1][1] - q * cols[0][1])
    if cols[0][0] < 0:
        cols[0] = (-cols[0][0], -cols[0][1])
    a0, y = cols[0]
    x = abs(cols[1][1])
    return (a0, y % x, x)


def test_convolve_matches_lattice_count_at_5():
    # chains through a fixed composite lattice = convolution coefficient
    p = 5
    chains, lattice_counts = lattice_chain_oracle(p)
    per_cyclic = chains[(2, 0)] // lattice_counts[(2, 0)]
    per_homothety = chains[(1, 1)] // lattice_counts[(1, 1)]
    assert lattice_counts[(1, 1)] == 1
    assert per_homothety == p + 1
    prod = convolve(cell(GL2, (1, 0)), cell(GL2, (1, 0)))
    # evaluate the symbolic coefficients at q = 5 (v^2 = q)
    assert prod.coefficient(2, (1, 1)).eval_complex(float(p), 0) == pytest.approx(per_homothety)
    assert prod.coefficient(2, (2, 0)).eval_complex(float(p), 0) == pytest.approx(per_cyclic)
    assert prod.coefficient(2, (2, 0)) == Laurent.one()


def test_homomorphism_random():
    for label in ("gl2", "b2", "c2", "g2"):
        rd = build_preset(label)
        rng = random.Random(3)
        for _ in range(6):
            a = rand_element(rd, rng, 2)
            b = rand_element(rd, rng, 2)
            assert satake(convolve(a, b)) == satake_mul(satake(a), satake(b)), label


def test_commutative_associative():
    rng = random.Random(4)
    a = rand_element(GL3, rng, 2)
    b = rand_element(GL3, rng, 2)
    c = rand_element(GL3, rng, 1)
    assert convolve(a, b) == convolve(b, a)
    assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))


RING_POOLS = {
    "b2": [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 0, 1), (2, 0, 1), (2, 1, -1), (0, 0, -1)],
    "g2": [(0, 0, 0), (0, -1, 0), (0, -1, 1), (-1, -2, 0), (0, -2, 1), (-1, -3, -1)],
}


def _chars_element(rd, terms):
    grades = {}
    for lam, c, v, x in terms:
        g = grades.setdefault(sigma_grade(rd, lam), {})
        g[lam] = g.get(lam, Laurent.zero()) + Laurent.term(c, v=v, x=x)
    return GradedElement(rd, CHARS, grades)


@pytest.mark.parametrize("label", sorted(RING_POOLS))
@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_satake_mul_ring_laws(label, data):
    rd = build_preset(label)
    pool = RING_POOLS[label]
    assert all(rd.is_dominant(lam) for lam in pool)
    term = st.tuples(
        st.sampled_from(pool), st.integers(-3, 3), st.integers(-2, 2), st.integers(-1, 1)
    )
    a, b, c = (
        _chars_element(rd, data.draw(st.lists(term, max_size=3), label=name)) for name in "abc"
    )
    one = satake(identity_element(rd))
    assert satake_mul(a, one) == a == satake_mul(one, a)
    assert satake_mul(a, b) == satake_mul(b, a)
    assert satake_mul(satake_mul(a, b), c) == satake_mul(a, satake_mul(b, c))


# -- dual, twist, specialize


def test_dual_examples():
    assert dual(cell(GL2, (1, 0))).grades == {-1: {(0, -1): Laurent.one()}}
    assert dual(cell(GL3, (2, 1, 0))).grades == {-3: {(0, -1, -2): Laurent.one()}}


def test_dual_involution():
    rng = random.Random(8)
    f = rand_element(GL3, rng)
    assert dual(dual(f)) == f


def test_dual_on_transform_side():
    rng = random.Random(2)
    f = rand_element(GL2, rng, 2)
    lhs = satake(dual(f))
    rhs = dual(satake(f))
    assert lhs == rhs


def test_twist_compose_and_cancel():
    rng = random.Random(6)
    f = rand_element(GL2, rng, 2)
    assert twist(twist(f, 1, 0), -1, 0) == f
    assert twist(twist(f, 1, 2), 2, 1) == twist(f, 3, 3)


PROPERTY_PRESETS = ["gl2", "gl3", "b2", "c2", "g2"]
LAWS = settings(max_examples=30, deadline=None, database=None, derandomize=True)


@functools.cache
def _small_dominant(label):
    rd = build_preset(label)
    return rd, [v for v in itertools.product(range(-2, 3), repeat=rd.rank) if rd.is_dominant(v)]


@st.composite
def _elements(draw, label):
    """A cell- or character-side element on a small dominant support, with
    a window that may be bounded on either side."""
    rd, pool = _small_dominant(label)
    window = Window(*draw(st.tuples(*[st.none() | st.integers(-3, 3)] * 2)))
    term = st.tuples(
        st.sampled_from(pool), st.integers(-3, 3), st.integers(-2, 2), st.integers(-1, 1)
    )
    grades = {}
    for mu, c, v, x in draw(st.lists(term, max_size=4)):
        if window.knows(sigma_grade(rd, mu)):
            g = grades.setdefault(sigma_grade(rd, mu), {})
            g[mu] = g.get(mu, Laurent.zero()) + Laurent.term(c, v=v, x=x)
    return GradedElement(rd, draw(st.sampled_from([CELLS, CHARS])), grades, window)


@pytest.mark.parametrize("label", PROPERTY_PRESETS)
@LAWS
@given(data=st.data())
def test_dual_is_an_involution(label, data):
    f = data.draw(_elements(label))
    assert dual(dual(f)) == f


@pytest.mark.parametrize("label", PROPERTY_PRESETS)
@LAWS
@given(data=st.data())
def test_twists_compose(label, data):
    f = data.draw(_elements(label))
    a, b, c, d = data.draw(st.tuples(*[st.integers(-3, 3)] * 4))
    assert twist(twist(f, a, b), c, d) == twist(f, a + c, b + d)


@pytest.mark.parametrize("label", PROPERTY_PRESETS)
@LAWS
@given(data=st.data())
def test_element_json_round_trip(label, data):
    f = data.draw(_elements(label))
    assert element_from_obj(f.rd, element_to_obj(f)) == f


def test_twist_single_cell():
    t = twist(cell(GL2, (1, 0)), 1, 0)
    assert t.grades == {1: {(1, 0): L({(0, 1): 1})}}


def test_twist_is_sigma_power_numerically():
    # grade-k coefficients pick up X^(a k) v^(b k): evaluating at (q, s)
    # matches multiplying grade k by q^(-k(a s - b/2))
    rng = random.Random(12)
    f = rand_element(GL2, rng, 3, basis=CHARS)
    q, s = 2.0, 0.75
    a, b = 1, -2
    tw = twist(f, a, b)
    for k, terms in f.grades.items():
        factor = q ** (-k * (a * s - b / 2.0))
        for lam, coeff in terms.items():
            got = tw.grades[k][lam].eval_complex(q, s)
            assert got == pytest.approx(coeff.eval_complex(q, s) * factor)


def test_specialize_tate_convention():
    # X folds to v^(-2s): at s=-1/2, X^k becomes v^k
    f = GradedElement(GL1, CELLS, {2: {(2,): Laurent.term(1, x=2)}})
    sp = specialize(f, Fraction(-1, 2))
    assert sp.grades == {2: {(2,): Laurent.term(1, v=2)}}


# -- windows


def test_window_knows():
    w = Window(None, 4)
    assert w.knows(-100) and w.knows(4) and not w.knows(5)


def test_conv_window_truncated_times_finite():
    a = GradedElement(GL1, CELLS, {0: {(0,): Laurent.one()}}, Window(None, 3))
    b = cell(GL1, (1,))
    assert conv_window(a, b) == Window(None, 4)


def test_conv_window_insufficient():
    a = GradedElement(GL1, CELLS, {0: {(0,): Laurent.one()}}, Window(None, 3))
    bad = dual(a)
    with pytest.raises(WindowError):
        convolve(a, bad)


def test_convolve_refuses_unknown_grades():
    a = GradedElement(GL1, CELLS, {0: {(0,): Laurent.one()}}, Window(None, 2))
    b = cell(GL1, (1,))
    with pytest.raises(WindowError):
        convolve(a, b, Window(None, 4))


def test_restrict_and_coefficient_window():
    a = GradedElement(GL1, CELLS, {k: {(k,): Laurent.one()} for k in range(4)}, Window(None, 3))
    r = a.restrict(Window(0, 2))
    assert set(r.grades) == {0, 1, 2}
    with pytest.raises(WindowError):
        r.coefficient(3, (3,))


# -- numeric evaluation


def test_eval_geometric():
    grades = {k: {(k,): Laurent.term(1, x=k)} for k in range(31)}
    phi = GradedElement(GL1, CHARS, grades, Window(None, 30))
    res = eval_numeric(phi, (0.5,), 2.0, 0.0, 30)
    assert abs(res.value - 2.0) < 1e-8
    assert res.converged
    assert res.tail_bound < 1e-8


def test_eval_constant():
    phi = satake(identity_element(GL2))
    res = eval_numeric(phi, (0.3 + 0.2j, 0.4), 3.0, 1.0 + 1.0j, 0)
    assert res.value == pytest.approx(1.0)


def test_eval_gl2_matches_product():
    from sphecke.lseries import l_series

    ls = l_series(GL2, RepSpec((1, 0)), 20)
    c = (0.3, 0.2)
    res = eval_numeric(ls, c, 3.0, 1.0, 20)
    want = 1.0
    for ci in c:
        want *= 1 / (1 - ci / 3.0)
    assert abs(res.value - want) < 1e-10


def test_eval_divergence_flag():
    grades = {k: {(k,): Laurent.term(1, x=k)} for k in range(11)}
    phi = GradedElement(GL1, CHARS, grades, Window(None, 10))
    res = eval_numeric(phi, (3.0,), 2.0, 0.0, 10)  # ratio 1.5 > 1
    assert not res.converged


# -- serialization


def test_element_json_roundtrip_bit_exact():
    rng = random.Random(13)
    f = rand_element(GL3, rng)
    text = element_to_json(f)
    back = element_from_json(GL3, text)
    assert back == f
    assert element_to_json(back) == text


def test_element_json_huge_coefficients():
    big = 10**40 + 7
    f = GradedElement(GL2, CELLS, {1: {(1, 0): Laurent.term(big, v=-3, x=2)}})
    back = element_from_json(GL2, element_to_json(f))
    assert back.coefficient(1, (1, 0)) == Laurent.term(big, v=-3, x=2)


def test_element_json_shape():
    f = cell(GL2, (2, 0))
    obj = json.loads(element_to_json(f))
    assert obj["basis"] == "cells"
    assert obj["grades"][0]["k"] == 2
    assert obj["grades"][0]["terms"][0]["mu"] == [2, 0]
    assert obj["grades"][0]["terms"][0]["coeff"] == [[0, 0, 1]]
