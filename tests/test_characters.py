import itertools
import math
from collections import Counter

import pytest

from oracles import freudenthal_multiplicities
from sphecke.errors import InvalidInput
from sphecke.characters import (
    dual_weight,
    ext_power_decomp,
    rep_weight_list,
    sym_power_decomp,
    tensor,
    times_char,
    weight_multiplicities,
    weyl_dim,
)
from sphecke.rootdata import (
    RepSpec,
    build_gl,
    build_preset,
    sigma_grade,
)

GL1 = build_gl(1)
GL2 = build_gl(2)
GL3 = build_gl(3)
STD2 = RepSpec((1, 0))
STD3 = RepSpec((1, 0, 0))


# -- test-local weight-multiset reference, independent of the character basis


def _clean(ch):
    return {v: c for v, c in ch.items() if c}


def _wmul(a, b):
    out = Counter()
    for va, ca in a.items():
        for vb, cb in b.items():
            out[tuple(x + y for x, y in zip(va, vb))] += ca * cb
    return _clean(out)


def _expand(rd, parts):
    """Weight multiset of sum mult * V(lam) over the (lam, mult) pairs."""
    out = Counter()
    for lam, mult in parts:
        for v, m in weight_multiplicities(rd, lam).items():
            out[v] += mult * m
    return _clean(out)


def _subset_sums(weights, pick, k):
    """Weight multiset of Sym^k (pick = combinations_with_replacement) or
    Lambda^k (pick = combinations), one monomial per index multiset."""
    out = Counter(tuple(map(sum, zip(*c))) if c else (0,) * len(weights[0]) for c in pick(weights, k))
    return _clean(out)


# (datum, rho, largest symmetric power checked)
POWER_CASES = [
    (GL2, RepSpec((2, -1)), 5),
    (build_preset("b2"), RepSpec((1, 0, 1)), 4),
    (build_preset("c2"), RepSpec((1, 0, 1)), 4),
    (build_preset("g2"), RepSpec((0, -1, 1)), 4),
    (GL3, STD3, 6),
]


def test_weight_multiplicities_standard():
    assert weight_multiplicities(GL2, (1, 0)) == {(1, 0): 1, (0, 1): 1}


def test_weight_multiplicities_sym2():
    assert weight_multiplicities(GL2, (2, 0)) == {(2, 0): 1, (1, 1): 1, (0, 2): 1}


def test_weight_multiplicities_ext2_gl3():
    wm = weight_multiplicities(GL3, (1, 1, 0))
    assert wm == {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}


def test_weight_multiplicities_adjoint_gl3():
    wm = weight_multiplicities(GL3, (2, 1, 0))
    assert wm[(1, 1, 1)] == 2
    assert sum(wm.values()) == 8


def test_dimension_cross_check_small_sweep():
    # every construction already asserts the product formula internally;
    # verify totals explicitly across a sweep
    doms = [
        v
        for v in itertools.product(range(0, 4), repeat=3)
        if GL3.is_dominant(v) and sum(v) <= 6
    ]
    for lam in doms:
        assert sum(weight_multiplicities(GL3, lam).values()) == weyl_dim(GL3, lam)


@pytest.mark.parametrize(
    "label", ["gl1", "gl2", "gl3", "gl4", "b2", "b3", "b4", "c2", "c3", "c4", "d3", "d4", "g2"]
)
def test_weight_multiplicities_match_freudenthal(label):
    # Freudenthal's formula over the invariant form the coroot forms give,
    # not the coordinate dot, and without kl_row: every dominant lam with
    # coordinates in -2..2 and dimension at most 100
    rd = build_preset(label)
    lams = [
        lam for lam in itertools.product(range(-2, 3), repeat=rd.rank)
        if rd.is_dominant(lam) and weyl_dim(rd, lam) <= 100
    ]
    assert len(lams) >= 5
    for lam in lams:
        assert weight_multiplicities(rd, lam) == freudenthal_multiplicities(rd, lam), lam


def test_weyl_dim_known_values():
    assert weyl_dim(GL3, (2, 1, 0)) == 8
    assert weyl_dim(GL3, (3, 0, 0)) == 10
    assert weyl_dim(GL3, [3, 0, 0]) == 10  # any sequence, not only tuples
    g2 = build_preset("g2")
    assert weyl_dim(g2, (0, -1, 0)) == 7
    assert weyl_dim(g2, (-1, -2, 0)) == 14


def test_sym_power_examples():
    assert sym_power_decomp(GL2, STD2, 2) == [((2, 0), 1)]
    assert sym_power_decomp(GL2, STD2, 0) == [((0, 0), 1)]
    assert sym_power_decomp(GL3, STD3, 3) == [((3, 0, 0), 1)]


def test_sym_power_dimensions():
    for k in range(7):
        total = sum(
            m * weyl_dim(GL3, lam) for lam, m in sym_power_decomp(GL3, STD3, k)
        )
        assert total == math.comb(3 + k - 1, k)


def test_ext_power_examples():
    assert ext_power_decomp(GL3, STD3, 2) == [((1, 1, 0), 1)]
    assert ext_power_decomp(GL3, STD3, 0) == [((0, 0, 0), 1)]
    assert ext_power_decomp(GL2, STD2, 2) == [((1, 1), 1)]


def test_ext_power_bounds():
    with pytest.raises(InvalidInput):
        ext_power_decomp(GL2, STD2, 3)


def test_plethysm_generating_identity():
    # sum_i (-1)^i e_i h_(k-i) telescopes to zero for k >= 1
    for rd, rho, kmax in [(GL2, STD2, 6), (GL3, STD3, 6), (GL2, RepSpec((2, -1)), 4)]:
        n = len(rep_weight_list(rd, rho))
        for k in range(1, kmax + 1):
            acc = Counter()
            for i in range(0, min(k, n) + 1):
                term = _wmul(
                    _expand(rd, ext_power_decomp(rd, rho, i)),
                    _expand(rd, sym_power_decomp(rd, rho, k - i)),
                )
                for v, c in term.items():
                    acc[v] += c if i % 2 == 0 else -c
            assert _clean(acc) == {}


@pytest.mark.parametrize("rd,rho,kmax", POWER_CASES, ids=lambda x: getattr(x, "cartan", None))
def test_sym_power_exhaustive_oracle(rd, rho, kmax):
    weights = rep_weight_list(rd, rho)
    for k in range(kmax + 1):
        want = _subset_sums(weights, itertools.combinations_with_replacement, k)
        assert _expand(rd, sym_power_decomp(rd, rho, k)) == want


@pytest.mark.parametrize("rd,rho,kmax", POWER_CASES, ids=lambda x: getattr(x, "cartan", None))
def test_ext_power_exhaustive_oracle(rd, rho, kmax):
    weights = rep_weight_list(rd, rho)
    for i in range(len(weights) + 1):
        want = _subset_sums(weights, itertools.combinations, i)
        assert _expand(rd, ext_power_decomp(rd, rho, i)) == want


@pytest.mark.parametrize(
    "label,hws",
    [
        ("gl3", [(1, 0, 0), (2, 1, 0), (2, 0, -1), (1, 1, 0), (3, 1, 0)]),
        ("b2", [(0, 0, 0), (1, 0, 1), (1, 1, 0), (2, 1, -1), (2, 0, 0)]),
        ("c2", [(1, 0, 1), (1, 1, 0), (2, 0, 1), (2, 2, -1)]),
        ("g2", [(0, -1, 1), (-1, -2, 0), (0, -2, 1), (-1, -3, 0)]),
        ("d4", [(1, 0, 0, 0, 1), (1, 1, 0, 0, 0), (1, 1, 1, 1, 0)]),
    ],
)
def test_tensor_matches_weight_convolution(label, hws):
    rd = build_preset(label)
    for lam, mu in itertools.combinations_with_replacement(hws, 2):
        parts = tensor(rd, lam, mu)
        assert all(m > 0 for _, m in parts)
        want = _wmul(weight_multiplicities(rd, lam), weight_multiplicities(rd, mu))
        assert _expand(rd, parts) == want
        assert sorted(tensor(rd, mu, lam)) == sorted(parts)


def test_sym_power_grading():
    rho = RepSpec((2, -1))  # grade-one four-dimensional module
    for k in range(4):
        for lam, _ in sym_power_decomp(GL2, rho, k):
            assert sigma_grade(GL2, lam) == k


def test_ext_power_grading():
    for i in range(4):
        for lam, _ in ext_power_decomp(GL2, RepSpec((2, -1)), i):
            assert sigma_grade(GL2, lam) == i


def _decompose(rd, ch):
    """The irreducible pieces of a character: it times the trivial one."""
    return times_char(rd, ch, (0,) * rd.rank)


def test_decompose_clebsch_gordan():
    ch = _wmul(
        weight_multiplicities(GL2, (1, 0)), weight_multiplicities(GL2, (1, 0))
    )
    assert _decompose(GL2, ch) == {(2, 0): 1, (1, 1): 1}


def test_decompose_zero():
    assert _decompose(GL2, {}) == {}


def test_decompose_round_trip():
    ch = weight_multiplicities(GL3, (2, 1, 0))
    assert _decompose(GL3, ch) == {(2, 1, 0): 1}
    # generic combination
    parts = [((3, 1, 0), 2), ((2, 1, 1), 3)]
    assert _decompose(GL3, _expand(GL3, parts)) == dict(parts)


def test_dual_weight_examples():
    assert dual_weight(GL3, (1, 0, 0)) == (0, 0, -1)
    assert dual_weight(GL2, (1, 1)) == (-1, -1)
    assert dual_weight(GL2, (2, 0)) == (0, -2)


def test_dual_weight_dimension_match():
    for lam in [(2, 1, 0), (3, 1, 1), (2, 2, 0)]:
        assert weyl_dim(GL3, dual_weight(GL3, lam)) == weyl_dim(GL3, lam)


def test_sym_power_nontrivial_plethysm():
    # square of the grade-one four-dimensional module splits in two
    rho = RepSpec((2, -1))
    parts = sym_power_decomp(GL2, rho, 2)
    assert parts == [((4, -2), 1), ((2, 0), 1)]
    total = sum(m * weyl_dim(GL2, lam) for lam, m in parts)
    assert total == math.comb(4 + 1, 2)


def test_rep_weight_list_of_the_standard():
    assert rep_weight_list(GL3, STD3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
