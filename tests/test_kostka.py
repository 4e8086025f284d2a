import itertools
import random

import pytest

from oracles import (
    kl_row_reference,
    shifted_orbit_reference,
    solve_simple_coeffs,
    weyl_elements,
)
from sphecke import kostka, rootdata
from sphecke.errors import GradeMismatchError
from sphecke.kostka import (
    kl_row,
    kostant_q,
    lusztig_q_analogue,
)
from sphecke.laurent import Laurent
from sphecke.rootdata import (
    build_gl,
    build_preset,
    dominant_below,
    height2,
    mat_apply,
    vadd,
    vscale,
    vsub,
)

GL1 = build_gl(1)
GL2 = build_gl(2)
GL3 = build_gl(3)
C2 = build_preset("c2")


# -- independent oracle: plain recursive enumeration, no memo, no pruning


def oracle_partitions(beta, rd):
    """Count expressions of beta as multisets of positive roots, by size.

    Plain exhaustive recursion, no memo: each multiplicity is bounded
    exactly by the simple-root coefficient vector of what is left."""
    roots = rd.positive_roots
    if not roots:
        return {0: 1} if all(x == 0 for x in beta) else {}

    def coeffs(v):
        c = solve_simple_coeffs(rd.simple_roots, v)
        if c is None or any(x.denominator != 1 or x < 0 for x in c):
            return None
        return tuple(int(x) for x in c)

    root_coeffs = [coeffs(a) for a in roots]

    def rec(v, idx):
        cv = coeffs(v)
        if cv is None:
            return {}
        if all(x == 0 for x in cv):
            return {0: 1}
        if idx == len(roots):
            return {}
        ca = root_coeffs[idx]
        tmax = min(cv[j] // ca[j] for j in range(len(ca)) if ca[j] > 0)
        acc = {}
        for t in range(tmax + 1):
            sub = rec(vsub(v, vscale(t, roots[idx])), idx + 1)
            for e, c in sub.items():
                acc[e + t] = acc.get(e + t, 0) + c
        return acc

    return {e: c for e, c in rec(tuple(beta), 0).items() if c}


def in_q(counts):
    """The Laurent form of sum c q^e, with q = v^2."""
    return {(2 * e, 0): c for e, c in counts.items()}


def oracle_lusztig(rd, lam, mu):
    rho2 = rd.rho_b_times2
    lam2 = vadd(vscale(2, lam), rho2)
    mu2 = vadd(vscale(2, mu), rho2)
    total = {}
    for w, length in weyl_elements(rd):
        beta2 = vsub(mat_apply(w, lam2), mu2)
        beta = tuple(x // 2 for x in beta2)
        sign = 1 if length % 2 == 0 else -1
        for e, c in oracle_partitions(beta, rd).items():
            total[e] = total.get(e, 0) + sign * c
    return {e: c for e, c in total.items() if c}


def test_kostant_q_examples():
    assert kostant_q(GL2, (1, -1)).terms == in_q({1: 1})
    assert kostant_q(GL2, (0, 0)) == Laurent.one()
    assert kostant_q(GL3, (1, 0, -1)).terms == in_q({1: 1, 2: 1})


def test_kostant_q_zero_when_inexpressible():
    assert kostant_q(GL2, (0, 1)) == Laurent.zero()
    assert kostant_q(GL2, (-1, 1)) == Laurent.zero()


def test_kostant_q_against_enumeration():
    betas = [v for v in itertools.product(range(-3, 4), repeat=3) if sum(v) == 0]
    for beta in betas:
        assert kostant_q(GL3, beta).terms == in_q(oracle_partitions(beta, GL3))


@pytest.mark.parametrize("label", ["b2", "c2", "g2", "b4", "c4", "d4"])
def test_kostant_q_against_enumeration_in_and_out_of_the_cone(label):
    rd = build_preset(label)
    roots = rd.positive_roots
    rng = random.Random(label)
    inside = [(0,) * rd.rank, roots[0]] + list(rd.simple_roots)
    inside += [vadd(a, b) for a, b in (rng.sample(roots, 2) for _ in range(4))]
    zero = [vscale(-1, a) for a in roots[:3]]  # a negative simple-root coefficient
    zero.append((0,) * (rd.rank - 1) + (1,))  # off the root span: a central coordinate
    if rd.cartan[0] in "CD":
        zero.append((1,) + (0,) * (rd.rank - 1))  # in the span, off the root lattice
    differences = [vsub(a, b) for a, b in (rng.sample(roots, 2) for _ in range(4))]
    for beta in inside + zero + differences:
        assert kostant_q(rd, beta).terms == in_q(oracle_partitions(beta, rd)), (label, beta)
    assert all(kostant_q(rd, beta) != Laurent.zero() for beta in inside)
    assert all(kostant_q(rd, beta) == Laurent.zero() for beta in zero)


@pytest.mark.parametrize("c", [-1, 0, 2])
def test_lusztig_zero_off_the_root_lattice(c):
    # lam - mu = e1 is in the span of the C2 roots but not in their lattice
    assert lusztig_q_analogue(C2, (1, 0, c), (0, 0, c)) == Laurent.zero()


@pytest.mark.parametrize(
    "label, lam, bound",
    [("b4", (3, 2, 1, 0, 0), 5000), ("c4", (2, 2, 1, 1, 0), 2000), ("d4", (3, 1, 0, 0, 0), 1000)],
)
def test_partition_memo_stays_inside_the_cone(label, lam, bound):
    # the pruned recursion visits 1967, 833 and 387 states on these rows;
    # counting in ambient coordinates, pruned by height only, visits
    # 36603, 10128 and 3285
    rd = build_preset(label)
    kostka._context.cache_clear()
    lusztig_q_analogue.cache_clear()
    lusztig_q_analogue(rd, lam, (0,) * rd.rank)
    _, memo = kostka._context(rd)
    size = len(memo)
    assert size < bound
    # a vector with a negative simple-root coefficient counts zero and
    # adds no memo entry
    simple = rd.simple_roots
    outside = [vscale(-1, a) for a in simple] + [vsub(a, b) for a, b in zip(simple, simple[1:])]
    outside += [vsub(rd.rho_b_times2, vscale(100, a)) for a in simple]
    for beta in outside:
        assert min(rootdata.root_coeffs(rd, beta)) < 0, beta
        assert kostant_q(rd, beta) == Laurent.zero(), beta
    assert len(memo) == size


def test_kostant_degree_and_order():
    for beta in [(2, -1, -1), (2, 0, -2), (3, -1, -2)]:
        counts = oracle_partitions(beta, GL3)
        exps = [a // 2 for a, _ in kostant_q(GL3, beta).terms]
        assert max(exps) == max(counts)
        assert min(exps) == min(counts)


def test_lusztig_examples():
    assert lusztig_q_analogue(GL2, (2, 0), (1, 1)).terms == in_q({1: 1})
    assert lusztig_q_analogue(GL3, (2, 1, 0), (1, 1, 1)).terms == in_q({1: 1, 2: 1})


def test_lusztig_diagonal_is_one():
    for rd, lam in [(GL2, (3, 1)), (GL3, (2, 1, 0)), (GL3, (4, 0, 0)), (C2, (2, 1, 0))]:
        assert lusztig_q_analogue(rd, lam, lam) == Laurent.one()


def test_lusztig_zero_unless_below():
    assert lusztig_q_analogue(GL2, (1, 1), (2, 0)) == Laurent.zero()
    assert lusztig_q_analogue(GL3, (2, 2, 2), (4, 1, 1)) == Laurent.zero()


def test_lusztig_grade_mismatch():
    with pytest.raises(GradeMismatchError):
        lusztig_q_analogue(GL2, (2, 0), (1, 0))


def test_lusztig_against_oracle_rank_le_3():
    # acceptance-grade sweep lives in test_acceptance; spot-check here
    doms = [v for v in itertools.product(range(0, 4), repeat=2) if GL2.is_dominant(v)]
    for lam in doms:
        for mu in dominant_below(GL2, lam):
            assert lusztig_q_analogue(GL2, lam, mu).terms == in_q(oracle_lusztig(GL2, lam, mu))


def test_lusztig_at_one_is_weight_multiplicity():
    from sphecke.characters import weight_multiplicities

    for lam in [(2, 1, 0), (3, 0, 0), (2, 2, 0)]:
        wm = weight_multiplicities(GL3, lam)
        for mu in dominant_below(GL3, lam):
            assert sum(lusztig_q_analogue(GL3, lam, mu).terms.values()) == wm.get(mu, 0)


def test_lusztig_positivity():
    for lam in [(4, 0, 0), (3, 2, 1), (2, 2, 2)]:
        for mu in dominant_below(GL3, lam):
            poly = lusztig_q_analogue(GL3, lam, mu)
            assert all(c > 0 for c in poly.terms.values())


def test_kostka_row_matches_cells():
    # the row from one shifted orbit equals the nonzero per-cell sums, in
    # order, with q -> q^-1 (v -> v^-1) once the cell shift is taken off
    cases = {
        "gl3": [(2, 1, 0), (3, 1, -1), (4, 0, 0)],
        "b2": [(1, 0, 1), (2, 1, 0), (3, 1, -2)],
        "c2": [(1, 0, 1), (2, 2, 0), (3, 1, 1)],
        "g2": [(0, -1, 1), (-1, -2, 0), (-2, -4, 1)],
        "d4": [(1, 1, 0, 0, 0), (2, 1, 1, -1, 1)],
    }
    for label, weights in cases.items():
        rd = build_preset(label)
        for lam in weights:
            want = tuple(
                (mu, Laurent({(-a, b): c for (a, b), c in K.terms.items()}))
                for mu in dominant_below(rd, lam)
                if (K := lusztig_q_analogue(rd, lam, mu))
            )
            row = tuple((mu, c.shift(v=height2(rd, mu))) for mu, c in kl_row(rd, lam))
            assert row == want, (label, lam)


def test_kl_row_gl2_grade1():
    assert kl_row(GL2, (1, 0)) == (((1, 0), Laurent.term(1, v=-1)),)


def test_kl_row_gl2_grade2():
    assert kl_row(GL2, (2, 0)) == (
        ((2, 0), Laurent.term(1, v=-2)),
        ((1, 1), Laurent.term(1, v=-2)),  # q^-1 at v-weight 0
    )
    assert kl_row(GL2, (1, 1)) == (((1, 1), Laurent.one()),)


def test_kl_row_gl1():
    assert kl_row(GL1, (3,)) == (((3,), Laurent.one()),)



# a nonzero dominant top weight per preset; the tests below run over every
# dominant lam below it
TOPS = {
    "gl1": (2,), "gl2": (2, 0), "gl3": (2, 1, 0), "gl4": (2, 1, 0, 0),
    "b2": (2, 1, 0), "b3": (2, 1, 0, 0), "b4": (2, 1, 0, 0, 0),
    "c2": (2, 1, 0), "c3": (2, 1, 0, 0), "c4": (2, 1, 0, 0, 0),
    "d3": (2, 1, 0, 0), "d4": (2, 1, 0, 0, 0), "g2": (0, -3, 0),
}


@pytest.mark.parametrize("label", sorted(TOPS))
def test_shifted_orbit_and_row_match_the_oracles(label):
    # the coefficient-only walk against the signed orbit with coefficients
    # solved image by image, and the row against a sum over the whole orbit
    rd = build_preset(label)
    for lam in dominant_below(rd, TOPS[label]):
        assert kostka._shifted_orbit(rd, lam) == shifted_orbit_reference(rd, lam), (label, lam)
        kl_row.cache_clear()
        assert kl_row(rd, lam) == kl_row_reference(rd, lam), (label, lam)


@pytest.mark.parametrize("label", ["gl3", "b3", "g2"])
def test_kl_row_solves_no_root_coeffs(monkeypatch, label):
    # lam - mu comes from the dominance walk, not one solve per mu
    rd = build_preset(label)
    kostka._context(rd)
    calls = []

    def counting(*args):
        calls.append(args)
        return solved(*args)

    solved = rootdata.root_coeffs
    monkeypatch.setattr(rootdata, "root_coeffs", counting)
    monkeypatch.setattr(kostka, "root_coeffs", counting)
    kl_row.cache_clear()
    for lam in dominant_below(rd, TOPS[label]):
        assert kl_row(rd, lam)
    assert calls == []
