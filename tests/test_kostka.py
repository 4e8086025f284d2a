import itertools
import math
import random
from fractions import Fraction

import pytest

from oracles import (
    _partition_counts,
    central,
    charge_kostka,
    kl_row_reference,
    shifted_orbit_reference,
    solve_simple_coeffs,
    translation_mismatch,
    weyl_elements,
)
from sphecke import characters, clear_caches, kostka, rootdata, satake
from sphecke.errors import GradeMismatchError
from sphecke.kostka import (
    kl_row,
    kostant_q,
    lusztig_q_analogue,
)
from sphecke.laurent import Laurent
from sphecke.lseries import basic_function, gamma_kernel
from sphecke.rootdata import (
    RepSpec,
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


def _integral_coeffs(rd, v):
    """The simple-root coefficients of v by exact row reduction, or None
    off the root lattice."""
    c = solve_simple_coeffs(rd.simple_roots, v)
    if c is None or any(x.denominator != 1 for x in c):
        return None
    return tuple(int(x) for x in c)


def whole_orbit_lusztig(rd, lam, mu):
    """``oracle_lusztig`` with each image solved once: the sum over every
    Weyl matrix, each w(lam + rho) - (mu + rho) solved in the simple roots
    by exact row reduction and counted by plain recursion."""
    roots = [_integral_coeffs(rd, a) for a in rd.positive_roots]
    lam2 = vadd(vscale(2, lam), rd.rho_b_times2)
    mu2 = vadd(vscale(2, mu), rd.rho_b_times2)
    total = {}
    for w, length in weyl_elements(rd):
        beta = _integral_coeffs(rd, tuple(x // 2 for x in vsub(mat_apply(w, lam2), mu2)))
        if beta is None:
            continue
        for e, c in _partition_counts(roots, beta).items():
            total[e] = total.get(e, 0) + (-1) ** length * c
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
    # the bounded coefficient-only walk against the signed orbit with
    # coefficients solved image by image, cut at the same drop: at zero,
    # at the row's largest height and at the largest drop (the whole
    # orbit); and the row against a sum over the whole orbit
    rd = build_preset(label)
    for lam in dominant_below(rd, TOPS[label]):
        full = shifted_orbit_reference(rd, lam)
        row_height = max(sum(rootdata.root_coeffs(rd, vsub(lam, mu)))
                         for mu in dominant_below(rd, lam))
        for h in (0, row_height, full[-1][0]):
            want = [image for image in full if image[0] <= h]
            assert kostka._shifted_orbit(rd, rootdata.dynkin_labels(rd, lam), h) == want, (label, lam, h)
        kostka._label_row.cache_clear()
        assert kl_row(rd, lam) == kl_row_reference(rd, lam), (label, lam)


# a dominant top per datum for the seeded draws below, and whether the
# datum's root lattice is smaller than its weights of one grade
LUSZTIG_DRAWS = {
    "gl4": ((2, 1, 0, -1), False), "b3": ((2, 1, 0, 0), False),
    "c3": ((2, 1, 1, 0), True), "d4": ((2, 1, 1, 0, 0), True), "g2": ((0, -3, 0), False),
}


@pytest.mark.parametrize("label", sorted(LUSZTIG_DRAWS))
def test_lusztig_matches_the_whole_orbit_sum(label):
    # lusztig_q_analogue walks the shifted orbit only to the height of
    # lam - mu, and not at all where mu is not below lam; the oracle sums
    # over every Weyl matrix with a memo-free partition count.  mu runs
    # over the dominant weights of lam's grade in a box, so the draws hold
    # mu below lam, mu not below lam, and (on c3, d4) mu off the root
    # lattice of lam
    rd = build_preset(label)
    top, sublattice = LUSZTIG_DRAWS[label]
    rng = random.Random(f"lusztig-{label}")
    lams = dominant_below(rd, top)
    box = [v for v in itertools.product(range(-3, 4), repeat=rd.rank) if rd.is_dominant(v)]
    kinds = set()
    for lam in rng.sample(lams, min(4, len(lams))):
        grade = [v for v in box if rootdata.sigma_grade(rd, v) == rootdata.sigma_grade(rd, lam)]
        for mu in rng.sample(grade, min(6, len(grade))) + [lam]:
            coeffs = _integral_coeffs(rd, vsub(lam, mu))
            kinds.add("off" if coeffs is None else "below" if min(coeffs) >= 0 else "not below")
            want = whole_orbit_lusztig(rd, lam, mu)
            assert lusztig_q_analogue(rd, lam, mu).terms == in_q(want), (label, lam, mu)
    assert kinds == ({"off"} if sublattice else set()) | {"below", "not below"}, kinds


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
    kostka._label_row.cache_clear()
    for lam in dominant_below(rd, TOPS[label]):
        assert kl_row(rd, lam)
    assert calls == []


# -- one row per Dynkin-label class


@pytest.mark.parametrize("label", sorted(set(TOPS) - {"gl1"}))
def test_kl_row_moves_with_the_center(label):
    # the Dynkin labels fix lam up to a central z, which every Weyl element
    # fixes, so K[lam + z, mu + z] = K[lam, mu]; height2(z) is zero, the
    # height form being a sum of coroot forms
    rd = build_preset(label)
    kostka._label_row.cache_clear()
    assert height2(rd, central(rd)) == 0
    assert translation_mismatch(rd, TOPS[label], kl_row, -1) is None


def _translate_fault(fault):
    """``kl_row`` with a fault that only a translate shows: the first lam
    read with given labels gets its row right, and a later lam with the
    same labels gets v-powers without its height2 ("height") or the first
    lam's mu ("mu")."""
    first = {}

    def row(rd, lam):
        labels = rootdata.dynkin_labels(rd, lam)
        rep = first.setdefault((rd, labels), lam)
        shift = 0 if fault == "height" and lam != rep else -height2(rd, lam)
        base = rep if fault == "mu" else lam
        return kostka._translate(base, shift, kostka._label_row(rd, labels))

    return row


@pytest.mark.parametrize("fault", ["height", "mu"])
@pytest.mark.parametrize("label", ["b2", "gl3"])
def test_translation_check_catches_a_translate_fault(label, fault):
    rd = build_preset(label)
    assert translation_mismatch(rd, TOPS[label], _translate_fault(fault), -1) is not None
    # one grade holds no translates, so every row of one grade is right
    faulty = _translate_fault(fault)
    assert all(faulty(rd, lam) == kl_row(rd, lam) for lam in dominant_below(rd, TOPS[label]))


@pytest.mark.parametrize(
    "label, hw, build, N, rows, entries",
    [("b2", (1, 0, 1), basic_function, 8, 25, 9), ("g2", (0, -1, 1), gamma_kernel, 0, 68, 17)],
)
def test_label_table_holds_one_entry_per_class(monkeypatch, label, hw, build, N, rows, entries):
    # rows: the weights kl_row is asked for, by the inverse transform and by
    # weight_multiplicities; entries: the label classes the table holds
    rd = build_preset(label)
    asked = set()
    real = kostka.kl_row

    def asking(rd, lam):
        asked.add(lam)
        return real(rd, lam)

    monkeypatch.setattr(satake, "kl_row", asking)
    monkeypatch.setattr(characters, "kl_row", asking)
    clear_caches()
    build(rd, RepSpec(hw), N)
    assert len(asked) == rows
    assert kostka._label_row.cache_info().currsize == entries
    assert len({rootdata.dynkin_labels(rd, lam) for lam in asked}) == entries


# -- classical identities at mu = 0, independent of the alternating sum

# The exponents m_i of each preset's root system, from its degrees
# d_i = m_i + 1 (Humphreys, *Reflection Groups and Coxeter Groups*, 3.7,
# Table 1; Bourbaki, *Lie Groups and Lie Algebras*, Ch. VI, Plates I-IX).
# GL(n) has type A(n-1), and GL(1) no root; D3 is A3.
EXPONENTS = {
    "gl2": (1,), "gl3": (1, 2), "gl4": (1, 2, 3),
    "b2": (1, 3), "b3": (1, 3, 5), "b4": (1, 3, 5, 7),
    "c2": (1, 3), "c3": (1, 3, 5), "c4": (1, 3, 5, 7),
    "d3": (1, 2, 3), "d4": (1, 3, 3, 5), "g2": (1, 5),
}


def _highest_root(rd):
    return max(rd.positive_roots, key=lambda alpha: height2(rd, alpha))


def _dim(rd, lam):
    """Weyl's dimension formula over the positive coroot forms."""
    out = Fraction(1)
    for f in rd.positive_coroot_forms:
        out *= Fraction(rootdata.dot(f, vadd(vscale(2, lam), rd.rho_b_times2)),
                        rootdata.dot(f, rd.rho_b_times2))
    return out


@pytest.mark.parametrize("label", sorted(EXPONENTS))
def test_adjoint_row_at_zero_is_the_exponents(label):
    # K[theta, 0](q) = sum_i q^(m_i) for the highest root theta (Kostant,
    # Amer. J. Math. 81 (1959); Hesselink, Characters of the nullcone,
    # Math. Ann. (1980))
    rd = build_preset(label)
    want = {}
    for m in EXPONENTS[label]:
        want[m] = want.get(m, 0) + 1
    assert lusztig_q_analogue(rd, _highest_root(rd), (0,) * rd.rank).terms == in_q(want)


def kostant_hesselink_holds(rd, label, D):
    """Whether the harmonic polynomials on the Lie algebra, which carry
    each V_lam with graded multiplicity K[lam, 0](q) (Kostant, Amer. J.
    Math. 85 (1963); Hesselink, Characters of the nullcone, Math. Ann.
    (1980)), have the graded dimension prod_i (1 - q^(d_i)) / (1 - q)^(dim g)
    through q^D, with d_i = m_i + 1 and g semisimple.  Every lam met up to
    degree D lies below D theta."""
    zero = (0,) * rd.rank
    lhs = [0] * (D + 1)
    for lam in dominant_below(rd, vscale(D, _highest_root(rd))):
        for (a, _), c in lusztig_q_analogue(rd, lam, zero).terms.items():
            if a // 2 <= D:
                lhs[a // 2] += _dim(rd, lam) * c
    dim_g = len(rd.simple_roots) + 2 * len(rd.positive_roots)
    rhs = [math.comb(dim_g + k - 1, k) for k in range(D + 1)]
    for m in EXPONENTS[label]:
        rhs = [x - (rhs[k - m - 1] if k > m else 0) for k, x in enumerate(rhs)]
    return lhs == rhs


@pytest.mark.parametrize(
    "label, D",
    [("gl2", 4), ("gl3", 4), ("b2", 4), ("c2", 4), ("g2", 4), ("b3", 4), ("d4", 4),
     ("b4", 3), ("c4", 3)],
)
def test_kostant_hesselink_identity(label, D):
    assert kostant_hesselink_holds(build_preset(label), label, D)


@pytest.mark.parametrize("label", ["b2", "g2", "b3"])
def test_kostant_hesselink_catches_a_flipped_sign(monkeypatch, label):
    # the sign of the third image of every shifted orbit flipped
    shifted = kostka._shifted_orbit

    def flipped(rd, lam, height):
        orbit = shifted(rd, lam, height)
        if len(orbit) > 2:
            drop, coeffs, sign = orbit[2]
            orbit[2] = (drop, coeffs, -sign)
        return orbit

    monkeypatch.setattr(kostka, "_shifted_orbit", flipped)
    assert not kostant_hesselink_holds(build_preset(label), label, 4)


# -- K[lam, mu](q) for mu != 0 on GL_n: the charge statistic


def _partitions(size, parts, top=None):
    """The partitions of size into at most ``parts`` parts, padded with zeros."""
    top = size if top is None else top
    if parts == 0:
        if size == 0:
            yield ()
        return
    for first in range(min(size, top), -1, -1):
        for rest in _partitions(size - first, parts - 1, first):
            yield (first,) + rest


def charge_mismatch():
    """The first (n, lam, mu) on GL2-GL4 with |lam| <= 8 where K[lam, mu]
    differs from the charge sum over semistandard tableaux, or None."""
    for n in (2, 3, 4):
        rd = build_gl(n)
        for size in range(9):
            shapes = list(_partitions(size, n))
            for lam, mu in itertools.product(shapes, repeat=2):
                if lusztig_q_analogue(rd, lam, mu).terms != in_q(charge_kostka(lam, mu)):
                    return n, lam, mu
    return None


def test_charge_convention():
    # K[(2,1), (1,1,1)] = q + q^2 on both sides, from the tableaux 12/3
    # (charge 2) and 13/2 (charge 1)
    assert charge_kostka((2, 1, 0), (1, 1, 1)) == {1: 1, 2: 1}
    assert lusztig_q_analogue(GL3, (2, 1, 0), (1, 1, 1)).terms == in_q({1: 1, 2: 1})
    assert charge_kostka((3, 1, 1), (2, 2, 1)) == {1: 1}  # two standard subwords


def test_lusztig_matches_charge():
    assert charge_mismatch() is None


@pytest.fixture
def fresh_caches():
    """Empty the package caches before a mutation and after it."""
    clear_caches()
    yield
    clear_caches()


def test_charge_catches_a_dropped_root(monkeypatch, fresh_caches):
    # the last positive root left out of the partition count
    tables = kostka._label_tables

    def dropped(rd):
        columns, rows, steps = tables(rd)
        return columns, rows, steps[:-1]

    monkeypatch.setattr(kostka, "_label_tables", dropped)
    assert charge_mismatch() is not None


def test_charge_catches_a_shifted_degree(monkeypatch, fresh_caches):
    # the lowest degree of every polynomial with two or more terms raised by
    # one: the value at q = 1, and so every weight multiplicity, is unchanged
    real = kostka._alternating_sum

    def shifted(*args):
        out = real(*args)
        if len(out) > 1:
            e = min(out)
            out[e + 1] = out.get(e + 1, 0) + out.pop(e)
        return out

    monkeypatch.setattr(kostka, "_alternating_sum", shifted)
    assert charge_mismatch() is not None


def test_charge_catches_an_image_kostant_hesselink_misses(monkeypatch, fresh_caches):
    # the third image of every shifted orbit dropped: on GL2 and GL3 the
    # identity at mu = 0 still holds, and the charge sum at mu != 0 does not
    real = kostka._shifted_orbit

    def dropped(rd, lam, height):
        orbit = real(rd, lam, height)
        return orbit[:2] + orbit[3:]

    monkeypatch.setattr(kostka, "_shifted_orbit", dropped)
    assert all(kostant_hesselink_holds(build_preset(g), g, 4) for g in ("gl2", "gl3"))
    assert charge_mismatch() is not None


def test_the_walk_never_reaches_the_w0_image():
    # w0 lowers lam + rho by ht(lam - w0 lam) + ht(2 rho), more than any
    # ht(lam - mu) over the dominant mu <= lam, so no row reads that image
    # and dropping it would change no value
    for label in ("gl3", "b2", "g2", "c3"):
        rd = build_preset(label)
        for lam in dominant_below(rd, vscale(2, _highest_root(rd))):
            v = vadd(vscale(2, lam), rd.rho_b_times2)  # 2 (lam + rho)
            w0_drop = sum(solve_simple_coeffs(rd.simple_roots, vsub(v, mat_apply(rd.w0, v)))) / 2
            below = rootdata.dominant_below_coeffs(rd, rootdata.dynkin_labels(rd, lam), lam)
            assert all(sum(delta) < w0_drop for _, delta in below)


# -- the walks read no further than their rows


def _count_walks(monkeypatch):
    walked = []

    def counting(*args):
        out = walk(*args)
        walked.append(len(out))
        return out

    walk = kostka._orbit_walk
    monkeypatch.setattr(kostka, "_orbit_walk", counting)
    clear_caches()
    return walked


def test_standard_row_walks_one_image(monkeypatch):
    # weight_multiplicities reads this row for every arch op on gl4
    gl4 = build_gl(4)
    assert len(shifted_orbit_reference(gl4, (1, 0, 0, 0))) == 24
    walked = _count_walks(monkeypatch)
    assert kl_row(gl4, (1, 0, 0, 0)) == (((1, 0, 0, 0), Laurent.term(1, v=-3)),)
    assert walked == [1]


def test_zero_query_walks_no_image(monkeypatch):
    # (4,0,0,0,0) is not below (3,2,1,0,0): lam - mu has a negative
    # simple-root coefficient, and the whole orbit has 384 images
    b4 = build_preset("b4")
    walked = _count_walks(monkeypatch)
    assert lusztig_q_analogue(b4, (3, 2, 1, 0, 0), (4, 0, 0, 0, 0)) == Laurent.zero()
    assert walked == []


def test_kernel_rows_walk_only_the_images_they_read(monkeypatch):
    # an image is read when its drop is at most the height of lam - mu
    # for some mu in the row; a row's sums follow its walk, so each read
    # is charged to the last walk.  One walk per Dynkin-label class: the
    # 27 weights of the kernel's rows fall into 22 classes
    gl4 = build_gl(4)
    walked = _count_walks(monkeypatch)
    read = {}

    def reading(rd, orbit, delta):
        n = sum(1 for drop, _, _ in orbit if drop <= sum(delta))
        read[len(walked)] = max(read.get(len(walked), 0), n)
        return summed(rd, orbit, delta)

    summed = kostka._alternating_sum
    monkeypatch.setattr(kostka, "_alternating_sum", reading)
    gamma_kernel(gl4, RepSpec((1, 0, 0, 0)), 4)
    assert len(walked) == len(read) == 22
    assert walked == [read[i] for i in range(1, 23)]
    assert sum(walked) < 24 * 22
