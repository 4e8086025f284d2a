"""Metamorphic oracles: the same datum in other coordinates, and products.

Every preset is written in one set of coordinates, so a step that is
right only in those coordinates (a grade taken as the sum of the
coordinates, say) passes every preset test.  An isomorphic datum, with
vectors mapped by v -> U v for a unimodular U and the simple roots
shuffled, must give the same coefficients after the map.  Every preset
is also irreducible (but for its center); the product of two data must
have the roots of its factors side by side and multiply their
Kostka-Foulkes polynomials.
"""

import json
import random
import sys

import pytest

from oracles import central, product_datum, random_unimodular, transform_datum
from sphecke import cli, clear_caches, rootdata
from sphecke.errors import InvalidInput
from sphecke.kostka import kl_row, lusztig_q_analogue
from sphecke.laurent import Laurent
from sphecke.lseries import basic_function, gamma_kernel
from sphecke.rootdata import (
    RepSpec,
    RootDatum,
    build_preset,
    datum_to_json,
    dominant_below,
    identity_mat,
    mat_apply,
    vadd,
)
from sphecke.satake import CELLS, GradedElement, satake

# per preset: a dominant top for the rows, the highest weight of rho, and
# the truncation of its basic function
CASES = {
    "gl3": ((2, 1, 0), (1, 0, 0), 4),
    "b2": ((2, 1, 0), (1, 0, 1), 4),
    "g2": ((0, -3, 0), (0, -1, 1), 3),
    "d4": ((2, 1, 0, 0, 0), (1, 0, 0, 0, 1), 2),
}


def _transformed(label, seed):
    rd = build_preset(label)
    rng = random.Random(f"coordinates-{label}-{seed}")
    U = random_unimodular(rng, rd.rank)
    perm = list(range(len(rd.simple_roots)))
    while perm == sorted(perm):
        rng.shuffle(perm)
    return rd, U, perm, transform_datum(rd, U, perm)


def _seeded_cells(rd, top, seed):
    """A cell-side element on up to five dominant weights below top and
    their translates by the central direction, one grade higher, each
    with a seeded coefficient in v and X."""
    rng = random.Random(f"cells-{seed}")
    cells = rng.sample(dominant_below(rd, top), min(5, len(dominant_below(rd, top))))
    coeff = lambda: Laurent({(rng.randint(-3, 3), rng.randint(-1, 1)): rng.choice((-2, -1, 1, 2))})
    z = central(rd)
    grades = {}
    for mu in cells:
        for nu in (mu, vadd(mu, z)):
            grades.setdefault(rootdata.sigma_grade(rd, nu), {})[nu] = coeff()
    return GradedElement(rd, CELLS, grades)


def _moved(rd, U, e):
    """The element e of another datum read in rd, its vectors moved by U."""
    grades = {k: {mat_apply(U, mu): c for mu, c in terms.items()} for k, terms in e.grades.items()}
    return GradedElement(rd, e.basis, grades, e.window)


def coordinate_mismatch(label, seed):
    """The first row, or the first window or grade of the basic function,
    the kernel to grade one or the transform of seeded cells, where the
    datum and its copy in the coordinates of the seeded U disagree after
    v -> U v, or None.  The kernel's products and powers and the
    transform's Macdonald rows straighten shifted weights in labels."""
    rd, U, _, other = _transformed(label, seed)
    top, hw, N = CASES[label]
    for lam in dominant_below(rd, top):
        want = {mat_apply(U, mu): c for mu, c in kl_row(rd, lam)}
        if dict(kl_row(other, mat_apply(U, lam))) != want:
            return "row", lam
    cells = _seeded_cells(rd, top, seed)
    builds = {
        "basic": lambda d, hw: basic_function(d, RepSpec(hw), N),
        "kernel": lambda d, hw: gamma_kernel(d, RepSpec(hw), 1),
        "satake": lambda d, _: satake(cells if d is rd else _moved(other, U, cells)),
    }
    for name, build in builds.items():
        here = _moved(other, U, build(rd, hw))
        there = build(other, mat_apply(U, hw))
        if there.window != here.window:
            return name, "window", there.window
        for k in sorted(set(here.grades) | set(there.grades)):
            if there.grades.get(k) != here.grades.get(k):
                return name, "grade", k
    return None


@pytest.mark.parametrize("label", sorted(CASES))
def test_rows_and_basic_function_ignore_coordinates(label):
    # the rows, the basic function, the kernel and the transform of seeded
    # cells, at both seeds
    for seed in (1, 2):
        rd, U, perm, _ = _transformed(label, seed)
        assert U != identity_mat(rd.rank) and perm != sorted(perm)
        assert coordinate_mismatch(label, seed) is None, (label, seed)


@pytest.mark.parametrize("label", sorted(CASES))
def test_transform_datum_keeps_the_pairings(label):
    rd, U, perm, other = _transformed(label, 1)
    for v in dominant_below(rd, CASES[label][0]):
        labels = rootdata.dynkin_labels(rd, v)
        assert rootdata.dynkin_labels(other, mat_apply(U, v)) == tuple(labels[i] for i in perm)
        assert rootdata.sigma_grade(other, mat_apply(U, v)) == rootdata.sigma_grade(rd, v)
        assert rootdata.height2(other, mat_apply(U, v)) == rootdata.height2(rd, v)


@pytest.fixture
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def test_a_coordinate_grade_fails_only_in_other_coordinates(monkeypatch, fresh_caches):
    # the grade taken as the sum of the coordinates: right for the GL
    # presets (sigma = 1,...,1), so gl3's own basic function is unchanged,
    # and wrong for gl3 in the sheared coordinates, where the weights of
    # the standard representation no longer sum to one
    want = basic_function(build_preset("gl3"), RepSpec((1, 0, 0)), 4)
    clear_caches()
    real = rootdata.sigma_grade
    for name, module in list(sys.modules.items()):
        if name.startswith("sphecke") and getattr(module, "sigma_grade", None) is real:
            monkeypatch.setattr(module, "sigma_grade", lambda rd, mu: sum(mu))
    assert basic_function(build_preset("gl3"), RepSpec((1, 0, 0)), 4) == want
    for seed in (1, 2):
        with pytest.raises(InvalidInput, match="grade != 1"):
            coordinate_mismatch("gl3", seed)


@pytest.mark.parametrize("seed", [1, 2])
def test_kostka_through_a_datum_file_in_other_coordinates(tmp_path, capsys, seed):
    # the --datum route: b4 in the coordinates of a seeded U with its simple
    # roots shuffled, read from its JSON body, prints what --group b4 prints
    # once lambda and mu are mapped by U
    rd, U, _, other = _transformed("b4", seed)
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum_to_json(other)))
    vec = lambda v: ",".join(map(str, v))
    for lam, mu in (((3, 2, 1, 0, 1), (0, 0, 0, 0, 1)), ((3, 1, 0, 0, -2), (1, 1, 0, 0, -2))):
        assert cli.main(["kostka", "--group", "b4", "--lambda", vec(lam), "--mu", vec(mu)]) == 0
        want = capsys.readouterr().out
        code = cli.main(["kostka", "--datum", str(path), "--lambda", vec(mat_apply(U, lam)),
                         "--mu", vec(mat_apply(U, mu))])
        assert (code, capsys.readouterr().out) == (0, want)
        assert want != "0\n"


# A1 in its adjoint coordinates: root 1, coroot form 2
A1 = RootDatum("A1", 1, [(1,)], [(2,)], (0,))

# per product: the factors and, for each, a dominant top for lambda
PRODUCTS = {
    "A1xB2": ((A1, (3,)), (build_preset("b2"), (2, 1, 0))),
    "A1xG2": ((A1, (2,)), (build_preset("g2"), (0, -3, 0))),
    "GL2xGL2": ((build_preset("gl2"), (2, 0)), (build_preset("gl2"), (3, 1))),
}


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_product_roots_are_the_factors_side_by_side(name):
    (rd1, _), (rd2, _) = PRODUCTS[name]
    prod = product_datum(rd1, rd2)
    k1, k2 = len(rd1.simple_roots), len(rd2.simple_roots)
    want = [(r + (0,) * rd2.rank, c + (0,) * k2)
            for r, c in zip(rd1.positive_roots, rd1.positive_coeffs)]
    want += [((0,) * rd1.rank + r, (0,) * k1 + c)
             for r, c in zip(rd2.positive_roots, rd2.positive_coeffs)]
    assert list(zip(prod.positive_roots, prod.positive_coeffs)) == sorted(want, reverse=True)


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_product_kostka_is_the_product_of_the_factors(name):
    # K[(l1, l2), (m1, m2)] = K[l1, m1] K[l2, m2] over every dominant
    # m1 <= l1 <= top1 and m2 <= l2 <= top2, and with the first factor's
    # lambda and mu swapped, where both sides vanish off the diagonal
    (rd1, top1), (rd2, top2) = PRODUCTS[name]
    prod = product_datum(rd1, rd2)
    pairs = lambda rd, top: [(l, m) for l in dominant_below(rd, top) for m in dominant_below(rd, l)]
    checked = 0
    for l1, m1 in pairs(rd1, top1):
        for l2, m2 in pairs(rd2, top2):
            for a, b in ((l1, m1), (m1, l1)):
                want = lusztig_q_analogue(rd1, a, b) * lusztig_q_analogue(rd2, l2, m2)
                assert lusztig_q_analogue(prod, a + l2, b + m2) == want, (a, l2, b, m2)
                checked += bool(want)
    assert checked > 10
