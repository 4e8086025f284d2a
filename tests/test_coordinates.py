"""Metamorphic oracle: the same datum in other coordinates.

Every preset is written in one set of coordinates, so a step that is
right only in those coordinates (a grade taken as the sum of the
coordinates, say) passes every preset test.  An isomorphic datum, with
vectors mapped by v -> U v for a unimodular U and the simple roots
shuffled, must give the same coefficients after the map.
"""

import random
import sys

import pytest

from oracles import random_unimodular, transform_datum
from sphecke import clear_caches, rootdata
from sphecke.errors import InvalidInput
from sphecke.kostka import kl_row
from sphecke.lseries import basic_function
from sphecke.rootdata import RepSpec, build_preset, dominant_below, identity_mat, mat_apply

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


def coordinate_mismatch(label, seed):
    """The first row or grade where the datum and its copy in the
    coordinates of the seeded U disagree after v -> U v, or None."""
    rd, U, _, other = _transformed(label, seed)
    top, hw, N = CASES[label]
    for lam in dominant_below(rd, top):
        want = {mat_apply(U, mu): c for mu, c in kl_row(rd, lam)}
        if dict(kl_row(other, mat_apply(U, lam))) != want:
            return "row", lam
    here = basic_function(rd, RepSpec(hw), N)
    there = basic_function(other, RepSpec(mat_apply(U, hw)), N)
    if there.window != here.window:
        return "window", there.window
    for k in range(N + 1):
        want = {mat_apply(U, mu): c for mu, c in here.grades.get(k, {}).items()}
        if there.grades.get(k, {}) != want:
            return "grade", k
    return None


@pytest.mark.parametrize("label", sorted(CASES))
def test_rows_and_basic_function_ignore_coordinates(label):
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
