"""Reference routes the tests check the package against.

None of these is on a production path: the Weyl group as matrices
(breadth-first by length), exact rational row reduction, the dominance
order and the half-sum pairing spelled out, and JSON text round trips of
graded elements.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache

from sphecke.errors import NonDominantError, WeylCapError
from sphecke.rootdata import (
    WEYL_CAP_DEFAULT,
    Mat,
    RootDatum,
    Vec,
    dot,
    identity_mat,
    root_coeffs,
    vsub,
)
from sphecke.satake import GradedElement
from sphecke.serialize import element_from_obj, element_to_obj


def mat_mul(a: Mat, b: Mat) -> Mat:
    cols = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def _reflection_matrix(alpha: Vec, form: Vec, rank: int) -> Mat:
    return tuple(
        tuple((1 if i == j else 0) - form[j] * alpha[i] for j in range(rank))
        for i in range(rank)
    )


def _weyl_bfs(simples, forms, rank: int, cap: int):
    gens = [_reflection_matrix(a, f, rank) for a, f in zip(simples, forms)]
    ident = identity_mat(rank)
    seen = {ident: 0}
    order = [(ident, 0)]
    frontier = [ident]
    depth = 0
    while frontier:
        depth += 1
        new = []
        for w in frontier:
            for g in gens:
                wg = mat_mul(g, w)
                if wg not in seen:
                    seen[wg] = depth
                    new.append(wg)
                    if len(seen) > cap:
                        raise WeylCapError(f"Weyl group exceeds cap {cap}")
        new.sort()
        order.extend((w, depth) for w in new)
        frontier = new
    return order


@cache
def weyl_elements(rd: RootDatum, cap: int = WEYL_CAP_DEFAULT):
    """All Weyl elements as (matrix, length), breadth-first by length.

    The matrix oracle: tests check ``signed_orbit`` and ``rd.w0`` against
    it.  No production path builds the group as matrices.
    """
    return tuple(_weyl_bfs(rd.simple_roots, rd.simple_coroot_forms, rd.rank, cap))


def row_reduce(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Exact Gauss-Jordan elimination, in place, on the first ``ncols`` columns.

    Later columns (right-hand sides) are carried along.  Returns the
    pivot columns: pivot i sits in row i with value 1, every other entry
    of its column is zero, and the rows after the last pivot are zero in
    the first ``ncols`` columns.  The rank is the number of pivots.
    """
    m = len(rows)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots


def solve_simple_coeffs(simple: tuple[Vec, ...], target: Vec):
    """Exact rational coefficients of target in the simple roots, or None.

    Row reduction over the rationals: the tests' reference for
    ``root_coeffs``."""
    k = len(simple)
    rows = [[Fraction(s[i]) for s in simple] + [Fraction(x)] for i, x in enumerate(target)]
    pivots = row_reduce(rows, k)
    if any(row[-1] != 0 for row in rows[len(pivots):]):
        return None
    coeffs = [Fraction(0)] * k
    for i, c in enumerate(pivots):
        coeffs[c] = rows[i][-1]
    return tuple(coeffs)


def dominance_leq(rd: RootDatum, mu: Vec, lam: Vec) -> bool:
    """True iff lam - mu is a nonnegative integer combination of simple roots."""
    for v in (mu, lam):
        if not rd.is_dominant(v):
            raise NonDominantError(f"{v} is not dominant")
    coeffs = root_coeffs(rd, vsub(lam, mu))
    return coeffs is not None and min(coeffs, default=0) >= 0


def pair_rho_b(rd: RootDatum, mu: Vec) -> Fraction:
    """Pairing of mu against the half sum of positive roots on the group
    side, i.e. half the sum of the stored coroot forms."""
    rd.check_length(mu)
    return Fraction(dot(rd.pair2_form, mu), 2)


def element_to_json(e: GradedElement) -> str:
    return json.dumps(element_to_obj(e), sort_keys=True)


def element_from_json(rd: RootDatum, text: str) -> GradedElement:
    return element_from_obj(rd, json.loads(text))
