"""Reference routes the tests check the package against.

None of these is on a production path: the Weyl group as matrices
(breadth-first by length), the signed orbit of a regular weight with its
simple-root coefficients solved image by image, exact rational row
reduction, the dominance order and the half-sum pairing spelled out,
JSON text round trips of graded elements, the Kostka-Foulkes row summed
over the whole orbit, and the transforms and the product summed one
``Laurent`` object per term, as the package once summed them.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cache


from sphecke.characters import tensor
from sphecke.errors import NonDominantError, WeylCapError
from sphecke.kernels import PartitionContext
from sphecke.kostka import kl_row
from sphecke.laurent import Laurent
from sphecke.rootdata import (
    WEYL_CAP_DEFAULT,
    Mat,
    RootDatum,
    Vec,
    _orbit_walk,
    dominant_below,
    dot,
    height2,
    identity_mat,
    root_coeffs,
    straighten,
    vsub,
)
from sphecke.satake import CELLS, CHARS, GradedElement, conv_window
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


def signed_orbit(rd: RootDatum, v: Vec) -> list[tuple[Vec, int, Vec]]:
    """Triples (w(v), (-1)^l(w), the simple-root coefficients of w(v) - v)
    over the Weyl group, for a regular dominant v, v first.

    For regular v the map w -> w(v) is a bijection, and l(w) is the depth
    at which the orbit walk first reaches w(v).  The coefficients are
    solved from each image by ``root_coeffs``, not carried by the walk.
    """
    if not all(dot(f, v) > 0 for f in rd.simple_coroot_forms):
        raise NonDominantError(f"{v} is not regular dominant")
    walk = _orbit_walk(rd, v, WEYL_CAP_DEFAULT, v, rd.simple_roots)
    return [(u, -1 if depth % 2 else 1, root_coeffs(rd, vsub(u, v))) for depth, u in walk]


def shifted_orbit_reference(rd: RootDatum, lam: Vec) -> list[tuple[int, Vec, int]]:
    """``kostka._shifted_orbit`` from the signed orbit of 2(lam + rho):
    (drop, halved coefficients, sign), sorted."""
    v2 = tuple(2 * x + r for x, r in zip(lam, rd.rho_b_times2))
    orbit = []
    for _, sign, coeffs in signed_orbit(rd, v2):
        assert not any(x % 2 for x in coeffs)
        half = tuple(x // 2 for x in coeffs)
        orbit.append((-sum(half), half, sign))
    return sorted(orbit)


def kl_row_reference(rd: RootDatum, lam: Vec) -> tuple:
    """``kostka.kl_row`` summed over the whole shifted orbit, with a fresh
    partition memo, lam - mu solved by ``root_coeffs`` for each mu, and the
    q^-1 polynomial shifted by v^(-2<rho_B,mu>) as a second step."""
    orbit = shifted_orbit_reference(rd, lam)
    ctx = PartitionContext(root_coeffs(rd, r) for r in rd.positive_roots)
    row = []
    for mu in dominant_below(rd, lam):
        delta = root_coeffs(rd, vsub(lam, mu))
        total = {}
        for _, coeffs, sign in orbit if delta is not None else ():
            for e, c in ctx.counts(tuple(a + b for a, b in zip(delta, coeffs))).items():
                total[e] = total.get(e, 0) + sign * c
        if any(total.values()):
            poly = Laurent({(-2 * e, 0): c for e, c in total.items()})
            row.append((mu, poly.shift(v=-height2(rd, mu))))
    return tuple(row)


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


# -- the transforms and the product, one ``Laurent`` object per term


def satake_basis_row_reference(rd: RootDatum, mu: Vec) -> tuple:
    """Macdonald's row for the mu-cell, summed with ``Laurent`` objects:
    the factor D = prod (1 - t e^-alpha), (1 - e^-alpha) on the wall roots,
    straightened weight by weight."""
    walls = tuple(
        alpha
        for alpha, form in zip(rd.positive_roots, rd.positive_coroot_forms)
        if dot(form, mu) == 0
    )
    d = {((0,) * rd.rank, 0): 1}
    for alpha in rd.positive_roots:
        step = 0 if alpha in walls else 1
        nxt = dict(d)
        for (w, e), c in d.items():
            key = (vsub(w, alpha), e + step)
            c = nxt.get(key, 0) - c
            if c:
                nxt[key] = c
            else:
                del nxt[key]
        d = nxt
    weights = {}
    for (w, e), c in d.items():
        weights.setdefault(w, {})[(-2 * e, 0)] = c
    hts = [dot(rd.pair2_form, alpha) // 2 for alpha in walls]
    order = math.prod(h + 1 for h in hts) // math.prod(hts)
    lam2 = tuple(2 * x + r for x, r in zip(mu, rd.rho_b_times2))
    sums = {}
    for nu, t in weights.items():
        hit = straighten(rd, tuple(2 * x + y for x, y in zip(nu, lam2)))
        if hit is None:
            continue
        sign, top = hit
        c = sums.get(top, 0) + sign * Laurent(t)
        if c:
            sums[top] = c
        elif top in sums:
            del sums[top]
    shift = height2(rd, mu)
    out = []
    for lam, c in sums.items():
        terms = {}
        for (a, b), x in c.terms.items():
            q, r = divmod(x, order)
            assert not r
            terms[(a + shift, b)] = q
        out.append((lam, Laurent(terms)))
    return tuple(sorted(out, reverse=True))


def _change_basis_reference(f: GradedElement, row, basis: str) -> GradedElement:
    out = {}
    for k, terms in f.grades.items():
        acc = out[k] = {}
        for vec, c in terms.items():
            for target, w in row(f.rd, vec):
                acc[target] = acc.get(target, Laurent.zero()) + c * w
    return GradedElement(f.rd, basis, out, f.window)


def satake_reference(f: GradedElement) -> GradedElement:
    assert f.basis == CELLS
    return _change_basis_reference(f, satake_basis_row_reference, CHARS)


def inverse_satake_reference(phi: GradedElement) -> GradedElement:
    assert phi.basis == CHARS
    return _change_basis_reference(phi, kl_row, CELLS)


def satake_mul_reference(a: GradedElement, b: GradedElement) -> GradedElement:
    """The graded product over the grades ``conv_window`` determines."""
    wout = conv_window(a, b)
    out = {}
    for i, ta in a.grades.items():
        for j, tb in b.grades.items():
            g = i + j
            if not wout.knows(g):
                continue
            acc = out.setdefault(g, {})
            for lam, c1 in ta.items():
                for mu, c2 in tb.items():
                    c = c1 * c2
                    for nu, m in tensor(a.rd, lam, mu):
                        acc[nu] = acc.get(nu, Laurent.zero()) + c * m
    return GradedElement(a.rd, CHARS, out, wout)


def spelled(e: GradedElement) -> tuple:
    """Everything an element stores, in its stored order: grades, the
    vectors of each grade, and the monomials of each coefficient."""
    return (
        e.basis,
        e.window,
        [
            (k, [(vec, list(c.terms.items())) for vec, c in terms.items()])
            for k, terms in e.grades.items()
        ],
    )
