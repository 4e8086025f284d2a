"""Reference routes the tests check the package against.

None of these is on a production path: the Weyl group as matrices
(breadth-first by length), the signed orbit of a regular weight with its
simple-root coefficients solved image by image, exact rational row
reduction, the dominance order and the half-sum pairing spelled out,
JSON text round trips of graded elements, the Kostka-Foulkes row summed
over the whole orbit with a memo-free partition count, and the
transforms and the product summed one ``Laurent`` object per term, as
the package once summed them.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cache


from sphecke.characters import tensor
from sphecke.errors import NonDominantError, WeylCapError
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
    vadd,
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
    walk = _orbit_walk(rd, v, v, rd.simple_roots)
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


def _partition_counts(roots, beta) -> dict:
    """{number of roots used: number of ways} to write the coefficient
    vector beta as a sum of the nonnegative vectors ``roots``: plain
    recursion over the list, no memo, each multiplicity run up until a
    coefficient goes negative."""
    if not roots:
        return {} if any(beta) else {0: 1}
    out = {}
    t = 0
    while min(beta) >= 0:
        for e, c in _partition_counts(roots[1:], beta).items():
            out[e + t] = out.get(e + t, 0) + c
        beta = vsub(beta, roots[0])
        t += 1
    return out


def kl_row_reference(rd: RootDatum, lam: Vec) -> tuple:
    """``kostka.kl_row`` summed over the whole shifted orbit, each graded
    partition count by ``_partition_counts`` over the positive roots'
    simple-root coefficients, lam - mu solved by ``root_coeffs`` for each
    mu, and the q^-1 polynomial shifted by v^(-2<rho_B,mu>) as a second
    step."""
    orbit = shifted_orbit_reference(rd, lam)
    roots = [root_coeffs(rd, r) for r in rd.positive_roots]
    row = []
    for mu in dominant_below(rd, lam):
        delta = root_coeffs(rd, vsub(lam, mu))
        total = {}
        for _, coeffs, sign in orbit if delta is not None else ():
            for e, c in _partition_counts(roots, vadd(delta, coeffs)).items():
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


# ---------------------------------------------------------------------------
# Kostka-Foulkes polynomials by charge, weight multiplicities by Freudenthal


def semistandard_tableaux(shape, weight):
    """Every semistandard tableau of the partition ``shape`` with content
    ``weight`` (weight[i] entries equal to i + 1), as a list of rows.  The
    entries equal to i + 1 fill a horizontal strip: row j grows to at most
    the old length of row j - 1 (Macdonald, *Symmetric Functions and Hall
    Polynomials*, I.1)."""
    shape = [x for x in shape if x]

    def strips(cur, j, left):
        if j == len(shape):
            if not left:
                yield ()
            return
        top = min(shape[j], cur[j - 1] if j else shape[0])
        for add in range(min(left, top - cur[j]) + 1):
            for rest in strips(cur, j + 1, left - add):
                yield (cur[j] + add,) + rest

    def fill(rows, cur, letter):
        if letter > len(weight):
            if list(cur) == shape:
                yield rows
            return
        for nu in strips(cur, 0, weight[letter - 1]):
            grown = [row + [letter] * (b - a) for row, a, b in zip(rows, cur, nu)]
            yield from fill(grown, nu, letter + 1)

    yield from fill([[] for _ in shape], (0,) * len(shape), 1)


def charge(word) -> int:
    """The Lascoux-Schutzenberger charge of a word whose content is a
    partition.  The word splits into standard subwords: scanning leftward
    from the right end, take the first 1, then the next 2, 3, ... up to
    the largest letter left, wrapping round to the right end when the
    scan runs out; repeat on what remains.  In a subword 1 has index 0,
    and r + 1 has the index of r, plus one when the scan wrapped (r + 1
    stands to the right of r); the charge is the sum of all indices
    (Macdonald, III.6, whose words run in the reverse order)."""
    left = list(range(len(word)))
    total = 0
    while left:
        p = max(q for q in left if word[q] == 1)
        chosen, index = [p], 0
        for r in range(2, max(word[q] for q in left) + 1):
            before = [q for q in left if word[q] == r and q < p]
            if not before:
                index += 1
            p = max(before or [q for q in left if word[q] == r])
            chosen.append(p)
            total += index
        left = [q for q in left if q not in chosen]
    return total


def charge_kostka(lam, mu) -> dict:
    """K[lam, mu](t) = sum over the semistandard tableaux T of shape lam and
    content mu of t^charge(T), as {exponent: coefficient}; T is read row
    by row from the bottom, each row left to right (Lascoux-Schutzenberger,
    C. R. Acad. Sci. Paris 286 (1978); Macdonald, III.6)."""
    mu = [x for x in mu if x]
    out = {}
    for rows in semistandard_tableaux(lam, mu):
        e = charge([x for row in reversed(rows) for x in row])
        out[e] = out.get(e, 0) + 1
    return out


def freudenthal_multiplicities(rd: RootDatum, lam: Vec) -> dict:
    """Every weight of the irreducible module of highest weight lam, with
    its multiplicity, from Freudenthal's formula (Humphreys, *Introduction
    to Lie Algebras and Representation Theory*, 22.3):

        ((lam + delta, lam + delta) - (mu + delta, mu + delta)) m(mu)
            = 2 sum_(alpha > 0) sum_(k >= 1) m(mu + k alpha) (mu + k alpha, alpha).

    The invariant form is (nu, alpha_j) = d_j <nu, alpha_j^vee>, read off the
    coroot forms, with the factors d_j that make the Cartan matrix
    (d_j <alpha_i, alpha_j^vee>) symmetric, so no coordinate dot product
    enters (G2 sits in root-basis coordinates).  Weights are kept as the
    simple-root coefficients c of lam - mu.  The dominant mu <= lam are
    found by walking down one positive root at a time (complete by
    Stembridge, Adv. Math. 136 (1998)) and solved by increasing height of
    c; m(nu) of any nu is that of its dominant conjugate, reached by simple
    reflections, and each orbit is spread out the same way."""
    simples, forms = rd.simple_roots, rd.simple_coroot_forms
    r = len(simples)
    cartan = [[dot(forms[j], simples[i]) for j in range(r)] for i in range(r)]
    d = [None] * r
    for start in range(r):  # one free scale per component of the Dynkin diagram
        if d[start] is None:
            d[start], todo = Fraction(1), [start]
            while todo:
                i = todo.pop()
                for j in range(r):
                    if cartan[i][j] and d[j] is None:
                        d[j] = d[i] * cartan[j][i] / cartan[i][j]
                        todo.append(j)
    assert all(d[j] * cartan[i][j] == d[i] * cartan[j][i] for i in range(r) for j in range(r))

    def pair(nu, coeffs):  # (nu, sum_j coeffs_j alpha_j)
        return sum(c * d[j] * dot(forms[j], nu) for j, c in enumerate(coeffs))

    def weight(c):
        return tuple(x - sum(k * a[t] for k, a in zip(c, simples)) for t, x in enumerate(lam))

    def dominant(c):
        nu, c = weight(c), list(c)
        while (i := next((i for i in range(r) if dot(forms[i], nu) < 0), None)) is not None:
            n = dot(forms[i], nu)
            nu = tuple(x - n * a for x, a in zip(nu, simples[i]))
            c[i] += n
        return tuple(c)

    def is_dominant(c):
        return all(dot(f, weight(c)) >= 0 for f in forms)

    positive = [(alpha, tuple(int(x) for x in solve_simple_coeffs(simples, alpha)))
                for alpha in rd.positive_roots]
    two_delta = [sum(alpha[t] for alpha, _ in positive) for t in range(rd.rank)]
    found, todo = {(0,) * r}, [(0,) * r]
    while todo:
        c = todo.pop()
        for _, a in positive:
            below = tuple(x + y for x, y in zip(c, a))
            if below not in found and is_dominant(below):
                found.add(below)
                todo.append(below)
    mult = {}
    for c in sorted(found, key=sum):
        if not any(c):
            mult[c] = Fraction(1)
            continue
        mu = weight(c)
        rhs = 0
        for alpha, a in positive:
            k = 1
            while m := mult.get(dominant(tuple(x - k * y for x, y in zip(c, a))), 0):
                rhs += m * pair(tuple(x + k * y for x, y in zip(mu, alpha)), a)
                k += 1
        # (lam + delta)^2 - (mu + delta)^2 = (lam - mu, lam + mu + 2 delta)
        mult[c] = 2 * rhs / pair(tuple(map(sum, zip(lam, mu, two_delta))), c)
        assert mult[c] > 0 and mult[c].denominator == 1, (lam, mu, mult[c])
    out = {}
    for c, m in mult.items():
        orbit, todo = {weight(c)}, [weight(c)]
        while todo:
            nu = todo.pop()
            for alpha, f in zip(simples, forms):
                image = tuple(x - dot(f, nu) * a for x, a in zip(nu, alpha))
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        out.update(dict.fromkeys(orbit, int(m)))
    return out
