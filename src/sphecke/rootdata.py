"""Split reductive root data with a determinant-like grading character.

A datum lives in a fixed integer coordinate lattice Z^m.  The stored
roots act on that lattice and cut out the dominance order on the
vectors indexing double cosets; each simple root carries an explicit
integer coroot form, so reflections and pairings are exact and stay in
the lattice in any coordinates.  ``sigma`` is an integer form vanishing
on every root (the grading character: cells with sigma(mu) = k make up
grade k); ``rho_b_times2`` is the sum of the positive roots (the shift
vector of the alternating sums), and ``pair2_form`` is the sum of the
positive coroot forms (twice the half-sum pairing, and the height form
that grades the partition recursions).

GL(n) uses the standard Z^n basis with sigma = (1,...,1); the simple
presets b2..b4, c2..c4, d3, d4 use the classical Euclidean realization
of the root system with a central coordinate adjoined, and g2 uses root
basis coordinates.  In all presets the coroot forms are integral.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from operator import add, mul, sub

from .errors import (
    InvalidInput,
    LengthMismatchError,
    NonDominantError,
    WeylCapError,
    json_int,
    json_ints,
)
from .record import Value

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]

WEYL_CAP_DEFAULT = 50_000


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def vscale(c: int, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def dot(a: Vec, b: Vec) -> int:
    return sum(map(mul, a, b))


def mat_apply(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def identity_mat(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


class RootDatum(Value):
    """Immutable root datum; safe to share across threads.

    The constructor derives the positive roots and forms, ``rho_b_times2``,
    ``pair2_form`` and ``w0`` from the simple roots and their coroot forms,
    and raises InvalidInput where those give no finite root system that
    ``sigma`` grades."""

    __slots__ = (
        "cartan",
        "rank",
        "simple_roots",
        "simple_coroot_forms",
        "sigma",
        "positive_roots",
        "positive_coroot_forms",
        "rho_b_times2",
        "pair2_form",
        "w0",
    )

    def __init__(
        self,
        cartan: str,
        rank: int,
        simple_roots: tuple[Vec, ...],
        simple_coroot_forms: tuple[Vec, ...],
        sigma: Vec,
    ):
        simples = tuple(tuple(r) for r in simple_roots)
        forms = tuple(tuple(f) for f in simple_coroot_forms)
        sigma = tuple(sigma)
        if len(simples) != len(forms):
            raise InvalidInput("simple roots and coroot forms must pair up")
        for v in simples + forms + (sigma,):
            if len(v) != rank:
                raise LengthMismatchError(f"{v} has length {len(v)}, want {rank}")
        for alpha, f in zip(simples, forms):
            if dot(f, alpha) != 2:
                raise InvalidInput(f"coroot form of {alpha} does not pair to 2")
        positive = _close_roots(simples, forms)
        pos_roots = tuple(r for r, _ in positive)
        pos_forms = tuple(f for _, f in positive)
        for r in pos_roots:
            if dot(sigma, r) != 0:
                raise InvalidInput(f"root {r} has nonzero grade under sigma")
        rho2 = tuple(sum(r[i] for r in pos_roots) for i in range(rank))
        pair2 = tuple(sum(f[i] for f in pos_forms) for i in range(rank))
        for alpha in pos_roots:
            if dot(pair2, alpha) <= 0:
                raise InvalidInput(f"height form not positive on {alpha}")
        w0 = _longest_element(simples, forms, rho2, len(pos_roots))
        self._freeze(cartan, rank, simples, forms, sigma, pos_roots, pos_forms, rho2, pair2, w0)

    def __reduce__(self):
        return type(self), self._fields()[:5]

    def check_length(self, mu: Vec) -> None:
        if len(mu) != self.rank:
            raise LengthMismatchError(f"{mu} has length {len(mu)}, want {self.rank}")

    def is_dominant(self, mu: Vec) -> bool:
        self.check_length(mu)
        return all(dot(f, mu) >= 0 for f in self.simple_coroot_forms)


class RepSpec(Value):
    """A representation of the dual side, given by its highest weight."""

    __slots__ = ("highest_weight",)

    def __init__(self, highest_weight: Vec):
        self._freeze(highest_weight)


# ---------------------------------------------------------------------------
# constructors


def build_gl(n: int) -> RootDatum:
    """GL(n) datum: standard Z^n coordinates, sigma = sum of entries."""
    if n < 1:
        raise InvalidInput("n must be >= 1")
    simple = [
        tuple(1 if k == i else -1 if k == i + 1 else 0 for k in range(n))
        for i in range(n - 1)
    ]
    return RootDatum(f"GL{n}", n, simple, simple, (1,) * n)


def _euclidean_simples(kind: str, r: int):
    e = lambda i: tuple(1 if k == i else 0 for k in range(r))
    chain = [vsub(e(i), e(i + 1)) for i in range(r - 1)]
    if kind == "B":
        simples = chain + [e(r - 1)]
        forms = list(chain) + [vscale(2, e(r - 1))]
    elif kind == "C":
        simples = chain + [vscale(2, e(r - 1))]
        forms = list(chain) + [e(r - 1)]
    elif kind == "D":
        if r < 3:
            raise InvalidInput("type D needs rank >= 3")
        simples = chain + [vadd(e(r - 2), e(r - 1))]
        forms = list(simples)
    else:
        raise InvalidInput(f"unknown classical kind {kind}")
    return simples, forms


def build_preset(label: str) -> RootDatum:
    """Named data: gl1..gl4 plus central extensions of B, C, D, G types."""
    label = label.lower()
    if label.startswith("gl") and label[2:].isdigit():
        return build_gl(int(label[2:]))
    if label == "g2":
        # root-basis coordinates plus a central coordinate
        simples = [(1, 0, 0), (-2, -1, 0)]
        forms = [(2, -1, 0), (-1, 0, 0)]
        return RootDatum("G2", 3, simples, forms, (0, 0, 1))
    kind, digits = label[:1].upper(), label[1:]
    if kind not in "BCD" or digits not in ("2", "3", "4"):
        raise InvalidInput(f"unknown preset {label}")
    r = int(digits)
    base_simples, base_forms = _euclidean_simples(kind, r)
    simples = [s + (0,) for s in base_simples]
    forms = [f + (0,) for f in base_forms]
    sigma = (0,) * r + (1,)
    return RootDatum(f"{kind}{r}", r + 1, simples, forms, sigma)


def _close_roots(simples, forms):
    """All positive (root, coroot form) pairs, closed under reflections.

    Each root carries its integer coefficients in the simple roots along
    the reflections that reach it, s_i(beta) = beta - f_i(beta) alpha_i;
    the positive roots are those with no negative coefficient.  Past
    ``WEYL_CAP_DEFAULT`` roots (an infinite system, such as an affine one)
    the closure stops with WeylCapError.
    """
    k = len(simples)
    seen = {
        s: (f, tuple(int(j == i) for j in range(k)))
        for i, (s, f) in enumerate(zip(simples, forms))
    }
    frontier = list(simples)
    while frontier:
        new = []
        for beta in frontier:
            fbeta, cbeta = seen[beta]
            for i, (alpha, falpha) in enumerate(zip(simples, forms)):
                c = dot(falpha, beta)
                img = vsub(beta, vscale(c, alpha))
                if img not in seen:
                    fimg = vsub(fbeta, vscale(dot(fbeta, alpha), falpha))
                    seen[img] = (fimg, cbeta[:i] + (cbeta[i] - c,) + cbeta[i + 1:])
                    new.append(img)
                    if len(seen) > WEYL_CAP_DEFAULT:
                        raise WeylCapError(f"root system exceeds cap {WEYL_CAP_DEFAULT}")
        frontier = new
    positive = [(beta, f) for beta, (f, coeffs) in seen.items() if min(coeffs) >= 0]
    positive.sort(reverse=True)
    return positive


def _longest_element(simples, forms, rho2: Vec, length: int) -> Mat:
    """w0 from a reduced word: reflect the regular vector rho2 across any
    wall it lies on the positive side of until it reaches -rho2.

    Each step s_i raises the length by one, so the word has l(w0) letters,
    one per positive root (Humphreys, *Reflection Groups and Coxeter
    Groups*, 1.6-1.8), and the walk stops there; the matrix follows by the
    rank-one rule s_i w = w - alpha_i (f_i w).
    """
    w = identity_mat(len(rho2))
    v = rho2
    for _ in range(length):
        i = next((i for i, f in enumerate(forms) if dot(f, v) > 0), None)
        if i is None:
            break
        alpha, f = simples[i], forms[i]
        c = dot(f, v)
        v = tuple(x - c * a for x, a in zip(v, alpha))
        fw = tuple(dot(f, col) for col in zip(*w))
        w = tuple(tuple(x - a * y for x, y in zip(row, fw)) for row, a in zip(w, alpha))
    if v != vneg(rho2):
        raise InvalidInput("the half-sum vector is not regular: no finite Weyl group")
    return w


# ---------------------------------------------------------------------------
# pairings and orders


def sigma_grade(rd: RootDatum, mu: Vec) -> int:
    rd.check_length(mu)
    return dot(rd.sigma, mu)


def height2(rd: RootDatum, v: Vec) -> int:
    """Twice the pairing of v with the half sum of the positive roots;
    positive on nonzero sums of positive roots."""
    return dot(rd.pair2_form, v)


def l_constant(rd: RootDatum, rho: RepSpec) -> int:
    lam = rho.highest_weight
    if not rd.is_dominant(lam):
        raise NonDominantError(f"highest weight {lam} is not dominant")
    l = dot(rd.pair2_form, lam)
    if l < 0:
        raise InvalidInput(f"negative normalization constant for {lam}")
    return l


def bareiss_solve(rows: list[list[int]]):
    """Solve a square integer system without fractions, or None if singular.

    ``rows`` is the n x (n + 1) augmented matrix [A | b], overwritten.
    Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22
    (1968)): every division is exact, and at the end each diagonal entry
    is d = +-det A and the last column is d x.  Returns (numerators, d)
    with d > 0 and x = numerators / d.
    """
    n = len(rows)
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            return None
        rows[k], rows[piv] = rows[piv], rows[k]
        pk = rows[k]
        d = pk[k]
        for i in range(n):
            if i != k:
                ri = rows[i]
                c = ri[k]
                rows[i] = [(d * x - c * y) // prev for x, y in zip(ri, pk)]
        prev = d
    nums = [row[n] for row in rows]
    if prev < 0:
        return [-x for x in nums], -prev
    return nums, prev


@cache
def _coeff_map(rd: RootDatum) -> tuple[Mat, int]:
    """(M, d) with d > 0: a vector v of the root span has simple-root
    coefficients M v / d.

    Pairing v = sum_j c_j alpha_j with the simple coroot forms gives
    A c = F v, with A the Cartan matrix and F the forms as rows; each
    column of M = d A^-1 F comes from one fraction-free solve.
    """
    forms = rd.simple_coroot_forms
    cartan = [[dot(f, a) for a in rd.simple_roots] for f in forms]
    cols, d = [], 1
    for j in range(rd.rank):
        col, d = bareiss_solve([row + [f[j]] for row, f in zip(cartan, forms)])
        cols.append(col)
    return tuple(zip(*cols)), d


def root_coeffs(rd: RootDatum, v: Vec) -> Vec | None:
    """The integer coefficients of v in the simple roots, or None when v is
    off the root lattice (off its span, or at a fractional coefficient)."""
    m, d = _coeff_map(rd)
    coeffs = []
    for row in m:
        c, r = divmod(dot(row, v), d)
        if r:
            return None
        coeffs.append(c)
    spelled = [0] * rd.rank
    for c, alpha in zip(coeffs, rd.simple_roots):
        for i, a in enumerate(alpha):
            spelled[i] += c * a
    return tuple(coeffs) if tuple(spelled) == tuple(v) else None


@cache
def _label_tables(rd: RootDatum) -> tuple:
    """The datum's tables for walks in Dynkin labels (CONVENTIONS.md):
    the Cartan matrix by columns, (f_j(alpha_i))_j for each simple root
    alpha_i; the simple roots by coordinate, (alpha_i[t])_i for each
    coordinate t; and each positive root as (its labels, its simple-root
    coefficients)."""
    forms, roots = rd.simple_coroot_forms, rd.simple_roots
    columns = tuple(tuple(dot(f, alpha) for f in forms) for alpha in roots)
    rows = tuple(tuple(alpha[t] for alpha in roots) for t in range(rd.rank))
    steps = tuple(
        (tuple(dot(f, beta) for f in forms), root_coeffs(rd, beta)) for beta in rd.positive_roots
    )
    return columns, rows, steps


def dominant_below(rd: RootDatum, lam: Vec) -> list[Vec]:
    """All dominant mu <= lam, reverse-lexicographically descending."""
    return [mu for mu, _ in dominant_below_coeffs(rd, lam)]


def dominant_below_coeffs(rd: RootDatum, lam: Vec) -> list[tuple[Vec, Vec]]:
    """The pairs (mu, the simple-root coefficients of lam - mu) over the
    dominant mu <= lam, mu reverse-lexicographically descending.

    A breadth-first walk down from lam that subtracts one positive root
    at a time and keeps only dominant weights.  It reaches every
    dominant mu <= lam because any two comparable dominant weights are
    joined by a chain of dominant weights whose steps are single
    positive roots (Stembridge, *The partial order of dominant weights*,
    Adv. Math. 136 (1998)).

    The walk runs in Dynkin labels: mu is dominant when its labels are
    nonnegative, and subtracting a positive root subtracts that root's
    labels.  On lam minus the root lattice the labels fix the weight (the
    Cartan matrix is invertible), so they key the walk; each weight
    carries the simple-root coefficients of lam - mu and is rebuilt from
    them once, at the end.
    """
    if not rd.is_dominant(lam):
        raise NonDominantError(f"{lam} is not dominant")
    _, rows, steps = _label_tables(rd)
    start = tuple(dot(f, lam) for f in rd.simple_coroot_forms)
    seen = {start: (0,) * len(start)}
    frontier = [start]
    while frontier:
        new = []
        for labels in frontier:
            coeffs = seen[labels]
            for step, beta in steps:
                mu = tuple(map(sub, labels, step))
                if min(mu) >= 0 and mu not in seen:
                    seen[mu] = tuple(map(add, coeffs, beta))
                    new.append(mu)
        frontier = new
    return sorted(
        ((tuple(x - dot(c, row) for x, row in zip(lam, rows)), c) for c in seen.values()),
        reverse=True,
    )


# ---------------------------------------------------------------------------
# Weyl group


def _orbit_walk(rd: RootDatum, v: Vec, start: Vec, steps) -> list[tuple[int, Vec]]:
    """The Weyl orbit of v, walked breadth-first by simple reflections from
    v: pairs (the depth at which the walk first reaches an image u, x_u).
    x_v is ``start``, and where s_i first reaches an image it subtracts
    f_i(u) steps[i] from x_u.  So with v and the simple roots x_u is u,
    and with zero and the unit vectors it holds the simple-root
    coefficients of u - v.

    The walk runs in Dynkin labels, as ``straighten`` does: s_i subtracts
    f_i(u) times the i-th column of the Cartan matrix from the labels.
    Within the orbit the labels fix u, so they key the walk, and x is
    carried only to an image the walk has not met.  Past
    ``WEYL_CAP_DEFAULT`` images the walk stops with WeylCapError.
    """
    columns, _, _ = _label_tables(rd)
    first = tuple([dot(f, v) for f in rd.simple_coroot_forms])
    seen = {first}
    walk = [(0, start)]
    frontier = [(first, start)]
    depth = 0
    while frontier:
        depth += 1
        new = []
        for labels, x in frontier:
            for i, column in enumerate(columns):
                c = labels[i]
                if not c:
                    continue  # s_i fixes u
                img = tuple([y - c * a for y, a in zip(labels, column)])
                if img not in seen:
                    seen.add(img)
                    entry = (depth, tuple([y - c * a for y, a in zip(x, steps[i])]))
                    walk.append(entry)
                    new.append((img, entry[1]))
                    if len(seen) > WEYL_CAP_DEFAULT:
                        raise WeylCapError(f"Weyl group exceeds cap {WEYL_CAP_DEFAULT}")
        frontier = new
    return walk


def weyl_orbit(rd: RootDatum, mu: Vec) -> set[Vec]:
    return {u for _, u in _orbit_walk(rd, mu, mu, rd.simple_roots)}


def straighten(rd: RootDatum, v2: Vec):
    """Move v2 = 2(gamma + rho) into the dominant chamber by simple reflections.

    Returns (sign, lam) with 2(lam + rho) = w(v2) strictly dominant and
    sign = (-1)^l(w), so that the alternating sum over the orbit of v2 is
    sign times that of 2(lam + rho); returns None when v2 lies on a wall,
    where that sum vanishes.

    The walk runs in Dynkin labels, the pairings of the vector with the
    simple coroot forms.  The first label that is not positive decides
    each step: zero puts the vector on a wall, and a negative one reflects
    in that simple root.  s_i(u) = u - f_i(u) alpha_i subtracts f_i(u)
    times the i-th column of the Cartan matrix from the labels and f_i(u)
    from the i-th simple-root coefficient of w(v2) - v2, so the vector is
    rebuilt from those coefficients once, at the end.
    """
    columns, rows, _ = _label_tables(rd)
    labels = [dot(f, v2) for f in rd.simple_coroot_forms]
    coeffs = None
    sign = 1
    while True:
        for i, c in enumerate(labels):
            if c <= 0:
                break
        else:
            break
        if not c:
            return None
        if coeffs is None:
            coeffs = [0] * len(labels)
        coeffs[i] -= c
        labels = [x - c * a for x, a in zip(labels, columns[i])]
        sign = -sign
    if coeffs is not None:
        v2 = [x + dot(coeffs, row) for x, row in zip(v2, rows)]
    return sign, tuple((x - r) // 2 for x, r in zip(v2, rd.rho_b_times2))


def dual_weight_vec(rd: RootDatum, lam: Vec) -> Vec:
    """Highest weight of the contragredient: -w0(lam)."""
    return vneg(mat_apply(rd.w0, lam))


def datum_to_json(rd: RootDatum) -> dict:
    return {
        "cartan": rd.cartan,
        "rank": rd.rank,
        "sigma": list(rd.sigma),
        "simple_roots": [list(r) for r in rd.simple_roots],
        "simple_coroot_forms": [list(f) for f in rd.simple_coroot_forms],
        "positive_roots": [list(r) for r in rd.positive_roots],
        "rho_b_times_2": list(rd.rho_b_times2),
    }


def datum_from_json(obj: dict) -> RootDatum:
    """The datum a JSON body spells, as ``datum_to_json`` writes it, with
    the coroot forms optional; InvalidInput for a malformed body (an entry
    that is not a JSON integer is named) or stated positive roots or
    rho_b_times_2 that the datum does not derive."""
    def vectors(key):
        rows = obj[key]
        if type(rows) is not list:
            raise InvalidInput(f"{key} must be a list of integer lists, got {rows!r}")
        return [json_ints(r, f"{key}[{i}]") for i, r in enumerate(rows)]

    try:
        rank = json_int(obj["rank"], "rank")
        simples = vectors("simple_roots")
        forms = vectors("simple_coroot_forms") if "simple_coroot_forms" in obj else None
        sigma = json_ints(obj["sigma"], "sigma")
        stated = sorted(vectors("positive_roots"))
        stated_rho2 = json_ints(obj["rho_b_times_2"], "rho_b_times_2")
        cartan = obj["cartan"]
        if type(cartan) is not str:
            raise InvalidInput(f"cartan must be a string, got {cartan!r}")
    except InvalidInput as exc:
        raise InvalidInput(f"malformed datum: {exc}") from None
    except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
        raise InvalidInput(f"malformed datum: {type(exc).__name__}: {exc}") from None
    if forms is None:
        forms = []
        for s in simples:
            norm = dot(s, s)
            if not norm:
                raise InvalidInput("a zero simple root has no coroot form")
            f = tuple(Fraction(2 * x, norm) for x in s)
            if any(x.denominator != 1 for x in f):
                raise InvalidInput(
                    f"coroot form of {s} is not integral; supply simple_coroot_forms"
                )
            forms.append(tuple(int(x) for x in f))
    rd = RootDatum(cartan, rank, simples, forms, sigma)
    if stated != sorted(rd.positive_roots):
        raise InvalidInput("stated positive roots disagree with the reflection closure")
    if stated_rho2 != rd.rho_b_times2:
        raise InvalidInput("stated rho_b_times_2 disagrees with the root sum")
    return rd
