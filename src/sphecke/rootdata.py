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

from functools import cache
from itertools import repeat
from operator import add, mul, neg, sub

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
    return tuple(map(add, a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(map(sub, a, b))


def vneg(a: Vec) -> Vec:
    return tuple(map(neg, a))


def vscale(c: int, a: Vec) -> Vec:
    return tuple(map(mul, repeat(c), a))


def dot(a: Vec, b: Vec) -> int:
    return sum(map(mul, a, b))


def mat_apply(m: Mat, v: Vec) -> Vec:
    return tuple(map(dot, m, repeat(v)))


def identity_mat(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


class RootDatum(Value):
    """Immutable root datum; safe to share across threads.

    The constructor derives the positive roots with their coroot forms and
    simple-root coefficients, ``rho_b_times2`` and ``pair2_form`` from the
    simple roots and their coroot forms, and raises InvalidInput where
    those give no finite root system that ``sigma`` grades.  ``w0`` is
    built on first read."""

    __slots__ = (
        "cartan",
        "rank",
        "simple_roots",
        "simple_coroot_forms",
        "sigma",
        "positive_roots",
        "positive_coroot_forms",
        "positive_coeffs",
        "rho_b_times2",
        "pair2_form",
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
        positive, balance = _close_roots(simples, forms)
        pos_roots, pos_forms, pos_coeffs = tuple(zip(*positive)) or ((),) * 3
        for r in pos_roots:
            if dot(sigma, r) != 0:
                raise InvalidInput(f"root {r} has nonzero grade under sigma")
        rho2 = tuple([sum(col) for col in zip(*pos_roots)]) or (0,) * rank
        pair2 = tuple([sum(col) for col in zip(*pos_forms)]) or (0,) * rank
        for alpha in pos_roots:
            if dot(pair2, alpha) <= 0:
                raise InvalidInput(f"height form not positive on {alpha}")
        _w0_word(simples, forms, rho2, len(pos_roots))
        if any(b != 1 for b in balance):
            raise InvalidInput("the simple reflections do not permute the positive roots")
        self._freeze(cartan, rank, simples, forms, sigma, pos_roots, pos_forms, pos_coeffs, rho2, pair2)

    @property
    def w0(self) -> Mat:
        """The longest Weyl element as a matrix, from the table ``_w0``."""
        return _w0(self)

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
    """GL(n) datum: standard Z^n coordinates, sigma = sum of entries; refused
    before anything is built past ``WEYL_CAP_DEFAULT`` roots, n(n - 1)/2."""
    if n < 1:
        raise InvalidInput("n must be >= 1")
    if n * (n - 1) // 2 > WEYL_CAP_DEFAULT:
        raise WeylCapError(f"root system exceeds cap {WEYL_CAP_DEFAULT}")
    eye = identity_mat(n)
    simple = [vsub(e, f) for e, f in zip(eye, eye[1:])]
    return RootDatum(f"GL{n}", n, simple, simple, (1,) * n)


def _euclidean_simples(kind: str, r: int):
    """Type B, C or D of rank r: e_0..e_(r-1) Euclidean, e_r central."""
    e = lambda i: tuple(1 if k == i else 0 for k in range(r + 1))
    chain = [vsub(e(i), e(i + 1)) for i in range(r - 1)]
    if kind == "B":
        simples = chain + [e(r - 1)]
        forms = list(chain) + [vscale(2, e(r - 1))]
    elif kind == "C":
        simples = chain + [vscale(2, e(r - 1))]
        forms = list(chain) + [e(r - 1)]
    elif r < 3:
        raise InvalidInput("type D needs rank >= 3")
    else:
        simples = chain + [vadd(e(r - 2), e(r - 1))]
        forms = list(simples)
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
    simples, forms = _euclidean_simples(kind, r)
    return RootDatum(f"{kind}{r}", r + 1, simples, forms, (0,) * r + (1,))


def _close_roots(simples, forms):
    """The positive roots as (root, coroot form, simple-root coefficients),
    root descending, by one walk up from the simple roots; and for each i
    the sum over those roots of the sign of f_i.

    Where f_i(beta) < 0, s_i(beta) = beta - f_i(beta) alpha_i is a higher
    positive root, with form f_beta - f_beta(alpha_i) f_i; every positive
    root is reached so (Humphreys, *Introduction to Lie Algebras and
    Representation Theory*, 10.2).  s_i maps the roots with f_i < 0 one to
    one into those with f_i > 0 other than alpha_i, so it permutes the
    positive roots but alpha_i, as in a finite root system, just when the
    i-th sum is 1.  Past ``WEYL_CAP_DEFAULT`` roots (an infinite system,
    such as an affine one) the walk stops with WeylCapError.
    """
    seen = {s: (f, e) for s, f, e in zip(simples, forms, identity_mat(len(simples)))}
    balance = [0] * len(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for beta in frontier:
            fbeta, cbeta = seen[beta]
            for i, (alpha, falpha) in enumerate(zip(simples, forms)):
                c = dot(falpha, beta)
                balance[i] += (c > 0) - (c < 0)
                if c >= 0:
                    continue
                img = tuple([x - c * a for x, a in zip(beta, alpha)])
                if img not in seen:
                    e = dot(fbeta, alpha)
                    fimg = tuple([x - e * y for x, y in zip(fbeta, falpha)])
                    seen[img] = (fimg, cbeta[:i] + (cbeta[i] - c,) + cbeta[i + 1:])
                    new.append(img)
                    if len(seen) > WEYL_CAP_DEFAULT:
                        raise WeylCapError(f"root system exceeds cap {WEYL_CAP_DEFAULT}")
        frontier = new
    return sorted(((beta, f, coeffs) for beta, (f, coeffs) in seen.items()), reverse=True), balance


def _w0_word(simples, forms, rho2: Vec, length: int) -> list[int]:
    """A reduced word of w0: reflect the regular vector rho2 across any
    wall it lies on the positive side of until it reaches -rho2.

    Each step s_i raises the length by one, so the word has l(w0) letters,
    one per positive root (Humphreys, *Reflection Groups and Coxeter
    Groups*, 1.6-1.8), and the walk stops there.
    """
    word, v = [], rho2
    for _ in range(length):
        i = next((i for i, f in enumerate(forms) if dot(f, v) > 0), None)
        if i is None:
            break
        c = dot(forms[i], v)
        v = tuple([x - c * a for x, a in zip(v, simples[i])])
        word.append(i)
    if v != vneg(rho2):
        raise InvalidInput("the half-sum vector is not regular: no finite Weyl group")
    return word


@cache
def _w0(rd: RootDatum) -> Mat:
    """w0 as a matrix, from its reduced word by the rank-one rule
    s_i w = w - alpha_i (f_i w)."""
    roots, forms = rd.simple_roots, rd.simple_coroot_forms
    w = identity_mat(rd.rank)
    for i in _w0_word(roots, forms, rd.rho_b_times2, len(rd.positive_roots)):
        fw = tuple(dot(forms[i], col) for col in zip(*w))
        w = tuple(tuple(x - a * y for x, y in zip(row, fw)) for row, a in zip(w, roots[i]))
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


def bareiss(rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22
    (1968)) of integer ``rows`` in place on their first ``ncols`` columns,
    later columns carried along.

    Returns (the pivot columns, d), d the last pivot (1 with none); their
    number is the rank.  Row i then holds d at pivot i and 0 at every
    other pivot column, and the rows past the rank are 0 on the first
    ``ncols`` columns.  Every entry is a minor of the input, so every
    division is exact; with a square nonsingular A first, d = +-det A and
    the carried columns B of [A | B] become d A^-1 B.
    """
    pivots, prev = [], 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        d = pr[c]
        for i, ri in enumerate(rows):
            if i != r:
                rows[i] = [(d * x - ri[c] * y) // prev for x, y in zip(ri, pr)]
        pivots.append(c)
        prev = d
    return pivots, prev


@cache
def _coeff_map(rd: RootDatum) -> tuple[Mat, int]:
    """(M, d): a vector v of the root span has simple-root coefficients
    M v / d.

    Pairing v = sum_j c_j alpha_j with the simple coroot forms gives
    A c = F v, with A the Cartan matrix and F the forms as rows, so
    M = d A^-1 F is read from one ``bareiss`` of [A | F].
    """
    roots, forms = rd.simple_roots, rd.simple_coroot_forms
    rows = [[dot(f, a) for a in roots] + list(f) for f in forms]
    _, d = bareiss(rows, len(roots))
    return tuple(tuple(row[len(roots):]) for row in rows), d


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
    spelled = [dot(coeffs, row) for row in _label_tables(rd)[1]]
    return tuple(coeffs) if spelled == list(v) else None


@cache
def _label_tables(rd: RootDatum) -> tuple:
    """The datum's tables for walks in Dynkin labels (CONVENTIONS.md):
    the Cartan matrix by columns, (f_j(alpha_i))_j for each simple root
    alpha_i; the simple roots by coordinate, (alpha_i[t])_i for each
    coordinate t; and each positive root as (its labels, its simple-root
    coefficients, the root)."""
    forms, roots = rd.simple_coroot_forms, rd.simple_roots
    columns = tuple(tuple(dot(f, alpha) for f in forms) for alpha in roots)
    rows = tuple(tuple(alpha[t] for alpha in roots) for t in range(rd.rank))
    labels = [dynkin_labels(rd, beta) for beta in rd.positive_roots]
    steps = tuple(zip(labels, rd.positive_coeffs, rd.positive_roots))
    return columns, rows, steps


def dynkin_labels(rd: RootDatum, v: Vec) -> Vec:
    """The pairings of v with the simple coroot forms (CONVENTIONS.md)."""
    return tuple([sum(map(mul, f, v)) for f in rd.simple_coroot_forms])


def dominant_labels(rd: RootDatum, v: Vec) -> Vec:
    """The Dynkin labels of v; LengthMismatchError for a vector of the
    wrong length and NonDominantError when a label is negative."""
    rd.check_length(v)
    labels = dynkin_labels(rd, v)
    if min(labels, default=0) < 0:
        raise NonDominantError(f"{v} is not dominant")
    return labels


def dominant_below(rd: RootDatum, lam: Vec) -> list[Vec]:
    """All dominant mu <= lam, reverse-lexicographically descending."""
    return [mu for mu, _ in dominant_below_coeffs(rd, dominant_labels(rd, lam), tuple(lam))]


def dominant_below_coeffs(rd: RootDatum, start: Vec, top: Vec) -> list[tuple[Vec, Vec]]:
    """The pairs (top - (lam - mu), the simple-root coefficients of
    lam - mu) over the dominant mu <= lam, for any dominant lam with Dynkin
    labels ``start``, mu reverse-lexicographically descending: with
    top = lam the pairs start with mu, and any top keeps their order.

    A breadth-first walk down from lam that subtracts one positive root
    at a time and keeps only dominant weights.  It reaches every
    dominant mu <= lam because any two comparable dominant weights are
    joined by a chain of dominant weights whose steps are single
    positive roots (Stembridge, *The partial order of dominant weights*,
    Adv. Math. 136 (1998)).

    The walk runs in Dynkin labels: mu is dominant when its labels are
    nonnegative, and subtracting a positive root subtracts that root's
    labels.  On lam minus the root lattice the labels fix the weight (the
    Cartan matrix is invertible), so they key the walk; each weight is
    carried along with the simple-root coefficients of lam - mu, the root
    subtracted from the one and its coefficients added to the other.
    """
    _, _, steps = _label_tables(rd)
    seen = {start: (top, (0,) * len(start))}
    frontier = [start]
    while frontier:
        new = []
        for labels in frontier:
            mu, coeffs = seen[labels]
            for step, beta, root in steps:
                img = tuple(map(sub, labels, step))
                if min(img) >= 0 and img not in seen:
                    seen[img] = (tuple(map(sub, mu, root)), tuple(map(add, coeffs, beta)))
                    new.append(img)
        frontier = new
    return sorted(seen.values(), reverse=True)


# ---------------------------------------------------------------------------
# Weyl group


def _orbit_walk(rd: RootDatum, first: Vec, start: Vec, steps, bound=float("inf")) -> list:
    """The Weyl orbit of a dominant v with Dynkin labels ``first``, walked
    breadth-first by simple reflections from v: pairs (the depth at which
    the walk first reaches an image u, x_u).  x_v is ``start``, and where
    s_i first reaches an image it subtracts f_i(u) steps[i] from x_u.  So
    with v and the simple roots x_u is u, and with zero and the unit
    vectors it holds the simple-root coefficients of u - v.

    The walk runs in Dynkin labels, as ``_straighten_labels`` does: s_i
    subtracts f_i(u) times the i-th column of the Cartan matrix from the
    labels, which fix u within the orbit and key the walk.  Only a
    positive label reaches a new image (a negative one leads back), so the
    drop, the sum of the labels stepped by (of the coefficients of v - u),
    rises along the walk, and an image whose drop passes ``bound`` is
    neither recorded nor expanded: the walk returns the images of
    drop <= bound, in the same order and at the same depths.  Past
    ``WEYL_CAP_DEFAULT`` kept images it stops with WeylCapError.
    """
    columns, _, _ = _label_tables(rd)
    seen = {first}
    walk = [(0, start)]
    frontier = [(first, start, 0)]
    depth = 0
    while frontier:
        depth += 1
        new = []
        for labels, x, drop in frontier:
            for i, column in enumerate(columns):
                c = labels[i]
                if c <= 0 or drop + c > bound:
                    continue  # s_i fixes u, leads back, or passes the bound
                img = tuple([y - c * a for y, a in zip(labels, column)])
                if img not in seen:
                    seen.add(img)
                    entry = (depth, tuple([y - c * a for y, a in zip(x, steps[i])]))
                    walk.append(entry)
                    new.append((img, entry[1], drop + c))
                    if len(seen) > WEYL_CAP_DEFAULT:
                        raise WeylCapError(f"Weyl group exceeds cap {WEYL_CAP_DEFAULT}")
        frontier = new
    return walk


def weyl_orbit(rd: RootDatum, mu: Vec) -> set[Vec]:
    """The Weyl orbit of the dominant weight mu."""
    return {u for _, u in _orbit_walk(rd, dominant_labels(rd, mu), mu, rd.simple_roots)}


@cache
def _straighten_labels(rd: RootDatum, labels: Vec):
    """The straightening of every vector v with Dynkin labels ``labels``:
    (sign, w(v) - v) with w(v) strictly dominant and sign = (-1)^l(w), or
    None when the walk meets a wall.  The labels fix v up to a central z,
    which w fixes, so w(v + z) - (v + z) = w(v) - v and one entry serves
    every translate: the Brauer-Klimyk products and Macdonald rows of one
    run straighten the same labels many times over, those of nu + rho.

    The first label that is not positive decides each step: zero puts the
    vector on a wall, and a negative one reflects in that simple root.
    s_i(u) = u - f_i(u) alpha_i subtracts f_i(u) times the i-th column of
    the Cartan matrix from the labels and f_i(u) from the i-th simple-root
    coefficient of w(v) - v, which is spelled as a vector once, at the
    end.
    """
    columns, rows, _ = _label_tables(rd)
    coeffs = [0] * len(labels)
    sign = 1
    while True:
        for i, c in enumerate(labels):
            if c <= 0:
                break
        else:
            break
        if not c:
            return None
        coeffs[i] -= c
        labels = [x - c * a for x, a in zip(labels, columns[i])]
        sign = -sign
    return sign, tuple([dot(coeffs, row) for row in rows])


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
    rho_b_times_2 that the datum does not derive, and WeylCapError, before
    any root is walked, for more than ``WEYL_CAP_DEFAULT`` stated roots."""
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
    if len(stated) > WEYL_CAP_DEFAULT:
        raise WeylCapError(f"root system exceeds cap {WEYL_CAP_DEFAULT}")
    if forms is None:
        forms = []
        for s in simples:
            norm = dot(s, s)
            if not norm:
                raise InvalidInput("a zero simple root has no coroot form")
            f, rems = zip(*(divmod(2 * x, norm) for x in s))
            if any(rems):
                raise InvalidInput(
                    f"coroot form of {s} is not integral; supply simple_coroot_forms"
                )
            forms.append(f)
    rd = RootDatum(cartan, rank, simples, forms, sigma)
    if stated != sorted(rd.positive_roots):
        raise InvalidInput("stated positive roots disagree with the reflection closure")
    if stated_rho2 != rd.rho_b_times2:
        raise InvalidInput("stated rho_b_times_2 disagrees with the root sum")
    return rd
