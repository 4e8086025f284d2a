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

from .errors import (
    InvalidInput,
    LengthMismatchError,
    NonDominantError,
    WeylCapError,
)
from .record import Record, Value

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
    return sum(x * y for x, y in zip(a, b))


def mat_apply(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    cols = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def identity_mat(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


class RootDatum(Value):
    """Immutable root datum; safe to share across threads."""

    __slots__ = (
        "cartan",
        "rank",
        "simple_roots",
        "simple_coroot_forms",
        "positive_roots",
        "positive_coroot_forms",
        "sigma",
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
        positive_roots: tuple[Vec, ...],
        positive_coroot_forms: tuple[Vec, ...],
        sigma: Vec,
        rho_b_times2: Vec,
        pair2_form: Vec,
        w0: Mat,
    ):
        self._freeze(cartan, rank, simple_roots, simple_coroot_forms, positive_roots,
                     positive_coroot_forms, sigma, rho_b_times2, pair2_form, w0)
        if len(self.simple_roots) != len(self.simple_coroot_forms):
            raise InvalidInput("simple roots and coroot forms must pair up")
        if len(self.positive_roots) != len(self.positive_coroot_forms):
            raise InvalidInput("positive roots and coroot forms must pair up")
        for r in self.positive_roots:
            if len(r) != self.rank:
                raise LengthMismatchError(f"root {r} has wrong length")
            if dot(self.sigma, r) != 0:
                raise InvalidInput(f"root {r} has nonzero grade under sigma")
        root_sum = tuple(sum(r[i] for r in self.positive_roots) for i in range(self.rank))
        if self.rho_b_times2 != root_sum:
            raise InvalidInput("rho_b_times2 is not the sum of the positive roots")
        form_sum = tuple(
            sum(f[i] for f in self.positive_coroot_forms) for i in range(self.rank)
        )
        if self.pair2_form != form_sum:
            raise InvalidInput("pair2_form is not the sum of the positive coroot forms")
        for alpha, f in zip(self.simple_roots, self.simple_coroot_forms):
            if alpha not in self.positive_roots:
                raise InvalidInput(f"simple root {alpha} not listed positive")
            if dot(f, alpha) != 2:
                raise InvalidInput(f"coroot form of {alpha} does not pair to 2")
        for alpha in self.positive_roots:
            if dot(self.pair2_form, alpha) <= 0:
                raise InvalidInput(f"height form not positive on {alpha}")

    def check_length(self, mu: Vec) -> None:
        if len(mu) != self.rank:
            raise LengthMismatchError(f"{mu} has length {len(mu)}, want {self.rank}")

    def is_dominant(self, mu: Vec) -> bool:
        self.check_length(mu)
        return all(dot(f, mu) >= 0 for f in self.simple_coroot_forms)

    def reflect_simple(self, i: int, mu: Vec) -> Vec:
        c = dot(self.simple_coroot_forms[i], mu)
        return vsub(mu, vscale(c, self.simple_roots[i]))


class RepSpec(Value):
    """A representation of the dual side, given by its highest weight."""

    __slots__ = ("highest_weight",)

    def __init__(self, highest_weight: Vec):
        self._freeze(highest_weight)


class ValidationReport(Record):
    __slots__ = ("passed", "failures", "notes")

    def __init__(
        self, passed: bool, failures: list[str] | None = None, notes: list[str] | None = None
    ):
        self.passed = passed
        self.failures = [] if failures is None else failures
        self.notes = [] if notes is None else notes

    def __str__(self):
        head = "PASS" if self.passed else "FAIL"
        lines = [head] + [f"  failure: {f}" for f in self.failures]
        lines += [f"  note: {n}" for n in self.notes]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# constructors


def _assemble(cartan, rank, simples, forms, sigma) -> RootDatum:
    positive = _close_roots(simples, forms)
    pos_roots = tuple(r for r, _ in positive)
    pos_forms = tuple(f for _, f in positive)
    rho2 = tuple(sum(r[i] for r in pos_roots) for i in range(rank))
    pair2 = tuple(sum(f[i] for f in pos_forms) for i in range(rank))
    w0 = _longest_element(tuple(simples), tuple(forms), rho2)
    return RootDatum(
        cartan=cartan,
        rank=rank,
        simple_roots=tuple(simples),
        simple_coroot_forms=tuple(forms),
        positive_roots=pos_roots,
        positive_coroot_forms=pos_forms,
        sigma=tuple(sigma),
        rho_b_times2=rho2,
        pair2_form=pair2,
        w0=w0,
    )


def build_gl(n: int) -> RootDatum:
    """GL(n) datum: standard Z^n coordinates, sigma = sum of entries."""
    if n < 1:
        raise InvalidInput("n must be >= 1")
    simple = [
        tuple(1 if k == i else -1 if k == i + 1 else 0 for k in range(n))
        for i in range(n - 1)
    ]
    return _assemble(f"GL{n}", n, simple, list(simple), (1,) * n)


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
        return _assemble("G2", 3, simples, forms, (0, 0, 1))
    kind, digits = label[:1].upper(), label[1:]
    if kind not in "BCD" or digits not in ("2", "3", "4"):
        raise InvalidInput(f"unknown preset {label}")
    r = int(digits)
    base_simples, base_forms = _euclidean_simples(kind, r)
    simples = [s + (0,) for s in base_simples]
    forms = [f + (0,) for f in base_forms]
    sigma = (0,) * r + (1,)
    return _assemble(f"{kind}{r}", r + 1, simples, forms, sigma)


def _close_roots(simples, forms):
    """All positive (root, coroot form) pairs, closed under reflections.

    Each root carries its integer coefficients in the simple roots along
    the reflections that reach it, s_i(beta) = beta - f_i(beta) alpha_i;
    the positive roots are those with no negative coefficient.
    """
    simples = [tuple(s) for s in simples]
    forms = [tuple(f) for f in forms]
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
        frontier = new
    positive = [(beta, f) for beta, (f, coeffs) in seen.items() if min(coeffs) >= 0]
    positive.sort(reverse=True)
    return positive


def _longest_element(simples, forms, rho2: Vec) -> Mat:
    """w0 from a reduced word: reflect the regular vector rho2 across any
    wall it lies on the positive side of until it reaches -rho2.

    Each step s_i raises the length by one, so the word has l(w0) letters
    (Humphreys, *Reflection Groups and Coxeter Groups*, 1.6-1.8); the
    matrix follows by the rank-one rule s_i w = w - alpha_i (f_i w).
    """
    w = identity_mat(len(rho2))
    v = rho2
    while True:
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


def pair_rho_b(rd: RootDatum, mu: Vec) -> Fraction:
    """Pairing of mu against the half sum of positive roots on the group
    side, i.e. half the sum of the stored coroot forms."""
    rd.check_length(mu)
    return Fraction(dot(rd.pair2_form, mu), 2)


def height2(rd: RootDatum, v: Vec) -> int:
    """Twice the pairing above; positive on nonzero sums of positive roots."""
    return dot(rd.pair2_form, v)


def l_constant(rd: RootDatum, rho: RepSpec) -> int:
    lam = rho.highest_weight
    if not rd.is_dominant(lam):
        raise NonDominantError(f"highest weight {lam} is not dominant")
    l = dot(rd.pair2_form, lam)
    if l < 0:
        raise InvalidInput(f"negative normalization constant for {lam}")
    return l


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


def dominance_leq(rd: RootDatum, mu: Vec, lam: Vec) -> bool:
    """True iff lam - mu is a nonnegative integer combination of simple roots."""
    for v in (mu, lam):
        if not rd.is_dominant(v):
            raise NonDominantError(f"{v} is not dominant")
    coeffs = root_coeffs(rd, vsub(lam, mu))
    return coeffs is not None and min(coeffs, default=0) >= 0


def dominant_below(rd: RootDatum, lam: Vec) -> list[Vec]:
    """All dominant mu <= lam, reverse-lexicographically descending.

    A breadth-first walk down from lam that subtracts one positive root
    at a time and keeps only dominant weights.  It reaches every
    dominant mu <= lam because any two comparable dominant weights are
    joined by a chain of dominant weights whose steps are single
    positive roots (Stembridge, *The partial order of dominant weights*,
    Adv. Math. 136 (1998)).
    """
    if not rd.is_dominant(lam):
        raise NonDominantError(f"{lam} is not dominant")
    seen = {lam}
    frontier = [lam]
    while frontier:
        new = []
        for v in frontier:
            for alpha in rd.positive_roots:
                mu = vsub(v, alpha)
                if mu not in seen and rd.is_dominant(mu):
                    seen.add(mu)
                    new.append(mu)
        frontier = new
    return sorted(seen, reverse=True)


# ---------------------------------------------------------------------------
# Weyl group


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


def _orbit_walk(rd: RootDatum, v: Vec, cap: int, coeffs: bool = False) -> list[tuple]:
    """The Weyl orbit of v, walked breadth-first by simple reflections from
    v: pairs (u, the depth at which the walk first reaches u), or with
    ``coeffs`` triples that add the coefficients of u - v in the simple
    roots.

    The coefficients ride along the walk: s_i(u) = u - f_i(u) alpha_i
    changes only the i-th one, so no image is solved for.  Plain orbits
    (``weyl_orbit``) do not carry them.
    """
    k = len(rd.simple_roots)
    seen = {v}
    order = [(v, 0, (0,) * k) if coeffs else (v, 0)]
    frontier = order[:]
    depth = 0
    while frontier:
        depth += 1
        new = []
        for entry in frontier:
            u = entry[0]
            for i, (f, alpha) in enumerate(zip(rd.simple_coroot_forms, rd.simple_roots)):
                c = dot(f, u)
                img = tuple(x - c * a for x, a in zip(u, alpha))
                if img not in seen:
                    seen.add(img)
                    if coeffs:
                        cu = entry[2]
                        new.append((img, depth, cu[:i] + (cu[i] - c,) + cu[i + 1:]))
                    else:
                        new.append((img, depth))
                    if len(seen) > cap:
                        raise WeylCapError(f"Weyl group exceeds cap {cap}")
        order.extend(new)
        frontier = new
    return order


def signed_orbit(rd: RootDatum, v: Vec) -> list[tuple[Vec, int, Vec]]:
    """Triples (w(v), (-1)^l(w), the simple-root coefficients of w(v) - v)
    over the Weyl group, for a regular dominant v, v first.

    For regular v the map w -> w(v) is a bijection, and l(w) is the depth
    at which the orbit walk first reaches w(v).
    """
    if not all(dot(f, v) > 0 for f in rd.simple_coroot_forms):
        raise NonDominantError(f"{v} is not regular dominant")
    walk = _orbit_walk(rd, v, WEYL_CAP_DEFAULT, coeffs=True)
    return [(u, -1 if depth % 2 else 1, c) for u, depth, c in walk]


def weyl_orbit(rd: RootDatum, mu: Vec) -> set[Vec]:
    return {u for u, _ in _orbit_walk(rd, mu, WEYL_CAP_DEFAULT)}


def straighten(rd: RootDatum, v2: Vec):
    """Move v2 = 2(gamma + rho) into the dominant chamber by simple reflections.

    Returns (sign, lam) with 2(lam + rho) = w(v2) strictly dominant and
    sign = (-1)^l(w), so that the alternating sum over the orbit of v2 is
    sign times that of 2(lam + rho); returns None when v2 lies on a wall,
    where that sum vanishes.
    """
    forms, roots = rd.simple_coroot_forms, rd.simple_roots
    sign = 1
    while True:
        for form, alpha in zip(forms, roots):
            c = dot(form, v2)
            if c < 0:
                break
            if c == 0:
                return None
        else:
            return sign, tuple((x - r) // 2 for x, r in zip(v2, rd.rho_b_times2))
        v2 = tuple(x - c * a for x, a in zip(v2, alpha))
        sign = -sign


def dual_weight_vec(rd: RootDatum, lam: Vec) -> Vec:
    """Highest weight of the contragredient: -w0(lam)."""
    return vneg(mat_apply(rd.w0, lam))


# ---------------------------------------------------------------------------
# validation of a grading-compatible representation


def validate_rho(rd: RootDatum, rho: RepSpec) -> ValidationReport:
    """Torus-level checks: every weight has grade one and the weights span.

    Group-level hypotheses (connected kernel, faithfulness beyond the
    torus) are not visible from weight data; the report says so.
    """
    from .characters import rep_weight_multiset  # cycle-free at call time

    report = ValidationReport(passed=True)
    lam = rho.highest_weight
    if not rd.is_dominant(lam):
        report.passed = False
        report.failures.append(f"highest weight {lam} is not dominant")
        return report
    weights = rep_weight_multiset(rd, lam)
    bad = sorted(w for w in weights if sigma_grade(rd, w) != 1)
    if bad:
        report.passed = False
        report.failures.append(
            f"weights with grade != 1: {bad[:4]}{'...' if len(bad) > 4 else ''}"
        )
    # spanning = torus-level faithfulness proxy
    span = len(row_reduce([[Fraction(x) for x in w] for w in weights], rd.rank))
    if span < rd.rank:
        report.passed = False
        report.failures.append(
            f"weights span only {span} of {rd.rank} torus directions"
        )
    report.notes.append(
        "torus-level proxy only: connectedness of the kernel and global "
        "faithfulness are group-level hypotheses not checkable from weight data"
    )
    return report


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
    rank = int(obj["rank"])
    simples = [tuple(int(x) for x in r) for r in obj["simple_roots"]]
    if "simple_coroot_forms" in obj:
        forms = [tuple(int(x) for x in f) for f in obj["simple_coroot_forms"]]
    else:
        forms = []
        for s in simples:
            norm = dot(s, s)
            f = tuple(Fraction(2 * x, norm) for x in s)
            if any(x.denominator != 1 for x in f):
                raise InvalidInput(
                    f"coroot form of {s} is not integral; supply simple_coroot_forms"
                )
            forms.append(tuple(int(x) for x in f))
    rd = _assemble(
        str(obj["cartan"]), rank, simples, forms, tuple(int(x) for x in obj["sigma"])
    )
    stated = sorted(tuple(int(x) for x in r) for r in obj["positive_roots"])
    if stated != sorted(rd.positive_roots):
        raise InvalidInput("stated positive roots disagree with the reflection closure")
    if tuple(int(x) for x in obj["rho_b_times_2"]) != rd.rho_b_times2:
        raise InvalidInput("stated rho_b_times_2 disagrees with the root sum")
    return rd
