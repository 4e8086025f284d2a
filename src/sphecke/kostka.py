"""Graded partition counts and the q-deformed weight multiplicities.

``kostant_q`` counts expressions of a vector as sums of positive roots,
graded by length; ``lusztig_q_analogue`` is the Weyl alternating sum of
those counts (Lusztig's q-analogue of weight multiplicity, the
Kostka–Foulkes polynomial K[lam, mu](q)), the change-of-basis polynomial
between Weyl characters and double-coset indicators; ``kl_row`` gives a
whole row of it, in the form the inverse transform reads.  All of them
are ``Laurent`` polynomials in v with q = v^2: the first two return
K(q), and ``kl_row`` holds v^(-2<rho_B,mu>) K(q^-1)
(``weight_multiplicities`` reads only its coefficient sum, which the
shift leaves alone).  A row depends on lam only through its Dynkin
labels, so ``_label_row``, keyed by them, is the one table of rows, and
``kl_row`` translates its entry to lam (``_translate``).

Everything is counted in simple-root coefficients (Kostant's partition
function, Humphreys, *Introduction to Lie Algebras and Representation
Theory*, 24.2, computed by recursion over the roots as in
Schmidt–Bincer, J. Math. Phys. 25 (1984)).  This module holds that
recursion: ``_context`` builds it once per datum, with the one memo
every count reads, and only this module reads the memo's format.  The
shifted orbit reads only labels and carries only the coefficients of
w(lam + rho) - (lam + rho) along its walk, which stops at the largest
height of lam - mu the caller reads; a row reads those of lam - mu off
the dominance walk; and a vector with a negative coefficient is dropped
before any count, so the memo holds only vectors inside the cone.  A
vector off the root lattice counts zero.
"""

from __future__ import annotations

from functools import cache
from operator import add, sub

from .errors import GradeMismatchError
from .laurent import Laurent
from .rootdata import (
    RootDatum,
    Vec,
    _label_tables,
    _orbit_walk,
    dominant_below_coeffs,
    dominant_labels,
    height2,
    identity_mat,
    root_coeffs,
    sigma_grade,
    vsub,
)


@cache
def _context(rd: RootDatum) -> tuple:
    """The graded partition count of the datum, and its memo.

    The count is a recursion over the positive roots' simple-root
    coefficients: from a coefficient vector beta and a root index it
    returns {number of roots used: number of expressions of beta} by the
    roots from that index on, read only, as the memo holds it.  The roots
    run in reverse-lex order, so the roots from index i on are all zero
    before the first nonzero coefficient of roots[i]: a branch drops as
    soon as a coefficient goes negative, or stays positive where no
    remaining root can lower it.  Every memo key is a vector inside the
    cone, given that no caller passes one with a negative coefficient."""
    roots = tuple(sorted((coeffs for _, coeffs, _ in _label_tables(rd)[2]), reverse=True))
    last = len(roots)
    lead = tuple(next(j for j, x in enumerate(r) if x) for r in roots) + (len(rd.simple_roots),)
    memo = {}

    def count(beta, idx):
        if any(beta[: lead[idx]]):
            return {}  # a coefficient no remaining root covers
        if idx == last:
            return {0: 1}
        key = (beta, idx)
        hit = memo.get(key)
        if hit is not None:
            return hit
        root = roots[idx]
        out = dict(count(beta, idx + 1))  # t = 0, a copy: beta is inside the cone
        cur = tuple(map(sub, beta, root))
        t = 1
        while min(cur) >= 0:
            for e, c in count(cur, idx + 1).items():
                e += t
                out[e] = out.get(e, 0) + c
            cur = tuple(map(sub, cur, root))
            t += 1
        memo[key] = out
        return out

    return count, memo


def _in_q(counts: dict) -> Laurent:
    """Sum of c q^e over the {e: c} counts, in v with q = v^2."""
    return Laurent({(2 * e, 0): c for e, c in counts.items()})


def kostant_q(rd: RootDatum, beta: Vec) -> Laurent:
    """Number of ways to write beta as a sum of positive roots, by length;
    zero off the root lattice."""
    rd.check_length(beta)
    coeffs = root_coeffs(rd, beta)
    if coeffs is None or min(coeffs, default=0) < 0:
        return Laurent.zero()  # before the count, so the memo stays inside the cone
    count, _ = _context(rd)
    return _in_q(count(coeffs, 0))


def _shifted_orbit(rd: RootDatum, labels: Vec, height: int) -> list[tuple[int, Vec, int]]:
    """Triples (drop, coefficients, sign of w) over the w whose drop is at
    most ``height``, drop ascending, for any lam with Dynkin labels
    ``labels``: the coefficients are those of w(lam + rho) - (lam + rho) in
    the simple roots, all <= 0, and the drop is minus their sum.  Every
    label of rho is one, so the walk starts from ``labels`` plus one each,
    the labels of lam + rho."""
    k = len(labels)
    walk = _orbit_walk(rd, tuple([x + 1 for x in labels]), (0,) * k, identity_mat(k), height)
    return sorted((-sum(coeffs), coeffs, -1 if depth % 2 else 1) for depth, coeffs in walk)


def _alternating_sum(rd: RootDatum, orbit, delta: Vec) -> dict:
    """K[lam, mu] as nonzero {e: c} from the shifted orbit of lam, walked
    at least to the height of lam - mu, and its simple-root coefficients
    delta: the signed sum of the graded partition counts of
    w(lam + rho) - (mu + rho).  An image with a negative coefficient
    counts nothing and is dropped before any lookup."""
    height = sum(delta)
    count, memo = _context(rd)
    total = {}
    for drop, coeffs, sign in orbit:
        if drop > height:
            break  # this image and every later one has a negative coefficient
        beta = tuple(map(add, delta, coeffs))
        if min(beta, default=0) < 0:
            continue
        # a memo hit is never empty (the simple roots spell beta), so count runs on a miss
        for e, c in (memo.get((beta, 0)) or count(beta, 0)).items():
            total[e] = total.get(e, 0) + sign * c
    out = {e: c for e, c in total.items() if c}
    if any(c < 0 for c in out.values()):
        raise RuntimeError(f"negative coefficient in K[lam, mu] at lam - mu = {delta}: {out}")
    return out


def lusztig_q_analogue(rd: RootDatum, lam: Vec, mu: Vec) -> Laurent:
    """K[lam, mu](q): the Weyl alternating sum of graded partition counts.

    Vanishes unless mu <= lam; specializes at q=1 to the weight
    multiplicity of mu in the highest-weight module of lam.
    """
    labels = dominant_labels(rd, lam)
    dominant_labels(rd, mu)
    if sigma_grade(rd, lam) != sigma_grade(rd, mu):
        raise GradeMismatchError(
            f"grades differ: {sigma_grade(rd, lam)} vs {sigma_grade(rd, mu)}"
        )
    delta = root_coeffs(rd, vsub(lam, mu))
    if delta is None or min(delta, default=0) < 0:
        return Laurent.zero()  # mu is not below lam: no orbit walk
    orbit = _shifted_orbit(rd, labels, sum(delta))
    return _in_q(_alternating_sum(rd, orbit, delta))


@cache
def _label_row(rd: RootDatum, labels: Vec) -> tuple:
    """The row of every dominant lam with Dynkin labels ``labels``: the
    pairs (mu - lam, v^height2(lam - mu) K[lam, mu](q^-1) as (monomial,
    coefficient) pairs) over the dominant mu <= lam with K[lam, mu] nonzero,
    mu descending, from one shifted orbit walked to the largest height of
    lam - mu.  The labels fix lam up to a central z, which W fixes, so
    K[lam + z, mu + z] = K[lam, mu].  The dominance walk starts at zero,
    so it carries mu - lam, and height2(lam - mu) is twice the sum of the
    coefficients of lam - mu, each simple root having height2 two."""
    below = dominant_below_coeffs(rd, labels, (0,) * rd.rank)
    orbit = _shifted_orbit(rd, labels, max(sum(delta) for _, delta in below))
    row = []
    for step, delta in below:
        counts = _alternating_sum(rd, orbit, delta)
        if counts:
            h = 2 * sum(delta)
            row.append((step, tuple([((h - 2 * e, 0), c) for e, c in counts.items()])))
    return tuple(row)


def _translate(vec: Vec, shift: int, row) -> tuple:
    """A row of a label-keyed table moved to the weight ``vec``: each
    (step, terms) entry becomes (vec + step, the ``Laurent`` of the terms
    with every v-power moved by ``shift``), the terms kept in their order.
    ``kl_row`` and ``satake.satake_basis_row`` both read their rows so."""
    return tuple(
        (tuple(map(add, vec, step)), Laurent.from_terms({(a + shift, b): c for (a, b), c in terms}))
        for step, terms in row
    )


def kl_row(rd: RootDatum, lam: Vec) -> tuple:
    """Expansion of the lam-character into cell indicators, the inverse
    transform's row: the nonzero (mu, v^(-2<rho_B,mu>) K[lam, mu](q^-1))
    over the dominant mu <= lam, mu descending, translated from the row of
    lam's Dynkin labels (``_label_row``) with every v-power moved by
    -height2(lam): v^(-2<rho_B,mu>) = v^(height2(lam - mu) - height2(lam))."""
    return _translate(lam, -height2(rd, lam), _label_row(rd, dominant_labels(rd, lam)))
