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
shift leaves alone).

Everything is counted in simple-root coefficients (Kostant's partition
function, Humphreys, *Introduction to Lie Algebras and Representation
Theory*, 24.2, computed by recursion over the roots as in
Schmidt–Bincer, J. Math. Phys. 25 (1984)).  This module holds that
recursion: ``_context`` builds it once per datum, with the one memo
every count reads, and only this module reads the memo's format.  The
shifted orbit carries only the coefficients of w(lam + rho) - (lam + rho)
along its walk, ``kl_row`` reads those of lam - mu off the dominance
walk, and a vector with a negative coefficient is dropped before any
count, so the memo holds only vectors inside the cone.  A vector off the
root lattice counts zero.
"""

from __future__ import annotations

from functools import cache
from operator import add, sub

from .errors import GradeMismatchError, NonDominantError
from .laurent import Laurent
from .rootdata import (
    RootDatum,
    Vec,
    _label_tables,
    _orbit_walk,
    dominant_below_coeffs,
    height2,
    identity_mat,
    root_coeffs,
    sigma_grade,
    vadd,
    vscale,
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
    roots = tuple(sorted((coeffs for _, coeffs in _label_tables(rd)[2]), reverse=True))
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


def _shifted_orbit(rd: RootDatum, lam: Vec) -> list[tuple[int, Vec, int]]:
    """Triples (drop, coefficients, sign of w) over the Weyl group, drop
    ascending: the coefficients are those of w(lam + rho) - (lam + rho) in
    the simple roots, all <= 0, and the drop is minus their sum.  The walk
    carries only the coefficients, of w(v) - v for v = 2(lam + rho)."""
    k = len(rd.simple_roots)
    v = vadd(vscale(2, lam), rd.rho_b_times2)
    orbit = []
    for depth, coeffs in _orbit_walk(rd, v, (0,) * k, identity_mat(k)):
        if any(x % 2 for x in coeffs):
            raise RuntimeError("odd coordinate in shifted Weyl sum")
        half = tuple([x // 2 for x in coeffs])
        orbit.append((-sum(half), half, -1 if depth % 2 else 1))
    orbit.sort()
    return orbit


def _alternating_sum(rd: RootDatum, orbit, lam: Vec, mu: Vec, delta: Vec) -> dict:
    """K[lam, mu] as nonzero {e: c} from the shifted orbit of lam and the
    simple-root coefficients delta of lam - mu: the signed sum of the
    graded partition counts of w(lam + rho) - (mu + rho).  An image with a
    negative coefficient counts nothing and is dropped before any lookup."""
    height = sum(delta)
    count, _ = _context(rd)
    total = {}
    for drop, coeffs, sign in orbit:
        if drop > height:
            break  # this image and every later one has a negative coefficient
        beta = tuple(map(add, delta, coeffs))
        if min(beta, default=0) < 0:
            continue
        for e, c in count(beta, 0).items():
            total[e] = total.get(e, 0) + sign * c
    out = {e: c for e, c in total.items() if c}
    if any(c < 0 for c in out.values()):
        raise RuntimeError(f"negative coefficient in K[{lam},{mu}]: {out}")
    return out


@cache
def lusztig_q_analogue(rd: RootDatum, lam: Vec, mu: Vec) -> Laurent:
    """K[lam, mu](q): the Weyl alternating sum of graded partition counts.

    Vanishes unless mu <= lam; specializes at q=1 to the weight
    multiplicity of mu in the highest-weight module of lam.
    """
    for v in (lam, mu):
        if not rd.is_dominant(v):
            raise NonDominantError(f"{v} is not dominant")
    if sigma_grade(rd, lam) != sigma_grade(rd, mu):
        raise GradeMismatchError(
            f"grades differ: {sigma_grade(rd, lam)} vs {sigma_grade(rd, mu)}"
        )
    orbit = _shifted_orbit(rd, lam)
    delta = root_coeffs(rd, vsub(lam, mu))
    return _in_q({} if delta is None else _alternating_sum(rd, orbit, lam, mu, delta))


@cache
def kl_row(rd: RootDatum, lam: Vec) -> tuple:
    """Expansion of the lam-character into cell indicators, the inverse
    transform's row: the nonzero (mu, v^(-2<rho_B,mu>) K[lam, mu](q^-1))
    over the dominant mu <= lam, mu descending, all from one shifted Weyl
    orbit of lam and the coefficients of lam - mu the dominance walk
    carries."""
    below = dominant_below_coeffs(rd, lam)
    orbit = _shifted_orbit(rd, lam)
    row = []
    for mu, delta in below:
        counts = _alternating_sum(rd, orbit, lam, mu, delta)
        if counts:
            shift = -height2(rd, mu)
            row.append((mu, Laurent({(shift - 2 * e, 0): c for e, c in counts.items()})))
    return tuple(row)
