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
Schmidt–Bincer, J. Math. Phys. 25 (1984)).  The shifted orbit carries
the coefficients of w(lam + rho) - (lam + rho) along its walk, lam - mu
is converted once per mu, and an image with a negative coefficient is
dropped before any count.  A vector off the root lattice counts zero.
"""

from __future__ import annotations

from functools import cache

from .errors import GradeMismatchError, NonDominantError
from .kernels import PartitionContext
from .laurent import Laurent
from .rootdata import (
    RootDatum,
    Vec,
    dominant_below,
    height2,
    root_coeffs,
    sigma_grade,
    signed_orbit,
    vadd,
    vscale,
    vsub,
)


@cache
def _context(rd: RootDatum) -> PartitionContext:
    return PartitionContext(root_coeffs(rd, r) for r in rd.positive_roots)


def _in_q(counts: dict, sign: int) -> Laurent:
    """Sum of c q^(sign e) over the {e: c} counts, in v with q = v^2."""
    return Laurent({(2 * sign * e, 0): c for e, c in counts.items()})


def kostant_q(rd: RootDatum, beta: Vec) -> Laurent:
    """Number of ways to write beta as a sum of positive roots, by length;
    zero off the root lattice."""
    rd.check_length(beta)
    coeffs = root_coeffs(rd, beta)
    return Laurent.zero() if coeffs is None else _in_q(_context(rd).counts(coeffs), 1)


def _shifted_orbit(rd: RootDatum, lam: Vec) -> list[tuple[int, Vec, int]]:
    """Triples (drop, coefficients, sign of w) over the Weyl group, drop
    ascending: the coefficients are those of w(lam + rho) - (lam + rho) in
    the simple roots, all <= 0, and the drop is minus their sum."""
    orbit = []
    for _, sign, coeffs in signed_orbit(rd, vadd(vscale(2, lam), rd.rho_b_times2)):
        if any(x % 2 for x in coeffs):
            raise RuntimeError("odd coordinate in shifted Weyl sum")
        half = tuple(x // 2 for x in coeffs)
        orbit.append((-sum(half), half, sign))
    orbit.sort()
    return orbit


def _alternating_sum(rd: RootDatum, orbit, lam: Vec, mu: Vec) -> dict:
    """K[lam, mu] as nonzero {e: c} from the shifted orbit of lam: the
    signed sum of the graded partition counts of w(lam + rho) - (mu + rho),
    in simple-root coefficients.  An image with a negative coefficient
    counts nothing and is dropped before any lookup."""
    delta = root_coeffs(rd, vsub(lam, mu))
    if delta is None:
        return {}
    height = sum(delta)
    ctx = _context(rd)
    total = {}
    for drop, coeffs, sign in orbit:
        if drop > height:
            break  # this image and every later one has a negative coefficient
        beta = tuple(a + b for a, b in zip(delta, coeffs))
        if min(beta, default=0) < 0:
            continue
        for e, c in ctx.counts(beta).items():
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
    return _in_q(_alternating_sum(rd, _shifted_orbit(rd, lam), lam, mu), 1)


@cache
def kl_row(rd: RootDatum, lam: Vec) -> tuple:
    """Expansion of the lam-character into cell indicators, the inverse
    transform's row: the nonzero (mu, v^(-2<rho_B,mu>) K[lam, mu](q^-1))
    over the dominant mu <= lam, mu descending, all from one shifted Weyl
    orbit of lam."""
    below = dominant_below(rd, lam)
    orbit = _shifted_orbit(rd, lam)
    row = []
    for mu in below:
        counts = _alternating_sum(rd, orbit, lam, mu)
        if counts:
            row.append((mu, _in_q(counts, -1).shift(v=-height2(rd, mu))))
    return tuple(row)
