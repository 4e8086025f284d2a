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
    sigma_grade,
    signed_orbit,
    vadd,
    vscale,
    vsub,
)


@cache
def _context(rd: RootDatum) -> PartitionContext:
    roots = tuple(sorted(rd.positive_roots, reverse=True))
    return PartitionContext(roots, rd.pair2_form)


def _in_q(counts: dict, sign: int) -> Laurent:
    """Sum of c q^(sign e) over the {e: c} counts, in v with q = v^2."""
    return Laurent({(2 * sign * e, 0): c for e, c in counts.items()})


def kostant_q(rd: RootDatum, beta: Vec) -> Laurent:
    """Number of ways to write beta as a sum of positive roots, by length."""
    rd.check_length(beta)
    return _in_q(_context(rd).counts(beta), 1)


def _shifted_orbit(rd: RootDatum, lam: Vec) -> list[tuple[Vec, int]]:
    """Pairs (w(2 lam + 2 rho), sign of w) over the Weyl group."""
    return signed_orbit(rd, vadd(vscale(2, lam), rd.rho_b_times2))


def _alternating_sum(rd: RootDatum, orbit, lam: Vec, mu: Vec) -> dict:
    """K[lam, mu] as nonzero {e: c} from the shifted orbit of lam: the
    signed sum of the graded partition counts of
    (w(2 lam + 2 rho) - (2 mu + 2 rho)) / 2."""
    mu2 = vadd(vscale(2, mu), rd.rho_b_times2)
    ctx = _context(rd)
    total = {}
    for image, sign in orbit:
        beta2 = vsub(image, mu2)
        if any(x % 2 for x in beta2):
            raise RuntimeError("odd coordinate in shifted Weyl sum")
        for e, c in ctx.counts(tuple(x // 2 for x in beta2)).items():
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
