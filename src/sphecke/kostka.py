"""Graded partition counts and the q-deformed weight multiplicities.

``kostant_q`` counts expressions of a vector as sums of positive roots,
graded by length; ``lusztig_q_analogue`` is the Weyl alternating sum of
those counts, the change-of-basis polynomial between Weyl characters
and double-coset indicators; ``kostka_row`` gives a whole row of it.
"""

from __future__ import annotations

from functools import cache

from .errors import GradeMismatchError, NonDominantError
from .kernels import PartitionContext
from .rootdata import (
    RootDatum,
    Vec,
    dominant_below,
    mat_apply,
    sigma_grade,
    vadd,
    vscale,
    vsub,
    weyl_elements,
)


class QPoly:
    """Polynomial in q (or q^-1) with arbitrary-precision integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {int(e): int(c) for e, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    def __eq__(self, other):
        if isinstance(other, int):
            other = QPoly({0: other})
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return QPoly(out)

    def __neg__(self):
        return QPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k: int):
        return QPoly({e: k * c for e, c in self.coeffs.items()})

    def substitute_inverse(self):
        """q -> q^-1."""
        return QPoly({-e: c for e, c in self.coeffs.items()})

    def at_one(self) -> int:
        return sum(self.coeffs.values())

    def degree(self):
        return max(self.coeffs) if self.coeffs else None

    def order(self):
        return min(self.coeffs) if self.coeffs else None

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                body = str(abs(c))
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if abs(c) == 1 else f"{abs(c)}*{var}"
            parts.append(("- " if c < 0 else "+ ") + body)
        head = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
        return " ".join([head] + parts[1:])

    __repr__ = __str__

    def to_json(self):
        return [[e, self.coeffs[e]] for e in sorted(self.coeffs)]


@cache
def _context(rd: RootDatum) -> PartitionContext:
    roots = tuple(sorted(rd.positive_roots, reverse=True))
    return PartitionContext(roots, rd.pair2_form)


def kostant_q(rd: RootDatum, beta: Vec) -> QPoly:
    """Number of ways to write beta as a sum of positive roots, by length."""
    rd.check_length(beta)
    return QPoly(_context(rd).counts(beta))


def _shifted_orbit(rd: RootDatum, lam: Vec) -> list[tuple[Vec, int]]:
    """Pairs (w(2 lam + 2 rho), sign of w) over the Weyl group."""
    lam2 = vadd(vscale(2, lam), rd.rho_b_times2)
    return [
        (mat_apply(w, lam2), -1 if length % 2 else 1)
        for w, length in weyl_elements(rd)
    ]


def _alternating_sum(rd: RootDatum, orbit, lam: Vec, mu: Vec) -> QPoly:
    """K[lam, mu] from the shifted orbit of lam: the signed sum of the
    graded partition counts of (w(2 lam + 2 rho) - (2 mu + 2 rho)) / 2."""
    mu2 = vadd(vscale(2, mu), rd.rho_b_times2)
    ctx = _context(rd)
    total = {}
    for image, sign in orbit:
        beta2 = vsub(image, mu2)
        if any(x % 2 for x in beta2):
            raise RuntimeError("odd coordinate in shifted Weyl sum")
        for e, c in ctx.counts(tuple(x // 2 for x in beta2)).items():
            total[e] = total.get(e, 0) + sign * c
    out = QPoly(total)
    if any(c < 0 for c in out.coeffs.values()):
        raise RuntimeError(f"negative coefficient in K[{lam},{mu}]: {out}")
    return out


@cache
def lusztig_q_analogue(rd: RootDatum, lam: Vec, mu: Vec) -> QPoly:
    """Weyl alternating sum of graded partition counts.

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
    return _alternating_sum(rd, _shifted_orbit(rd, lam), lam, mu)


@cache
def kostka_row(rd: RootDatum, lam: Vec) -> tuple:
    """The nonzero (mu, K[lam, mu]) over the dominant mu <= lam, mu
    descending, all from one shifted Weyl orbit of lam."""
    orbit = _shifted_orbit(rd, lam)
    row = []
    for mu in dominant_below(rd, lam):
        kq = _alternating_sum(rd, orbit, lam, mu)
        if kq:
            row.append((mu, kq))
    return tuple(row)
