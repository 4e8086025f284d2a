"""Exact Laurent polynomials in v and X with integer coefficients.

Conventions (see CONVENTIONS.md): v^2 = q and X = q^(-s), so a monomial
v^a X^b evaluates to q^(a/2 - s*b).  Specializing s to a half-integer
folds X into v; numeric evaluation substitutes q > 1 and complex s.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

from .errors import InvalidInput, json_ints


def mul_terms(a: dict, b: dict) -> dict:
    """The nonzero terms of the product of two term dicts, each monomial
    where the products first reach it."""
    out = {}
    for (a1, b1), c1 in a.items():
        for (a2, b2), c2 in b.items():
            k = (a1 + a2, b1 + b2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def add_terms(acc: dict, terms, scale: int = 1) -> None:
    """Add scale times the (monomial, coefficient) pairs into the term
    dict acc in place, and drop a monomial whose sum cancels.

    The pairs must have distinct monomials and, times scale, nonzero
    coefficients, as the terms of one ``Laurent`` have.  Then acc ends with
    the monomials of ``Laurent(acc) + scale * Laurent(terms)``, in the same
    order, so a sum taken in place evaluates to the same floats.
    """
    for k, c in terms:
        c = acc.get(k, 0) + scale * c
        if c:
            acc[k] = c
        else:
            del acc[k]


class Laurent:
    """Immutable-by-convention {(v_exp, x_exp): int} with exact arithmetic."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {
            (int(a), int(b)): int(c) for (a, b), c in (terms or {}).items() if c != 0
        }

    @classmethod
    def from_terms(cls, terms: dict):
        """The polynomial with the term dict ``terms``, taken as it is: the
        caller passes int exponents and nonzero int coefficients, as the
        sums of ``add_terms`` and ``mul_terms`` have, and gives it up."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def term(cls, coeff: int, v: int = 0, x: int = 0):
        return cls({(v, x): coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Laurent({(0, 0): other})
        return isinstance(other, Laurent) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = Laurent({(0, 0): other})
        out = dict(self.terms)
        add_terms(out, other.terms.items())
        return Laurent(out)

    __radd__ = __add__

    def __neg__(self):
        return Laurent({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = Laurent({(0, 0): other})
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return Laurent()
            return Laurent({k: c * other for k, c in self.terms.items()})
        return Laurent(mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def shift(self, v: int = 0, x: int = 0):
        """Multiply by the monomial v^v X^x."""
        if not v and not x:
            return self
        return Laurent({(a + v, b + x): c for (a, b), c in self.terms.items()})

    def specialize_x(self, s: Fraction, ratio: tuple[int, int] | None = None):
        """Fold X into v at s (half-integral): X^b -> v^(-2 s b).  With
        2s = n/d, v^a X^b goes to v^((a d - n b)/d); InvalidInput where that
        power is fractional.  ``ratio`` is (n, d), for a caller that folds
        many polynomials at one s."""
        n, d = ratio or (2 * Fraction(s)).as_integer_ratio()
        out = {}
        for (a, b), c in self.terms.items():
            e, r = divmod(a * d - n * b, d)
            if r:
                raise InvalidInput(f"specialization at {Fraction(s)} leaves fractional v-power")
            k = (e, 0)
            out[k] = out.get(k, 0) + c
        return Laurent(out)

    def eval_complex(self, q: float, s: complex) -> complex:
        """Substitute v = sqrt(q), X = q^(-s)."""
        lq = cmath.log(q)
        total = 0j
        for (a, b), c in self.terms.items():
            total += c * cmath.exp(lq * (a / 2.0 - s * b))
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        def mono(a, b, c):
            factors = []
            if abs(c) != 1 or (a == 0 and b == 0):
                factors.append(str(abs(c)))
            if a:
                factors.append("v" if a == 1 else f"v^{a}")
            if b:
                factors.append("X" if b == 1 else f"X^{b}")
            return "*".join(factors)

        keys = sorted(self.terms, key=lambda k: (k[1], k[0]), reverse=True)
        parts = []
        for i, k in enumerate(keys):
            c = self.terms[k]
            text = mono(*k, c)
            if i == 0:
                parts.append(text if c > 0 else "-" + text)
            else:
                parts.append(("+ " if c > 0 else "- ") + text)
        return " ".join(parts)

    __repr__ = __str__

    def to_json(self):
        return [[a, b, self.terms[(a, b)]] for (a, b) in sorted(self.terms)]

    @classmethod
    def from_json(cls, obj, name: str = "coeff"):
        """The polynomial ``to_json`` writes: [v_exp, x_exp, coeff] triples of
        JSON integers; InvalidInput naming the first entry that is not."""
        if type(obj) is not list:
            raise InvalidInput(f"{name} must be a list of [v, X, coeff] triples, got {obj!r}")
        terms = {}
        for i, triple in enumerate(obj):
            a, b, c = json_ints(triple, f"{name}[{i}]")
            terms[(a, b)] = c
        return cls(terms)
