"""JSON forms for graded elements and reports.

Serialization is canonical: grades ascending, support vectors
reverse-lexicographically descending, monomials sorted.  Round trips
are bit-exact (integer coefficients of any size survive).
"""

from __future__ import annotations

from .errors import GradeMismatchError, InvalidInput
from .laurent import Laurent
from .rootdata import RootDatum, sigma_grade
from .satake import CELLS, CHARS, GradedElement, Window


def element_to_obj(e: GradedElement) -> dict:
    key = "mu" if e.basis == CELLS else "lambda"
    grades = []
    for k in sorted(e.grades):
        terms = [
            {key: list(vec), "coeff": e.grades[k][vec].to_json()}
            for vec in sorted(e.grades[k], reverse=True)
        ]
        grades.append({"k": k, "terms": terms})
    return {"basis": e.basis, "window": e.window.to_json(), "grades": grades}


def element_from_obj(rd: RootDatum, obj: dict) -> GradedElement:
    """The element a JSON body spells, as ``element_to_obj`` writes it;
    InvalidInput for a malformed body, a vector off its grade or length,
    or window bounds that are not integers or null."""
    try:
        basis = obj["basis"]
        if basis not in (CELLS, CHARS):
            raise InvalidInput(f"unknown basis {basis!r}")
        key = "mu" if basis == CELLS else "lambda"
        grades = {}
        for g in obj["grades"]:
            k = int(g["k"])
            terms = grades.setdefault(k, {})
            for t in g["terms"]:
                vec = tuple(int(x) for x in t[key])
                if sigma_grade(rd, vec) != k:
                    raise GradeMismatchError(f"{vec} is not of grade {k}")
                terms[vec] = Laurent.from_json(t["coeff"])
        lo, hi = obj["window"]
    except InvalidInput:
        raise
    except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
        raise InvalidInput(f"malformed element: {type(exc).__name__}: {exc}") from None
    if not all(b is None or type(b) is int for b in (lo, hi)):
        raise InvalidInput(f"window bounds {[lo, hi]} are not integers or null")
    return GradedElement(rd, basis, grades, Window(lo, hi))
