"""Shared exception types.

``InvalidInput`` covers every precondition failure a caller can trigger
(the CLI maps it to exit code 2); ``WindowError`` flags a graded
operation whose requested output grades are not exactly determined by
the materialized grades of its inputs.  ``json_int`` and ``json_ints``
read the integers of a JSON body, refusing anything else by name.
"""


class InvalidInput(ValueError):
    """Caller violated a documented precondition."""


class NonDominantError(InvalidInput):
    pass


class LengthMismatchError(InvalidInput):
    pass


class GradeMismatchError(InvalidInput):
    pass


class WeylCapError(InvalidInput):
    """Weyl group enumeration exceeded the configured cap."""


class WindowError(InvalidInput):
    """Requested grades are not exactly computable from the input windows."""


class PoleError(InvalidInput):
    """Evaluation requested at a pole."""


def json_int(x, name: str) -> int:
    """x when it is a JSON integer; InvalidInput naming the entry for a
    float, a numeric string, a bool or anything else."""
    if type(x) is not int:
        raise InvalidInput(f"{name} must be an integer, got {x!r}")
    return x


def json_ints(xs, name: str) -> tuple[int, ...]:
    """A JSON list of integers as a tuple, each entry checked by ``json_int``."""
    if type(xs) is not list:
        raise InvalidInput(f"{name} must be a list of integers, got {xs!r}")
    return tuple(json_int(x, f"{name}[{i}]") for i, x in enumerate(xs))
