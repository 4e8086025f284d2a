"""Bases for the package's record classes.

A record is a plain ``__slots__`` class with an explicit ``__init__``;
its fields are the names in its own ``__slots__``, in order.  ``Record``
gives same-class, field-wise equality and a ``Name(field=value, ...)``
repr; ``Value`` is a read-only record hashed once at construction, for
the types that key the ``functools.cache`` tables.  Neither imports
``dataclasses``, whose import (``inspect``, ``ast``, ``dis``) and
generated methods every cold CLI call would otherwise pay for.
"""


class Record:
    """Mutable record: same-class, field-wise equality; unhashable."""

    __slots__ = ()
    __hash__ = None

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in type(self).__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._fields() == other._fields()

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self).__slots__)
        return f"{type(self).__qualname__}({body})"


class Value(Record):
    """Read-only record; its hash is that of the tuple of its fields,
    computed once by ``_freeze``."""

    __slots__ = ("_hash",)

    def _freeze(self, *fields) -> None:
        """Set the fields, in ``__slots__`` order, and hash them."""
        for name, value in zip(type(self).__slots__, fields):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self._hash == other._hash and self._fields() == other._fields())

    def _read_only(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")

    __setattr__ = __delattr__ = _read_only

    def __reduce__(self):
        return type(self), self._fields()
