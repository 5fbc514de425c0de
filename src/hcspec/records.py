"""The base of the records whose constructor checks or derives a field.

The other records are ``typing.NamedTuple``; no record is a dataclass, so no
import path pays for ``dataclasses`` and the ``inspect`` it imports.
"""

from operator import attrgetter


class FrozenRecord:
    """A record whose fields, at least two, are its ``__slots__`` in
    constructor order, set by ``__init__`` through ``object.__setattr__``; a
    slot whose name starts with ``_`` is private state.  Assignment is
    refused, ``==`` holds only between records of one class, ``hash`` and
    ``repr`` read the fields, and copies and pickles are rebuilt through the
    constructor."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # the fields as one tuple, read in C: a complex's memo hashes its
        # Tolerance at every lookup
        cls._values = property(attrgetter(*(name for name in cls.__slots__ if name[0] != "_")))

    def __eq__(self, other: object) -> bool:
        return self._values == other._values if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values
