"""Light definitions shared by the layers and the command line.

Record classes give the package's small value types their repr, equality,
hash and immutability from their ``__slots__``, which list the fields in
order.  The two errors the CLI maps to exit codes live here so that it can
catch them without importing the layers that raise them; ``numeric`` and
``cyclotomic`` export them under their public names.  This module imports
nothing.
"""


class Record:
    """Fields are the subclass's ``__slots__``.  Equal when of the same class
    with equal fields; mutable and unhashable."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __reduce__(self):
        return type(self), self._fields()


class FrozenRecord(Record):
    """An immutable, hashable record.  ``__init__`` sets each field once
    with ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of an immutable record")


class ToleranceUnreachable(ArithmeticError):
    """No bracket within the term cap brings the error bound under tolerance."""

    __module__ = "zetastar.numeric"


class NotRationalError(ArithmeticError):
    """The cyclotomic element is not a rational number."""

    __module__ = "zetastar.cyclotomic"
