"""Light definitions shared by the layers and the command line.

Record classes give the package's small value types their repr, equality,
hash and immutability from their ``__slots__``, which list the fields in
order.  The two errors the CLI maps to exit codes live here so that it can
catch them without importing the layers that raise them; ``numeric`` and
``cyclotomic`` export them under their public names.  The index syntax
(reading, printing, admissibility and the xy form of a word) lives here too,
so that ``cli`` and ``numeric`` use it without loading the word algebra;
``words`` exports it under its public names.  This module imports nothing.
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
    """No bracket within the 4096-bit precision cap brings the error bound
    under tolerance."""

    __module__ = "zetastar.numeric"


class NotRationalError(ArithmeticError):
    """The cyclotomic element is not a rational number."""

    __module__ = "zetastar.cyclotomic"


Word = tuple[int, ...]

# The largest code point, so the largest part a word's key can hold.
_MAX_PART = 0x10FFFF


def is_admissible(word: Word) -> bool:
    """True when the leading part is >= 2 (the nested series converges).

    The empty word is the unit and counts as admissible.
    """
    return not word or word[0] >= 2


class ParseError(ValueError):
    """Malformed index text; carries the position of the offending part."""

    __module__ = "zetastar.words"

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (part {position})")
        self.position = position


def parse_index(s: str) -> Word:
    """Parse comma-separated positive integers, whitespace tolerated.

    Rejects empty input, empty parts (so also trailing commas), zeros,
    negative numbers, digits outside ASCII 0-9 and parts above 1114111, the
    largest a word holds.
    """
    if not s.strip():
        raise ParseError("empty index", 1)
    parts = []
    for pos, chunk in enumerate(s.split(","), start=1):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty part", pos)
        if not (chunk.isascii() and chunk.isdigit()):
            raise ParseError(f"not a positive integer: {chunk!r}", pos)
        value = int(chunk)
        if value < 1:
            raise ParseError("parts must be >= 1", pos)
        if value > _MAX_PART:
            raise ParseError(f"parts must be <= {_MAX_PART}", pos)
        parts.append(value)
    return tuple(parts)


def format_index(word: Word) -> str:
    return ",".join(str(k) for k in word)


def word_to_xy(word: Word) -> str:
    """z_k becomes x^(k-1) y; the whole word becomes the concatenation."""
    return "".join("x" * (k - 1) + "y" for k in word)
