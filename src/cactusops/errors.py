"""Exception types shared across the package, and how their messages quote
long values."""

from typing import Optional

__all__ = [
    "CactusOpsError",
    "NonPositiveError",
    "DegenerateError",
    "NotSurjectiveError",
    "OutOfRangeError",
    "NotHomogeneousError",
    "MaxValueNotUniqueError",
    "NotACactusError",
    "ResourceBoundError",
    "ParseError",
    "WordError",
]


# A longer string or sequence is quoted in a message by this many
# characters or entries and its length, and an integer of more digits by
# its digit count.
_QUOTE_MAX = 20
_QUOTE_INT = 10**_QUOTE_MAX


def _digit_count(v: int) -> int:
    """The number of decimal digits of abs(v), without converting v to text
    (CPython refuses to above 4,300 digits)."""
    v = abs(v)
    # At least 1 + floor((bits - 1) * log10(2)) digits; the constant is just
    # below log10(2), so the estimate is a lower bound.
    digits = 1 + (max(v.bit_length() - 1, 0) * 30102999566) // 10**11
    while v >= 10**digits:
        digits += 1
    return digits


class _LongInt:
    """Stands for an integer of more than ``_QUOTE_MAX`` digits in a message."""

    __slots__ = ("text",)

    def __init__(self, v: int):
        sign = "negative " if v < 0 else ""
        self.text = f"<{sign}integer of {_digit_count(v)} digits>"

    def __repr__(self) -> str:
        return self.text

    __str__ = __repr__


def _short(v):
    if isinstance(v, int) and not isinstance(v, bool) and not -_QUOTE_INT < v < _QUOTE_INT:
        return _LongInt(v)
    return v


def _quote(value, show=repr) -> str:
    """show(value), cut to its first part and its length when value is a
    string or sequence longer than ``_QUOTE_MAX``; long integers, alone or
    as entries, are quoted by their digit count."""
    if isinstance(value, (tuple, list)):
        head = type(value)(map(_short, value[:_QUOTE_MAX]))
        if len(value) <= _QUOTE_MAX:
            return show(head)
        return f"{show(head)}... ({len(value)} entries)"
    if not isinstance(value, str) or len(value) <= _QUOTE_MAX:
        return show(_short(value))
    return f"{show(value[:_QUOTE_MAX])}... ({len(value)} characters)"


def _check_index(value: object, high: Optional[int], label: str) -> None:
    """Refuse a 1-based index that is not an int (``TypeError``, ``bool``
    included) or lies outside 1..high, or below 1 when high is None
    (``OutOfRangeError``).  label names it in the message and ends with
    its separator ("lobe ", "i=")."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{label}{value!r} is not an int")
    if high is None:
        if value < 1:
            raise OutOfRangeError(f"{label}{value} is below 1")
    elif not 1 <= value <= high:
        raise OutOfRangeError(f"{label}{value} not in 1..{high}")


class CactusOpsError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveError(CactusOpsError, ValueError):
    """A sequence entry is not a positive integer."""


class DegenerateError(CactusOpsError, ValueError):
    """Two adjacent entries of a sequence are equal."""


class NotSurjectiveError(CactusOpsError, ValueError):
    """A value between 1 and the maximum entry never occurs."""


class OutOfRangeError(CactusOpsError, IndexError):
    """A 1-based index (a position, lobe or slot) lies outside its valid range."""


class NotHomogeneousError(CactusOpsError, ValueError):
    """An operation required all terms to share one arity and degree."""


class MaxValueNotUniqueError(CactusOpsError, ValueError):
    """The top lobe of a term occurs more than once."""


class NotACactusError(CactusOpsError, ValueError):
    """The sequence contains a crossing alternation (i,j,i,j).

    ``witness`` holds the four 1-based positions of the offending pattern.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ResourceBoundError(CactusOpsError, RuntimeError):
    """A request exceeds a size bound: the sequence-length cap of an
    enumeration, or the term count of a structure map."""


class ParseError(CactusOpsError, ValueError):
    """Malformed input.  Errors in text carry its 1-based ``line`` and
    ``column``, which the message ends with; errors about a JSON object,
    which has no position, leave both None."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class WordError(CactusOpsError, ValueError):
    """A generator word contains letters other than 'w' and 'b'."""
