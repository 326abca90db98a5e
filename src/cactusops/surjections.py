"""Basis elements of the surjection operad.

A basis element is a finite sequence of positive integers that is
surjective onto {1, ..., n} and has no two equal adjacent entries.  The
arity n is the number of distinct values and the degree k is the number
of "extra" entries, k = length - n.  All positions and values in the
public API are 1-based.
"""

from __future__ import annotations

from typing import Iterable

from .errors import (
    DegenerateError,
    NonPositiveError,
    NotSurjectiveError,
    OutOfRangeError,
    _quote,
)

__all__ = [
    "Surjection",
    "insert_top_lobe",
    "recurrence_prefix",
]


class Surjection:
    """An immutable non-degenerate surjective sequence.

    The constructor validates; equality, hashing and ordering are by the
    underlying value sequence (lexicographic).
    """

    __slots__ = ("seq", "arity", "degree")

    seq: tuple[int, ...]
    arity: int
    degree: int

    def __init__(self, seq: Iterable[int]):
        values = tuple(seq)
        if not values:
            raise NotSurjectiveError("empty sequence")
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise NonPositiveError(f"entry {_quote(v)} is not a positive integer")
        for a, b in zip(values, values[1:]):
            if a == b:
                raise DegenerateError(f"adjacent equal entries {_quote(a)} in {_quote(values)}")
        n = max(values)
        seen = set(values)
        if len(seen) != n:
            # Some value up to len(seen) + 1 is missing; n may be huge.
            missing = next(v for v in range(1, n + 1) if v not in seen)
            raise NotSurjectiveError(f"value {missing} missing from {_quote(values)}")
        object.__setattr__(self, "seq", values)
        object.__setattr__(self, "arity", n)
        object.__setattr__(self, "degree", len(values) - n)

    @classmethod
    def _unchecked(cls, seq: tuple[int, ...], arity: int, degree: int) -> "Surjection":
        # Internal fast path for sequences already known to be valid.
        obj = object.__new__(cls)
        object.__setattr__(obj, "seq", seq)
        object.__setattr__(obj, "arity", arity)
        object.__setattr__(obj, "degree", degree)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("Surjection is immutable")

    def __len__(self) -> int:
        return len(self.seq)

    def __eq__(self, other) -> bool:
        return isinstance(other, Surjection) and self.seq == other.seq

    def __hash__(self) -> int:
        return hash(self.seq)

    def __lt__(self, other: "Surjection") -> bool:
        return self.seq < other.seq

    def __le__(self, other: "Surjection") -> bool:
        return self.seq <= other.seq

    def __str__(self) -> str:
        return _seq_str(self.seq)

    def __repr__(self) -> str:
        return f"Surjection({self.seq!r})"


# The text of every value below 256, so that printing a large element does
# not call ``str`` on each of its integers.
_digits = tuple(str(v) for v in range(256)).__getitem__


def _seq_str(seq: tuple[int, ...]) -> str:
    """The text form ``(v1,v2,...)`` of a value sequence."""
    try:
        return "(" + ",".join(map(_digits, seq)) + ")"
    except IndexError:  # a value of 256 or more
        return "(" + ",".join(map(str, seq)) + ")"


def recurrence_prefix(seq: tuple[int, ...]) -> list[int]:
    """prefix[m] = number of the first m positions whose value recurs later.

    "Later" means anywhere after the position in the whole sequence.  The
    relative degree of the window [a, b], the number of positions in
    [a, b-1] whose value recurs later, is prefix[b - 1] - prefix[a - 1];
    the full window [1, len(seq)] gives the degree.
    """
    final = {v: i for i, v in enumerate(seq)}
    prefix = [0]
    acc = 0
    for i, v in enumerate(seq):
        if final[v] != i:  # entry recurs later
            acc += 1
        prefix.append(acc)
    return prefix


def insert_top_lobe(u: Surjection, j: int) -> Surjection:
    """Replace the entry at position j by (u(j), n+1, u(j)).

    Adds one lobe above the lobe u(j); arity and degree each grow by one.
    """
    size = len(u.seq)
    if not 1 <= j <= size:
        raise OutOfRangeError(f"position {j} not in 1..{size}")
    new_value = u.arity + 1
    seq = u.seq[:j] + (new_value,) + u.seq[j - 1 :]
    return Surjection._unchecked(seq, u.arity + 1, u.degree + 1)
