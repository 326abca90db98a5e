"""Finite integer-coefficient formal sums of surjections.

Coefficients are exact Python integers; terms with coefficient zero are
never stored.  An element is a plain dict keyed by the term key of each
basis surjection: a ``str`` of one code point per value, which sorts like
the values and caches its hash.  ``_key`` encodes values, refusing one
above ``sys.maxunicode``, and ``_seq`` decodes them; the kernels of
``operad`` and ``ainfty`` read and write keys alone.  ``Surjection``
objects appear only at the API boundary: ``terms()`` and ``support()``
rebuild them from the keys, which are valid by construction.  Terms are
sorted whenever an ordering is visible (iteration, serialization, equality
of string forms).  An element prints through ``_block_str``, which lays
out blocks of one length, values up to 10 and coefficients +-1 in a few
C-level steps and passes any other block to ``_term_str``; so a stream of
sorted terms (``cactusops psi``) prints exactly like the element.

Every sum in the package goes through one in-place update, ``_accumulate``.
``Element.sum`` streams ``(coeff, Element)`` parts through it; the operad
kernels of Berger-Fresse (arXiv:math/0109158), composition and the
differential, feed it ``(key, sign)`` pairs straight from keys and wrap
the finished dict with ``Element._trusted``, which skips validation.  The
white/black insertions of ``ainfty`` never produce two equal terms, so
their kernel writes its dict by plain assignment and wraps it the same
way.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable, Optional, Union

from .errors import NotHomogeneousError, ResourceBoundError
from .surjections import Surjection, _seq_str

__all__ = ["Element", "as_element"]


Key = str


def _above_key_limit(v: int) -> ResourceBoundError:
    """The error that refuses a value v above ``sys.maxunicode``."""
    return ResourceBoundError(
        f"value {v} is above {sys.maxunicode}, the largest a term key holds"
    )


def _key(seq: tuple[int, ...]) -> Key:
    """The term key of positive values: one code point each."""
    try:
        return "".join(map(chr, seq))
    except ValueError:
        raise _above_key_limit(next(v for v in seq if v > sys.maxunicode)) from None


def _seq(key: Key) -> tuple[int, ...]:
    """The value sequence of a term key."""
    return tuple(map(ord, key))


def _coeff(c: object) -> int:
    """c itself when it is an exact integer; a ``bool`` or any other type
    raises ``TypeError``.  ``_accumulate`` takes its coefficients unchecked."""
    if not isinstance(c, int) or isinstance(c, bool):
        raise TypeError(f"coefficient {c!r} is not an int")
    return c


def _accumulate(data: dict[Key, int], pairs: Iterable[tuple[Key, int]], scale: int = 1) -> None:
    """Add scale * coeff to data[key] for each (key, coeff), in place.

    Terms whose coefficient becomes zero are removed, so ``data`` never
    holds a zero coefficient.
    """
    get = data.get
    for key, coeff in pairs:
        new = get(key, 0) + scale * coeff
        if new:
            data[key] = new
        else:
            data.pop(key, None)


_DIGIT_CHUNK = 10**640


def _digits(c: int) -> str:
    """Exact decimal digits of c >= 0; str() may refuse more than 640 at once."""
    chunks = []
    while c >= _DIGIT_CHUNK:
        c, low = divmod(c, _DIGIT_CHUNK)
        chunks.append(f"{low:0640d}")
    return str(c) + "".join(reversed(chunks))


def _term_str(key: Key, c: int) -> str:
    """The text of one term of an element: "+(1,2)", "-(2,1)", "+3*(1,2,1)"."""
    sign = "+" if c > 0 else "-"
    body = _seq_str(_seq(key))
    return sign + body if c == 1 or c == -1 else f"{sign}{_digits(abs(c))}*{body}"


# Byte value v to its digit for 1 <= v <= 9, and 10 to ':', the byte
# after '9', which stands for "10" until the text is finished; any other
# value to '?', as which ``_block_str`` also encodes a value above 127.
_DIGIT_BYTES = (b"?" + bytes(range(ord("1"), ord(":") + 1))).ljust(256, b"?")
_SIGN_BYTES = {1: ord("+"), -1: ord("-")}


def _block_str(block: list[tuple[Key, int]]) -> str:
    """The texts of the terms ``(key, coefficient)`` of block, joined by
    spaces: exactly ``" ".join(_term_str(...))``.

    When every key has one nonzero length and values 1..10 and every
    coefficient is +-1, the text is laid out in a few C-level steps: the
    keys are joined and translated to digits, and each position of a
    "+(d,...,d) " template is filled by one strided slice.  Any other
    block goes through ``_term_str`` term by term.
    """
    if not block:
        return ""
    keys, coeffs = zip(*block)
    size = len(keys[0])
    digits = "".join(keys).encode("ascii", "replace").translate(_DIGIT_BYTES)
    if not (
        size
        and set(map(len, keys)) == {size}
        and b"?" not in digits
        and set(coeffs) <= {1, -1}
    ):
        return " ".join([_term_str(key, c) for key, c in block])
    width = 2 * size + 3
    text = bytearray(b"+(" + b"0," * (size - 1) + b"0) ") * len(block)
    text[0::width] = bytes(map(_SIGN_BYTES.__getitem__, coeffs))
    for k in range(size):
        text[2 + 2 * k :: width] = digits[k::size]
    del text[-1]
    return text.decode("ascii").replace(":", "10")


def _basis(key: Key) -> Surjection:
    # The surjection of a stored key, which is valid by construction.
    n = ord(max(key))
    return Surjection._unchecked(_seq(key), n, len(key) - n)


class Element:
    """A formal sum of surjections with nonzero integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Surjection, int]] = ()):
        items = list(terms)
        for u, c in items:
            if not isinstance(u, Surjection):
                raise TypeError(f"basis term {u!r} is not a Surjection")
            _coeff(c)
        data: dict[Key, int] = {}
        _accumulate(data, ((_key(u.seq), c) for u, c in items))
        object.__setattr__(self, "_terms", data)

    @classmethod
    def _trusted(cls, data: dict[Key, int]) -> "Element":
        # Takes ownership of a dict of valid keys with nonzero coefficients.
        out = cls.__new__(cls)
        object.__setattr__(out, "_terms", data)
        return out

    @classmethod
    def zero(cls) -> "Element":
        return cls()

    @classmethod
    def single(cls, u: Surjection, coeff: int = 1) -> "Element":
        return cls(((u, coeff),))

    @classmethod
    def sum(cls, parts: Iterable[tuple[int, "Element"]]) -> "Element":
        """The linear combination sum of coeff * element over ``parts``.

        Parts are added into one dict as they arrive, so a generator of
        parts is summed without holding more than one part at a time.
        """
        data: dict[Key, int] = {}
        for coeff, part in parts:
            _accumulate(data, part._terms.items(), _coeff(coeff))
        return cls._trusted(data)

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    def terms(self) -> list[tuple[Surjection, int]]:
        """Terms sorted lexicographically by sequence."""
        return [(_basis(key), c) for key, c in sorted(self._terms.items())]

    def support(self) -> list[Surjection]:
        return [_basis(key) for key in sorted(self._terms)]

    def coefficient(self, u: Surjection) -> int:
        return self._terms.get(_key(u.seq), 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self._terms == other._terms

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        data = dict(self._terms)
        _accumulate(data, other._terms.items())
        return Element._trusted(data)

    def __neg__(self) -> "Element":
        return Element._trusted({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def scale(self, c: int) -> "Element":
        if _coeff(c) == 0:
            return Element.zero()
        return Element._trusted({key: c * k for key, k in self._terms.items()})

    def __rmul__(self, c: int) -> "Element":
        if not isinstance(c, int):
            return NotImplemented
        return self.scale(c)

    def bidegree(self) -> Optional[tuple[int, int]]:
        """(arity, degree) shared by all terms, or None for the zero element.

        Raises NotHomogeneousError when terms disagree.
        """
        it = iter(self._terms)
        first = next(it, None)
        if first is None:
            return None
        top, size = max(first), len(first)
        for key in it:
            if len(key) != size or max(key) != top:
                u, v = _basis(first), _basis(key)
                raise NotHomogeneousError(
                    f"mixed terms: {u} is {(u.arity, u.degree)}, {v} is {(v.arity, v.degree)}"
                )
        arity = ord(top)
        return arity, size - arity

    # No command calls this; it is kept because perfbench/tracer.py wraps it by name.
    def apply_linear(self, f: Callable[[Surjection], "Element"]) -> "Element":
        """Extend the basis-level map f linearly: sum of coeff * f(term)."""
        return Element.sum((c, f(_basis(key))) for key, c in self._terms.items())

    def __str__(self) -> str:
        return _block_str(sorted(self._terms.items())) or "0"

    def __repr__(self) -> str:
        return f"Element({str(self)!r})"


def as_element(x: Union[Element, Surjection]) -> Element:
    """Coerce a lone basis surjection to the element with coefficient one."""
    if isinstance(x, Element):
        return x
    if isinstance(x, Surjection):
        return Element.single(x)
    raise TypeError(f"expected Element or Surjection, got {type(x).__name__}")
