"""Finite integer-coefficient formal sums of surjections.

Coefficients are exact Python integers; terms with coefficient zero are
never stored.  An element is a plain dict keyed by the raw value sequence
of each basis surjection, ``tuple[int, ...]``, so hashing and equality of
terms run on tuples, in C.  ``Surjection`` objects appear only at the API
boundary: ``terms()`` and ``support()`` rebuild them from the sequences,
which are valid by construction.  Terms are sorted lexicographically
whenever an ordering is visible (iteration, serialization, equality of
string forms).  The text of one term is ``_term_str``'s.  ``_block_str``
writes a whole block of terms at once; it lays out blocks of one length,
values up to 10 and coefficients +-1 in a few C-level steps and passes
any other block to ``_term_str``, and
``tests/test_elements.py::TestBlockText`` holds the two to the same text.
So a stream of sorted terms (``cactusops psi``) prints exactly like the
element.

Every sum in the package goes through one in-place update, ``_accumulate``.
``Element.sum`` streams ``(coeff, Element)`` parts through it; the operad
kernels of Berger-Fresse (arXiv:math/0109158), composition and the
differential, feed it ``(sequence, sign)`` pairs straight from raw
sequences and wrap the finished dict with ``Element._trusted``, which
skips validation.  The white/black insertions of ``ainfty`` never produce
two equal terms, so their kernel writes its dict by plain assignment and
wraps it the same way.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Union

from .errors import NotHomogeneousError
from .surjections import Surjection, _seq_str

__all__ = ["Element", "as_element"]


Seq = tuple[int, ...]


def _accumulate(data: dict[Seq, int], pairs: Iterable[tuple[Seq, int]], scale: int = 1) -> None:
    """Add scale * coeff to data[seq] for each (seq, coeff), in place.

    Terms whose coefficient becomes zero are removed, so ``data`` never
    holds a zero coefficient.
    """
    get = data.get
    for seq, coeff in pairs:
        new = get(seq, 0) + scale * coeff
        if new:
            data[seq] = new
        else:
            data.pop(seq, None)


_DIGIT_CHUNK = 10**640


def _digits(c: int) -> str:
    """Exact decimal digits of c >= 0; str() may refuse more than 640 at once."""
    chunks = []
    while c >= _DIGIT_CHUNK:
        c, low = divmod(c, _DIGIT_CHUNK)
        chunks.append(f"{low:0640d}")
    return str(c) + "".join(reversed(chunks))


def _term_str(seq: Seq, c: int) -> str:
    """The text of one term of an element: "+(1,2)", "-(2,1)", "+3*(1,2,1)"."""
    sign = "+" if c > 0 else "-"
    body = _seq_str(seq)
    return sign + body if c == 1 or c == -1 else f"{sign}{_digits(abs(c))}*{body}"


# Byte value v to its digit for 1 <= v <= 9, and 10 to ':', the byte
# after '9', which stands for "10" until the text is finished; any other
# value to '?'.
_DIGIT_BYTES = (b"?" + bytes(range(ord("1"), ord(":") + 1))).ljust(256, b"?")
_SIGN_BYTES = {1: ord("+"), -1: ord("-")}


def _block_str(block: list[tuple[bytes, int]]) -> str:
    """The texts of the terms ``(bytes(sequence), coefficient)`` of block,
    joined by spaces: exactly ``" ".join(_term_str(...))``.

    When every sequence has one nonzero length and values 1..10 and every
    coefficient is +-1, the text is laid out in a few C-level steps: the
    sequences are joined into one bytes object and translated to digits,
    and each position of a "+(d,...,d) " template is filled by one strided
    slice.  Any other block goes through ``_term_str`` term by term.
    """
    if not block:
        return ""
    seqs, coeffs = zip(*block)
    size = len(seqs[0])
    digits = b"".join(seqs).translate(_DIGIT_BYTES)
    if not (
        size
        and set(map(len, seqs)) == {size}
        and b"?" not in digits
        and set(coeffs) <= {1, -1}
    ):
        return " ".join([_term_str(tuple(seq), c) for seq, c in block])
    width = 2 * size + 3
    text = bytearray(b"+(" + b"0," * (size - 1) + b"0) ") * len(block)
    text[0::width] = bytes(map(_SIGN_BYTES.__getitem__, coeffs))
    for k in range(size):
        text[2 + 2 * k :: width] = digits[k::size]
    del text[-1]
    return text.decode("ascii").replace(":", "10")


def _basis(seq: Seq) -> Surjection:
    # The surjection of a stored sequence, which is valid by construction.
    n = max(seq)
    return Surjection._unchecked(seq, n, len(seq) - n)


class Element:
    """A formal sum of surjections with nonzero integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Surjection, int]] = ()):
        items = list(terms)
        for u, _ in items:
            if not isinstance(u, Surjection):
                raise TypeError(f"basis term {u!r} is not a Surjection")
        data: dict[Seq, int] = {}
        _accumulate(data, ((u.seq, c) for u, c in items))
        object.__setattr__(self, "_terms", data)

    @classmethod
    def _trusted(cls, data: dict[Seq, int]) -> "Element":
        # Takes ownership of a dict of valid sequences with nonzero coefficients.
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
        data: dict[Seq, int] = {}
        for coeff, part in parts:
            _accumulate(data, part._terms.items(), coeff)
        return cls._trusted(data)

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    def terms(self) -> list[tuple[Surjection, int]]:
        """Terms sorted lexicographically by sequence."""
        return [(_basis(seq), c) for seq, c in sorted(self._terms.items())]

    def support(self) -> list[Surjection]:
        return [_basis(seq) for seq in sorted(self._terms)]

    def coefficient(self, u: Surjection) -> int:
        return self._terms.get(u.seq, 0)

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
        return Element._trusted({seq: -c for seq, c in self._terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def scale(self, c: int) -> "Element":
        if c == 0:
            return Element.zero()
        return Element._trusted({seq: c * k for seq, k in self._terms.items()})

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
        arity, size = max(first), len(first)
        for seq in it:
            if len(seq) != size or max(seq) != arity:
                u, v = _basis(first), _basis(seq)
                raise NotHomogeneousError(
                    f"mixed terms: {u} is {(u.arity, u.degree)}, {v} is {(v.arity, v.degree)}"
                )
        return arity, size - arity

    # No command calls this; it is kept because perfbench/tracer.py wraps it by name.
    def apply_linear(self, f: Callable[[Surjection], "Element"]) -> "Element":
        """Extend the basis-level map f linearly: sum of coeff * f(term)."""
        return Element.sum((c, f(_basis(seq))) for seq, c in self._terms.items())

    def __str__(self) -> str:
        terms = self._terms
        if not terms:
            return "0"
        return " ".join([_term_str(seq, terms[seq]) for seq in sorted(terms)])

    def __repr__(self) -> str:
        return f"Element({str(self)!r})"


def as_element(x: Union[Element, Surjection]) -> Element:
    """Coerce a lone basis surjection to the element with coefficient one."""
    if isinstance(x, Element):
        return x
    if isinstance(x, Surjection):
        return Element.single(x)
    raise TypeError(f"expected Element or Surjection, got {type(x).__name__}")
