"""Words over two letters mapped to cactus chains, and their boundary laws.

A generator word is a string over 'w' (white) and 'b' (black); a word of
length n-1 names an arity-n, degree-(n-2) generator.  The image of a word
is built by folding its letters: 'w' maps the one-letter base to (2,1) and
extends by the white insertion sum, 'b' maps to (1,2) and extends by the
black one.  The white insertion sum of u places the new top lobe above
every position strictly before the current top lobe, the black one above
every position strictly after it, with signs read off the relative degree
of the prefix:

    white(u) =   sum_{j < i} (-1)**(k + |u|_j) u~j
    black(u) = - sum_{j > i} (-1)**(k + |u|_j) u~j

where i is the unique position of the top value, k the degree, |u|_j the
relative degree of u(1..j), and u~j the insertion of the new top lobe at
position j.  Summing word images over all words of one arity gives the
arity-n component of the homotopy-associative structure whose binary part
is the symmetrized product (1,2) + (2,1).

Every sum here (the word images of one arity, the splice sums of the
boundary images) is streamed into ``Element.sum``, which adds each part
into one dict in place; no intermediate total is ever copied.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Union

from .elements import Element, as_element
from .errors import MaxValueNotUniqueError, OutOfRangeError, WordError
from .operad import boundary, compose
from .reports import VerificationReport, sides_report
from .surjections import Surjection, insert_top_lobe, recurrence_prefix

__all__ = [
    "all_words",
    "white_op",
    "black_op",
    "word_image",
    "a_infinity_image",
    "splice",
    "splice_decompositions",
    "word_boundary_image",
    "a_infinity_boundary_image",
    "check_top_insertion_identities",
    "check_insertion_composition",
    "check_word_boundary_compat",
]

WHITE = "w"
BLACK = "b"

_BASE = {WHITE: (2, 1), BLACK: (1, 2)}


def _letters(letters: str) -> str:
    if not letters or any(ch not in "wb" for ch in letters):
        raise WordError(f"word {letters!r} must be a nonempty string over 'w'/'b'")
    return letters


def all_words(n: int) -> list[str]:
    """The 2**(n-1) words of arity n, white before black at each position."""
    if n < 2:
        raise ValueError(f"arity {n} has no generator words")
    return ["".join(p) for p in product("wb", repeat=n - 1)]


def _top_position(u: Surjection) -> int:
    positions = [p + 1 for p, v in enumerate(u.seq) if v == u.arity]
    if len(positions) != 1:
        raise MaxValueNotUniqueError(
            f"top value {u.arity} occurs {len(positions)} times in {u}"
        )
    return positions[0]


def _insertion_half(u: Surjection, before: bool) -> Element:
    top = _top_position(u)
    prefix = recurrence_prefix(u.seq)
    k = u.degree
    positions = range(1, top) if before else range(top + 1, len(u.seq) + 1)
    outer = 1 if before else -1
    acc: dict[Surjection, int] = {}
    for j in positions:  # distinct positions give distinct terms
        acc[insert_top_lobe(u, j)] = outer * (-1 if (k + prefix[j - 1]) % 2 else 1)
    return Element._trusted(acc)


def white_op(a: Union[Element, Surjection]) -> Element:
    """Signed top-lobe insertions before the top lobe, extended linearly."""
    ea = as_element(a)
    ea.bidegree()
    return ea.apply_linear(lambda u: _insertion_half(u, before=True))


def black_op(a: Union[Element, Surjection]) -> Element:
    """Signed top-lobe insertions after the top lobe, extended linearly."""
    ea = as_element(a)
    ea.bidegree()
    return ea.apply_linear(lambda u: _insertion_half(u, before=False))


_word_image_cache: dict[str, Element] = {}


def word_image(word: str) -> Element:
    """The cactus chain of a word: fold white_op/black_op over its letters.

    Memoized; values are immutable and the fill is idempotent, so the
    cache is safe to share between concurrent readers.
    """
    letters = _letters(word)
    cached = _word_image_cache.get(letters)
    if cached is not None:
        return cached
    if len(letters) == 1:
        result = Element.single(Surjection(_BASE[letters]))
    else:
        body = word_image(letters[:-1])
        result = white_op(body) if letters[-1] == WHITE else black_op(body)
    _word_image_cache[letters] = result
    return result


def a_infinity_image(n: int) -> Element:
    """Arity-n structure map: the sum of word images over all arity-n words."""
    return Element.sum((1, word_image(letters)) for letters in all_words(n))


def splice(outer: str, slot: int, inner: str) -> str:
    """Substitute the inner word into slot i of the outer word."""
    outer = _letters(outer)
    inner = _letters(inner)
    p = len(outer) + 1
    if not 1 <= slot <= p:
        raise OutOfRangeError(f"slot {slot} not in 1..{p}")
    return outer[: slot - 1] + inner + outer[slot - 1 :]


def splice_decompositions(word: str) -> Iterator[tuple[str, str, int]]:
    """All ``(outer, inner, slot)`` with splice(outer, slot, inner) == word,
    both factors of arity >= 2."""
    letters = _letters(word)
    n = len(letters) + 1
    for p in range(2, n):
        q = n + 1 - p
        for slot in range(1, p + 1):
            inner = letters[slot - 1 : slot - 1 + q - 1]
            outer = letters[: slot - 1] + letters[slot - 1 + q - 1 :]
            yield outer, inner, slot


def _splice_sign(p: int, q: int, i: int) -> int:
    """Sign of the splice outer o_i inner for factors of arities p and q."""
    return -1 if (i - 1 + q * (p - i)) % 2 else 1


def word_boundary_image(word: str) -> Element:
    """Image of the word generator's operadic boundary.

    Sums the composed images of every splice decomposition outer o_slot
    inner with sign (-1)**(slot - 1 + inner_arity * (outer_arity - slot)).
    Zero in arity 2, where no decomposition exists.
    """
    return Element.sum(
        (
            _splice_sign(len(outer) + 1, len(inner) + 1, slot),
            compose(word_image(outer), slot, word_image(inner)),
        )
        for outer, inner, slot in splice_decompositions(word)
    )


def a_infinity_boundary_image(n: int) -> Element:
    """Image of the arity-n generator's boundary in the one-color setting:
    the same splice sum with both factors replaced by full structure maps."""
    if n < 2:
        raise ValueError(f"arity {n} has no generator")

    def parts() -> Iterator[tuple[int, Element]]:
        for p in range(2, n):
            q = n + 1 - p
            outer = a_infinity_image(p)
            inner = a_infinity_image(q)
            for i in range(1, p + 1):
                yield _splice_sign(p, q, i), compose(outer, i, inner)

    return Element.sum(parts())


def check_top_insertion_identities(u: Surjection) -> VerificationReport:
    """The three identities tying white/black insertion to composition:

        white(u) - black(u) = (-1)**k (1,2,1) o_1 u - u o_n (1,2,1)
        d(white(u)) - white(d(u)) = (-1)**k ((2,1) o_1 u - u o_n (2,1))
        d(black(u)) - black(d(u)) = (-1)**k ((1,2) o_1 u - u o_n (1,2))

    u must be a cactus whose top value occurs exactly once.
    """
    _top_position(u)  # eligibility
    n, k = u.arity, u.degree
    sign = -1 if k % 2 else 1
    eu = as_element(u)
    s121 = Surjection((1, 2, 1))
    s21 = Surjection((2, 1))
    s12 = Surjection((1, 2))

    sides = {
        "insertion-vs-121": (
            white_op(eu) - black_op(eu),
            sign * compose(s121, 1, eu) - compose(eu, n, as_element(s121)),
        ),
        "white-boundary": (
            boundary(white_op(eu)) - white_op(boundary(eu)),
            sign * (compose(s21, 1, eu) - compose(eu, n, as_element(s21))),
        ),
        "black-boundary": (
            boundary(black_op(eu)) - black_op(boundary(eu)),
            sign * (compose(s12, 1, eu) - compose(eu, n, as_element(s12))),
        ),
    }
    return sides_report(f"top-insertion[{u}]", sides)


def check_insertion_composition(
    u1: Surjection, i: int, u2: Surjection
) -> VerificationReport:
    """How white/black insertion passes through a composition u1 o_i u2.

    For i < p (p the arity of u1) the insertion acts on the outer factor
    up to the sign (-1)**l (l the degree of u2); for i = p an extra term
    inserts into the inner factor.  Both colors are checked.
    """
    _top_position(u1)
    _top_position(u2)
    p = u1.arity
    ell = u2.degree
    if not 1 <= i <= p:
        raise OutOfRangeError(f"slot {i} not in 1..{p}")
    sign = -1 if ell % 2 else 1
    e1, e2 = as_element(u1), as_element(u2)
    composed = compose(e1, i, e2)

    sides = {}
    for name, op in (("white", white_op), ("black", black_op)):
        rhs = sign * compose(op(e1), i, e2)
        if i == p:
            rhs = rhs + compose(e1, p, op(e2))
        sides[name] = (op(composed), rhs)
    return sides_report(f"insertion-composition[{u1},{i},{u2}]", sides)


def check_word_boundary_compat(word: str) -> VerificationReport:
    """The four equations certifying one inductive step of the boundary law.

    For a word x of arity n, both the differential and the formal boundary
    image of the extended words xw/xb differ from the inserted boundary of
    x by the same commutator-style correction:

        d(img(xw)) - white(d(img(x))) = (-1)**n (img(w) o_1 img(x) - img(x) o_n img(w))
        d(img(xb)) - black(d(img(x))) = (-1)**n (img(b) o_1 img(x) - img(x) o_n img(b))

    and likewise with d(img(.)) replaced by the splice-sum boundary image.
    """
    letters = _letters(word)
    n = len(letters) + 1
    sign = -1 if n % 2 else 1
    img = word_image(letters)
    sides = {}
    for color, op in ((WHITE, white_op), (BLACK, black_op)):
        base = word_image(color)
        correction = sign * (compose(base, 1, img) - compose(img, n, base))
        sides[f"differential-{color}"] = (
            boundary(word_image(letters + color)) - op(boundary(img)),
            correction,
        )
        sides[f"splice-{color}"] = (
            word_boundary_image(letters + color) - op(word_boundary_image(letters)),
            correction,
        )
    return sides_report(f"word-boundary[{letters}]", sides)
