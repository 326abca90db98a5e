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

Every insertion takes its sign from one rule, ``_insertion_row``, and is
written by one row writer, ``_row_insertions``, for the walk below and
for the colour kernel ``_insertion_half``, which puts the white or the
black insertions of an element into a dict; word images are folded from
it.  Insertions never collide (see the kernel), so they are
assigned, not summed; the same fact makes the word images of one arity
partition the prime cacti.  Since insertion is linear, the structure map
is psi_n = white(psi_{n-1}) + black(psi_{n-1}), and it has one builder:
``_psi_blocks`` streams it in sorted order, and ``a_infinity_image`` is
the dict of that stream.  Word images and structure maps are memoized
with ``functools.cache``.
The splice sums of the boundary images do cancel: each composition of
the sum is added, with its sign, straight into one dict by
``operad._compose_into``, so no composition is built as an element of
its own.

``_psi_blocks`` streams psi_n in lexicographic order, holding only
psi_{n-1}, by one walk over the sorted terms u of psi_{n-1}, which the
same stream yields one arity down from psi_2: nothing is sorted and no
dict is built.
The insertion of the new top value n at 0-based position j is
u~j = u[:j+1] + (n,) + u[j:].  Take the terms that share a prefix
P = u[:p].  Their insertions at j >= p begin with P + (u[p],), those at
j = p - 1 with P + (n,), and n exceeds every entry of psi_{n-1}.  So the
walk emits, for each such group, first the groups of its terms that share
u[p] as well, in ascending order of u[p], and then its insertions at
j = p - 1 in term order, which is sorted: they share P and n and then
differ as the terms do.  A group of one term emits its insertions at
every j >= p - 1 with j descending, since u~j' < u~j for j' > j (they
first differ at j + 1, where u~j has n); so only the terms' branching
prefixes are walked.  ``_position_insertions`` writes a group's
insertions at one position, lazily.  Only ``_blocks`` cuts the stream,
into blocks of ``PSI_CHUNK`` terms, each increasing strictly from the term
before it: an equal step would be two coinciding insertions, and raises.
Every term, here and in the insertion kernel, is its key of ``elements``,
one code point per value, so the stream's pairs are the dict's items.

The support of the arity-n structure map is the set of prime cacti, so
its size 2(2n-5)!!, ``prime_cacti_count``, is known before any work, and
so is a bound on its differential; structure maps, or differentials of
them, above ``_MAX_IMAGE_TERMS`` terms are refused up front with
``ResourceBoundError``.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, islice, pairwise, product
from operator import itemgetter, lt
from typing import Iterable, Iterator, Optional, Union

from .elements import Element, Key, _key, _seq, as_element
from .errors import MaxValueNotUniqueError, ResourceBoundError, WordError
from .errors import _check_count, _check_index, _quote
from .operad import _compose_into, boundary, compose
from .reports import VerificationReport, sides_report
from .surjections import Surjection, _seq_str

__all__ = [
    "all_words",
    "white_op",
    "black_op",
    "word_image",
    "a_infinity_image",
    "splice_decompositions",
    "word_boundary_image",
    "a_infinity_boundary_image",
    "check_top_insertion_identities",
    "check_insertion_composition",
    "check_word_boundary_compat",
    "prime_cacti_count",
]

WHITE = "w"
BLACK = "b"

# The largest structure map built: psi_10 has 4,054,050 terms and takes
# about 1 GB; psi_11 would have 68,918,850.
_MAX_IMAGE_TERMS = 5_000_000

# Terms of psi_n per block of its sorted stream.
PSI_CHUNK = 1024

_BASE = {WHITE: (2, 1), BLACK: (1, 2)}


def _letters(letters: str) -> str:
    if not letters or any(ch not in "wb" for ch in letters):
        raise WordError(f"word {_quote(letters)} must be a nonempty string over 'w'/'b'")
    return letters


def all_words(n: int) -> list[str]:
    """The 2**(n-1) words of arity n, white before black at each position."""
    _check_count(n, 2, "arity ", f"arity {_quote(n)} has no generator words")
    return ["".join(p) for p in product("wb", repeat=n - 1)]


def _top_index(key: Key) -> int:
    """0-based position of the top value of key, which must occur once."""
    n = max(key)
    top = key.index(n)
    if key.count(n) != 1:
        raise MaxValueNotUniqueError(
            f"top value {ord(n)} occurs {key.count(n)} times in {_quote(_seq(key), _seq_str)}"
        )
    return top


def _insertion_row(key: Key) -> tuple[int, int]:
    """The top position of u and, as bits, which insertions negate c.

    The insertion u~j of a term c*u of arity n and degree k carries
    c * (-1)**(k + |u|_j), negated past the top (black), with |u|_j the
    relative degree of u(1..j), the number of positions before j whose
    value recurs later: its parity is carried forward as j advances.
    """
    top = _top_index(key)
    final = {v: i for i, v in enumerate(key)}
    parity = (len(key) - ord(key[top])) & 1
    flips = 0
    for i, v in enumerate(key):
        if i == top:
            parity ^= 1
        elif parity:
            flips |= 1 << i
        if final[v] != i:  # entry recurs later
            parity ^= 1
    return top, flips


def _insertion_half(a: Union[Element, Surjection], color: str) -> Element:
    """The insertion sum of ``a`` of the color ``'w'`` or ``'b'``, in one
    pass over its terms, each written by ``_row_insertions``.

    Each insertion is assigned, not added: u comes back from u~j by
    deleting the unique top value n+1 and one of the two equal neighbours
    it leaves, and a white term has n+1 before n, a black one after, so
    no two insertions of one color share a sequence.  A collision raises.
    """
    ea = as_element(a)
    arity, _ = ea.bidegree() or (0, 0)
    new = _key((arity + 1,))
    out: dict[Key, int] = {}
    made = 0
    for key, c in ea._terms.items():
        top, flips = _insertion_row(key)
        lo, hi = (0, top) if color == WHITE else (top + 1, len(key))
        row = _row_insertions((key, c, top, flips), lo, hi, new)
        made += len(row)
        out.update(row)
    if len(out) != made:
        raise RuntimeError(f"{made} insertions added {len(out)} terms: two insertions coincide")
    return Element._trusted(out)


def white_op(a: Union[Element, Surjection]) -> Element:
    """Signed top-lobe insertions before the top lobe, extended linearly."""
    return _insertion_half(a, WHITE)


def black_op(a: Union[Element, Surjection]) -> Element:
    """Signed top-lobe insertions after the top lobe, extended linearly."""
    return _insertion_half(a, BLACK)


@cache
def word_image(word: str) -> Element:
    """The cactus chain of a word: fold white_op/black_op over its letters.

    Memoized with ``functools.cache``; values are immutable, so they are
    shared by every caller.  ``word_image.cache_clear()`` frees them.
    The word images of one arity partition the structure map, so a word
    whose arity is over its bound is refused before any insertion.
    """
    letters = _letters(word)
    _check_image_size(len(letters) + 1)
    if len(letters) == 1:
        return Element.single(Surjection(_BASE[letters]))
    body = word_image(letters[:-1])
    return white_op(body) if letters[-1] == WHITE else black_op(body)


def prime_cacti_count(n: int, cap: Optional[int] = None) -> int:
    """Closed-form size 2*(2n-5)!! of the arity-n prime cacti.  With cap,
    the product stops once it passes cap, so the work stays bounded at
    any arity and a result above cap is only a lower bound."""
    _check_count(n, 2, "arity ", f"arity {_quote(n)} has no prime cacti")
    out = 2
    for odd in range(3, 2 * n - 4, 2):
        out *= odd
        if cap is not None and out > cap:
            break
    return out


def _check_image_size(n: int, differential: bool = False) -> None:
    """Refuse, before any work, an arity below 2 or above the bound.

    psi_n has 2(2n-5)!! terms, its prime cacti.  With ``differential`` the
    bound is on d(psi_n) before it cancels: a term of length 2n-2 has at
    most 2n-3 deletions, as its top value occurs once, so that is
    (2n-3) * 2(2n-5)!! terms, the prime cacti one arity up.
    """
    _check_count(n, 2, "arity ", f"arity {_quote(n)} has no generator words")
    cap = 10**100  # a count is quoted in full up to here, and the work stays bounded
    count = prime_cacti_count(n + 1 if differential else n, cap)
    if count > _MAX_IMAGE_TERMS:
        what = "structure map has"
        if differential:
            what = "differential of the structure map has up to"
        size = "over 10**100" if count > cap else count
        raise ResourceBoundError(
            f"arity {_quote(n)}: the {what} {size} terms, more than the bound of {_MAX_IMAGE_TERMS}"
        )


@cache
def a_infinity_image(n: int) -> Element:
    """Arity-n structure map: the sum of word images over all arity-n words,
    as the dict of the terms ``_psi_blocks(n)`` streams.

    Memoized with ``functools.cache`` like ``word_image``, so psi_n stays
    until ``a_infinity_image.cache_clear()``.  Raises ResourceBoundError,
    before any work, when the map would have more than
    ``_MAX_IMAGE_TERMS`` terms, and RuntimeError where the stream does not
    increase, so no term is overwritten.
    """
    return Element._trusted(dict(pair for block in _psi_blocks(n) for pair in block))


def _position_insertions(
    rows: list[tuple[Key, int, int, int]], j: int, new: Key
) -> Iterable[tuple[Key, int]]:
    """The insertions at 0-based position j of rows that share their first
    j + 1 entries, lazily in row order; a row is a term's key, coefficient
    and ``_insertion_row``.  The shared head holds every row's top or none."""
    first, _, top, _ = rows[0]
    if top == j:
        return ()
    head = first[: j + 1] + new
    return ((head + key[j:], -c if flips >> j & 1 else c) for key, c, _, flips in rows)


def _row_insertions(
    row: tuple[Key, int, int, int], lo: int, hi: int, new: Key
) -> list[tuple[Key, int]]:
    """The insertions of one row at every position j with lo <= j < hi
    other than its top, in order: j descending, since u~j has the top
    value where u~j' (j' > j) still has an entry of u."""
    key, c, top, flips = row
    return [
        (key[: j + 1] + new + key[j:], -c if flips >> j & 1 else c)
        for j in range(hi - 1, lo - 1, -1)
        if j != top
    ]


def _prefix_walk(n: int) -> Iterator[Iterable[tuple[Key, int]]]:
    """The insertions into sorted psi_{n-1}, as parts whose concatenation
    is psi_n in order (see the module docstring)."""
    rows = [(key, c, *_insertion_row(key)) for block in _psi_blocks(n - 1) for key, c in block]
    size = len(rows[0][0])
    # Each key as one integer of 32 bits per value, so that the highest
    # bit where two keys differ gives the length of their common prefix.
    ints = (int.from_bytes(row[0].encode("utf-32-be"), "big") for row in rows)
    # common[i]: the length of the common prefix of rows i - 1 and i, 0 at
    # both ends.
    common = [0, *(size - ((a ^ b).bit_length() + 31) // 32 for a, b in pairwise(ints)), 0]
    new = _key((n,))
    # The open groups of rows that share a prefix, as (prefix length, first
    # row), longest prefix last.  A row alone past the prefix it shares
    # with a neighbour emits its insertions there.  A group closes after
    # its last row and emits its insertions at each position j of its
    # prefix that the group around it does not share, j descending.
    groups = [(0, 0)]
    for i, row in enumerate(rows):
        yield _row_insertions(row, max(common[i], common[i + 1]), size, new)
        first, after = i, common[i + 1]
        while groups[-1][0] > after:
            length, first = groups.pop()
            group = rows[first : i + 1]
            for j in range(length - 1, max(after, groups[-1][0]) - 1, -1):
                yield _position_insertions(group, j, new)
        if groups[-1][0] < after:
            groups.append((after, first))


def _blocks(n: int, parts: Iterator[Iterable]) -> Iterator[list[tuple[Key, int]]]:
    """The terms of parts in blocks of ``PSI_CHUNK``, the last one maybe
    short, each checked to increase strictly from the term before it."""
    terms = chain.from_iterable(parts)
    last = ""
    while block := list(islice(terms, PSI_CHUNK)):
        last = _check_increasing(n, last, block)
        yield block


def _check_increasing(n: int, last: Key, block: list[tuple[Key, int]]) -> Key:
    """The last key of block, which must increase strictly from last."""
    keys = [last, *map(itemgetter(0), block)]
    if not all(map(lt, keys, keys[1:])):
        bad = next(b for a, b in zip(keys, keys[1:]) if a >= b)
        raise RuntimeError(f"psi_{n} stream does not increase at {_seq_str(_seq(bad))}")
    return keys[-1]


def _psi_blocks(n: int) -> Iterator[list[tuple[Key, int]]]:
    """The terms of psi_n in lexicographic order, in blocks of at most
    ``PSI_CHUNK`` pairs ``(key, coefficient)``, walked up from
    psi_2 = (1,2) + (2,1) holding only the rows of psi_{n-1}.

    Raises ResourceBoundError on the call, before any work, when psi_n
    would have more than ``_MAX_IMAGE_TERMS`` terms; the stream raises
    RuntimeError on a step that does not increase, which would mean two
    insertions coincide.
    """
    _check_image_size(n)
    if n == 2:
        return iter([[(_key(_BASE[BLACK]), 1), (_key(_BASE[WHITE]), 1)]])
    return _blocks(n, _prefix_walk(n))


def splice_decompositions(word: str) -> Iterator[tuple[str, str, int]]:
    """All ``(outer, inner, slot)`` such that putting the inner word into
    that slot of the outer word spells word, both factors of arity >= 2."""
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
    Zero in arity 2, where no decomposition exists.  Every composite is
    added into one dict.
    """
    data: dict[Key, int] = {}
    for outer, inner, slot in splice_decompositions(word):
        sign = _splice_sign(len(outer) + 1, len(inner) + 1, slot)
        _compose_into(data, word_image(outer), slot, word_image(inner), sign)
    return Element._trusted(data)


def a_infinity_boundary_image(n: int) -> Element:
    """Image of the arity-n generator's boundary in the one-color setting:
    the same splice sum with both factors replaced by full structure maps."""
    _check_image_size(n, differential=True)
    data: dict[Key, int] = {}
    for p in range(2, n):
        q = n + 1 - p
        outer = a_infinity_image(p)
        inner = a_infinity_image(q)
        for i in range(1, p + 1):
            _compose_into(data, outer, i, inner, _splice_sign(p, q, i))
    return Element._trusted(data)


def check_top_insertion_identities(u: Surjection) -> VerificationReport:
    """The three identities tying white/black insertion to composition:

        white(u) - black(u) = (-1)**k (1,2,1) o_1 u - u o_n (1,2,1)
        d(white(u)) - white(d(u)) = (-1)**k ((2,1) o_1 u - u o_n (2,1))
        d(black(u)) - black(d(u)) = (-1)**k ((1,2) o_1 u - u o_n (1,2))

    u must be a cactus whose top value occurs exactly once.
    """
    _top_index(_key(u.seq))  # eligibility
    n, k = u.arity, u.degree
    sign = -1 if k % 2 else 1
    s121 = Surjection((1, 2, 1))
    s21 = Surjection((2, 1))
    s12 = Surjection((1, 2))
    white, black, du = white_op(u), black_op(u), boundary(u)

    sides = {
        "insertion-vs-121": (
            white - black,
            sign * compose(s121, 1, u) - compose(u, n, s121),
        ),
        "white-boundary": (
            boundary(white) - white_op(du),
            sign * (compose(s21, 1, u) - compose(u, n, s21)),
        ),
        "black-boundary": (
            boundary(black) - black_op(du),
            sign * (compose(s12, 1, u) - compose(u, n, s12)),
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
    _top_index(_key(u1.seq))
    _top_index(_key(u2.seq))
    p = u1.arity
    ell = u2.degree
    _check_index(i, p, "slot ")
    sign = -1 if ell % 2 else 1
    composed = compose(u1, i, u2)

    sides = {}
    for name, op in (("white", white_op), ("black", black_op)):
        rhs = sign * compose(op(u1), i, u2)
        if i == p:
            rhs = rhs + compose(u1, p, op(u2))
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
    d_img, splice_img = boundary(img), word_boundary_image(letters)
    sides = {}
    for color, op in ((WHITE, white_op), (BLACK, black_op)):
        base = word_image(color)
        correction = sign * (compose(base, 1, img) - compose(img, n, base))
        sides[f"differential-{color}"] = (
            boundary(word_image(letters + color)) - op(d_img),
            correction,
        )
        sides[f"splice-{color}"] = (
            word_boundary_image(letters + color) - op(splice_img),
            correction,
        )
    return sides_report(f"word-boundary[{letters}]", sides)
