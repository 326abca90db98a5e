"""Differential graded operad structure on surjections.

Composition v o_t u substitutes u into the t-th lobe of v: the entries of
u are split at r-1 weak breakpoints (r = number of occurrences of t in v)
and interleaved with the stretches of v between those occurrences, with
both sides relabelled so the result is again a surjection: the sum over
block interleavings of Berger-Fresse (arXiv:math/0109158).  Every sign in
this module is produced by the Koszul rule: reordering two blocks of
degrees d1, d2 costs (-1)**(d1*d2), where a block's degree is a relative
degree (see ``surjections.recurrence_prefix``).  In a composite the p-th
inner block moves in front of the outer blocks p, p+1, ..., r-1 and past
no other block, so the sign of a split has the closed form

    (-1) ** sum_p deg(inner_p) * sum_{q >= p} deg(outer_q),

one product per block read off the suffix parities of the outer degrees.

The one kernel, ``composition_splits``, yields ``(key, sign)`` pairs,
which ``compose_basis`` and ``_compose_into`` add straight into the
in-place accumulator of ``elements``; a term is its key, one code point
per value (see ``elements``), from the factors to the composite.  It reads
each factor from a plain record: an outer term's relabelled blocks and
the mask of its suffix parities (``_Outer``), an inner term's values
shifted onto the new lobes, its recurrence prefix and its splits
(``_Inner``), each relabelled by one ``str.translate`` with the tables
of ``_lifts``.  ``_compose_into`` builds one record per term and call,
and adds its composites, scaled, into a dict the caller owns, so that a
sum of compositions fills one dict; ``compose`` calls it with a fresh
one.  A lone pair of surjections gets its two records built on the spot.
A split's sign depends on the outer term only through r and its mask,
bit p the parity of outer suffix p, and on the inner term only through
the parity bits of its r stretches: the sign is the parity of
``bits & mask``.  So
an inner term lists its splits into r stretches, with their bits, once
per r, and each composite is signed from ``bits & mask`` where it is
written.  All of it is dropped when the call returns.

The differential deletes one entry at a time; entries that are the only
occurrence of their value are skipped, and deletions that would leave two
equal adjacent entries are identified with zero.  One generator,
``_deletions``, yields the ``(key, sign)`` deletions of a key;
``boundary`` streams those of every term of an element, scaled
by the term's coefficient, into one accumulator, and ``boundary_basis`` is
the same stream for a single term.
"""

from __future__ import annotations

import sys
from itertools import combinations_with_replacement
from typing import Iterator, Union

from .elements import Element, Key, _above_key_limit, _accumulate, _key, _seq, as_element
from .errors import _check_index
from .reports import VerificationReport, equality_report, sides_report
from .surjections import Surjection, recurrence_prefix

__all__ = [
    "composition_splits",
    "compose_basis",
    "compose",
    "boundary_basis",
    "boundary",
    "check_operad_axioms",
    "check_derivation",
]


def _stretches(shifted: Key, uprefix: list[int], r: int) -> Iterator[tuple[tuple[Key, ...], int]]:
    """Every split of the inner factor into r stretches, as ``(stretches,
    bits)`` with bit p of bits the parity of stretch p's relative degree.

    One split per breakpoints 0 = c_0 <= c_1 <= ... <= c_r = len(u) - 1:
    stretch p is u[c_p .. c_{p+1}], both ends included.
    """
    last = len(shifted) - 1
    for mids in combinations_with_replacement(range(last + 1), r - 1):
        stretches = []
        bits = start = 0
        for p, stop in enumerate((*mids, last)):
            stretches.append(shifted[start : stop + 1])
            bits |= ((uprefix[stop] - uprefix[start]) & 1) << p
            start = stop
        yield tuple(stretches), bits


def _lifts(t: int, n_outer: int, n_inner: int) -> tuple[dict[int, int], dict[int, int]]:
    """The ``str.translate`` tables of v o_t u that raise v's values above
    t past the n_inner - 1 new lobes and u's values onto lobes t and up.  The
    composite's top value is refused first, as ``_key`` refuses it, since
    ``str.translate`` would fail on it without saying why."""
    top = n_outer + n_inner - 1
    if top > sys.maxunicode:
        raise _above_key_limit(top)
    outer = dict(zip(range(t + 1, n_outer + 1), range(t + n_inner, top + 1)))
    inner = dict(zip(range(1, n_inner + 1), range(t, t + n_inner)))
    return outer, inner


class _Outer:
    """The outer term vkey of v o_t u, cut at the occurrences of t into r + 1
    blocks, with the values above t raised by the table ``lift`` (see
    ``_lifts``): the first block ``head`` and the later ones ``tails``.
    Bit p of ``mask`` is the parity of the summed degrees of the outer
    blocks p, ..., r-1.  Those blocks tile the suffix of v from the p-th
    occurrence of t, and a suffix's degree is its length minus its number
    of distinct values.  ``seq`` is the values of vkey, in which
    perfbench's tracer counts t; it is decoded only when read."""

    __slots__ = ("key", "head", "tails", "mask")

    def __init__(self, vkey: Key, t: int, lift: dict[int, int]):
        self.key = vkey
        size, lobe = len(vkey), chr(t)
        self.head, *self.tails = vkey.translate(lift).split(lobe)
        mask = q = 0
        p = vkey.find(lobe)
        while p >= 0:
            mask |= ((size - p - len(set(vkey[p:]))) & 1) << q
            q += 1
            p = vkey.find(lobe, p + 1)
        self.mask = mask

    @property
    def seq(self) -> tuple[int, ...]:
        return _seq(self.key)


class _Inner:
    """The inner term ukey of v o_t u with its values raised onto lobes
    t.. by the table ``lift`` (see ``_lifts``), its recurrence prefix, and
    per r its ``(stretches, bits)`` splits into r stretches (see
    ``_stretches``), listed on first use."""

    __slots__ = ("seq", "shifted", "prefix", "splits")

    def __init__(self, ukey: Key, lift: dict[int, int]):
        self.seq = ukey
        self.shifted = ukey.translate(lift)
        self.prefix = recurrence_prefix(ukey)
        self.splits = {}


def composition_splits(
    v: Union[Surjection, _Outer], t: int, u: Union[Surjection, _Inner]
) -> Iterator[tuple[Key, int]]:
    """All summands of v o_t u as ``(key, sign)`` pairs.

    One summand per split of u into r stretches (see ``_stretches``; r is
    the number of occurrences of t in v): the p-th occurrence of t becomes
    stretch p shifted onto lobes t.., and the sign is the Koszul sign of
    moving each inner stretch in front of the outer block that starts at
    its occurrence and every later one.  No composite is degenerate, so
    none is dropped: every stretch is a piece of a non-degenerate
    sequence, inner and outer values differ, and two inner stretches are
    separated by the nonempty stretch of v between two occurrences of t.

    The factors come as records built by ``_compose_into``, or as two
    surjections, whose records are built here after the lobe and the
    composite's top value are checked.
    Either way the stretches and their parity bits come from ``u.splits``,
    each composite is the concatenation of v's blocks and those stretches,
    and its sign is the parity of ``bits & v.mask``.
    """
    if isinstance(v, Surjection):
        _check_index(t, v.arity, "lobe ")
        outer_lift, inner_lift = _lifts(t, v.arity, u.arity)
        v, u = _Outer(_key(v.seq), t, outer_lift), _Inner(_key(u.seq), inner_lift)
    head, tails, mask = v.head, v.tails, v.mask
    r = len(tails)
    splits = u.splits.get(r)
    if splits is None:
        splits = u.splits[r] = list(_stretches(u.shifted, u.prefix, r))
    for stretches, bits in splits:
        composite = head
        for s, tail in zip(stretches, tails):
            composite += s + tail
        yield composite, -1 if (bits & mask).bit_count() & 1 else 1


def compose_basis(v: Surjection, t: int, u: Surjection) -> Element:
    """Operadic composition of basis surjections, as an element."""
    data: dict[Key, int] = {}
    _accumulate(data, composition_splits(v, t, u))
    return Element._trusted(data)


def _compose_into(data: dict[Key, int], ea: Element, t: int, eb: Element, scale: int = 1) -> None:
    """Add scale * (ea o_t eb) into data in place.  Both elements must be
    homogeneous; one record is built per term, and dropped on return."""
    bideg_a = ea.bidegree()
    bideg_b = eb.bidegree()
    # A zero element has no arity: every lobe from 1 up fits it.
    _check_index(t, None if bideg_a is None else bideg_a[0], "lobe ")
    if bideg_a is None or bideg_b is None:
        return
    outer_lift, inner_lift = _lifts(t, bideg_a[0], bideg_b[0])
    inner = [(_Inner(key, inner_lift), c) for key, c in eb._terms.items()]
    for key, c1 in ea._terms.items():
        outer = _Outer(key, t, outer_lift)
        for u, c2 in inner:
            _accumulate(data, composition_splits(outer, t, u), scale * c1 * c2)


def compose(a: Union[Element, Surjection], t: int, b: Union[Element, Surjection]) -> Element:
    """Bilinear extension of basis composition.  Inputs must be homogeneous."""
    data: dict[Key, int] = {}
    _compose_into(data, as_element(a), t, as_element(b))
    return Element._trusted(data)


def _deletions(key: Key) -> Iterator[tuple[Key, int]]:
    """The nonzero single-entry deletions of key, as ``(key, sign)`` pairs.

    A deletion is skipped when the entry is the only occurrence of its
    value and dropped when it would leave equal adjacent entries.  The
    sign exponent is the relative degree of the prefix up to the entry,
    or up to just past the penultimate occurrence when the entry is the
    last occurrence of its value.  One forward pass carries the parity of
    the prefix's relative degree, which grows by one at every entry whose
    value recurs later, and per value that parity just past its latest
    occurrence.
    """
    final = {v: i for i, v in enumerate(key)}
    end = len(key) - 1
    odd = 0
    after: dict[str, int] = {}
    for i, v in enumerate(key):
        if final[v] != i:  # entry recurs later
            exponent = odd
            odd ^= 1
            after[v] = odd
        else:
            exponent = after.get(v)
            if exponent is None:
                continue  # only occurrence of its value
        if 0 < i < end and key[i - 1] == key[i + 1]:
            continue  # degenerate deletion counts as zero
        yield key[:i] + key[i + 1 :], -1 if exponent else 1


def boundary_basis(u: Surjection) -> Element:
    """Signed sum of the single-entry deletions of u (see ``_deletions``)."""
    data: dict[Key, int] = {}
    _accumulate(data, _deletions(_key(u.seq)))
    return Element._trusted(data)


def boundary(a: Union[Element, Surjection]) -> Element:
    """Linear extension of the basis differential; drops degree by one.

    The deletions of every term, scaled by its coefficient, are added
    into one dict as they are generated.
    """
    ea = as_element(a)
    ea.bidegree()
    data: dict[Key, int] = {}
    for key, c in ea._terms.items():
        _accumulate(data, _deletions(key), c)
    return Element._trusted(data)


def check_operad_axioms(
    a: Surjection, i: int, b: Surjection, j: int, c: Surjection
) -> VerificationReport:
    """Check both partial-composition relations on (a o_i b) o_j c.

    Relation 1 applies when j < i (disjoint slots; the sides differ by the
    Koszul sign of swapping b and c).  Relation 2 applies when j falls
    inside the block of b.  Index pairs outside both ranges are reported
    as not applicable rather than guessed.
    """
    label = f"operad-axioms[a={a},i={i},b={b},j={j},c={c}]"
    _check_index(i, a.arity, "i=")
    _check_index(j, a.arity + b.arity - 1, "j=")

    ab = compose_basis(a, i, b)
    lhs = compose(ab, j, c)
    sides = {}
    notes = []

    if j < i:
        swap = -1 if (b.degree % 2) and (c.degree % 2) else 1
        rhs = swap * compose(compose_basis(a, j, c), i + c.arity - 1, b)
        sides["relation1"] = (lhs, rhs)
    else:
        notes.append("relation1: not applicable")

    if i <= j < b.arity + i:
        sides["relation2"] = (lhs, compose(a, i, compose_basis(b, j - i + 1, c)))
    else:
        notes.append("relation2: not applicable")

    return sides_report(label, sides, tuple(notes))


def check_derivation(a: Surjection, i: int, b: Surjection) -> VerificationReport:
    """Check the Leibniz rule for the differential against o_i."""
    _check_index(i, a.arity, "i=")
    lhs = boundary(compose_basis(a, i, b))
    sign = -1 if a.degree % 2 else 1
    rhs = compose(boundary_basis(a), i, b) + sign * compose(a, i, boundary_basis(b))
    return equality_report(f"derivation[a={a},i={i},b={b}]", lhs, rhs)
