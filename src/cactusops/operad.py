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

The one kernel, ``composition_splits``, yields ``(sequence, sign)``
pairs, which ``compose_basis`` and ``compose`` add straight into the
in-place accumulator of ``elements``, keyed by the raw sequence.  It reads
each factor from a plain record: an outer term's relabelled blocks and
suffix parities (``_Outer``), an inner term's values shifted onto the new
lobes, its recurrence prefix and its split tables (``_Inner``).
``compose`` builds one record per term and call; a lone pair of
surjections gets its two records built on the spot.  A split's sign
depends on the outer term only through r and the mask of its suffix
parities, and on the inner term only through the parity bits of its r
stretches: the sign is the parity of ``bits & mask``.  So an inner term
lists its splits into r stretches once per r and signs them once per
(r, mask), and every composite is concatenated from that table.  All of
it is dropped when the call returns.

The differential deletes one entry at a time; entries that are the only
occurrence of their value are skipped, and deletions that would leave two
equal adjacent entries are identified with zero.  One generator,
``_deletions``, yields the ``(sequence, sign)`` deletions of a raw
sequence; ``boundary`` streams those of every term of an element, scaled
by the term's coefficient, into one accumulator, and ``boundary_basis`` is
the same stream for a single term.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterator, Union

from .elements import Element, Seq, _accumulate, as_element
from .errors import OutOfRangeError
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


def _outer_factor(vseq: Seq, t: int, n_inner: int) -> tuple[tuple[Seq, ...], tuple[int, ...]]:
    """The outer factor's share of every split of v o_t u.

    Returns the r + 1 stretches of v around the occurrences of t, with the
    values above t raised past the arity(u) - 1 new lobes, and the suffix
    parities: entry p is the parity of the summed degrees of the outer
    blocks p, ..., r-1.  Those blocks tile the suffix of v from the p-th
    occurrence of t, and a suffix's degree is its length minus its number
    of distinct values.
    """
    size = len(vseq)
    shift = n_inner - 1
    lifted = tuple([s if s < t else s + shift for s in vseq])
    blocks = []
    parities = []
    prev = 0
    for p, w in enumerate(vseq):
        if w == t:
            blocks.append(lifted[prev:p])
            parities.append((size - p - len(set(vseq[p:]))) & 1)
            prev = p + 1
    blocks.append(lifted[prev:])
    return tuple(blocks), tuple(parities)


def _stretches(shifted: Seq, uprefix: list[int], r: int) -> Iterator[tuple[tuple[Seq, ...], int]]:
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


class _Outer:
    """The outer term vseq of v o_t u with its ``_outer_factor``: the first
    block ``head``, the later blocks ``tails`` and the suffix parities."""

    __slots__ = ("seq", "head", "tails", "parities")

    def __init__(self, vseq: Seq, t: int, n_inner: int):
        blocks, self.parities = _outer_factor(vseq, t, n_inner)
        self.seq, self.head, self.tails = vseq, blocks[0], blocks[1:]


class _Inner:
    """The inner term useq of v o_t u with its values raised onto lobes
    t.., its recurrence prefix, and its split tables, built on first use."""

    __slots__ = ("seq", "shifted", "prefix", "stretches", "tables")

    def __init__(self, useq: Seq, t: int):
        self.seq = useq
        self.shifted = tuple(s + t - 1 for s in useq)
        self.prefix = recurrence_prefix(useq)
        self.stretches = {}
        self.tables = {}

    def table(self, parities: tuple[int, ...]) -> list[tuple[tuple[Seq, ...], int]]:
        """The ``(stretches, sign)`` of every split against an outer term
        with these suffix parities, in the order of ``_stretches``.

        The splits into r = len(parities) stretches are listed once per r,
        and signed once per parities, that is per (r, mask) with bit p of
        mask the outer suffix parity p: the sign of the closed form in the
        module docstring is the parity of ``bits & mask``.
        """
        table = self.tables.get(parities)
        if table is None:
            r = len(parities)
            splits = self.stretches.get(r)
            if splits is None:
                splits = self.stretches[r] = list(_stretches(self.shifted, self.prefix, r))
            mask = sum(parity << p for p, parity in enumerate(parities))
            table = self.tables[parities] = [
                (stretches, -1 if (bits & mask).bit_count() & 1 else 1) for stretches, bits in splits
            ]
        return table


def composition_splits(
    v: Union[Surjection, _Outer], t: int, u: Union[Surjection, _Inner]
) -> Iterator[tuple[Seq, int]]:
    """All summands of v o_t u as ``(sequence, sign)`` pairs.

    One summand per split of u into r stretches (see ``_stretches``; r is
    the number of occurrences of t in v): the p-th occurrence of t becomes
    stretch p shifted onto lobes t.., and the sign is the Koszul sign of
    moving each inner stretch in front of the outer block that starts at
    its occurrence and every later one.  No composite is degenerate, so
    none is dropped: every stretch is a piece of a non-degenerate
    sequence, inner and outer values differ, and two inner stretches are
    separated by the nonempty stretch of v between two occurrences of t.

    The factors come as records built by ``compose``, or as two
    surjections, whose records are built here after the lobe is checked.
    Either way the signed stretches come from ``u.table`` and each
    composite is the concatenation of v's blocks and those stretches.
    """
    if isinstance(v, Surjection):
        if not 1 <= t <= v.arity:
            raise OutOfRangeError(f"lobe {t} not in 1..{v.arity}")
        v, u = _Outer(v.seq, t, u.arity), _Inner(u.seq, t)
    head, tails = v.head, v.tails
    for stretches, sign in u.table(v.parities):
        composite = head
        for s, tail in zip(stretches, tails):
            composite += s + tail
        yield composite, sign


def compose_basis(v: Surjection, t: int, u: Surjection) -> Element:
    """Operadic composition of basis surjections, as an element."""
    data: dict[Seq, int] = {}
    _accumulate(data, composition_splits(v, t, u))
    return Element._trusted(data)


def compose(a: Union[Element, Surjection], t: int, b: Union[Element, Surjection]) -> Element:
    """Bilinear extension of basis composition.  Inputs must be homogeneous."""
    ea, eb = as_element(a), as_element(b)
    bideg_a = ea.bidegree()
    bideg_b = eb.bidegree()
    if bideg_a is None:
        return Element.zero()
    if not 1 <= t <= bideg_a[0]:
        raise OutOfRangeError(f"lobe {t} not in 1..{bideg_a[0]}")
    if bideg_b is None:
        return Element.zero()
    inner = [(_Inner(seq, t), c) for seq, c in eb._terms.items()]
    data: dict[Seq, int] = {}
    for seq, c1 in ea._terms.items():
        outer = _Outer(seq, t, bideg_b[0])
        for u, c2 in inner:
            _accumulate(data, composition_splits(outer, t, u), c1 * c2)
    return Element._trusted(data)


def _deletions(seq: Seq) -> Iterator[tuple[Seq, int]]:
    """The nonzero single-entry deletions of seq, as ``(sequence, sign)`` pairs.

    A deletion is skipped when the entry is the only occurrence of its
    value and dropped when it would leave equal adjacent entries.  The
    sign exponent is the relative degree of the prefix up to the entry,
    or up to just past the penultimate occurrence when the entry is the
    last occurrence of its value.  One forward pass carries the parity of
    the prefix's relative degree, which grows by one at every entry whose
    value recurs later, and per value that parity just past its latest
    occurrence.
    """
    final = {v: i for i, v in enumerate(seq)}
    end = len(seq) - 1
    odd = 0
    after: dict[int, int] = {}
    for i, v in enumerate(seq):
        if final[v] != i:  # entry recurs later
            exponent = odd
            odd ^= 1
            after[v] = odd
        else:
            exponent = after.get(v)
            if exponent is None:
                continue  # only occurrence of its value
        if 0 < i < end and seq[i - 1] == seq[i + 1]:
            continue  # degenerate deletion counts as zero
        yield seq[:i] + seq[i + 1 :], -1 if exponent else 1


def boundary_basis(u: Surjection) -> Element:
    """Signed sum of the single-entry deletions of u (see ``_deletions``)."""
    data: dict[Seq, int] = {}
    _accumulate(data, _deletions(u.seq))
    return Element._trusted(data)


def boundary(a: Union[Element, Surjection]) -> Element:
    """Linear extension of the basis differential; drops degree by one.

    The deletions of every term, scaled by its coefficient, are added
    into one dict as they are generated.
    """
    ea = as_element(a)
    ea.bidegree()
    data: dict[Seq, int] = {}
    for seq, c in ea._terms.items():
        _accumulate(data, _deletions(seq), c)
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
    if not 1 <= i <= a.arity:
        raise OutOfRangeError(f"i={i} not in 1..{a.arity}")
    arity_ab = a.arity + b.arity - 1
    if not 1 <= j <= arity_ab:
        raise OutOfRangeError(f"j={j} not in 1..{arity_ab}")

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
    if not 1 <= i <= a.arity:
        raise OutOfRangeError(f"i={i} not in 1..{a.arity}")
    lhs = boundary(compose_basis(a, i, b))
    sign = -1 if a.degree % 2 else 1
    rhs = compose(boundary_basis(a), i, b) + sign * compose(a, i, boundary_basis(b))
    return equality_report(f"derivation[a={a},i={i},b={b}]", lhs, rhs)
