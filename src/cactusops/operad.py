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
in-place accumulator of ``elements``, keyed by the raw sequence.  The
relabelled outer blocks and their suffix parities depend only on the
outer factor; ``compose`` visits the pairs outer-major, so a one-entry
memo computes them once per outer term.  The inner factor's values
shifted onto the new lobes and its recurrence prefix depend only on the
inner term and the lobe; ``compose`` builds them once per inner term and
hands them to the kernel on the inner factor itself, so they are dropped
when the call returns.

The differential deletes one entry at a time; entries that are the only
occurrence of their value are skipped, and deletions that would leave two
equal adjacent entries are identified with zero.  One generator,
``_deletions``, yields the ``(sequence, sign)`` deletions of a raw
sequence; ``boundary`` streams those of every term of an element, scaled
by the term's coefficient, into one accumulator, and ``boundary_basis`` is
the same stream for a single term.
"""

from __future__ import annotations

from functools import lru_cache
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


@lru_cache(maxsize=1)
def _outer_factor(vseq: Seq, t: int, n_inner: int) -> tuple[tuple[Seq, ...], tuple[int, ...]]:
    """The outer factor's share of every split of v o_t u.

    Returns the r + 1 stretches of v around the occurrences of t, with the
    values above t raised past the arity(u) - 1 new lobes, and the suffix
    parities: entry p is the parity of the summed degrees of the outer
    blocks p, ..., r-1.  Those blocks tile v from the p-th occurrence of t
    to its end, so the sum is the degree of v minus a prefix value.
    """
    positions = [p for p, w in enumerate(vseq) if w == t]
    prefix = recurrence_prefix(vseq)
    parities = tuple((prefix[-1] - prefix[p]) & 1 for p in positions)
    shift = n_inner - 1
    blocks = []
    prev = 0
    for p in positions + [len(vseq)]:
        blocks.append(tuple(s if s < t else s + shift for s in vseq[prev:p]))
        prev = p + 1
    return tuple(blocks), parities


def _inner_factor(useq: Seq, t: int) -> tuple[Seq, list[int]]:
    """The inner factor's share of every split of v o_t u: the values of u
    raised onto lobes t.., and its recurrence prefix."""
    return tuple(s + t - 1 for s in useq), recurrence_prefix(useq)


class _Inner(Surjection):
    """An inner term of one ``compose`` call with its ``_inner_factor`` at
    lobe t, built once per inner term so that no basis pair recomputes it."""

    __slots__ = ("lobe", "factor")

    @classmethod
    def _at(cls, seq: Seq, t: int, arity: int, degree: int) -> "_Inner":
        obj = cls._unchecked(seq, arity, degree)
        object.__setattr__(obj, "lobe", t)
        object.__setattr__(obj, "factor", _inner_factor(seq, t))
        return obj


def composition_splits(v: Surjection, t: int, u: Surjection) -> Iterator[tuple[Seq, int]]:
    """All summands of v o_t u as ``(sequence, sign)`` pairs.

    One summand per breakpoints 1 = j_0 <= j_1 <= ... <= j_r = len(u): the
    p-th occurrence of t in v becomes the stretch u(j_{p-1}..j_p) shifted
    onto lobes t.., and the sign is the Koszul sign of moving each such
    inner block in front of the outer block that starts at its occurrence
    and every later one.  No composite is degenerate, so none is dropped:
    every stretch is a piece of a non-degenerate sequence, inner and outer
    values differ, and two inner stretches are separated by the nonempty
    stretch of v between two occurrences of t.
    """
    if not 1 <= t <= v.arity:
        raise OutOfRangeError(f"lobe {t} not in 1..{v.arity}")
    useq = u.seq
    blocks, parities = _outer_factor(v.seq, t, u.arity)
    head, tails = blocks[0], blocks[1:]
    if type(u) is _Inner and u.lobe == t:
        shifted, uprefix = u.factor
    else:
        shifted, uprefix = _inner_factor(useq, t)
    last = len(useq) - 1
    # Breakpoints as 0-based positions of u: stretch p is u[c_p .. c_{p+1}].
    for mids in combinations_with_replacement(range(last + 1), len(tails) - 1):
        composite = head
        odd = start = 0
        for stop, tail, parity in zip((*mids, last), tails, parities):
            composite += shifted[start : stop + 1] + tail
            odd ^= (uprefix[stop] - uprefix[start]) & parity
            start = stop
        yield composite, -1 if odd else 1


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
    inner = [(_Inner._at(seq, t, *bideg_b), c) for seq, c in eb._terms.items()]
    data: dict[Seq, int] = {}
    for seq, c1 in ea._terms.items():
        u1 = Surjection._unchecked(seq, *bideg_a)
        for u2, c2 in inner:
            _accumulate(data, composition_splits(u1, t, u2), c1 * c2)
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
