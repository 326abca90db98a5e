"""Differential graded operad structure on surjections.

Composition v o_t u substitutes u into the t-th lobe of v: the entries of
u are split at r-1 weak breakpoints (r = number of occurrences of t in v)
and interleaved with the stretches of v between those occurrences, with
both sides relabelled so the result is again a surjection: the sum over
block interleavings of Berger-Fresse (arXiv:math/0109158).  Every sign in
this module is produced by the Koszul rule: reordering two blocks of
degrees d1, d2 costs (-1)**(d1*d2), where a block's degree is a relative
degree (see ``surjections.recurrence_prefix``).  The one kernel,
``composition_splits``, yields ``(composite, sign)`` pairs, which
``compose_basis`` and ``compose`` add straight into the in-place
accumulator of ``elements``.

The differential deletes one entry at a time; entries that are the only
occurrence of their value are skipped, and deletions that would leave two
equal adjacent entries are identified with zero.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterator, Sequence, Union

from .elements import Element, _accumulate, as_element
from .errors import LobeOutOfRangeError
from .reports import VerificationReport, equality_report, sides_report
from .surjections import Surjection, recurrence_prefix

__all__ = [
    "UNIT",
    "koszul_sign",
    "composition_splits",
    "compose_basis",
    "compose",
    "boundary_basis",
    "boundary",
    "check_operad_axioms",
    "check_derivation",
]

UNIT = Surjection((1,))


def koszul_sign(degrees: Sequence[int], target_order: Sequence[int]) -> int:
    """Sign of reordering graded symbols into ``target_order``.

    ``degrees[s]`` is the degree of source symbol s; ``target_order`` lists
    source indices in their final order.  Each inverted pair of symbols of
    odd degrees contributes a factor -1.  Quadratic on purpose: the block
    count here is tiny and the fold is easy to audit.
    """
    sign = 1
    for a in range(len(target_order)):
        sa = target_order[a]
        if degrees[sa] % 2 == 0:
            continue
        for b in range(a + 1, len(target_order)):
            sb = target_order[b]
            if sa > sb and degrees[sb] % 2:
                sign = -sign
    return sign


def composition_splits(v: Surjection, t: int, u: Surjection) -> Iterator[tuple[Surjection, int]]:
    """All summands of v o_t u as ``(composite, sign)`` pairs.

    One summand per breakpoints 1 = j_0 <= j_1 <= ... <= j_r = len(u): the
    p-th occurrence of t in v becomes the stretch u(j_{p-1}..j_p) shifted
    onto lobes t.., and the sign is the Koszul sign of moving each such
    inner block in front of the outer block that starts at its occurrence.
    No composite is degenerate, so none is dropped: every stretch is a piece
    of a non-degenerate sequence, inner and outer values differ, and two
    inner stretches are separated by the nonempty stretch of v between two
    occurrences of t.
    """
    if not 1 <= t <= v.arity:
        raise LobeOutOfRangeError(f"lobe {t} not in 1..{v.arity}")
    vseq, useq = v.seq, u.seq
    n_inner = u.arity
    inner_len = len(useq)
    positions = [p + 1 for p, w in enumerate(vseq) if w == t]
    r = len(positions)

    vprefix = recurrence_prefix(vseq)
    uprefix = recurrence_prefix(useq)
    # Outer block degrees: windows from each occurrence of t to the next
    # (or to the end of v for the last block).
    ends = positions[1:] + [len(vseq)]
    outer_degrees = [vprefix[b - 1] - vprefix[a - 1] for a, b in zip(positions, ends)]
    # Stretches of v around the occurrences of t, relabelled past the new lobes.
    outer_blocks = []
    prev = 0
    for p in positions + [len(vseq) + 1]:
        outer_blocks.append(tuple(s if s < t else s + n_inner - 1 for s in vseq[prev : p - 1]))
        prev = p
    shifted_inner = tuple(s + t - 1 for s in useq)
    target_order = []
    for p in range(r):
        target_order.extend((r + p, p))

    out_arity = v.arity + n_inner - 1
    out_degree = v.degree + u.degree

    for mids in combinations_with_replacement(range(1, inner_len + 1), r - 1):
        cuts = (1, *mids, inner_len)
        inner_degrees = []
        composite = list(outer_blocks[0])
        for p in range(r):
            start, stop = cuts[p], cuts[p + 1]
            inner_degrees.append(uprefix[stop - 1] - uprefix[start - 1])
            composite.extend(shifted_inner[start - 1 : stop])
            composite.extend(outer_blocks[p + 1])
        sign = koszul_sign(outer_degrees + inner_degrees, target_order)
        yield Surjection._unchecked(tuple(composite), out_arity, out_degree), sign


def compose_basis(v: Surjection, t: int, u: Surjection) -> Element:
    """Operadic composition of basis surjections, as an element."""
    data: dict[Surjection, int] = {}
    _accumulate(data, composition_splits(v, t, u))
    return Element._trusted(data)


def compose(a: Union[Element, Surjection], t: int, b: Union[Element, Surjection]) -> Element:
    """Bilinear extension of basis composition.  Inputs must be homogeneous."""
    ea, eb = as_element(a), as_element(b)
    bideg_a = ea.bidegree()
    eb.bidegree()
    if bideg_a is None or not eb:
        return Element.zero()
    if not 1 <= t <= bideg_a[0]:
        raise LobeOutOfRangeError(f"lobe {t} not in 1..{bideg_a[0]}")
    data: dict[Surjection, int] = {}
    for u1, c1 in ea.terms():
        for u2, c2 in eb.terms():
            _accumulate(data, composition_splits(u1, t, u2), c1 * c2)
    return Element._trusted(data)


def boundary_basis(u: Surjection) -> Element:
    """Signed sum of single-entry deletions of u.

    A deletion is skipped when the entry is the only occurrence of its
    value and dropped when it would leave equal adjacent entries.  The
    sign exponent is the relative degree of the prefix up to the entry,
    or up to just past the penultimate occurrence when the entry is the
    last occurrence of its value.
    """
    seq = u.seq
    size = len(seq)
    prefix = recurrence_prefix(seq)

    def deletions() -> Iterator[tuple[Surjection, int]]:
        prev_occurrence: dict[int, int] = {}
        for i in range(1, size + 1):
            v = seq[i - 1]
            prev = prev_occurrence.get(v)
            prev_occurrence[v] = i
            if prefix[i] > prefix[i - 1]:  # entry recurs later
                exponent = prefix[i - 1]
            elif prev is None:
                continue  # only occurrence of its value
            else:
                exponent = prefix[prev]  # relative degree of u(1..prev+1)
            if 2 <= i <= size - 1 and seq[i - 2] == seq[i]:
                continue  # degenerate deletion counts as zero
            term = Surjection._unchecked(seq[: i - 1] + seq[i:], u.arity, u.degree - 1)
            yield term, -1 if exponent % 2 else 1

    data: dict[Surjection, int] = {}
    _accumulate(data, deletions())
    return Element._trusted(data)


def boundary(a: Union[Element, Surjection]) -> Element:
    """Linear extension of the basis differential; drops degree by one."""
    ea = as_element(a)
    ea.bidegree()
    return ea.apply_linear(boundary_basis)


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
        raise LobeOutOfRangeError(f"i={i} not in 1..{a.arity}")
    arity_ab = a.arity + b.arity - 1
    if not 1 <= j <= arity_ab:
        raise LobeOutOfRangeError(f"j={j} not in 1..{arity_ab}")

    ab = compose_basis(a, i, b)
    lhs = compose(ab, j, as_element(c))
    sides = {}
    notes = []

    if j < i:
        swap = -1 if (b.degree % 2) and (c.degree % 2) else 1
        rhs = swap * compose(compose_basis(a, j, c), i + c.arity - 1, as_element(b))
        sides["relation1"] = (lhs, rhs)
    else:
        notes.append("relation1: not applicable")

    if i <= j < b.arity + i:
        sides["relation2"] = (lhs, compose(as_element(a), i, compose_basis(b, j - i + 1, c)))
    else:
        notes.append("relation2: not applicable")

    return sides_report(label, sides, tuple(notes))


def check_derivation(a: Surjection, i: int, b: Surjection) -> VerificationReport:
    """Check the Leibniz rule for the differential against o_i."""
    if not 1 <= i <= a.arity:
        raise LobeOutOfRangeError(f"i={i} not in 1..{a.arity}")
    lhs = boundary(compose_basis(a, i, b))
    sign = -1 if a.degree % 2 else 1
    rhs = compose(boundary_basis(a), i, as_element(b)) + sign * compose(
        as_element(a), i, boundary_basis(b)
    )
    return equality_report(f"derivation[a={a},i={i},b={b}]", lhs, rhs)
