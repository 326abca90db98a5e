"""The filtration by alternation length, cacti, and their lobe trees.

A surjection lies in filtration stage m when no two values alternate
(i,j,i,j,...) more than m+1 times as a scattered subsequence.  Stage 2 is
the suboperad of (spineless) cacti: configurations of labelled circles in
the plane whose boundary traversal, read anticlockwise from a root point,
spells out the sequence.  The cactus test used everywhere is a linear
stack scan over the nesting structure of consecutive-occurrence gaps,
which also returns the positions of a crossing (i,j,i,j) as witness; the
scattered-pattern definition itself lives only in the test oracles.

The basis of a stage is enumerated as shapes times relabellings.  A shape
is a sequence whose values first appear in the order 1, 2, ..., n.  Adjacent
repeats, surjectivity and the pair-alternation counts do not change when
the values are renamed by a permutation, every sequence is the relabelling
of exactly one shape, and distinct permutations of a shape give distinct
sequences; so the backtracking search runs over shapes only, and each
shape is relabelled by all n! permutations.

The prime cacti, the support of the A-infinity structure map, have two
routes that share no pattern test: ``prime_cacti`` inserts a new top lobe
into each prime cactus one arity down, and ``prime_cacti_filtered`` labels
each top-degree shape only in the ways that avoid the prime patterns,
instead of relabelling it by all n! permutations and filtering.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import permutations
from operator import itemgetter
from typing import Iterator, Optional

from .errors import NotACactusError, ResourceBoundError, _check_count, _quote
from .surjections import Surjection, insert_top_lobe, recurrence_prefix

__all__ = [
    "length_cap",
    "cactus_violation",
    "is_cactus",
    "LobeTree",
    "lobe_tree",
    "enumerate_basis",
    "prime_cacti",
    "prime_cacti_filtered",
    "prime_cacti_count",
]

DEFAULT_LENGTH_CAP = 14


def length_cap() -> int:
    """Sequence-length cap for enumerations, from CACTUS_MAX_LEN.

    The variable must be a plain ASCII decimal ([0-9]+) of at least 1, of
    no more digits than ``int`` converts (4,300 by default).
    """
    raw = os.environ.get("CACTUS_MAX_LEN")
    if raw is None:
        return DEFAULT_LENGTH_CAP
    try:
        cap = int(raw) if raw.isascii() and raw.isdigit() else 0
    except ValueError:  # more digits than int() converts
        raise ResourceBoundError(f"CACTUS_MAX_LEN={_quote(raw)} has too many digits") from None
    if cap < 1:
        raise ResourceBoundError(f"CACTUS_MAX_LEN={_quote(raw)} is not a positive integer")
    return cap


def cactus_violation(u: Surjection) -> Optional[tuple[tuple[int, int, int, int], tuple[int, int]]]:
    """Positions and values of an (i,j,i,j) pattern, or None for a cactus.

    Scans once, keeping a stack of values whose consecutive-occurrence gap
    is open; a value reappearing while it is not on top crosses the gap of
    whatever is.
    """
    seq = u.seq
    prefix = recurrence_prefix(seq)
    stack: list[tuple[int, int]] = []  # (value, position of gap start)
    last_seen: dict[int, int] = {}
    for p in range(1, len(seq) + 1):
        v = seq[p - 1]
        if v in last_seen:
            top_v, top_p = stack[-1]
            if top_v != v:
                later = next(q for q in range(p + 1, len(seq) + 1) if seq[q - 1] == top_v)
                return (last_seen[v], top_p, p, later), (v, top_v)
            stack.pop()
        if prefix[p] > prefix[p - 1]:  # value recurs later: gap opens
            stack.append((v, p))
        last_seen[v] = p
    return None


def is_cactus(u: Surjection) -> bool:
    """True when u has no scattered (i,j,i,j) alternation."""
    return cactus_violation(u) is None


@dataclass(frozen=True)
class LobeTree:
    """Rooted planar tree of lobes.

    ``slots`` has one entry per boundary arc of this lobe; entry g holds
    the subtrees attached at the intersection point closing arc g, in
    traversal order.  Flattening (arc label, then slot g subtrees, for
    each g) reproduces the original sequence.
    """

    label: int
    slots: tuple[tuple["LobeTree", ...], ...]

    @property
    def arcs(self) -> int:
        return len(self.slots)


def lobe_tree(u: Surjection) -> LobeTree:
    """The planar lobe tree whose boundary traversal spells u.

    The root lobe is u(1); a lobe seen for the first time hangs off the
    lobe of the previous arc, at that lobe's current arc.
    """
    violation = cactus_violation(u)
    if violation is not None:
        positions, (i, j) = violation
        raise NotACactusError(
            f"{u} contains the pattern ({i},{j},{i},{j}) at positions {positions}",
            witness=positions,
        )
    seq = u.seq
    slots: dict[int, list[list[int]]] = {}  # per lobe, its child labels per arc
    for p, v in enumerate(seq):
        if v in slots:
            slots[v].append([])
        else:
            slots[v] = [[]]
            if p > 0:
                slots[seq[p - 1]][-1].append(v)

    def build(v: int) -> LobeTree:
        return LobeTree(v, tuple(tuple(map(build, slot)) for slot in slots[v]))

    return build(seq[0])


def _shapes(n: int, size: int, level: Optional[int]) -> Iterator[tuple[int, ...]]:
    """Shapes of one length within the stage, in lexicographic order.

    Backtracks over the positions; a new value must be the next unused one.
    Prunes on adjacent repeats, on surjectivity becoming unreachable and,
    unless level is None, on a pair alternating more than level + 1 times.
    A pair restriction has at most ``size`` blocks, so with level None
    there is no alternation state to keep.
    """
    limit = None if level is None else level + 1
    # Alternation state: per value its latest position in the current
    # prefix (-1 while absent), and per value pair the number of maximal
    # blocks in the restriction of the prefix to the pair.  The restriction
    # to {x, c} ends with c exactly when c occurred after x, so appending c
    # opens a block of {x, c} exactly when latest[x] >= latest[c].
    latest = [-1] * (n + 1)
    pair_blocks = [[0] * (n + 1) for _ in range(n + 1)]
    seq: list[int] = []

    def extend(used: int) -> Iterator[tuple[int, ...]]:
        remaining = size - len(seq)
        if remaining == 0:
            yield tuple(seq)  # the pruning below leaves no value missing
            return
        last = seq[-1] if seq else 0
        for c in range(1, min(used + 1, n) + 1):
            if c == last or n - max(used, c) > remaining - 1:
                continue
            opened: list[int] = []
            if limit is not None:
                opened = [x for x in range(1, n + 1) if x != c and latest[x] >= latest[c]]
                if any(pair_blocks[c][x] >= limit for x in opened):
                    continue
                for x in opened:
                    pair_blocks[x][c] += 1
                    pair_blocks[c][x] += 1
            previous, latest[c] = latest[c], len(seq)
            seq.append(c)
            yield from extend(max(used, c))
            seq.pop()
            latest[c] = previous
            for x in opened:
                pair_blocks[x][c] -= 1
                pair_blocks[c][x] -= 1

    return extend(0)


def _sequences(n: int, size: int, level: Optional[int]) -> Iterator[tuple[int, ...]]:
    """Every basis sequence, shape by shape: each shape under every relabelling."""
    if level == 2 and size > 2 * n - 1:
        return  # cacti on n lobes have at most 2n-1 arcs
    if n == 1:  # itemgetter of a single index would return a bare value
        if size == 1:
            yield (1,)
        return
    values = range(1, n + 1)
    for shape in _shapes(n, size, level):
        yield from map(itemgetter(*(v - 1 for v in shape)), permutations(values))


def enumerate_basis(n: int, k: int, level: Optional[int] = 2) -> list[Surjection]:
    """All arity-n, degree-k surjections within a filtration stage, sorted.

    ``level=None`` enumerates the full basis, as shapes times relabellings
    (see the module docstring).  Raises TypeError for a non-int, ValueError
    for n < 1, k < 0 or level < 1, and ResourceBoundError past the length cap.
    """
    message = (
        "need arity >= 1, degree >= 0, level >= 1; "
        f"got {_quote(n)}, {_quote(k)}, {_quote(level)}"
    )
    _check_count(n, 1, "arity ", message)
    _check_count(k, 0, "degree ", message)
    _check_count(1 if level is None else level, 1, "level ", message)
    size = n + k
    if size > (cap := length_cap()):
        raise ResourceBoundError(f"length {_quote(size)} exceeds cap {cap}")
    out: list = list(_sequences(n, size, level))
    out.sort()
    for i, seq in enumerate(out):
        out[i] = Surjection._unchecked(seq, n, k)
    return out


def prime_cacti(n: int) -> list[Surjection]:
    """Top-degree cacti avoiding the prime patterns, built recursively.

    Each arity-n element arises exactly once from an arity-(n-1) element
    by inserting the new top lobe at any position other than the current
    top lobe; the list is sorted lexicographically.  Nothing is kept
    between calls: each call builds every arity from 2 up to n afresh.
    """
    _check_prime_length(n)
    if n == 2:
        return [Surjection((1, 2)), Surjection((2, 1))]
    out = []
    for u in prime_cacti(n - 1):
        top = u.seq.index(u.arity) + 1  # unique occurrence of the top lobe
        for j in range(1, len(u.seq) + 1):
            if j != top:
                out.append(insert_top_lobe(u, j))
    out.sort(key=lambda s: s.seq)
    return out


def _check_prime_length(n: int) -> None:
    """Refuse an arity below 2, or one whose prime cacti, of length 2n-2,
    exceed the length cap."""
    _check_count(n, 2, "arity ", f"arity {_quote(n)} has no prime cacti")
    if 2 * n - 2 > (cap := length_cap()):
        raise ResourceBoundError(f"length {_quote(2 * n - 2)} exceeds cap {cap}")


def prime_cacti_filtered(n: int) -> list[Surjection]:
    """Independent route to the prime cacti: label each top-degree stage-2
    shape in every way that avoids the prime patterns, then sort.

    The window of a shape value x is the set of values strictly between its
    first and last occurrence, x left out.  A labelling avoids every
    scattered (i,j,i) with j < i or j = i + 1 exactly when each y in x's
    window gets a label of at least label(x) + 2.  The labels 1..n are
    given out in increasing order, and label l goes to an unlabelled y only
    when every x whose window holds y already has a label of at most l - 2;
    so only the survivors are ever built.
    """
    _check_prime_length(n)
    out = []
    label = [0] * (n + 1)

    def assign(next_label: int, settled: int, previous: int) -> None:
        # settled: bit x set when x has a label of at most next_label - 2;
        # previous: the bit of the value labelled next_label - 1
        if next_label > n:
            out.append(tuple(label[v] for v in shape))
            return
        for y in range(1, n + 1):
            if not label[y] and not below[y] & ~settled:
                label[y] = next_label
                assign(next_label + 1, settled | previous, 1 << y)
                label[y] = 0

    for shape in _shapes(n, 2 * n - 2, 2):
        below = [0] * (n + 1)  # bit x of below[y] set when y is in x's window
        last = {v: p for p, v in enumerate(shape)}
        for x, end in last.items():
            for y in set(shape[shape.index(x) + 1 : end]) - {x}:
                below[y] |= 1 << x
        assign(1, 0, 0)
    out.sort()
    return [Surjection._unchecked(seq, n, n - 2) for seq in out]


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
