"""Independent brute-force implementations used only as test oracles.

Everything here is written from the definitions, as directly (and slowly)
as possible, and deliberately shares no code with the package.
"""

from itertools import product


def brute_force_sequences(n, length):
    """All surjective sequences onto 1..n of one length with no adjacent repeats."""
    out = []
    for seq in product(range(1, n + 1), repeat=length):
        if any(a == b for a, b in zip(seq, seq[1:])):
            continue
        if len(set(seq)) != n:
            continue
        out.append(seq)
    return out


def naive_relative_degree(seq, a, b):
    """Count positions in [a, b-1] whose value appears again strictly later."""
    count = 0
    for i in range(a, b):  # 1-based positions a..b-1
        if seq[i - 1] in seq[i:]:
            count += 1
    return count


def naive_max_alternation(seq):
    """Longest scattered subsequence alternating between two distinct values."""
    values = sorted(set(seq))
    if len(values) == 1:
        return 1
    best = 0
    for x in values:
        for y in values:
            if x == y:
                continue
            length = 0
            want = x
            for v in seq:
                if v == want:
                    length += 1
                    want = y if want == x else x
            best = max(best, length)
    return best


def naive_has_ijij(seq):
    """Literal quartic scan for a scattered (i,j,i,j) pattern."""
    size = len(seq)
    for p1 in range(size):
        for p2 in range(p1 + 1, size):
            if seq[p2] == seq[p1]:
                continue
            for p3 in range(p2 + 1, size):
                if seq[p3] != seq[p1]:
                    continue
                for p4 in range(p3 + 1, size):
                    if seq[p4] == seq[p2]:
                        return True
    return False


def naive_has_prime_pattern(seq):
    """Literal cubic scan for a scattered (i,j,i) with j < i or j = i + 1."""
    size = len(seq)
    for p1 in range(size):
        for p2 in range(p1 + 1, size):
            for p3 in range(p2 + 1, size):
                i, j = seq[p1], seq[p2]
                if seq[p3] == i and j != i and (j < i or j == i + 1):
                    return True
    return False


def permutation_parity(perm):
    """Parity sign of a permutation given as a list of distinct integers."""
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


def naive_koszul_sign(degrees, target_order):
    """Koszul sign as the parity of the odd-degree symbols' permutation."""
    odd_sources = [s for s in range(len(degrees)) if degrees[s] % 2]
    odd_in_target = [s for s in target_order if degrees[s] % 2]
    relabel = {s: i for i, s in enumerate(odd_sources)}
    return permutation_parity([relabel[s] for s in odd_in_target])


def naive_compose(vseq, t, useq):
    """v o_t u as a dict {composite sequence: coefficient}, from the definition.

    With r the number of occurrences of t in v, every weakly increasing
    breakpoint tuple 1 = j_0 <= j_1 <= ... <= j_r = len(u) gives one
    summand.  The p-th occurrence of t in v is replaced by the stretch
    u(j_{p-1}..j_p) with its values raised by t-1, and every value of v
    above t is raised by arity(u)-1.  A summand with two equal neighbours
    is zero.  Its sign is the Koszul sign of putting the blocks in their
    interleaved order: the symbols are first the r windows of v from one
    occurrence of t to the next (the last one to the end of v), then the
    r stretches of u, each with its relative degree; in the composite the
    p-th stretch of u comes just before the p-th window of v.
    """
    m = max(useq)
    occurrences = [i + 1 for i, w in enumerate(vseq) if w == t]
    r = len(occurrences)
    ends = occurrences[1:] + [len(vseq)]
    outer_degrees = [naive_relative_degree(vseq, a, b) for a, b in zip(occurrences, ends)]
    result = {}
    for middle in product(range(1, len(useq) + 1), repeat=r - 1):
        cuts = [1] + list(middle) + [len(useq)]
        if any(cuts[p] > cuts[p + 1] for p in range(r)):
            continue
        stretches = [useq[cuts[p] - 1 : cuts[p + 1]] for p in range(r)]
        composite = []
        seen = 0
        for w in vseq:
            if w == t:
                composite.extend(x + t - 1 for x in stretches[seen])
                seen += 1
            else:
                composite.append(w if w < t else w + m - 1)
        if any(a == b for a, b in zip(composite, composite[1:])):
            continue
        inner_degrees = [naive_relative_degree(useq, cuts[p], cuts[p + 1]) for p in range(r)]
        order = []
        for p in range(r):
            order += [r + p, p]
        sign = naive_koszul_sign(outer_degrees + inner_degrees, order)
        key = tuple(composite)
        result[key] = result.get(key, 0) + sign
    return {key: c for key, c in result.items() if c}


def naive_boundary(seq):
    """The differential of one surjection as a dict {sequence: coefficient}.

    Every entry u(i) whose value occurs more than once is deleted in turn.
    The sign is (-1)**e, where e is the relative degree of u(1..i) when the
    value of u(i) occurs again later, and of u(1..j+1) when u(i) is the
    last occurrence of its value and j the position of the occurrence just
    before it.  A deletion that leaves two equal neighbours is zero.
    """
    result = {}
    for i in range(1, len(seq) + 1):
        value = seq[i - 1]
        if list(seq).count(value) == 1:
            continue
        rest = tuple(seq[: i - 1]) + tuple(seq[i:])
        if any(a == b for a, b in zip(rest, rest[1:])):
            continue
        if value in seq[i:]:
            e = naive_relative_degree(seq, 1, i)
        else:
            j = max(p for p in range(1, i) if seq[p - 1] == value)
            e = naive_relative_degree(seq, 1, j + 1)
        result[rest] = result.get(rest, 0) + (-1) ** e
    return {key: c for key, c in result.items() if c}


def naive_insertion(terms, before):
    """The white (before=True) or black insertion sum of {sequence: coefficient}.

    For a term u of arity n and degree k whose top value n occurs once, at
    position i, u~j replaces the entry u(j) by u(j), n+1, u(j).  The white
    sum runs over j < i with sign (-1)**(k + e), the black sum over j > i
    with sign -(-1)**(k + e), where e is the relative degree of u(1..j).
    """
    result = {}
    for seq, coeff in terms.items():
        seq = list(seq)
        n = max(seq)
        assert seq.count(n) == 1, seq
        k = len(seq) - n
        i = seq.index(n) + 1
        for j in range(1, i) if before else range(i + 1, len(seq) + 1):
            grown = tuple(seq[: j - 1] + [seq[j - 1], n + 1, seq[j - 1]] + seq[j:])
            sign = (-1) ** (k + naive_relative_degree(seq, 1, j))
            if not before:
                sign = -sign
            result[grown] = result.get(grown, 0) + coeff * sign
    return {key: c for key, c in result.items() if c}


def flatten_lobe_tree(tree):
    """The anticlockwise boundary traversal of a lobe tree, as a value tuple.

    The tree is any object with ``label`` and ``slots`` (one tuple of
    subtrees per arc): each arc writes the lobe's label and then the
    traversals of the subtrees attached where it closes.
    """
    out = []
    for slot in tree.slots:
        out.append(tree.label)
        for child in slot:
            out.extend(flatten_lobe_tree(child))
    return tuple(out)
