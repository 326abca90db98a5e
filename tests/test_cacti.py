import re
import tracemalloc
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactusops import (
    NotACactusError,
    ResourceBoundError,
    Surjection,
    a_infinity_boundary_image,
    a_infinity_image,
    all_words,
    boundary_basis,
    cactus_violation,
    compose,
    enumerate_basis,
    is_cactus,
    length_cap,
    lobe_tree,
    prime_cacti,
    prime_cacti_count,
    prime_cacti_filtered,
)

import cactusops.cacti as cacti_module
from cactusops.ainfty import _check_image_size
from conftest import cacti, surjections
from oracles import (
    brute_force_sequences,
    flatten_lobe_tree,
    naive_has_ijij,
    naive_has_prime_pattern,
    naive_max_alternation,
)


def S(*values):
    return Surjection(values)


class TestIsCactus:
    def test_spec_values(self):
        assert is_cactus(S(1, 2, 3, 2, 1, 4, 1))
        assert not is_cactus(S(1, 2, 1, 2))
        assert is_cactus(S(1))

    @given(surjections)
    def test_matches_quartic_scan(self, u):
        assert is_cactus(u) == (not naive_has_ijij(u.seq))

    @given(surjections)
    def test_witness_is_a_real_pattern(self, u):
        violation = cactus_violation(u)
        if violation is None:
            assert naive_max_alternation(u.seq) <= 3
        else:
            (p1, p2, p3, p4), (i, j) = violation
            assert p1 < p2 < p3 < p4
            assert tuple(u.seq[p - 1] for p in (p1, p2, p3, p4)) == (i, j, i, j)
            assert i != j


class TestLobeTree:
    def test_two_lobes(self):
        tree = lobe_tree(S(1, 2, 1))
        assert tree.label == 1
        assert tree.arcs == 2
        assert [c.label for c in tree.slots[0]] == [2]
        assert tree.slots[1] == ()

    def test_nested(self):
        tree = lobe_tree(S(2, 1, 3, 1))
        assert tree.label == 2
        assert tree.arcs == 1
        ((child,),) = tree.slots
        assert child.label == 1
        assert [c.label for c in child.slots[0]] == [3]
        assert child.slots[1] == ()

    def test_rejects_non_cactus(self):
        with pytest.raises(NotACactusError) as err:
            lobe_tree(S(1, 2, 1, 2))
        assert err.value.witness == (1, 2, 3, 4)

    @given(cacti)
    def test_flatten_inverts(self, u):
        tree = lobe_tree(u)
        assert flatten_lobe_tree(tree) == u.seq
        labels = sorted(
            node.label
            for node in _walk(tree)
        )
        assert labels == list(range(1, u.arity + 1))


def _walk(tree):
    yield tree
    for slot in tree.slots:
        for child in slot:
            yield from _walk(child)


class TestEnumerateBasis:
    def test_arity_two(self):
        assert [u.seq for u in enumerate_basis(2, 1, 2)] == [(1, 2, 1), (2, 1, 2)]

    def test_unit(self):
        assert enumerate_basis(1, 0, 2) == [S(1)]
        assert enumerate_basis(1, 1, 2) == []

    def test_top_degree_slice_matches_brute_force(self):
        got = enumerate_basis(3, 2, 2)
        expected = sorted(
            Surjection(seq)
            for seq in brute_force_sequences(3, 5)
            if not naive_has_ijij(seq)
        )
        assert got == expected
        assert len(got) == 12
        assert S(2, 1, 3, 1, 2) in got

    def test_unbounded_level_matches_brute_force(self):
        got = enumerate_basis(3, 3, None)
        assert [u.seq for u in got] == brute_force_sequences(3, 6)

    def test_degree_window(self):
        for n in (2, 3, 4, 5):
            assert enumerate_basis(n, n, 2) == []
            assert len(enumerate_basis(n, n - 1, 2)) > 0

    def test_lexicographic_order(self):
        out = enumerate_basis(3, 1, 2)
        assert out == sorted(out)

    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5, None])
    def test_matches_definition(self, level):
        for n in range(1, 5):
            for k in range(0, 8 - n):
                expected = [
                    seq
                    for seq in brute_force_sequences(n, n + k)
                    if level is None or naive_max_alternation(seq) <= level + 1
                ]
                got = enumerate_basis(n, k, level)
                assert [u.seq for u in got] == expected, (n, k, level)

    def test_stage_two_counts_closed_form(self):
        # n! labellings of the lobe trees on n lobes in which each of the k
        # non-last arcs carries a lobe: the plane trees on n nodes with i
        # leaves number N(n-1, i) (Narayana), and C(i, n-1-k) places them.
        def count(n, k):
            m, r = n - 1, n - 1 - k
            if r < 0:
                return 0
            if m == 0:
                return 1
            narayana = [comb(m, i) * comb(m, i - 1) // m for i in range(1, m + 1)]
            return factorial(n) * sum(N * comb(i, r) for i, N in enumerate(narayana, 1))

        for n in range(1, 7):
            for k in range(0, n + 1):
                assert len(enumerate_basis(n, k, 2)) == count(n, k), (n, k)
        assert count(7, 6) == 665_280
        assert sum(1 for _ in cacti_module._sequences(7, 13, 2)) == 665_280  # counted lazily

    def test_full_basis_counts_closed_form(self):
        # Inclusion-exclusion over the values left out: j * (j-1)^(L-1)
        # sequences of length L on j values have no adjacent repeats.
        for n in range(1, 5):
            for k in range(0, 11 - n):
                size = n + k
                expected = sum(
                    (-1) ** (n - j) * comb(n, j) * j * (j - 1) ** (size - 1)
                    for j in range(0, n + 1)
                )
                assert len(enumerate_basis(n, k, None)) == expected, (n, k)

    def test_resource_bound(self, monkeypatch):
        with pytest.raises(ResourceBoundError, match="length 23 exceeds cap 14"):
            enumerate_basis(3, 20, None)
        monkeypatch.setenv("CACTUS_MAX_LEN", "30")
        # The length-23 basis is far too large to list: enumerate one sequence.
        first = next(cacti_module._sequences(3, 23, None))
        assert len(first) == 23
        monkeypatch.setattr(cacti_module, "_sequences", lambda n, size, level: iter([first]))
        assert enumerate_basis(3, 20, None) == [Surjection(first)]

    def test_length_cap_env(self, monkeypatch):
        monkeypatch.setenv("CACTUS_MAX_LEN", "4")
        with pytest.raises(ResourceBoundError):
            enumerate_basis(3, 2, 2)
        assert len(enumerate_basis(3, 1, 2)) == 18

    @pytest.mark.parametrize(
        "raw", ["１４", " 14 ", "1_4", "+14", "0", "-3", "", "9" * 4400, "x" * 4400]
    )
    def test_length_cap_accepts_only_ascii_digits(self, monkeypatch, raw):
        monkeypatch.setenv("CACTUS_MAX_LEN", raw)
        with pytest.raises(ResourceBoundError) as info:
            length_cap()
        assert len(str(info.value)) <= 100


class TestClosure:
    @given(cacti, cacti, st.data())
    @settings(deadline=None, max_examples=60)
    def test_composition_stays_in_stage_two(self, v, u, data):
        t = data.draw(st.integers(1, v.arity))
        for w, _ in compose(v, t, u).terms():
            assert is_cactus(w)

    @given(cacti)
    def test_boundary_stays_in_stage_two(self, u):
        for w, _ in boundary_basis(u).terms():
            assert is_cactus(w)


class TestPrimeCacti:
    def test_base_cases(self):
        assert [u.seq for u in prime_cacti(2)] == [(1, 2), (2, 1)]
        assert [u.seq for u in prime_cacti(3)] == [(1, 3, 1, 2), (2, 1, 3, 1)]

    def test_counts_match_double_factorial(self):
        assert [prime_cacti_count(n) for n in range(2, 8)] == [2, 2, 6, 30, 210, 1890]
        for n in range(3, 9):
            assert len(prime_cacti(n)) == prime_cacti_count(n)

    def test_capped_count_stops_past_the_cap(self):
        # Exact up to the cap; past it, the first partial product above it.
        assert prime_cacti_count(12, cap=10**9) == prime_cacti_count(12) == 1_309_458_150
        assert prime_cacti_count(12, cap=5_000_000) == prime_cacti_count(11) == 68_918_850
        assert prime_cacti_count(10**12, cap=10**6) == prime_cacti_count(10) == 4_054_050

    def test_recursion_matches_filter_oracle(self):
        for n in range(2, 8):
            assert prime_cacti(n) == prime_cacti_filtered(n)

    def test_filter_oracle_keeps_only_its_survivors(self):
        # Of the 90,720 top-degree stage-2 cacti of arity 6, only the 210
        # prime ones may be kept; the whole stage would take about 16 MB.
        tracemalloc.start()
        try:
            filtered = prime_cacti_filtered(6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert filtered == prime_cacti(6)
        assert peak < 1_000_000

    def test_filter_oracle_is_the_stage_without_prime_patterns(self):
        for n in range(2, 6):
            stage = cacti_module._sequences(n, 2 * n - 2, 2)
            kept = sorted(seq for seq in stage if not naive_has_prime_pattern(seq))
            assert [u.seq for u in prime_cacti_filtered(n)] == kept

    def test_filter_oracle_matches_brute_force(self):
        # Every sequence of length 2n-2 through the literal scans alone:
        # stage 2 is alternation at most 3, and the length fixes the degree.
        for n in range(2, 5):
            kept = [
                seq
                for seq in brute_force_sequences(n, 2 * n - 2)
                if naive_max_alternation(seq) <= 3 and not naive_has_prime_pattern(seq)
            ]
            assert [u.seq for u in prime_cacti_filtered(n)] == kept

    def test_members_are_top_degree_cacti(self):
        for n in range(2, 6):
            for u in prime_cacti(n):
                assert u.degree == n - 2
                assert is_cactus(u)
                assert not naive_has_prime_pattern(u.seq)
                assert u.seq.count(u.arity) == 1

    def test_endpoints_are_one_and_two(self):
        for n in range(3, 7):
            for u in prime_cacti(n):
                assert {u.seq[0], u.seq[-1]} == {1, 2}

    def test_arity_bound(self):
        with pytest.raises(ValueError):
            prime_cacti(1)


# Each entry point that takes a count: the call, the label of its type
# error, the least count it accepts and its ValueError one below that.
NEED = "need arity >= 1, degree >= 0, level >= 1; got "
COUNTED = {
    "all_words": (all_words, "arity ", 2, "arity 1 has no generator words"),
    "a_infinity_image": (a_infinity_image, "arity ", 2, "arity 1 has no generator words"),
    "a_infinity_boundary_image": (
        a_infinity_boundary_image, "arity ", 2, "arity 1 has no generator words"
    ),
    "prime_cacti": (prime_cacti, "arity ", 2, "arity 1 has no prime cacti"),
    "prime_cacti_filtered": (prime_cacti_filtered, "arity ", 2, "arity 1 has no prime cacti"),
    "prime_cacti_count": (prime_cacti_count, "arity ", 2, "arity 1 has no prime cacti"),
    "enumerate_basis-arity": (lambda n: enumerate_basis(n, 0), "arity ", 1, NEED + "0, 0, 2"),
    "enumerate_basis-degree": (lambda k: enumerate_basis(2, k), "degree ", 0, NEED + "2, -1, 2"),
    "enumerate_basis-level": (lambda m: enumerate_basis(2, 1, m), "level ", 1, NEED + "2, 1, 0"),
}


@pytest.mark.parametrize("name", COUNTED)
def test_count_must_be_an_int_from_the_least(name):
    call, label, least, below = COUNTED[name]
    call(3)  # a memo of 3 must not answer 3.0
    for value in (True, 3.0, 1.0) if label == "degree " else (True, 3.0):
        with pytest.raises(TypeError, match=re.escape(f"{label}{value!r} is not an int")):
            call(value)
    with pytest.raises(ValueError, match=re.escape(below)):
        call(least - 1)
    call(least)


# An int of more than 4,300 digits has no text in Python; the guards quote
# it by its digit count.
HUGE = 10**4400
HUGE_TEXT = "<integer of 4401 digits>"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: _check_image_size(HUGE), f"arity {HUGE_TEXT}: the structure map has over"),
        (lambda: prime_cacti(HUGE), f"length {HUGE_TEXT} exceeds cap"),
        (lambda: enumerate_basis(HUGE, 0), f"length {HUGE_TEXT} exceeds cap"),
    ],
    ids=["_check_image_size", "prime_cacti", "enumerate_basis"],
)
def test_huge_arity_is_refused_by_its_digit_count(call, message):
    with pytest.raises(ResourceBoundError, match=re.escape(message)):
        call()


@pytest.mark.parametrize(
    "call, check",
    [
        (lambda: prime_cacti_count(HUGE, 10**100), lambda count: 10**100 < count < 10**103),
        (lambda: enumerate_basis(2, 0, HUGE), lambda basis: basis == [S(1, 2), S(2, 1)]),
    ],
    ids=["prime_cacti_count", "enumerate_basis-level"],
)
def test_huge_count_within_its_bound_is_accepted(call, check):
    assert check(call())
