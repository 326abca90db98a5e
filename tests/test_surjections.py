import pytest
from hypothesis import given
from hypothesis import strategies as st

from cactusops import (
    DegenerateError,
    NonPositiveError,
    NotSurjectiveError,
    Surjection,
    insert_top_lobe,
)
from cactusops.surjections import recurrence_prefix

from conftest import surjections
from oracles import naive_relative_degree


class TestValidate:
    def test_basic(self):
        u = Surjection((1, 2, 1))
        assert u.arity == 2
        assert u.degree == 1
        assert len(u) == 3

    def test_unit(self):
        u = Surjection((1,))
        assert (u.arity, u.degree) == (1, 0)

    def test_degenerate(self):
        with pytest.raises(DegenerateError):
            Surjection((1, 1, 2))

    def test_not_surjective(self):
        with pytest.raises(NotSurjectiveError):
            Surjection((1, 3))

    def test_non_positive(self):
        with pytest.raises(NonPositiveError):
            Surjection((0, 1))
        with pytest.raises(NonPositiveError):
            Surjection((1, -2))

    def test_integers_past_the_text_limit_are_quoted_by_digit_count(self):
        # str() refuses integers above 4,300 digits; the messages must not need it.
        with pytest.raises(DegenerateError, match=r"^adjacent equal entries <integer of 5001 digits> in \("):
            Surjection((10**5000, 10**5000))
        with pytest.raises(NonPositiveError, match="<negative integer of 5001 digits>"):
            Surjection((1, -(10**5000)))
        with pytest.raises(NotSurjectiveError, match=r"from \(<integer of 4301 digits>,\)"):
            Surjection((10**4300,))

    def test_empty(self):
        with pytest.raises(NotSurjectiveError):
            Surjection(())

    def test_immutable_and_hashable(self):
        u = Surjection((1, 2))
        with pytest.raises(AttributeError):
            u.seq = (2, 1)
        assert len({u, Surjection((1, 2)), Surjection((2, 1))}) == 2

    def test_ordering_is_lexicographic(self):
        a, b, c = Surjection((1, 2)), Surjection((1, 2, 1)), Surjection((2, 1))
        assert sorted([c, b, a]) == [a, b, c]


def relative_degree(seq, a, b):
    prefix = recurrence_prefix(seq)
    return prefix[b - 1] - prefix[a - 1]


class TestRelativeDegree:
    """Relative degrees of windows, read off recurrence_prefix."""

    def test_spec_values(self):
        assert relative_degree((1, 2, 1), 1, 2) == 1
        assert relative_degree((1, 2), 1, 2) == 0
        assert relative_degree((2, 1, 3, 1), 1, 4) == 1

    @given(surjections)
    def test_full_window_is_degree(self, u):
        assert relative_degree(u.seq, 1, len(u)) == u.degree

    @given(surjections, st.data())
    def test_matches_naive_count_and_monotone(self, u, data):
        a = data.draw(st.integers(1, len(u)))
        prev = 0
        for b in range(a, len(u) + 1):
            got = relative_degree(u.seq, a, b)
            assert got == naive_relative_degree(u.seq, a, b)
            assert got >= prev
            prev = got


class TestInsertTopLobe:
    def test_examples(self):
        u = Surjection((1, 2))
        assert insert_top_lobe(u, 1).seq == (1, 3, 1, 2)
        assert insert_top_lobe(u, 2).seq == (1, 2, 3, 2)

    @given(surjections, st.data())
    def test_result_is_valid(self, u, data):
        j = data.draw(st.integers(1, len(u)))
        w = insert_top_lobe(u, j)
        revalidated = Surjection(w.seq)
        assert (revalidated.arity, revalidated.degree) == (u.arity + 1, u.degree + 1)
        assert w == revalidated
