import json
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactusops import (
    Element,
    MaxValueNotUniqueError,
    Surjection,
    WordError,
    a_infinity_boundary_image,
    a_infinity_image,
    all_words,
    black_op,
    boundary,
    check_insertion_composition,
    check_top_insertion_identities,
    check_word_boundary_compat,
    prime_cacti,
    splice,
    splice_decompositions,
    white_op,
    word_boundary_image,
    word_image,
)

from conftest import eligible_cacti


def S(*values):
    return Surjection(values)


def E(*values):
    return Element.single(Surjection(values))


def golden_rows():
    doc = json.loads(
        resources.files("cactusops.data").joinpath("golden_table.json").read_text()
    )
    for row in doc["rows"]:
        yield row["word"], Element(
            [(Surjection(tuple(t["seq"])), t["coeff"]) for t in row["terms"]]
        )


class TestWords:
    def test_bad_words_rejected(self):
        for bad in ("", "x", "wbx", "WB"):
            with pytest.raises(WordError):
                word_image(bad)

    def test_all_words_order(self):
        assert all_words(2) == ["w", "b"]
        assert all_words(3) == ["ww", "wb", "bw", "bb"]
        assert len(all_words(6)) == 32


class TestInsertionOps:
    def test_white_on_symmetric_generators(self):
        assert white_op(E(1, 2)) == E(1, 3, 1, 2)
        assert white_op(E(2, 1)) == Element.zero()

    def test_black_on_symmetric_generators(self):
        assert black_op(E(2, 1)) == -E(2, 1, 3, 1)
        assert black_op(E(1, 2)) == Element.zero()

    def test_black_with_coefficient(self):
        assert black_op(E(2, 1, 3, 1).scale(-1)) == E(2, 1, 3, 1, 4, 1)

    def test_requires_unique_top_value(self):
        with pytest.raises(MaxValueNotUniqueError, match=r"\(2,1,2\)"):
            white_op(E(2, 1, 2))

    @given(eligible_cacti)
    def test_new_lobe_sits_on_expected_side(self, u):
        n = u.arity
        for w, _ in white_op(Element.single(u)).terms():
            assert w.seq.index(n + 1) < w.seq.index(n)
        for w, _ in black_op(Element.single(u)).terms():
            assert w.seq.index(n + 1) > w.seq.index(n)


class TestWordImage:
    @pytest.mark.parametrize("word,expected", list(golden_rows()))
    def test_golden_table(self, word, expected):
        assert word_image(word) == expected

    def test_single_letters(self):
        assert word_image("w") == E(2, 1)
        assert word_image("b") == E(1, 2)

    def test_all_white_and_all_black_vanish(self):
        for length in range(2, 7):
            assert word_image("w" * length) == Element.zero()
            assert word_image("b" * length) == Element.zero()

    def test_terms_live_in_prime_basis(self):
        for n in range(3, 7):
            allowed = set(prime_cacti(n))
            for word in all_words(n):
                for u, c in word_image(word).terms():
                    assert u in allowed
                    assert c in (1, -1)


class TestStructureImage:
    def test_low_arities(self):
        assert a_infinity_image(2) == E(1, 2) + E(2, 1)
        assert a_infinity_image(3) == E(1, 3, 1, 2) - E(2, 1, 3, 1)

    def test_arity_four_table_sum(self):
        expected = (
            -E(1, 3, 1, 4, 1, 2)
            - E(1, 3, 1, 2, 4, 2)
            - E(1, 4, 1, 3, 1, 2)
            + E(2, 1, 3, 1, 4, 1)
            + E(2, 4, 2, 1, 3, 1)
            + E(2, 1, 4, 1, 3, 1)
        )
        assert a_infinity_image(4) == expected

    def test_support_is_prime_basis(self):
        for n in range(2, 7):
            image = a_infinity_image(n)
            assert image.support() == prime_cacti(n)
            assert all(c in (1, -1) for _, c in image.terms())

    def test_sign_lookup(self):
        assert a_infinity_image(3).coefficient(S(1, 3, 1, 2)) == 1
        assert a_infinity_image(3).coefficient(S(2, 1, 3, 1)) == -1
        assert a_infinity_image(2).coefficient(S(1, 2, 1)) == 0


class TestSplices:
    def test_reassembly(self):
        for word in ("wb", "bwb", "wbwb", "bbwwb"):
            for outer, inner, slot in splice_decompositions(word):
                assert splice(outer, slot, inner) == word
                assert len(outer) + len(inner) == len(word)

    def test_decomposition_count(self):
        # one decomposition for each slot of each outer arity
        for n in range(3, 7):
            count = len(list(splice_decompositions("w" * (n - 1))))
            assert count == sum(p for p in range(2, n))

    def test_splice_validates_slot(self):
        with pytest.raises(Exception):
            splice("w", 3, "b")


class TestBoundaryImages:
    def test_arity_two_is_zero(self):
        assert word_boundary_image("w") == Element.zero()
        assert word_boundary_image("b") == Element.zero()

    def test_black_black_cancels(self):
        assert word_boundary_image("bb") == Element.zero()

    def test_bw_matches_differential(self):
        expected = E(3, 1, 2) - E(1, 3, 2)
        assert word_boundary_image("bw") == expected
        assert boundary(word_image("bw")) == expected

    def test_associator(self):
        expected = E(2, 1, 3) + E(3, 1, 2) - E(1, 3, 2) - E(2, 3, 1)
        assert a_infinity_boundary_image(3) == expected
        assert boundary(a_infinity_image(3)) == expected

    def test_morphism_small_words(self):
        for length in range(1, 5):
            for word in all_words(length + 1):
                assert boundary(word_image(word)) == word_boundary_image(word), word

    def test_morphism_structure_map(self):
        for n in range(3, 6):
            assert boundary(a_infinity_image(n)) == a_infinity_boundary_image(n)


class TestPropositionChecks:
    def test_insertion_identities_example(self):
        u = S(1, 2)
        rep = check_top_insertion_identities(u)
        assert rep.passed
        # the first identity reduces to a single term on both sides here
        assert white_op(Element.single(u)) - black_op(Element.single(u)) == E(1, 3, 1, 2)

    def test_insertion_identities_all_small_prime(self):
        for n in range(2, 5):
            for u in prime_cacti(n):
                rep = check_top_insertion_identities(u)
                assert rep.passed, (str(u), rep.witness)

    @given(eligible_cacti)
    @settings(deadline=None, max_examples=50)
    def test_insertion_identities_sampled(self, u):
        rep = check_top_insertion_identities(u)
        assert rep.passed, rep.witness

    def test_insertion_composition_spec_cases(self):
        assert check_insertion_composition(S(1, 2), 1, S(1, 2)).passed
        assert check_insertion_composition(S(1, 2), 2, S(2, 1)).passed
        assert check_insertion_composition(S(1, 3, 1, 2), 2, S(1, 2)).passed

    @given(eligible_cacti, eligible_cacti, st.data())
    @settings(deadline=None, max_examples=50)
    def test_insertion_composition_sampled(self, u1, u2, data):
        i = data.draw(st.integers(1, u1.arity))
        rep = check_insertion_composition(u1, i, u2)
        assert rep.passed, rep.witness

    def test_word_boundary_compat_base(self):
        assert check_word_boundary_compat("b").passed
        assert check_word_boundary_compat("w").passed

    def test_word_boundary_compat_small_words(self):
        for length in range(1, 4):
            for word in all_words(length + 1):
                rep = check_word_boundary_compat(word)
                assert rep.passed, (word, rep.witness)
