import json
import re
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactusops import (
    Element,
    MaxValueNotUniqueError,
    ResourceBoundError,
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
    prime_cacti_filtered,
    splice_decompositions,
    white_op,
    word_boundary_image,
    word_image,
)

import cactusops.ainfty as ainfty_module
from cactusops.ainfty import (
    _MAX_IMAGE_TERMS,
    _blocks,
    _check_image_size,
    _psi_blocks,
    _splice_sign,
)
from conftest import ELIGIBLE_POOL, as_key, as_seq, eligible_cacti, elements, word_image_sum
from oracles import naive_compose, naive_insertion


def S(*values):
    return Surjection(values)


def E(*values):
    return Element.single(Surjection(values))


def psi_terms(n):
    """The terms of ``_psi_blocks(n)`` in stream order, sequences as tuples."""
    return [(as_seq(key), c) for block in _psi_blocks(n) for key, c in block]


def sorted_terms(a):
    """The terms of an element as (sequence, coefficient), in tuple order."""
    return sorted((u.seq, c) for u, c in a.terms())


def golden_rows():
    doc = json.loads(
        resources.files("cactusops.data").joinpath("golden_table.json").read_text()
    )
    for row in doc["rows"]:
        yield row["word"], Element(
            [(Surjection(tuple(t["seq"])), t["coeff"]) for t in row["terms"]]
        )


def assert_insertions_match_oracle(a):
    terms = {u.seq: c for u, c in a.terms()}
    for op, before in ((white_op, True), (black_op, False)):
        assert {w.seq: c for w, c in op(a).terms()} == naive_insertion(terms, before)


class TestWords:
    def test_bad_words_rejected(self):
        for bad in ("", "x", "wbx", "WB"):
            with pytest.raises(WordError):
                word_image(bad)
        with pytest.raises(WordError, match=r"^word 'w{20}'\.\.\. \(5001 characters\) must"):
            word_image("w" * 5000 + "x")

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
        with pytest.raises(MaxValueNotUniqueError, match=r"\(2,1,2\)$"):
            white_op(E(2, 1, 2))
        # A long term is quoted by its first entries and its length.
        with pytest.raises(MaxValueNotUniqueError, match=r"\(1,2,3,.*,20\)\.\.\. \(3001 entries\)$"):
            white_op(E(*range(1, 3000), 1, 2999))

    def test_matches_oracle_on_each_bidegree(self):
        # Every eligible cactus of one bidegree, with distinct non-unit coefficients.
        by_bidegree = {}
        for u in ELIGIBLE_POOL:
            by_bidegree.setdefault((u.arity, u.degree), []).append(u)
        for pool in by_bidegree.values():
            assert_insertions_match_oracle(
                Element([(u, (-1) ** c * (c + 2)) for c, u in enumerate(pool)])
            )

    @given(elements(pool=ELIGIBLE_POOL, max_terms=6, homogeneous=True))
    def test_matches_oracle_on_sampled_elements(self, a):
        assert_insertions_match_oracle(a)

    def test_colliding_insertion_raises(self, monkeypatch):
        # An insertion that lands on a term already written is refused.  The
        # one white insertion into (1,3,1,2), written three times.
        row_insertions = ainfty_module._row_insertions
        monkeypatch.setattr(
            ainfty_module, "_row_insertions", lambda *args: row_insertions(*args) * 3
        )
        with pytest.raises(RuntimeError, match="3 insertions added 1 terms"):
            white_op(E(1, 3, 1, 2))

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
            allowed = set(prime_cacti_filtered(n))
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

    def test_recursion_equals_sum_of_word_images(self):
        for n in range(2, 9):
            words = all_words(n)
            assert sum(map(word_image, words), Element.zero()) == a_infinity_image(n), n

    def test_word_images_have_disjoint_supports(self):
        for n in range(2, 9):
            supports = [set(u.seq for u in word_image(w).support()) for w in all_words(n)]
            union = set().union(*supports)
            assert len(union) == sum(map(len, supports)), n

    def test_support_is_prime_basis(self):
        for n in range(2, 7):
            image = a_infinity_image(n)
            assert image.support() == prime_cacti_filtered(n)
            assert all(c in (1, -1) for _, c in image.terms())

    def test_size_bound_admits_arity_ten_and_refuses_eleven(self):
        # The bound is checked against 2 * (2n - 5)!! before any work.
        assert 4_054_050 <= _MAX_IMAGE_TERMS < 68_918_850
        _check_image_size(10)
        with pytest.raises(ResourceBoundError, match=r"arity 11: .* 68918850 terms"):
            a_infinity_image(11)
        with pytest.raises(ResourceBoundError, match=r"arity 14: .* 632468286450 terms"):
            a_infinity_image(14)

    def test_boundary_bound_admits_arity_nine_and_refuses_ten(self, monkeypatch):
        # A term of psi_n has at most 2n - 3 deletions, so d(psi_n) is bounded
        # by (2n-3) * 2(2n-5)!!: 4,054,050 at arity 9, 68,918,850 at arity 10.
        _check_image_size(9, differential=True)

        def no_work(*args):
            raise AssertionError("work started before the size bound was checked")

        monkeypatch.setattr(ainfty_module, "a_infinity_image", no_work)
        monkeypatch.setattr(ainfty_module, "compose", no_work)
        monkeypatch.setattr(ainfty_module, "_compose_into", no_work)
        with pytest.raises(ResourceBoundError, match=r"arity 10: the differential .* 68918850"):
            a_infinity_boundary_image(10)

    def test_stream_is_the_sorted_image(self):
        for n in range(2, 9):
            assert psi_terms(n) == sorted_terms(word_image_sum(n)), n

    def test_stream_matches_the_oracle_recursion(self):
        # psi_n = white(psi_{n-1}) + black(psi_{n-1}), signs from the oracle alone.
        psi = {(1, 2): 1, (2, 1): 1}
        for n in range(3, 8):
            white, black = naive_insertion(psi, True), naive_insertion(psi, False)
            assert not white.keys() & black.keys()
            psi = {**white, **black}
            assert psi_terms(n) == sorted(psi.items()), n

    def test_stream_refuses_above_bound_before_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started before the size bound was checked")

        monkeypatch.setattr(ainfty_module, "a_infinity_image", no_work)
        monkeypatch.setattr(ainfty_module, "_prefix_walk", no_work)
        monkeypatch.setattr(ainfty_module, "_blocks", no_work)
        with pytest.raises(ResourceBoundError, match=r"arity 11: .* 68918850 terms"):
            _psi_blocks(11)  # raises on the call, not on the first block
        with pytest.raises(ValueError, match="arity 1"):
            _psi_blocks(1)

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_stream_blocks_are_capped(self, monkeypatch, chunk):
        # psi_7 comes from the 210 rows of psi_6, 105 of them starting with
        # 1 and 105 with 2: each half's insertions at position 0 form one
        # run of 105 terms, which blocks below that size must slice.
        monkeypatch.setattr(ainfty_module, "PSI_CHUNK", chunk)
        blocks = list(_psi_blocks(7))
        assert all(len(block) == chunk for block in blocks[:-1])
        assert 1 <= len(blocks[-1]) <= chunk
        flat = [(as_seq(key), c) for block in blocks for key, c in block]
        assert flat == sorted_terms(word_image_sum(7))

    @pytest.mark.parametrize(
        "mutation",
        [
            # every insertion comes twice
            lambda stream: lambda rows, j, new: (t for t in stream(rows, j, new) for _ in range(2)),
            # each position inserts where the next one does, the last one in place
            lambda stream: lambda rows, j, new: stream(rows, min(j + 1, len(rows[0][0]) - 1), new),
        ],
        ids=["duplicated-insertion", "position-shifted-by-one"],
    )
    def test_stream_rejects_coinciding_insertions(self, monkeypatch, mutation):
        # The walk feeds itself, so the mutant acts only on the insertions
        # of the top value 6, into psi_5.  a_infinity_image reads the same
        # stream, so it raises rather than overwrite a term of its dict.
        # psi_6 is dropped from the memo before and after each build.
        stream = ainfty_module._position_insertions
        mutant = mutation(stream)
        monkeypatch.setattr(
            ainfty_module,
            "_position_insertions",
            lambda rows, j, new: (mutant if new == as_key((6,)) else stream)(rows, j, new),
        )
        for build in (psi_terms, a_infinity_image):
            a_infinity_image.cache_clear()
            try:
                with pytest.raises(RuntimeError, match="psi_6 stream does not increase"):
                    build(6)
            finally:
                a_infinity_image.cache_clear()

    def test_sign_lookup(self):
        assert a_infinity_image(3).coefficient(S(1, 3, 1, 2)) == 1
        assert a_infinity_image(3).coefficient(S(2, 1, 3, 1)) == -1
        assert a_infinity_image(2).coefficient(S(1, 2, 1)) == 0


class TestBlocks:
    """``_blocks`` cuts any parts into blocks of ``PSI_CHUNK`` terms."""

    @staticmethod
    def parts(terms):
        # Lists, generators and empty parts; the generator holds terms 2..8,
        # which span three blocks of 3.
        return [terms[:2], iter(()), (t for t in terms[2:9]), [], iter(terms[9:])]

    def test_blocks_have_the_chunk_size_and_the_terms_in_order(self, monkeypatch):
        monkeypatch.setattr(ainfty_module, "PSI_CHUNK", 3)
        terms = [(as_key((v,)), v) for v in range(1, 12)]
        blocks = list(_blocks(5, self.parts(terms)))
        assert [len(block) for block in blocks] == [3, 3, 3, 2]
        assert [t for block in blocks for t in block] == terms

    @pytest.mark.parametrize("at, value", [(3, 3), (4, 2)], ids=["block-boundary", "in-block"])
    def test_step_that_does_not_increase_raises(self, monkeypatch, at, value):
        # Term 3 opens the second block and repeats the key before it; term
        # 4 falls below term 3 inside that block.
        monkeypatch.setattr(ainfty_module, "PSI_CHUNK", 3)
        terms = [(as_key((v,)), 1) for v in range(1, 12)]
        terms[at] = (as_key((value,)), 1)
        blocks = _blocks(5, self.parts(terms))
        assert next(blocks) == terms[:3]
        message = f"psi_5 stream does not increase at ({value})"
        with pytest.raises(RuntimeError, match=re.escape(message)):
            next(blocks)


class TestSplices:
    def test_reassembly(self):
        for word in ("wb", "bwb", "wbwb", "bbwwb"):
            for outer, inner, slot in splice_decompositions(word):
                assert outer[: slot - 1] + inner + outer[slot - 1 :] == word
                assert len(outer) + len(inner) == len(word)

    def test_decomposition_count(self):
        # one decomposition for each slot of each outer arity
        for n in range(3, 7):
            count = len(list(splice_decompositions("w" * (n - 1))))
            assert count == sum(p for p in range(2, n))


def terms_of(a):
    return {u.seq: c for u, c in a.terms()}


def naive_splice_sum(splices):
    """The sum of sign * (outer o_slot inner) over ``(sign, outer, slot,
    inner)``, each composition taken term by term by ``naive_compose``."""
    total = {}
    for sign, outer, slot, inner in splices:
        for v, c1 in outer.terms():
            for u, c2 in inner.terms():
                for seq, c in naive_compose(v.seq, slot, u.seq).items():
                    total[seq] = total.get(seq, 0) + sign * c1 * c2 * c
    return {seq: c for seq, c in total.items() if c}


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

    def test_splice_sums_match_the_definition_oracle(self):
        # Every composite of a splice sum goes into one dict; the sum must be
        # that of the definition, composed term by term by the oracle.
        for n in range(3, 7):
            splices = [
                (_splice_sign(p, q, i), a_infinity_image(p), i, a_infinity_image(q))
                for p, q in ((p, n + 1 - p) for p in range(2, n))
                for i in range(1, p + 1)
            ]
            assert terms_of(a_infinity_boundary_image(n)) == naive_splice_sum(splices), n
        for n in range(2, 6):
            for word in all_words(n):
                splices = [
                    (
                        _splice_sign(len(outer) + 1, len(inner) + 1, slot),
                        word_image(outer),
                        slot,
                        word_image(inner),
                    )
                    for outer, inner, slot in splice_decompositions(word)
                ]
                assert terms_of(word_boundary_image(word)) == naive_splice_sum(splices), word

    def test_word_boundary_images_sum_to_the_structure_boundary(self):
        # The splice decompositions of the arity-n words are those of the
        # structure map, word by word, so the word boundary images add up
        # to its boundary image: arity n can be checked one word at a time.
        for n in range(3, 8):
            total = sum(map(word_boundary_image, all_words(n)), Element.zero())
            assert total == a_infinity_boundary_image(n), n


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
