import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cactusops import (
    Element,
    NotACactusError,
    NotHomogeneousError,
    ParseError,
    ResourceBoundError,
    Surjection,
    boundary_basis,
    check_top_insertion_identities,
    compose,
    compose_basis,
    parse_element,
    white_op,
)

from cactusops.elements import _block_str, _term_str
from conftest import as_key, elements, surjections


def S(*values):
    return Surjection(values)


def E(*values):
    return Element.single(Surjection(values))


class TestArithmetic:
    def test_add_symmetrized_product(self):
        total = E(1, 2) + E(2, 1)
        assert total.terms() == [(S(1, 2), 1), (S(2, 1), 1)]

    def test_add_cancellation(self):
        x = E(1, 2, 1)
        assert not (x + x.scale(-1))
        assert x + x.scale(-1) == Element.zero()

    def test_add_associator(self):
        left = E(2, 1, 3) + E(3, 1, 2)
        right = E(1, 3, 2).scale(-1) + E(2, 3, 1).scale(-1)
        total = left + right
        assert total.terms() == [
            (S(1, 3, 2), -1),
            (S(2, 1, 3), 1),
            (S(2, 3, 1), -1),
            (S(3, 1, 2), 1),
        ]

    def test_scale(self):
        assert E(2, 1, 3, 1).scale(-1).coefficient(S(2, 1, 3, 1)) == -1
        assert E(1, 2).scale(0) == Element.zero()
        assert (2 * E(1, 2)).coefficient(S(1, 2)) == 2

    @pytest.mark.parametrize("c", [1.5, 2.0, 0.5, True, False, "1", None])
    def test_non_integer_coefficients_rejected(self, c):
        u = S(1, 2)
        with pytest.raises(TypeError, match="coefficient"):
            Element([(u, c)])
        with pytest.raises(TypeError, match="coefficient"):
            Element.single(u, c)
        with pytest.raises(TypeError, match="coefficient"):
            E(1, 2).scale(c)
        with pytest.raises(TypeError):
            c * E(1, 2)

    def test_operators(self):
        x, y = E(1, 2), E(2, 1)
        assert x - y == x + (-y)
        assert -(-x) == x

    @given(elements(), elements(), elements())
    def test_add_associative_commutative(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)

    @given(elements())
    def test_scale_distributes(self, a):
        assert a.scale(2) == a + a
        assert a.scale(-3) + a.scale(3) == Element.zero()

    @given(elements(), elements())
    def test_string_form_determines_equality(self, a, b):
        assert (str(a) == str(b)) == (a == b)


# Values on both sides of 10/11 (one digit against two, and the last value
# the block printer lays out itself) and of 255/256 (one byte against two).
WIDE_VALUES = (1, 2, 9, 10, 11, 12, 254, 255, 256, 257, 299, 300)


@st.composite
def wide_surjections(draw):
    """A surjection onto 1..n for n up to 300: a few chosen values, then a
    permutation of 1..n, with equal neighbours merged."""
    n = draw(st.sampled_from(WIDE_VALUES[1:]))
    head = draw(st.lists(st.sampled_from([v for v in WIDE_VALUES if v <= n]), max_size=6))
    values = head + draw(st.permutations(range(1, n + 1)))
    return Surjection([v for i, v in enumerate(values) if i == 0 or values[i - 1] != v])


@st.composite
def wide_elements(draw):
    """Elements of wide surjections, with a term u often joined by u + (u[-2],),
    which has u as a prefix."""
    terms = []
    for u in draw(st.lists(wide_surjections(), max_size=4)):
        terms.append((u, draw(st.integers(-3, 3))))
        if len(u) > 1 and draw(st.booleans()):
            terms.append((Surjection(u.seq + u.seq[-2:-1]), draw(st.integers(-3, 3))))
    return Element(terms)


class TestSequenceStorage:
    """Terms are stored by key and rebuilt as surjections on the way out."""

    @given(wide_elements())
    @settings(deadline=None)
    def test_key_order_is_the_sequence_order(self, e):
        seqs = [u.seq for u in e.support()]
        assert seqs == sorted(seqs)
        terms = sorted((u.seq, c) for u, c in e.terms())
        assert str(e) == (" ".join(_term_str(as_key(seq), c) for seq, c in terms) or "0")
        assert parse_element(str(e)) == e

    def test_values_above_the_key_limit_are_refused(self):
        # A key holds one code point per value, so values up to sys.maxunicode.
        big = Surjection(range(1, sys.maxunicode + 2))
        top = Surjection(big.seq[:-1])  # holds, but one more lobe does not
        message = rf"value {sys.maxunicode + 1} is above {sys.maxunicode}, the largest"
        for call in (
            lambda: Element([(big, 1)]),
            lambda: Element.zero().coefficient(big),
            lambda: compose_basis(big, 1, Surjection((1,))),
            lambda: compose_basis(Surjection((1,)), 1, big),
            lambda: compose_basis(Surjection((1, 2)), 1, top),  # outer value 2 raised
            lambda: compose_basis(Surjection((1, 2)), 2, top),  # inner values raised
            lambda: compose(Element.single(Surjection((1, 2))), 1, Element.single(top)),
            lambda: compose(Element.single(Surjection((1, 2))), 2, Element.single(top)),
            lambda: boundary_basis(big),
            lambda: white_op(top),
            lambda: check_top_insertion_identities(big),
        ):
            with pytest.raises(ResourceBoundError, match=message):
                call()
        assert Element.single(top).coefficient(top) == 1

    @given(elements())
    def test_rebuilt_terms_are_the_validated_surjections(self, a):
        terms, support = a.terms(), a.support()
        assert len(terms) == len(support) == len(a)
        for (u, _), w in zip(terms, support):
            v = Surjection(u.seq)
            for x in (u, w):
                assert (x, x.arity, x.degree) == (v, v.arity, v.degree)

    @given(elements(), surjections)
    def test_coefficient_agrees_with_terms(self, a, u):
        assert a.coefficient(u) == dict(a.terms()).get(u, 0)

    @given(surjections, surjections, st.integers(1, 3), st.integers(-3, -1))
    def test_mixed_message(self, u, v, a, b):
        assume((u.arity, u.degree) != (v.arity, v.degree))
        with pytest.raises(NotHomogeneousError) as info:
            Element([(u, a), (v, b)]).bidegree()
        assert str(info.value) == (
            f"mixed terms: {u} is {(u.arity, u.degree)}, {v} is {(v.arity, v.degree)}"
        )


class TestHomogeneity:
    def test_zero_has_no_bidegree(self):
        assert Element.zero().bidegree() is None

    def test_homogeneous(self):
        assert (E(1, 2) + E(2, 1)).bidegree() == (2, 0)

    def test_mixed_rejected(self):
        with pytest.raises(NotHomogeneousError):
            (E(1, 2) + E(1, 2, 1)).bidegree()


class TestApplyLinear:
    def test_boundary_of_121(self):
        out = E(1, 2, 1).apply_linear(boundary_basis)
        assert out == E(2, 1) - E(1, 2)

    @given(elements())
    def test_identity(self, a):
        assert a.apply_linear(Element.single) == a

    def test_white_op_linear_example(self):
        # The (2,1) term contributes nothing: no position precedes its top value.
        assert white_op(E(1, 2) + E(2, 1)) == E(1, 3, 1, 2)

    def test_errors_keep_their_witness(self):
        err = NotACactusError("crossing", witness=(1, 2, 3, 4))

        def explode(u):
            raise err

        with pytest.raises(NotACactusError) as info:
            E(1, 2).apply_linear(explode)
        assert info.value is err
        assert info.value.witness == (1, 2, 3, 4)

    def test_errors_keep_their_position(self):
        def explode(u):
            raise ParseError("bad token", 3, 7)

        with pytest.raises(ParseError) as info:
            E(1, 2).apply_linear(lambda u: E(2, 1).apply_linear(explode))
        assert (info.value.line, info.value.column) == (3, 7)
        assert str(info.value) == "bad token (line 3, column 7)"


class TestBlockText:
    """``_block_str`` prints a block exactly as ``_term_str`` prints its terms."""

    @staticmethod
    def expected(block):
        return " ".join(_term_str(key, c) for key, c in block)

    @staticmethod
    def random_block(rng, count, size, top=10, coeffs=(1, -1)):
        return [
            (as_key([rng.randint(1, top) for _ in range(size)]), rng.choice(coeffs))
            for _ in range(count)
        ]

    @pytest.mark.parametrize("count", [1, 2, 17, 1000])
    def test_unit_blocks_match_term_text(self, count):
        rng = random.Random(f"block-text:{count}")
        for size in (1, 2, 5, 16, 18):
            block = self.random_block(rng, count, size)
            assert self.expected(block) == _block_str(block), (count, size)

    def test_values_and_signs_are_all_covered(self):
        rng = random.Random("block-text:cover")
        block = self.random_block(rng, 1000, 18)
        assert set("".join(key for key, _ in block)) == set(map(chr, range(1, 11)))
        assert {c for _, c in block} == {1, -1}
        assert _block_str(block) == self.expected(block)
        assert "(10," in _block_str(block) and ",10)" in _block_str(block)

    @pytest.mark.parametrize(
        "block",
        [
            [(as_key((1, 2)), 3), (as_key((2, 1)), -1)],  # coefficient other than +-1
            [(as_key((1, 2)), -12), (as_key((2, 1)), 1)],
            [(as_key((1, 2, 1)), 1), (as_key((2, 1)), -1)],  # lengths differ
            [(as_key((1, 2)), 1), (as_key((2, 11)), -1)],  # value 11
            [(as_key((1, 255)), 1)],  # value 255
            [(as_key((0, 2)), 1)],  # value 0
            [("", 1)],
            [],
            [(as_key((1, 300)), 1)],  # value 300
        ],
    )
    def test_other_blocks_print_term_by_term(self, block):
        assert _block_str(block) == self.expected(block)

    @pytest.mark.parametrize(
        "terms, text",
        [
            ([((1, 2, 1), -1), ((1, 2), 1)], "+(1,2) -(1,2,1)"),  # lengths differ
            ([((2, 1), -2), ((1, 2), 2)], "+2*(1,2) -2*(2,1)"),
            ([((1, 2), 1), ((2, 1), -1)], "+(1,2) -(2,1)"),
            (
                [(tuple(range(1, 12)), 1), (tuple(range(11, 0, -1)), -1)],  # value 11
                "+(1,2,3,4,5,6,7,8,9,10,11) -(11,10,9,8,7,6,5,4,3,2,1)",
            ),
            ([(tuple(range(1, 301)), -1)], "-(" + ",".join(map(str, range(1, 301))) + ")"),
            ([], "0"),
        ],
    )
    def test_element_prints_through_the_block_printer(self, terms, text):
        e = Element([(Surjection(seq), c) for seq, c in terms])
        assert str(e) == text
        assert parse_element(text) == e

    def test_seeded_mixed_blocks(self):
        rng = random.Random("block-text:mixed")
        for _ in range(200):
            size = rng.randint(1, 12)
            block = self.random_block(
                rng, rng.randint(1, 40), size, top=rng.choice((9, 10, 11, 40)),
                coeffs=rng.choice(((1, -1), (1, -1, 2), (-1,))),
            )
            if rng.random() < 0.2:
                block.append((as_key([1] * (size + 1)), 1))
            assert _block_str(block) == self.expected(block)
