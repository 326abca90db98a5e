import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cactusops import (
    Element,
    NotACactusError,
    NotHomogeneousError,
    ParseError,
    Surjection,
    boundary_basis,
    white_op,
)

from cactusops.elements import _block_str, _term_str
from conftest import elements, surjections


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


class TestSequenceStorage:
    """Terms are stored by raw sequence and rebuilt as surjections on the way out."""

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
        return " ".join(_term_str(tuple(seq), c) for seq, c in block)

    @staticmethod
    def random_block(rng, count, size, top=10, coeffs=(1, -1)):
        return [
            (bytes(rng.randint(1, top) for _ in range(size)), rng.choice(coeffs))
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
        assert set(b"".join(seq for seq, _ in block)) == set(range(1, 11))
        assert {c for _, c in block} == {1, -1}
        assert _block_str(block) == self.expected(block)
        assert "(10," in _block_str(block) and ",10)" in _block_str(block)

    @pytest.mark.parametrize(
        "block",
        [
            [(b"\x01\x02", 3), (b"\x02\x01", -1)],  # coefficient other than +-1
            [(b"\x01\x02", -12), (b"\x02\x01", 1)],
            [(b"\x01\x02\x01", 1), (b"\x02\x01", -1)],  # lengths differ
            [(b"\x01\x02", 1), (b"\x02\x0b", -1)],  # value 11
            [(b"\x01\xff", 1)],  # value 255
            [(b"\x00\x02", 1)],  # value 0
            [(b"", 1)],
            [],
        ],
    )
    def test_other_blocks_print_term_by_term(self, block):
        assert _block_str(block) == self.expected(block)

    def test_seeded_mixed_blocks(self):
        rng = random.Random("block-text:mixed")
        for _ in range(200):
            size = rng.randint(1, 12)
            block = self.random_block(
                rng, rng.randint(1, 40), size, top=rng.choice((9, 10, 11, 40)),
                coeffs=rng.choice(((1, -1), (1, -1, 2), (-1,))),
            )
            if rng.random() < 0.2:
                block.append((bytes([1] * (size + 1)), 1))
            assert _block_str(block) == self.expected(block)
