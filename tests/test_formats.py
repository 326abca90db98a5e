import xml.etree.ElementTree as ET

import pytest
from hypothesis import given

from cactusops import (
    DegenerateError,
    Element,
    NonPositiveError,
    ParseError,
    Surjection,
    a_infinity_image,
    element_from_json,
    element_to_json,
    lobe_tree,
    parse_element,
    parse_surjection,
    render_lobe_tree,
    word_image,
)

from conftest import elements


def S(*values):
    return Surjection(values)


def E(*values):
    return Element.single(Surjection(values))


class TestParseSurjection:
    def test_tuple_form(self):
        assert parse_surjection("(1,3,1,2)") == S(1, 3, 1, 2)
        assert parse_surjection(" ( 1 , 3 , 1 , 2 ) ") == S(1, 3, 1, 2)

    def test_compact_form(self):
        assert parse_surjection("1312") == S(1, 3, 1, 2)
        assert parse_surjection("21") == S(2, 1)

    def test_compact_zero_digit(self):
        with pytest.raises(NonPositiveError):
            parse_surjection("102")

    def test_multi_digit_values_need_commas(self):
        assert parse_surjection("(1,2,3,4,5,6,7,8,9,10,9)") == Surjection(
            (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 9)
        )

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as err:
            parse_surjection("(1,,2)")
        assert err.value.column == 4

    def test_validation_propagates(self):
        with pytest.raises(DegenerateError):
            parse_surjection("(1,1,2)")

    @pytest.mark.parametrize(
        "text, column", [("(²)", 2), ("²", 1), ("１２", 1), ("(１,2)", 2), ("(1,٣)", 4)]
    )
    def test_accepts_only_ascii_digits(self, text, column):
        with pytest.raises(ParseError) as err:
            parse_surjection(text)
        assert (err.value.line, err.value.column) == (1, column)


class TestParseElement:
    def test_nullhomotopy(self):
        assert parse_element("+(1,3,1,2) - (2,1,3,1)") == a_infinity_image(3)

    def test_unit(self):
        assert parse_element("(1)") == E(1)

    def test_zero(self):
        assert parse_element("0") == Element.zero()
        assert parse_element(" 0 ") == Element.zero()

    def test_coefficients(self):
        assert parse_element("2*(1,2)") == E(1, 2).scale(2)
        assert parse_element("-3*(1,2) + (1,2)") == E(1, 2).scale(-2)

    def test_merges_repeated_terms(self):
        assert parse_element("(1,2) + (1,2)") == E(1, 2).scale(2)
        assert parse_element("(1,2) - (1,2)") == Element.zero()

    def test_validation_propagates(self):
        with pytest.raises(DegenerateError):
            parse_element("(1,1,2)")

    @pytest.mark.parametrize(
        "text, column", [("²", 1), ("(１,2)", 2), ("+(1,2) -٣*(2,1)", 9), ("２*(1,2)", 1)]
    )
    def test_accepts_only_ascii_digits(self, text, column):
        with pytest.raises(ParseError) as err:
            parse_element(text)
        assert (err.value.line, err.value.column) == (1, column)

    def test_syntax_errors(self):
        for bad in ("", "+", "(1,2", "1,2)", "(1,2) junk", "2(1,2)", "*(1,2)"):
            with pytest.raises(ParseError):
                parse_element(bad)


class TestSerialize:
    def test_symmetrized_product(self):
        assert str(a_infinity_image(2)) == "+(1,2) +(2,1)"

    def test_zero(self):
        assert str(Element.zero()) == "0"

    def test_table_row_in_canonical_order(self):
        assert str(word_image("bwb")) == "-(1,3,1,2,4,2) -(1,3,1,4,1,2)"

    def test_coefficients_spelled_only_when_not_unit(self):
        assert str(E(1, 2).scale(2) - E(2, 1)) == "+2*(1,2) -(2,1)"

    @given(elements())
    def test_round_trip(self, a):
        assert parse_element(str(a)) == a


class TestJson:
    @given(elements())
    def test_round_trip(self, a):
        doc = element_to_json(a)
        assert doc["format"] == "cactus-v1"
        assert element_from_json(doc) == a

    def test_coefficients_and_order(self):
        doc = element_to_json(E(2, 1, 3, 1).scale(-1) + E(1, 3, 1, 2))
        assert doc["terms"] == [
            {"coeff": 1, "seq": [1, 3, 1, 2]},
            {"coeff": -1, "seq": [2, 1, 3, 1]},
        ]

    def test_rejects_unknown_format(self):
        with pytest.raises(ParseError):
            element_from_json({"format": "other", "terms": []})

    @pytest.mark.parametrize(
        "entry",
        [
            {"coeff": 1.5, "seq": [1, 2]},
            {"coeff": "7", "seq": [1, 2]},
            {"coeff": True, "seq": [1, 2]},
            {"seq": [1, 2]},
            {"coeff": 1},
        ],
    )
    def test_rejects_malformed_terms(self, entry):
        with pytest.raises(ParseError):
            element_from_json({"format": "cactus-v1", "terms": [entry]})


class TestRenderFormat:
    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_lobe_tree(S(1, 2, 1), "png")


class TestDot:
    def test_single_attachment(self):
        out = render_lobe_tree(S(1, 2, 1), "dot")
        assert "1 -> 2" in out
        assert out.count("->") == 1

    def test_figure_sequence_edges(self):
        out = render_lobe_tree(S(1, 2, 3, 2, 1, 4, 1), "dot")
        assert "1 -> 2" in out
        assert "2 -> 3" in out
        assert "1 -> 4" in out
        assert out.count("->") == 3

    def test_deterministic(self):
        tree = lobe_tree(S(2, 1, 3, 1))
        assert render_lobe_tree(tree, "dot") == render_lobe_tree(tree, "dot")


class TestSvg:
    def test_well_formed_with_one_circle_per_lobe(self):
        for u in (S(1, 2, 1), S(2, 1, 3, 1), S(1, 2, 3, 2, 1, 4, 1)):
            out = render_lobe_tree(u, "svg")
            root = ET.fromstring(out)
            circles = [e for e in root.iter() if e.tag.endswith("circle")]
            assert len(circles) == u.arity

    def test_deterministic(self):
        assert render_lobe_tree(S(2, 1, 3, 1), "svg") == render_lobe_tree(S(2, 1, 3, 1), "svg")


class TestText:
    def test_outline(self):
        out = render_lobe_tree(S(2, 1, 3, 1), "text")
        lines = out.splitlines()
        assert lines[0] == "lobe 2 [1 arc]"
        assert lines[1].strip().startswith("after arc 1: lobe 1")
        assert lines[2].strip().startswith("after arc 1: lobe 3")
