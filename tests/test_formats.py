import json
import re
import tracemalloc
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactusops import (
    CactusOpsError,
    DegenerateError,
    Element,
    NonPositiveError,
    NotSurjectiveError,
    ParseError,
    Surjection,
    a_infinity_image,
    element_from_json,
    element_to_json,
    parse_element,
    parse_surjection,
    render_lobe_tree,
    word_image,
)

from conftest import SURJECTION_POOL, elements


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


# Value lists: a basis surjection, or small integers that may be degenerate,
# not surjective or not positive.
value_lists = st.one_of(
    st.sampled_from(SURJECTION_POOL).map(lambda u: list(u.seq)),
    st.lists(st.integers(0, 4), min_size=1, max_size=5),
)


@st.composite
def element_texts(draw):
    """Element text near the grammar: signed terms whose value lists may be
    degenerate or not surjective, then at most one character edited."""
    terms = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["", "+", "-", "- "]),
                st.sampled_from(["", "2*", "0*", "12 * "]),
                value_lists,
            ),
            max_size=4,
        )
    )
    text = " ".join(
        f"{sign}{coeff}({','.join(map(str, values))})" for sign, coeff, values in terms
    )
    return _edited(draw, text)


@st.composite
def surjection_texts(draw):
    """Surjection text near the grammar, compact ("1312") or parenthesized,
    whose values may be degenerate or not surjective, then at most one
    character edited."""
    values = list(map(str, draw(value_lists)))
    if draw(st.booleans()):
        text = "".join(values)
    else:
        text = "(" + draw(st.sampled_from([",", ", ", " , "])).join(values) + ")"
    return _edited(draw, draw(st.sampled_from(["", " ", "\n"])) + text)


def _edited(draw, text):
    """text, or text with one character inserted, replaced or deleted."""
    if draw(st.booleans()):
        pos = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["", "x", "(", ")", ",", "*", "-", "\n", "²", "0", "7"]))
        text = text[:pos] + edit + text[pos + draw(st.integers(0, 1)) :]
    return text


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.floats(allow_nan=False), st.text(max_size=3)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=5), inner, max_size=4)
    ),
    max_leaves=6,
)
near_terms = st.fixed_dictionaries({"coeff": st.integers(-3, 3), "seq": value_lists})
json_docs = st.one_of(
    st.fixed_dictionaries(
        {"terms": st.lists(near_terms, max_size=4)},
        optional={"format": st.sampled_from(["cactus-v1", "cactus-v2", 1])},
    ),
    st.fixed_dictionaries(
        {"terms": st.lists(st.one_of(near_terms, json_values), max_size=4)},
        optional={"format": json_values},
    ),
    st.fixed_dictionaries(
        {"terms": st.lists(st.fixed_dictionaries({"coeff": json_values, "seq": json_values}))}
    ),
    json_values,
)


def _assert_text_position(text, exc):
    """The error message ends with a (line, column) that lies in the text."""
    match = re.search(r"\(line (\d+), column (\d+)\)$", str(exc))
    assert match, f"{type(exc).__name__} carries no position: {exc}"
    assert 1 <= int(match[1]) <= text.count("\n") + 1 and int(match[2]) >= 1


# A JSON error names the term or the top-level key it is at, or a line and
# column of the text.
JSON_POSITION = re.compile(r"\bterm \d+\b|'(terms|format)'|\(line \d+, column \d+\)$")


class TestParserFuzz:
    """Every input is accepted exactly or rejected by a CactusOpsError that
    says where; no bare KeyError, TypeError or ValueError escapes."""

    @given(st.one_of(element_texts(), st.text(max_size=24)))
    @settings(max_examples=400)
    def test_element_text_round_trips_or_is_rejected_with_position(self, text):
        try:
            a = parse_element(text)
        except CactusOpsError as exc:
            _assert_text_position(text, exc)
        else:
            assert parse_element(str(a)) == a

    @given(st.one_of(surjection_texts(), st.text(max_size=16)))
    @settings(max_examples=300)
    def test_surjection_text_round_trips_or_is_rejected_with_position(self, text):
        try:
            u = parse_surjection(text)
        except CactusOpsError as exc:
            _assert_text_position(text, exc)
        else:
            assert parse_surjection(str(u)) == u
            if u.arity <= 9:
                assert parse_surjection("".join(map(str, u.seq))) == u

    @given(json_docs)
    @settings(max_examples=200)
    def test_element_json_round_trips_or_is_rejected_with_position(self, doc):
        try:
            a = element_from_json(doc)
        except CactusOpsError as exc:
            assert JSON_POSITION.search(str(exc)), exc
        else:
            assert element_from_json(json.dumps(element_to_json(a))) == a

    @given(st.one_of(st.text(max_size=30), json_docs.map(json.dumps)))
    @settings(max_examples=150)
    def test_json_text_round_trips_or_is_rejected_with_position(self, text):
        try:
            a = element_from_json(text)
        except CactusOpsError as exc:
            assert JSON_POSITION.search(str(exc)), exc
        else:
            assert element_from_json(json.dumps(element_to_json(a))) == a

    def test_invalid_term_keeps_its_type_and_gains_its_position(self):
        with pytest.raises(DegenerateError, match=r"\(line 2, column 3\)$"):
            parse_element("(1,2)\n+ (1,1,2)")
        with pytest.raises(DegenerateError, match=r"\(term 1\)$"):
            element_from_json({"terms": [{"coeff": 1, "seq": [1]}, {"coeff": 1, "seq": [2, 2]}]})

    def test_huge_values_and_integers_are_rejected_at_once(self):
        # The missing value is found without building range(1, max + 1).
        with pytest.raises(NotSurjectiveError, match="value 2 missing"):
            parse_element("(1,99999999999999999999)")
        with pytest.raises(ParseError, match=r"digits is too long \(line 1, column 2\)$"):
            parse_element("+" + "9" * 5000 + "*(1)")
        with pytest.raises(ParseError, match=r"\(line 1, column 2\)$"):
            parse_element("(" + "7" * 5000 + ")")

    @pytest.mark.parametrize(
        "parse, given_input, error, length, where",
        [
            (
                parse_element,
                "(" + "2," * 3000 + "1)",
                DegenerateError,
                "3001 entries",
                "(line 1, column 1)",
            ),
            (parse_surjection, "9" * 5000, DegenerateError, "5000 entries", "(line 1, column 1)"),
            (
                element_from_json,
                {"terms": [{"coeff": 1, "seq": ["x" * 10000]}]},
                NonPositiveError,
                "10000 characters",
                "(term 0)",
            ),
            (
                element_from_json,
                {"terms": [{"coeff": 1, "seq": "x" * 10000}]},
                ParseError,
                "10000 characters",
                "term 0:",
            ),
            (
                element_from_json,
                {"terms": [{"coeff": "x" * 10000, "seq": [1]}]},
                ParseError,
                "10000 characters",
                "term 0:",
            ),
            (
                element_from_json,
                {"format": "x" * 10000, "terms": []},
                ParseError,
                "10000 characters",
                "'format'",
            ),
        ],
    )
    def test_long_invalid_value_is_quoted_by_a_prefix_and_its_length(
        self, parse, given_input, error, length, where
    ):
        with pytest.raises(error) as err:
            parse(given_input)
        message = str(err.value)
        assert len(message) < 200
        assert f"... ({length})" in message and where in message

    @pytest.mark.parametrize(
        "term",
        ['{"coeff": 1, "seq": [1, ' + "9" * 5000 + "]}", '{"coeff": -' + "9" * 5000 + ', "seq": [1]}'],
        ids=["seq", "coeff"],
    )
    def test_json_integer_too_long_to_convert_is_a_parse_error(self, term):
        # json.loads raises a bare ValueError past CPython's 4,300-digit limit.
        with pytest.raises(ParseError, match=r"^integer of 5000 digits is too long$"):
            element_from_json('{"terms": [' + term + "]}")

    def test_long_integer_entries_are_quoted_by_their_digit_count(self):
        with pytest.raises(DegenerateError) as err:
            element_from_json({"terms": [{"coeff": 1, "seq": [10**5000, 10**5000]}]})
        message = str(err.value)
        assert len(message) < 200
        assert "<integer of 5001 digits>" in message and "(term 0)" in message

    def test_invalid_json_text_carries_line_and_column(self):
        with pytest.raises(ParseError) as err:
            element_from_json('{"terms":\n  [1,}')
        assert (err.value.line, err.value.column) == (2, 6)
        assert str(err.value).endswith("(line 2, column 6)")

    @pytest.mark.parametrize(
        "doc, where",
        [
            ({"terms": [{"coeff": 1.5, "seq": [1, 2]}]}, "term 0"),
            ({"terms": [{"coeff": 1, "seq": [1]}, 7]}, "term 1"),
            ({"terms": {}}, "'terms'"),
            ({"format": "cactus-v2", "terms": []}, "'format'"),
        ],
    )
    def test_errors_about_a_json_object_carry_no_position(self, doc, where):
        # A JSON object has no line or column; the error names the term or key.
        for given_doc in (doc, json.dumps(doc)):
            with pytest.raises(ParseError) as err:
                element_from_json(given_doc)
            assert (err.value.line, err.value.column) == (None, None)
            assert where in str(err.value) and "line" not in str(err.value)

    def test_long_token_is_quoted_by_a_prefix_and_its_length(self):
        with pytest.raises(ParseError) as err:
            parse_element("+2*" + "9" * 5000 + "*(1)")
        message = str(err.value)
        assert len(message) < 200
        assert "5000 characters" in message and message.endswith("(line 1, column 4)")
        assert (err.value.line, err.value.column) == (1, 4)
        with pytest.raises(ParseError, match=r"trailing input '1{20}'\.\.\. \(300 characters\)"):
            parse_element("0 " + "1" * 300)


class TestTextPositions:
    """Positions are offsets into the text while it is scanned; an error
    names its own as a line and column."""

    @pytest.mark.parametrize(
        "parse, text, error, message, line, column",
        [
            (parse_element, "(1,2)\r\n+ (1,", ParseError, "unexpected end of input", 2, 6),
            (parse_element, "(1,2)\n\n  -", ParseError, "expected '(', found ", 3, 4),
            (parse_element, "(1,2) +\r\n  2 \n\n", ParseError, "expected '*', found ", 2, 4),
            (parse_element, " \r\n\t", ParseError, "empty element", 1, 1),
            (parse_element, "(1,2)\n\r(2,1) ²", ParseError, "expected '(', found '²'", 2, 8),
            (parse_element, "0\n\n  0", ParseError, "trailing input '0'", 3, 3),
            (
                parse_element,
                "(1,2)\n+ (1,1,2)",
                DegenerateError,
                "adjacent equal entries 1 in (1, 1, 2)",
                2,
                3,
            ),
            (
                parse_element,
                "(1,2)\n  +(2,\n 3)",
                NotSurjectiveError,
                "value 1 missing from (2, 3)",
                2,
                4,
            ),
            (parse_surjection, " \n 1102", NonPositiveError, "entry 0 is not a positive integer", 2, 2),
            (parse_surjection, "\n(1,\n 2)\n 3", ParseError, "trailing input '3'", 4, 2),
        ],
    )
    def test_error_type_message_and_position(self, parse, text, error, message, line, column):
        with pytest.raises(CactusOpsError) as err:
            parse(text)
        assert type(err.value) is error
        assert str(err.value).startswith(message)
        assert str(err.value).endswith(f" (line {line}, column {column})")
        if error is ParseError:
            assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_surjection, "", "expected '(', found end of input (line 1, column 1)"),
            (parse_element, "(1,2", "expected ')', found end of input (line 1, column 5)"),
            (parse_element, "2*", "expected '(', found end of input (line 1, column 3)"),
        ],
    )
    def test_missing_token_is_found_at_end_of_input(self, parse, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message

    def test_parse_peak_memory_is_a_small_multiple_of_the_text(self):
        # Values above 256 are each their own int object.  A token list with
        # a position per token peaked at about 60 times the text.
        n = 20000
        text = f"{Surjection(range(1, n + 1))} - {Surjection(range(n, 0, -1))}"
        tracemalloc.start()
        try:
            a = parse_element(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a.coefficient(Surjection(range(n, 0, -1))) == -1
        assert peak < 30 * len(text)


class TestSerialize:
    def test_symmetrized_product(self):
        assert str(a_infinity_image(2)) == "+(1,2) +(2,1)"

    def test_zero(self):
        assert str(Element.zero()) == "0"

    def test_table_row_in_canonical_order(self):
        assert str(word_image("bwb")) == "-(1,3,1,2,4,2) -(1,3,1,4,1,2)"

    def test_coefficients_spelled_only_when_not_unit(self):
        assert str(E(1, 2).scale(2) - E(2, 1)) == "+2*(1,2) -(2,1)"

    def test_values_of_256_and_more_print_in_tuple_order(self):
        # Values past the digit table, and keys that bytes() cannot hold.
        big = S(*range(1, 301))
        a = Element([(S(2, 1), -3), (big, 1)])
        big_text = "(" + ",".join(map(str, big.seq)) + ")"
        assert str(big) == big_text
        assert str(a) == "+" + big_text + " -3*(2,1)"
        assert parse_element(str(a)) == a
        assert parse_surjection(str(big)) == big

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

    def test_full_text(self):
        # Nodes in label order, then edges in pre-order with their arc.
        assert render_lobe_tree(S(1, 2, 1, 3, 4, 3, 1, 5, 1), "dot") == (
            "digraph cactus {\n"
            "  node [shape=circle];\n"
            "  1;\n  2;\n  3;\n  4;\n  5;\n"
            '  1 -> 2 [label="1"];\n'
            '  1 -> 3 [label="2"];\n'
            '  3 -> 4 [label="1"];\n'
            '  1 -> 5 [label="3"];\n'
            "}\n"
        )
        assert render_lobe_tree(S(2, 1, 3, 1), "dot") == (
            "digraph cactus {\n"
            "  node [shape=circle];\n"
            "  1;\n  2;\n  3;\n"
            '  2 -> 1 [label="1"];\n'
            '  1 -> 3 [label="1"];\n'
            "}\n"
        )

    def test_deterministic(self):
        u = S(2, 1, 3, 1)
        assert render_lobe_tree(u, "dot") == render_lobe_tree(u, "dot")


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
