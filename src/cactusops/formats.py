"""Parsing, serialization, and rendering.

Text grammar (authoritative):

    ELEMENT := TERM+            (or the single token "0")
    TERM    := SIGN? (INT '*')? '(' INT (',' INT)* ')'
    SIGN    := '+' | '-'
    INT     := [0-9]+           (ASCII digits only)

with whitespace allowed between tokens.  A lone surjection may also be
written compactly as a digit string ("1312") when all its values are at
most 9.  Serialization emits terms in lexicographic order with explicit
signs and omits unit coefficients, so equal elements serialize equally.

JSON documents carry a top-level {"format": "cactus-v1"} marker.

Rejected input raises a ``CactusOpsError`` that names where it went wrong:
a ``ParseError`` in text (element text or JSON text that does not decode)
carries the line and column (but a JSON integer literal too long to
convert is named by its digit count alone), one in a JSON object names the
term or the top-level key, and a term that is not a valid surjection keeps its
validation error type with the term's position, "(line L, column C)" in
text or "term i" in JSON, appended.  A long token or value is quoted by
its first characters or entries and its length, a long integer by its
digit count (``errors._quote``).

Text is scanned lazily, one token of lookahead, and a position is an
offset into it, turned into a line and column only when an error is
raised: "\n" ends a line, every other code point ("\r" included) is one
column, and the end of input lies at the end of the last token.

Lobe trees render to graphviz DOT, to standalone SVG (one circle per
lobe, children tangent to their parent at angles set by the attachment
arc), or to an indented text outline.  Rendering is a deterministic
debugging aid; only tangency is guaranteed, not absence of overlaps.
"""

from __future__ import annotations

import json
import math
import re
from typing import Callable, Iterable, Union

from .cacti import LobeTree, lobe_tree
from .elements import Element
from .errors import CactusOpsError, ParseError, _quote
from .surjections import Surjection

__all__ = [
    "parse_surjection",
    "parse_element",
    "element_to_json",
    "element_from_json",
    "render_lobe_tree",
]

JSON_FORMAT = "cactus-v1"

# SVG geometry: root circle radius, child-to-parent radius ratio, stroke width.
ROOT_RADIUS = 60.0
CHILD_RATIO = 0.55
STROKE_WIDTH = 2.0

# Only ASCII digits make numbers; any other digit character is a parse error.
# finditer skips what no token matches, which is whitespace.
_DIGITS = re.compile(r"[0-9]+")
_TOKEN = re.compile(r"[+\-*(),]|[0-9]+|\S")


class _Tokens:
    """The tokens of text, scanned lazily with one lookahead match.  A
    position is an offset into text, turned into a line and column only
    for an error."""

    def __init__(self, text: str):
        self.text = text
        self.matches = _TOKEN.finditer(text)
        self.match = next(self.matches, None)

    def peek(self) -> str | None:
        return self.match and self.match.group()

    def offset(self) -> int:
        """The next token's offset; at end of input, the last token's end,
        which is where the trailing whitespace starts."""
        return self.match.start() if self.match else len(self.text.rstrip())

    def line_column(self, offset: int) -> tuple[int, int]:
        """offset as a 1-based line and column (see the module docstring)."""
        text = self.text
        return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)

    def error(self, message: str, offset: int | None = None) -> ParseError:
        return ParseError(message, *self.line_column(self.offset() if offset is None else offset))

    def take(self) -> str:
        match = self.match
        if match is None:
            raise self.error("unexpected end of input")
        self.match = next(self.matches, None)
        return match.group()

    def expect(self, want: str) -> None:
        tok = self.peek()
        if tok != want:
            found = "end of input" if tok is None else _quote(tok)
            raise self.error(f"expected {want!r}, found {found}")
        self.take()

    def place(self, offset: int) -> Callable[[], str]:
        """A function naming offset as "line L, column C", for ``_surjection``."""
        return lambda: "line %d, column %d" % self.line_column(offset)


def _parse_int(tokens: _Tokens) -> int:
    start = tokens.offset()
    tok = tokens.take()
    if not _DIGITS.fullmatch(tok):
        raise tokens.error(f"expected an integer, found {_quote(tok)}", start)
    try:
        return int(tok)
    except ValueError:  # more digits than int() converts
        raise tokens.error(f"integer of {len(tok)} digits is too long", start) from None


def _parse_paren_sequence(tokens: _Tokens) -> tuple[int, ...]:
    tokens.expect("(")
    values = [_parse_int(tokens)]
    while tokens.peek() == ",":
        tokens.take()
        values.append(_parse_int(tokens))
    tokens.expect(")")
    return tuple(values)


def _surjection(seq: Iterable[int], where: Callable[[], str]) -> Surjection:
    """Surjection(seq); a validation error keeps its type and gains ``where()``."""
    try:
        return Surjection(seq)
    except CactusOpsError as exc:
        exc.args = (f"{exc} ({where()})",)
        raise


def parse_surjection(text: str) -> Surjection:
    """Parse "(1,3,1,2)" or, when every value is a single digit, "1312"."""
    tokens = _Tokens(text)
    where = tokens.place(tokens.offset())
    stripped = text.strip()
    if _DIGITS.fullmatch(stripped):
        return _surjection(tuple(int(ch) for ch in stripped), where)
    seq = _parse_paren_sequence(tokens)
    if tokens.peek() is not None:
        raise tokens.error(f"trailing input {_quote(tokens.peek())}")
    return _surjection(seq, where)


def parse_element(text: str) -> Element:
    """Parse a signed sum of parenthesized surjections; "0" is the zero element."""
    tokens = _Tokens(text)
    if tokens.peek() is None:
        raise tokens.error("empty element")
    if tokens.peek() == "0":
        tokens.take()
        if tokens.peek() is not None:
            raise tokens.error(f"trailing input {_quote(tokens.peek())}")
        return Element.zero()
    terms: list[tuple[Surjection, int]] = []
    while tokens.peek() is not None:
        sign = 1
        if tokens.peek() in ("+", "-"):
            sign = -1 if tokens.take() == "-" else 1
        coeff = 1
        tok = tokens.peek()
        if tok is not None and _DIGITS.fullmatch(tok):
            coeff = _parse_int(tokens)
            tokens.expect("*")
        where = tokens.place(tokens.offset())
        seq = _parse_paren_sequence(tokens)
        terms.append((_surjection(seq, where), sign * coeff))
    return Element(terms)


def element_to_json(a: Element) -> dict:
    return {
        "format": JSON_FORMAT,
        "terms": [{"coeff": c, "seq": list(u.seq)} for u, c in a.terms()],
    }


def _json_int(text: str) -> int:
    # json.loads calls this for every integer literal, which has no position.
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        digits = len(text.lstrip("-"))
        raise ParseError(f"integer of {digits} digits is too long") from None


def element_from_json(doc: Union[dict, str]) -> Element:
    if isinstance(doc, str):
        try:
            doc = json.loads(doc, parse_int=_json_int)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None
    if not isinstance(doc, dict) or not isinstance(doc.get("terms"), list):
        raise ParseError("JSON element must be an object with a 'terms' list")
    fmt = doc.get("format", JSON_FORMAT)
    if fmt != JSON_FORMAT:
        raise ParseError(f"'format' must be {JSON_FORMAT!r}, got {_quote(fmt)}")
    terms = []
    for index, entry in enumerate(doc["terms"]):
        if not isinstance(entry, dict):
            raise ParseError(f"term {index} must be an object with 'coeff' and 'seq'")
        coeff, seq = entry.get("coeff"), entry.get("seq")
        if not isinstance(coeff, int) or isinstance(coeff, bool):
            raise ParseError(f"term {index}: 'coeff' must be an integer, got {_quote(coeff)}")
        if not isinstance(seq, list):
            raise ParseError(f"term {index}: 'seq' must be a list, got {_quote(seq)}")
        terms.append((_surjection(seq, lambda: f"term {index}"), coeff))
    return Element(terms)


def render_lobe_tree(u: Surjection, fmt: str) -> str:
    """Render the lobe tree of the cactus u as "dot", "svg" or "text"."""
    render = _RENDERERS.get(fmt)
    if render is None:
        raise ValueError(f"unknown render format {fmt!r}")
    return render(lobe_tree(u))


def _to_dot(tree: LobeTree) -> str:
    labels = [tree.label]
    edges: list[str] = []

    def walk(node: LobeTree) -> None:
        for slot, children in enumerate(node.slots, start=1):
            for child in children:
                labels.append(child.label)
                edges.append(f"  {node.label} -> {child.label} [label=\"{slot}\"];")
                walk(child)

    walk(tree)
    nodes = [f"  {label};" for label in sorted(labels)]
    return "\n".join(["digraph cactus {", "  node [shape=circle];", *nodes, *edges, "}"]) + "\n"


def _to_text(tree: LobeTree) -> str:
    lines: list[str] = []

    def walk(node: LobeTree, depth: int, via: str) -> None:
        arcs = "arc" if node.arcs == 1 else "arcs"
        lines.append(f"{'  ' * depth}{via}lobe {node.label} [{node.arcs} {arcs}]")
        for slot, children in enumerate(node.slots, start=1):
            for child in children:
                walk(child, depth + 1, f"after arc {slot}: ")

    walk(tree, 0, "")
    return "\n".join(lines) + "\n"


def _to_svg(tree: LobeTree) -> str:
    circles: list[tuple[float, float, float, int]] = []

    def place(node: LobeTree, cx: float, cy: float, radius: float, entry: float) -> None:
        circles.append((cx, cy, radius, node.label))
        child_radius = radius * CHILD_RATIO
        m = node.arcs
        for slot, children in enumerate(node.slots, start=1):
            count = len(children)
            for idx, child in enumerate(children):
                # attachment angle inside arc `slot`, anticlockwise from the
                # entry point; siblings in one slot are spread across the arc
                frac = (slot - 1 + (idx + 1) / (count + 1)) / m
                theta = entry + 2 * math.pi * frac
                dist = radius + child_radius
                place(
                    child,
                    cx + dist * math.cos(theta),
                    cy + dist * math.sin(theta),
                    child_radius,
                    theta + math.pi,
                )

    root_entry = math.pi / 2  # root point drawn at the bottom (SVG y grows down)
    place(tree, 0.0, 0.0, ROOT_RADIUS, root_entry)

    pad = ROOT_RADIUS * 0.25 + STROKE_WIDTH
    min_x = min(cx - r for cx, cy, r, _ in circles) - pad
    max_x = max(cx + r for cx, cy, r, _ in circles) + pad
    min_y = min(cy - r for cx, cy, r, _ in circles) - pad
    max_y = max(cy + r for cx, cy, r, _ in circles) + pad

    def fmt(x: float) -> str:
        return f"{x:.2f}"

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        (
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{fmt(min_x)} {fmt(min_y)} {fmt(max_x - min_x)} {fmt(max_y - min_y)}">'
        ),
    ]
    for cx, cy, r, label in circles:
        lines.append(
            f'  <circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="{fmt(r)}" '
            f'fill="none" stroke="black" stroke-width="{fmt(STROKE_WIDTH)}"/>'
        )
        lines.append(
            f'  <text x="{fmt(cx)}" y="{fmt(cy)}" text-anchor="middle" '
            f'dominant-baseline="central" font-size="{fmt(r * 0.6)}">{label}</text>'
        )
    # root marker: a small square at the root point, kept off the circle count
    rx, ry = 0.0, ROOT_RADIUS
    side = ROOT_RADIUS * 0.12
    lines.append(
        f'  <rect x="{fmt(rx - side / 2)}" y="{fmt(ry - side / 2)}" '
        f'width="{fmt(side)}" height="{fmt(side)}" fill="black"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


_RENDERERS = {"dot": _to_dot, "svg": _to_svg, "text": _to_text}
