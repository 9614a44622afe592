"""Model-file parse errors name the line and column of the fault."""

import pytest

from pfspec.errors import ParseError
from pfspec.modelfile import parse_model_text


@pytest.mark.parametrize(
    "text,message,line,column",
    [
        # end of file: the position just past the last token
        ("semiring R {\n  elements: 0 1;\n  zero: 0\n", "unexpected end of file", 3, 10),
        # a key with the wrong number of values: the key itself
        (
            "semiring R {\n  elements: 0 1;\n  zero: 0 1;\n one: 1; add: a; mul: b; }\n",
            "'zero' wants one value",
            3,
            3,
        ),
        # a malformed relation: the item itself
        ("poset P {\n elements: a b;\n leq: a<=b   ab;\n}\n", "'ab' is not of the form a<=b", 3, 14),
    ],
    ids=["end-of-file", "single-value-key", "relation-item"],
)
def test_parse_error_position(text, message, line, column):
    with pytest.raises(ParseError) as exc:
        parse_model_text(text)
    assert message in str(exc.value)
    assert (exc.value.line, exc.value.column) == (line, column)


def test_parse_error_position_of_an_empty_block_header():
    with pytest.raises(ParseError) as exc:
        parse_model_text("monoid")
    assert (exc.value.line, exc.value.column) == (1, 7)
