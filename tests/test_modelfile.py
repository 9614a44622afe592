"""Model-file parse errors name the line and column of the fault, and a
name that a block uses but does not declare, or declares twice.  Parsed
blocks compare equal whatever line they start on."""

import pytest

from pfspec.errors import DuplicateElement, ParseError, UnknownReference
from pfspec.modelfile import BLOCK_KINDS, LatticeBlock, ModelFile, PosetBlock, SemiringBlock, parse_model_text


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


# a well-formed block of each kind, its keys in field order
WELL_FORMED = {
    "poset": {"elements": "a b", "leq": "a<=b"},
    "monoid": {"elements": "1 a", "unit": "1", "mul": "1 a  a 1"},
    "semiring": {"elements": "0 1", "zero": "0", "one": "1", "add": "0 1 1 0", "mul": "0 0 0 1", "order": "discrete"},
    "lattice": {"poset": "P"},
}
OPTIONAL = {"leq", "order"}
SINGLE = {"unit", "zero", "one", "order", "poset"}


def _block_text(kind, keys):
    """Block X of ``kind`` on line 2, under a comment."""
    body = " ; ".join(f"{key}: {value}" for key, value in keys.items())
    return f"# one block\n{kind} X {{ {body} }}\n"


def test_the_block_table_holds_each_kind_and_its_keys_in_field_order():
    assert {kind: list(keys) for kind, (_, keys) in BLOCK_KINDS.items()} == {
        kind: list(keys) for kind, keys in WELL_FORMED.items()
    }
    for cls, keys in BLOCK_KINDS.values():
        assert len(cls._fields) == len(keys) + 2  # the name, the keys, the line


@pytest.mark.parametrize(
    "kind,key",
    [(kind, key) for kind, keys in WELL_FORMED.items() for key in keys if key not in OPTIONAL],
)
def test_a_missing_required_key_is_reported_at_the_block(kind, key):
    keys = {k: v for k, v in WELL_FORMED[kind].items() if k != key}
    with pytest.raises(ParseError) as exc:
        parse_model_text(_block_text(kind, keys))
    assert f"{kind} 'X' is missing '{key}'" in str(exc.value)
    assert (exc.value.line, exc.value.column) == (2, 1)


@pytest.mark.parametrize(
    "kind,key",
    [(kind, key) for kind, keys in WELL_FORMED.items() for key in keys if key in SINGLE],
)
def test_a_single_valued_key_given_two_values_is_reported_at_the_key(kind, key):
    keys = dict(WELL_FORMED[kind])
    keys[key] += " " + keys[key]
    text = _block_text(kind, keys)
    with pytest.raises(ParseError) as exc:
        parse_model_text(text)
    assert f"{kind} 'X': '{key}' wants one value" in str(exc.value)
    assert (exc.value.line, exc.value.column) == (2, text.splitlines()[1].index(f"{key}:") + 1)


def test_an_optional_key_left_out_takes_its_default():
    model = parse_model_text(
        "poset P { elements: a }\nposet Q { elements: b }\n"
        "semiring R { elements: 0 1 ; zero: 0 ; one: 1 ; add: 0 1 1 0 ; mul: 0 0 0 1 }\n"
    )
    p, q, r = model.blocks
    assert p.relations == q.relations == [] and p.relations is not q.relations
    assert r.order == "discrete"


def test_the_first_faulty_key_in_field_order_is_reported():
    # 'elements' comes before 'order', wherever either is written
    text = "semiring R { order: P Q ; zero: 0 ; one: 1 ; add: 0 1 1 0 ; mul: 0 0 0 1 }\n"
    with pytest.raises(ParseError) as exc:
        parse_model_text(text)
    assert "semiring 'R' is missing 'elements'" in str(exc.value)
    assert (exc.value.line, exc.value.column) == (1, 1)


def test_parse_error_position_of_an_empty_block_header():
    with pytest.raises(ParseError) as exc:
        parse_model_text("monoid")
    assert (exc.value.line, exc.value.column) == (1, 7)


@pytest.mark.parametrize(
    "text,name",
    [
        ("monoid M { elements: 1 a ; unit: z ; mul: 1 a  a 1 }", "z"),
        ("semiring R { elements: 0 1 ; zero: z ; one: 1 ; add: 0 1 1 1 ; mul: 0 0 0 1 }", "z"),
        ("semiring R { elements: 0 1 ; zero: 0 ; one: u ; add: 0 1 1 1 ; mul: 0 0 0 1 }", "u"),
    ],
    ids=["monoid-unit", "semiring-zero", "semiring-one"],
)
def test_undeclared_unit_is_an_unknown_reference(text, name):
    with pytest.raises(UnknownReference) as exc:
        parse_model_text(text)
    assert exc.value.name == name


@pytest.mark.parametrize(
    "text",
    [
        "monoid M { elements: 1 a a ; unit: 1 ; mul: 1 a a  a 1 1  a 1 1 }",
        "semiring R { elements: 0 1 a a ; zero: 0 ; one: 1 ; "
        "add: 0 1 a a  1 1 1 1  a 1 a a  a 1 a a ; mul: 0 0 0 0  0 1 a a  0 a a a  0 a a a }",
    ],
    ids=["monoid", "semiring"],
)
def test_repeated_element_is_rejected_by_name(text):
    with pytest.raises(DuplicateElement) as exc:
        parse_model_text(text)
    assert "duplicate element 'a'" in str(exc.value)


def test_blocks_equal_when_only_the_line_differs():
    z2 = SemiringBlock("Z2", ["0", "1"], "0", "1", ["0", "1", "1", "0"], ["0", "0", "0", "1"], line=3)
    assert z2 == z2._replace(line=7) and not z2 != z2._replace(line=7)
    for field, other in [
        ("name", "Z2b"),
        ("elements", ["1", "0"]),
        ("zero", "1"),
        ("one", "0"),
        ("add", ["0", "1", "1", "1"]),
        ("mul", ["0", "0", "0", "0"]),
        ("order", "P"),
    ]:
        changed = z2._replace(**{field: other})
        assert z2 != changed and not z2 == changed, field
    # blocks of other kinds, and plain tuples, are never equal to a block
    assert LatticeBlock("L", "P", 1) != PosetBlock("L", "P", 1)
    assert LatticeBlock("L", "P", 1) != ("L", "P", 1) and ("L", "P", 1) != LatticeBlock("L", "P", 1)


def test_parsed_models_equal_when_only_the_lines_differ():
    text = "poset P { elements: a b ; leq: a<=b }\nlattice L { poset: P }\n"
    model = parse_model_text(text)
    assert [b.line for b in model.blocks] == [1, 2]
    assert parse_model_text("\n\n" + text) == model
    assert parse_model_text(text.replace("lattice L", "lattice M")) != model


def test_each_model_owns_its_block_list():
    assert ModelFile().blocks == [] and ModelFile().blocks is not ModelFile().blocks
