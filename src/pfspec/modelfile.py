"""The model file format: a tiny line-oriented grammar for posets, monoids,
semirings and lattices.

    # comments run to end of line
    poset P { elements: a b c ; leq: a<=b b<=c }
    monoid M { elements: 1 a 0 ; unit: 1 ; mul: 1 a 0  a 0 0  0 0 0 }
    semiring R { elements: 0 1 ; zero: 0 ; one: 1 ;
                 add: 0 1 1 1 ; mul: 0 0 0 1 ; order: discrete }
    lattice L { poset: P }

Tables are row-major lists of element names; ``order`` is either the word
``discrete`` or the name of a declared poset.  Whitespace is free inside a
block; parsing is positional enough to report line/column on errors.
"""

from collections import namedtuple
from copy import copy

from .algebra import FiniteCommMonoid, FiniteCommSemiring
from .errors import DuplicateElement, NonTotalTable, ParseError, UnknownReference
from .order import build_poset, lattice_structure


class _Block:
    """A parsed block is a named tuple whose last field, ``line``, is where
    it starts; two blocks are equal when only their lines differ."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and self[:-1] == other[:-1]

    def __ne__(self, other):
        # else tuple's own != would compare the lines too
        return not self == other


# relations: pairs of names
class PosetBlock(_Block, namedtuple("PosetBlock", "name elements relations line", defaults=(0,))):
    __slots__ = ()


class MonoidBlock(_Block, namedtuple("MonoidBlock", "name elements unit mul line", defaults=(0,))):
    __slots__ = ()


class SemiringBlock(
    _Block,
    namedtuple("SemiringBlock", "name elements zero one add mul order line", defaults=("discrete", 0)),
):
    __slots__ = ()


class LatticeBlock(_Block, namedtuple("LatticeBlock", "name poset line", defaults=(0,))):
    __slots__ = ()


class ModelFile:
    __slots__ = ("blocks",)

    def __init__(self, blocks=()):
        self.blocks = list(blocks)

    def __eq__(self, other):
        return type(other) is ModelFile and self.blocks == other.blocks

    def get(self, name):
        for b in self.blocks:
            if b.name == name:
                return b
        raise UnknownReference(name)


class _Tokens:
    def __init__(self, text):
        self.items = []  # (token, line, column)
        for ln, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0]
            col = 0
            token = ""
            start = 0
            for col, ch in enumerate(body + " ", start=1):
                if ch.isspace() or ch in "{};":
                    if token:
                        self.items.append((token, ln, start))
                        token = ""
                    if ch in "{};":
                        self.items.append((ch, ln, col))
                else:
                    if not token:
                        start = col
                    token += ch
        self.pos = 0
        # end of file sits just past the last token
        self.end = (None, 1, 1)
        if self.items:
            token, ln, col = self.items[-1]
            self.end = (None, ln, col + len(token))

    def peek(self):
        if self.pos < len(self.items):
            return self.items[self.pos]
        return self.end

    def next(self, expect=None):
        token, ln, col = self.peek()
        if token is None:
            raise ParseError("unexpected end of file", ln, col)
        if expect is not None and token != expect:
            raise ParseError(f"expected {expect!r}, found {token!r}", ln, col)
        self.pos += 1
        return token, ln, col

    def done(self):
        return self.pos >= len(self.items)


# Each kind word names its block class and the keys of its blocks, in the
# order of the class's fields.  A key maps to ``list`` when it takes a list of
# values and to ``str`` when it takes one; an optional key maps to its
# default, of the same type as a value it is given.
BLOCK_KINDS = {
    "poset": (PosetBlock, {"elements": list, "leq": []}),
    "monoid": (MonoidBlock, {"elements": list, "unit": str, "mul": list}),
    "semiring": (
        SemiringBlock,
        {"elements": list, "zero": str, "one": str, "add": list, "mul": list, "order": "discrete"},
    ),
    "lattice": (LatticeBlock, {"poset": str}),
}


def parse_model_text(text):
    tokens = _Tokens(text)
    model = ModelFile()
    seen = set()
    while not tokens.done():
        kind, ln, col = tokens.next()
        if kind not in BLOCK_KINDS:
            raise ParseError(f"unknown block kind {kind!r}", ln, col)
        name, nln, ncol = tokens.next()
        if name in "{};":
            raise ParseError("missing block name", nln, ncol)
        if name in seen:
            raise ParseError(f"duplicate block name {name!r}", nln, ncol)
        seen.add(name)
        tokens.next("{")
        fields = {}
        while True:
            token, fln, fcol = tokens.next()
            if token == "}":
                break
            if token == ";":
                continue
            if not token.endswith(":"):
                raise ParseError(f"expected a key like 'elements:', found {token!r}", fln, fcol)
            key = token[:-1]
            if key not in BLOCK_KINDS[kind][1]:
                raise ParseError(f"unknown key {key!r} in {kind} block", fln, fcol)
            if key in fields:
                raise ParseError(f"duplicate key {key!r}", fln, fcol)
            items = []  # (value, line, column)
            while tokens.peek()[0] not in (";", "}", None):
                items.append(tokens.next())
            fields[key] = (items, fln, fcol)
        model.blocks.append(_build_block(kind, name, fields, ln))
    _resolve_references(model)
    return model


def _build_block(kind, name, fields, line):
    """The block of ``kind`` from its keys, each read in field order, so
    the first faulty key is the one reported."""
    cls, keys = BLOCK_KINDS[kind]
    values = []
    for key, spec in keys.items():
        if key not in fields:
            if isinstance(spec, type):
                raise ParseError(f"{kind} {name!r} is missing {key!r}", line, 1)
            values.append(copy(spec))
            continue
        items, kln, kcol = fields[key]
        if key == "leq":
            values.append([_relation(*item) for item in items])
        elif spec is str or isinstance(spec, str):
            if len(items) != 1:
                raise ParseError(f"{kind} {name!r}: {key!r} wants one value", kln, kcol)
            values.append(items[0][0])
        else:
            values.append([value for value, _, _ in items])
    return cls(name, *values, line)


def _relation(item, line, column):
    if "<=" not in item:
        raise ParseError(f"relation {item!r} is not of the form a<=b", line, column)
    return tuple(item.split("<=", 1))


def _resolve_references(model):
    posets = {b.name for b in model.blocks if isinstance(b, PosetBlock)}
    for block in model.blocks:
        if isinstance(block, SemiringBlock):
            if block.order != "discrete" and block.order not in posets:
                raise UnknownReference(block.order, block.line)
        if isinstance(block, LatticeBlock):
            if block.poset not in posets:
                raise UnknownReference(block.poset, block.line)
        if isinstance(block, (MonoidBlock, SemiringBlock)):
            known = set()
            for element in block.elements:
                if element in known:
                    raise DuplicateElement(f"duplicate element {element!r} in {block.name!r} (line {block.line})")
                known.add(element)
            if isinstance(block, MonoidBlock):
                used, tables = [block.unit], [("mul", block.mul)]
            else:
                used, tables = [block.zero, block.one], [("mul", block.mul), ("add", block.add)]
            n = len(block.elements)
            for tname, table in tables:
                if len(table) != n * n:
                    raise NonTotalTable(f"{block.name}.{tname}", n * n, len(table))
                used += table
            for name in used:
                if name not in known:
                    raise UnknownReference(name, block.line)
        if isinstance(block, PosetBlock):
            known = set(block.elements)
            for a, b in block.relations:
                if a not in known or b not in known:
                    raise UnknownReference(a if a not in known else b, block.line)


def parse_model(path):
    """Parse the model file at ``path``.  A file that is not UTF-8 raises
    ParseError naming the file and the line and column of its first bad
    byte, counted as the tokenizer counts them."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = (raw[: exc.start].decode("utf-8") + "?").splitlines()
        raise ParseError(f"{path}: byte 0x{raw[exc.start]:02x} is not UTF-8", len(lines), len(lines[-1])) from None
    return parse_model_text(text)


# ---------------------------------------------------------------------------
# realization into package structures


def realize(model, name):
    """The structure that block ``name`` declares: a ``FinitePoset``, a
    ``Lattice``, a ``FiniteCommMonoid``, or a ``(FiniteCommSemiring, order)``
    pair whose order is None when discrete and else the declared poset.
    Building it checks its laws.  Every name a block reads was resolved when
    the model was parsed."""

    def poset(name):
        block = model.get(name)
        return build_poset(block.elements, block.relations)

    block = model.get(name)
    if isinstance(block, PosetBlock):
        return poset(name)
    if isinstance(block, LatticeBlock):
        return lattice_structure(poset(block.poset))
    n = len(block.elements)
    index = {x: i for i, x in enumerate(block.elements)}

    def table(flat):
        return [[index[x] for x in flat[i : i + n]] for i in range(0, n * n, n)]

    if isinstance(block, MonoidBlock):
        return FiniteCommMonoid(block.elements, index[block.unit], table(block.mul))
    semiring = FiniteCommSemiring(
        block.elements, index[block.zero], index[block.one], table(block.add), table(block.mul)
    )
    return semiring, (None if block.order == "discrete" else poset(block.order))
