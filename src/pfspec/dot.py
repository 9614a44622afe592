"""DOT export of Hasse diagrams.

One node per element (labelled with its canonical name), one edge per
covering pair, rankdir=BT so diagrams read bottom-up.  Output is byte-stable
for identical inputs: nodes in element order, edges in (lower, upper) index
order.
"""


def _quote(name):
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def hasse_dot(poset, graph_name="hasse", marked=None):
    """Hasse diagram of ``poset``, with the element ``marked``, if any,
    drawn with a double border."""
    lines = [f"digraph {_quote(graph_name)} {{", "  rankdir=BT;"]
    for i, name in enumerate(poset.names):
        extra = ", peripheries=2" if i == marked else ""
        lines.append(f"  n{i} [label={_quote(name)}{extra}];")
    for i, j in poset.covers():
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def quantale_dot(quantale, graph_name="quantale"):
    """Hasse diagram of the carrier with the unit marked."""
    return hasse_dot(quantale.carrier, graph_name, quantale.unit)
