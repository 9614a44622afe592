"""Named small structures: the quantale catalog that representability
sweeps over, and the chains and powerset lattices it is built on.  The
fixtures that only the tests use live in ``tests/reference.py``."""

from functools import cache

from .order import Lattice, build_poset, inclusion_up_sets, lattice_structure
from .quantale import Quantale, frame_quantale
from .suplattice import omega


# ---------------------------------------------------------------------------
# posets and lattices


@cache
def chain(n):
    if n == 3:
        names = ["0", "m", "1"]
    elif n <= 2:
        names = ["0", "1"][:n]
    else:
        names = ["0"] + [f"m{i}" for i in range(1, n - 1)] + ["1"]
    pairs = [(names[i], names[i + 1]) for i in range(n - 1)]
    return lattice_structure(build_poset(names, pairs))


@cache
def powerset_lattice(n):
    names = [
        "{" + ",".join(str(i + 1) for i in range(n) if m >> i & 1) + "}"
        for m in range(1 << n)
    ]
    return Lattice(names, inclusion_up_sets(range(1 << n)))


# ---------------------------------------------------------------------------
# quantales


@cache
def quantale_catalog():
    """Two-sided quantales of size at most 5: five frames and three
    non-idempotent chain quantales (the ideal quantales of Z/4, Z/8, Z/16)."""
    entries = [
        ("Omega", frame_quantale(omega())),
        ("C3frame", frame_quantale(chain(3))),
        ("C4frame", frame_quantale(chain(4))),
        ("C5frame", frame_quantale(chain(5))),
        ("P2frame", frame_quantale(powerset_lattice(2))),
    ]
    c3 = chain(3)
    entries.append(("nilC3", Quantale(c3, [[0, 0, 0], [0, 0, 1], [0, 1, 2]], 2)))
    c4 = chain(4)
    # 0 < a < b < 1 with b*b = a, a*b = a*a = 0
    entries.append(
        ("nilC4", Quantale(c4, [[0, 0, 0, 0],
                                [0, 0, 0, 1],
                                [0, 0, 1, 2],
                                [0, 1, 2, 3]], 3))
    )
    c5 = chain(5)
    # 0 < a < b < c < 1 with c*c = b, c*b = a, the rest collapsing to 0
    entries.append(
        ("nilC5", Quantale(c5, [[0, 0, 0, 0, 0],
                                [0, 0, 0, 0, 1],
                                [0, 0, 0, 1, 2],
                                [0, 0, 1, 2, 3],
                                [0, 1, 2, 3, 4]], 4))
    )
    return entries
