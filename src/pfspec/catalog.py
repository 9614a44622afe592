"""Named small structures: the lattices, monoids, semirings and quantales the
verification suites sweep over, plus exhaustive poset generation up to
isomorphism."""

from functools import cache

from .algebra import FiniteCommMonoid, build_discrete_semiring
from .iso import canonical_poset_code
from .order import FinitePoset, build_poset, lattice_structure
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
def antichain(n):
    return FinitePoset([f"p{i}" for i in range(n)], [1 << i for i in range(n)])


@cache
def powerset_lattice(n):
    names = [
        "{" + ",".join(str(i + 1) for i in range(n) if m >> i & 1) + "}"
        for m in range(1 << n)
    ]
    up = [
        sum(1 << m2 for m2 in range(1 << n) if m & m2 == m) for m in range(1 << n)
    ]
    return lattice_structure(FinitePoset(names, up))


@cache
def diamond_m3():
    return lattice_structure(
        build_poset(
            ["0", "x", "y", "z", "1"],
            [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")],
        )
    )


@cache
def pentagon_n5():
    return lattice_structure(
        build_poset(
            ["0", "a", "b", "c", "1"],
            [("0", "a"), ("a", "1"), ("0", "b"), ("b", "c"), ("c", "1")],
        )
    )


@cache
def grid(rows, cols):
    """Product of two chains, e.g. grid(2, 3) is the 2x3 distributive grid."""
    names = [f"({i},{j})" for i in range(rows) for j in range(cols)]
    pairs = []
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                pairs.append((f"({i},{j})", f"({i + 1},{j})"))
            if j + 1 < cols:
                pairs.append((f"({i},{j})", f"({i},{j + 1})"))
    return lattice_structure(build_poset(names, pairs))


@cache
def all_posets_up_to_iso(n):
    """All posets on n elements, one per isomorphism class.

    Every finite poset admits a topological labelling, so sweeping all
    subsets of the strict upper-triangular pairs and closing transitively
    reaches every class; canonical codes deduplicate.
    """
    names = [f"p{i}" for i in range(n)]
    if n == 0:
        return [FinitePoset([], [])]
    arcs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    out = []
    for mask in range(1 << len(arcs)):
        rel = [[False] * n for _ in range(n)]
        for k, (i, j) in enumerate(arcs):
            if mask >> k & 1:
                rel[i][j] = True
        for via in range(n):
            for a in range(n):
                if rel[a][via]:
                    for b in range(n):
                        if rel[via][b]:
                            rel[a][b] = True
        poset = FinitePoset(
            names,
            [
                (1 << i) | sum(1 << j for j in range(n) if rel[i][j])
                for i in range(n)
            ],
        )
        code = canonical_poset_code(poset)
        if code in seen:
            continue
        seen.add(code)
        out.append(poset)
    return out


# ---------------------------------------------------------------------------
# monoids


def _table_from_op(names, op):
    index = {x: i for i, x in enumerate(names)}
    return [[index[op(a, b)] for b in names] for a in names]


@cache
def monoid_catalog():
    """Commutative monoids of size at most 4 for the duality sweep."""
    entries = []
    entries.append(("trivial", FiniteCommMonoid(["1"], 0, [[0]])))
    entries.append(("Z2", FiniteCommMonoid(["1", "a"], 0, [[0, 1], [1, 0]])))
    entries.append(("Z3", FiniteCommMonoid(["1", "a", "b"], 0,
                                           [[0, 1, 2], [1, 2, 0], [2, 0, 1]])))
    # 1, a, 0 with a*a = 0
    entries.append(("nil2", FiniteCommMonoid(["1", "a", "0"], 0,
                                             [[0, 1, 2], [1, 2, 2], [2, 2, 2]])))
    # idempotent a: the 2-chain as a meet-monoid
    entries.append(("idem2", FiniteCommMonoid(["1", "a"], 0, [[0, 1], [1, 1]])))
    # 3-chain as a meet-monoid
    entries.append(("meetC3", FiniteCommMonoid(["1", "m", "0"], 0,
                                               [[0, 1, 2], [1, 1, 2], [2, 2, 2]])))
    # multiplicative monoid of Z/4
    names = ["0", "1", "2", "3"]
    entries.append(
        ("multZ4", FiniteCommMonoid(names, 1, _table_from_op(names, lambda a, b: str(int(a) * int(b) % 4))))
    )
    # 1, a, a^2, 0 with a^3 = 0
    entries.append(("nil3", FiniteCommMonoid(
        ["1", "a", "b", "0"], 0,
        [[0, 1, 2, 3], [1, 2, 3, 3], [2, 3, 3, 3], [3, 3, 3, 3]])))
    return entries


# ---------------------------------------------------------------------------
# semirings


def _mod_ring(n):
    names = [str(i) for i in range(n)]
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[(i * j) % n for j in range(n)] for i in range(n)]
    return build_discrete_semiring(names, 0, 1, add, mul)


def lattice_semiring(lat):
    """A bounded distributive lattice as a semiring: + is join, * is meet."""
    return build_discrete_semiring(
        lat.names, lat.bottom, lat.top, lat.join_t, lat.meet_t
    )


@cache
def semiring_catalog():
    """The discrete/Zariski acceptance catalog."""
    bool_names = ["0", "1"]
    boolean = build_discrete_semiring(
        bool_names, 0, 1, [[0, 1], [1, 1]], [[0, 0], [0, 1]]
    )
    z2z2_names = ["00", "01", "10", "11"]
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    add = [
        [pairs.index(((a + c) % 2, (b + d) % 2)) for (c, d) in pairs]
        for (a, b) in pairs
    ]
    mul = [
        [pairs.index((a * c % 2, b * d % 2)) for (c, d) in pairs]
        for (a, b) in pairs
    ]
    z2z2 = build_discrete_semiring(z2z2_names, 0, 3, add, mul)
    return [
        ("B", boolean),
        ("Z4", _mod_ring(4)),
        ("Z6", _mod_ring(6)),
        ("Z2xZ2", z2z2),
        ("C3lat", lattice_semiring(chain(3))),
    ]


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
