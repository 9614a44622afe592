"""Seeded benchmark inputs as plain Python data.

Nothing here imports pfspec: the same tables feed the package (through its
public constructors, in ``workloads.py``) and the independent answer checks
(``checks.py``).

A semiring is a ``Semiring`` tuple of element names, zero and one indices,
full addition and multiplication tables, and n when it is Z/n (else None).  A lattice is a ``Poset`` tuple of
element names and ``up`` bitmasks (``up[i]`` = elements >= i, reflexive).
"""

import random
from collections import namedtuple

Semiring = namedtuple("Semiring", "label names zero one add mul modulus")
Poset = namedtuple("Poset", "label names up")


# ---------------------------------------------------------------------------
# semirings


def mod_ring(n):
    return Semiring(
        f"Z{n}",
        [str(i) for i in range(n)],
        0,
        1 % n,
        [[(a + b) % n for b in range(n)] for a in range(n)],
        [[(a * b) % n for b in range(n)] for a in range(n)],
        n,
    )


def truncated_nat(n):
    """{0, ..., n-1} with + and * saturating at n-1."""
    top = n - 1
    return Semiring(
        f"N{n}",
        [str(i) for i in range(n)],
        0,
        1,
        [[min(a + b, top) for b in range(n)] for a in range(n)],
        [[min(a * b, top) for b in range(n)] for a in range(n)],
        None,
    )


def chain_semiring(n):
    """The n-chain as a lattice semiring: + is max, * is min."""
    return Semiring(
        f"C{n}",
        [str(i) for i in range(n)],
        0,
        n - 1,
        [[max(a, b) for b in range(n)] for a in range(n)],
        [[min(a, b) for b in range(n)] for a in range(n)],
        None,
    )


def product(r, s):
    """Componentwise product semiring; element (i, j) has index i*|s| + j."""
    m = len(s.names)
    size = len(r.names) * m

    def split(k):
        return divmod(k, m)

    def table(rt, st):
        out = []
        for a in range(size):
            ai, aj = split(a)
            out.append([rt[ai][bi] * m + st[aj][bj] for bi, bj in map(split, range(size))])
        return out

    return Semiring(
        f"{r.label}x{s.label}",
        [f"({x},{y})" for x in r.names for y in s.names],
        r.zero * m + s.zero,
        r.one * m + s.one,
        table(r.add, s.add),
        table(r.mul, s.mul),
        None,
    )


def relabel(s, perm):
    """The same semiring with element ``k`` moved to index ``perm[k]``."""
    n = len(s.names)
    inv = [0] * n
    for k, p in enumerate(perm):
        inv[p] = k
    names = [s.names[inv[p]] for p in range(n)]

    def table(t):
        return [[perm[t[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]

    return s._replace(
        names=names,
        zero=perm[s.zero],
        one=perm[s.one],
        add=table(s.add),
        mul=table(s.mul),
    )


def shuffled(rng, s):
    perm = list(range(len(s.names)))
    rng.shuffle(perm)
    return relabel(s, perm)


# factor families by size: small rings, the Boolean semiring (= C2),
# chain lattice semirings and truncated naturals
_FACTORS = {
    2: [lambda: mod_ring(2), lambda: chain_semiring(2)],
    3: [lambda: mod_ring(3), lambda: chain_semiring(3), lambda: truncated_nat(3)],
    4: [lambda: mod_ring(4), lambda: chain_semiring(4), lambda: truncated_nat(4)],
    8: [lambda: chain_semiring(8), lambda: truncated_nat(8)],
    9: [lambda: chain_semiring(9), lambda: truncated_nat(9)],
}
_SHAPES = {8: [(8,), (2, 4), (2, 2, 2)], 9: [(9,), (3, 3)]}


def random_semiring(rng, size):
    shape = rng.choice(_SHAPES[size])
    factors = [rng.choice(_FACTORS[k])() for k in shape]
    out = factors[0]
    for f in factors[1:]:
        out = product(out, f)
    return out


# sizes of the seeded draws on zariski-ladder, fixed so that every seed does
# the same amount of down-set work (it grows with 2**size).  With Z/6 .. Z/10
# the ten jobs sort as Z6, Z7 < five 8-element jobs < Z9, draw4 < Z10, so the
# median job falls in the middle of the 8-element group on every seed.
LADDER_DRAW_SIZES = (8, 8, 8, 8, 9)


def ladder_inputs(seed):
    """Z/6 .. Z/10 and seeded 8- and 9-element products, all relabelled."""
    rng = random.Random(f"zariski-ladder/{seed}")
    fixed = [mod_ring(n) for n in range(6, 11)]
    drawn = []
    for k, size in enumerate(LADDER_DRAW_SIZES):
        s = random_semiring(rng, size)
        drawn.append(s._replace(label=f"draw{k}-{s.label}"))
    return [shuffled(rng, s) for s in fixed + drawn]


def representability_rings(seed):
    rng = random.Random(f"representability/{seed}")
    return [shuffled(rng, mod_ring(n)) for n in (4, 5, 6, 8)]


# ---------------------------------------------------------------------------
# posets and lattices


def poset_from_leq(label, names, leq):
    n = len(names)
    return Poset(label, list(names), [sum(1 << j for j in range(n) if leq(i, j)) for i in range(n)])


def chain(n):
    return poset_from_leq(f"chain{n}", [str(i) for i in range(n)], lambda i, j: i <= j)


def grid(rows, cols):
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    return poset_from_leq(
        f"grid{rows}x{cols}",
        [f"({i},{j})" for i, j in cells],
        lambda a, b: cells[a][0] <= cells[b][0] and cells[a][1] <= cells[b][1],
    )


def powerset(n):
    return poset_from_leq(
        f"P{n}",
        ["{" + ",".join(str(i) for i in range(n) if m >> i & 1) + "}" for m in range(1 << n)],
        lambda a, b: a & b == a,
    )


def down_sets(up):
    """All down-sets of the poset with up-masks ``up``, as bitmasks."""
    n = len(up)
    down = [sum(1 << k for k in range(n) if up[k] >> i & 1) for i in range(n)]
    return [
        mask
        for mask in range(1 << n)
        if all(down[i] & ~mask == 0 for i in range(n) if mask >> i & 1)
    ]


def antichain_count(p):
    """Number of antichains of ``p`` = number of its up-sets."""
    n = len(p.names)
    count = 0
    for mask in range(1 << n):
        if all(p.up[i] & mask == 1 << i for i in range(n) if mask >> i & 1):
            count += 1
    return count


def random_poset_up(rng, n, p):
    """Random order on n points: arcs i < j with probability p, closed."""
    up = [1 << i for i in range(n)]
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if rng.random() < p:
                up[i] |= up[j]
    return up


def downset_lattice(label, up):
    masks = down_sets(up)
    return poset_from_leq(
        label,
        ["{" + ",".join(str(i) for i in range(len(up)) if m >> i & 1) + "}" for m in masks],
        lambda a, b: masks[a] & masks[b] == masks[a],
    )


# seeded draws on scott-frames: down-set lattices of random 5-point posets,
# kept when the lattice has 12..13 elements and 30..45 Scott-open sets.  The
# opens drive the cost, so the band keeps every seed's draws within about
# 1.5x of each other in cost; unbounded, one 16-element Boolean lattice costs
# as much as P4 and a 14-element one with 61 opens twice a 12-element draw.
SCOTT_DRAWS = 6
SCOTT_DRAW_SIZE = (12, 13)
SCOTT_DRAW_OPENS = (30, 45)


def random_scott_lattice(rng, label):
    while True:
        up = random_poset_up(rng, 5, rng.choice((0.2, 0.35, 0.5)))
        lat = downset_lattice(label, up)
        if not SCOTT_DRAW_SIZE[0] <= len(lat.names) <= SCOTT_DRAW_SIZE[1]:
            continue
        if SCOTT_DRAW_OPENS[0] <= antichain_count(lat) <= SCOTT_DRAW_OPENS[1]:
            return lat


def scott_inputs(seed):
    rng = random.Random(f"scott-frames/{seed}")
    fixed = [powerset(3), powerset(4), grid(4, 4), grid(2, 8), chain(16)]
    return fixed + [random_scott_lattice(rng, f"draw{k}") for k in range(SCOTT_DRAWS)]


def representability_lattices():
    return [chain(5), chain(6), grid(2, 3)]


# the frames of the package's quantale catalog, by catalog name, as orders
CATALOG_FRAMES = {
    "Omega": chain(2),
    "C3frame": chain(3),
    "C4frame": chain(4),
    "C5frame": chain(5),
    "P2frame": powerset(2),
}
