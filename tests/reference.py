"""Shared test fixtures, lemma checks and brute-force oracles.

The package holds the spectrum pipeline and the command line around it; a
definition that only tests reach lives here instead (``test_hygiene`` fails
on any package definition that nothing but the tests names).  This module
holds:

* fixtures: named small lattices and posets, every poset up to isomorphism,
  the monoid and semiring catalogs, and two rings with nilpotents;
* checks of the lemmas in the category of suplattices that the paper relies
  on: the locale coproduct is the suplattice tensor, the overt weakly closed
  (OWC) sublocales are the SupMaps opens -> Omega, adjoints of join- and
  meet-preserving maps, and the tensor is a functor with its universal
  property;
* brute-force oracles: way-below over directed subsets, totally-below over
  all subsets, every SupMap over all assignments to the join-irreducibles,
  the pair-by-pair lift of a point operation to down-sets, and the
  pointwise dualisability bound over every down-set;
* the quotient of a quantale by the congruence that pairs generate;
* the prime anti-ideal laws and the quantale hom laws with none omitted,
  the universal element's check and the ideal predicate by their full
  scans, the least ideal over a set of holoid classes by a fixpoint loop,
  and the ideals listed by NextClosure over that loop;
* the law checks of a built input (semiring laws, monotone tables, lattice
  tables, distributivity) as scans over every element, pair and triple, and
  the lattice of a family of masks with its tables read off the family;
* the canonical printer of the model-file grammar, and a runner for scripts
  under ``python -O``.

Each check raises ``LawViolation`` (or another ``PfspecError``) with a
witness, never a bare ``assert``, so it also holds under ``python -O``.  The
name does not start with ``test_``, so pytest does not collect it; test
modules import it and never each other.
"""

import os
import subprocess
import sys
from functools import cache
from itertools import combinations_with_replacement, permutations, product
from pathlib import Path

from pfspec.algebra import FiniteCommMonoid, _absorb, build_discrete_semiring, lattice_semiring
from pfspec.caps import DEFAULT_CAPS
from pfspec.catalog import chain
from pfspec.errors import (
    CapExceeded,
    DuplicateElement,
    LawViolation,
    NotALattice,
    NotJoinPreserving,
    NotMonotone,
    PfspecError,
)
from pfspec.locale import FiniteLocale
from pfspec.modelfile import LatticeBlock, MonoidBlock, PosetBlock, SemiringBlock
from pfspec.order import (
    FinitePoset,
    Lattice,
    MonotoneMap,
    bits,
    build_poset,
    downset_lattice,
    lattice_structure,
)
from pfspec.quantale import least_nucleus, quotient_by_nucleus
from pfspec.spectrum import saturation
from pfspec.suplattice import (
    OMEGA_FALSE,
    OMEGA_TRUE,
    SupMap,
    TensorElement,
    dual,
    j_evaluator,
    join_witness,
    omega,
    tensor,
)

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


# ---------------------------------------------------------------------------
# posets and lattices


@cache
def antichain(n):
    return FinitePoset([f"p{i}" for i in range(n)], [1 << i for i in range(n)])


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


def poset_product(left, right):
    """Componentwise-ordered product; index of (i, j) is i*right.n + j."""
    names = tuple(f"({a},{b})" for a in left.names for b in right.names)
    up = []
    for i in range(left.n):
        for j in range(right.n):
            mask = 0
            for i2 in bits(left.up[i]):
                for j2 in bits(right.up[j]):
                    mask |= 1 << (i2 * right.n + j2)
            up.append(mask)
    return FinitePoset(names, up)


def canonical_poset_code(poset):
    """A permutation-invariant encoding of the order relation (small n only)."""
    best = None
    idx = range(poset.n)
    for perm in permutations(idx):
        code = 0
        bit = 0
        for a in idx:
            for b in idx:
                if poset.leq(perm[a], perm[b]):
                    code |= 1 << bit
                bit += 1
        if best is None or code < best:
            best = code
    return best


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
            [(1 << i) | sum(1 << j for j in range(n) if rel[i][j]) for i in range(n)],
        )
        code = canonical_poset_code(poset)
        if code in seen:
            continue
        seen.add(code)
        out.append(poset)
    return out


def bounded(poset):
    """``poset`` with a new bottom and top added."""
    n = poset.n
    up = [poset.full | 1 << n | 1 << n + 1] + [m << 1 | 1 << n + 1 for m in poset.up] + [1 << n + 1]
    return FinitePoset(["bot", *poset.names, "top"], up)


@cache
def small_lattices(most):
    """Every lattice on 2 to ``most`` elements, one per isomorphism class:
    a finite lattice is its bottom and top around an arbitrary poset, so
    these are the bounded posets of ``all_posets_up_to_iso`` that are
    lattices."""
    out = []
    for n in range(most - 1):
        for poset in all_posets_up_to_iso(n):
            try:
                out.append(lattice_structure(bounded(poset)))
            except NotALattice:
                continue
    return out


# ---------------------------------------------------------------------------
# monoids and semirings


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


def _mod_ring(n):
    names = [str(i) for i in range(n)]
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[(i * j) % n for j in range(n)] for i in range(n)]
    return build_discrete_semiring(names, 0, 1, add, mul)


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


def dual_numbers_of_the_plane():
    """F2[x,y]/(x,y)^2, the element a + bx + cy as the bits a, b, c: its
    ideals are 0, the three lines of (x,y), (x,y) itself and the ring, so
    Idl(R) is M3 below a top, not distributive."""
    names = ["0", "1", "x", "1+x", "y", "1+y", "x+y", "1+x+y"]
    add = [[a ^ b for b in range(8)] for a in range(8)]
    mul = [[(a & b & 1) | (a & 1) * (b & 6) ^ (b & 1) * (a & 6) for b in range(8)] for a in range(8)]
    return build_discrete_semiring(names, 0, 1, add, mul)


def plane_modulo_cubes():
    """F2[x,y]/(x,y)^3, an element as the bits of its monomials 1, x, y,
    x^2, xy, y^2 (bit k for the k-th); the square of (x,y) is
    (x^2, xy, y^2), which is no union of principal ideals."""
    monomials = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    labels = ["1", "x", "y", "x2", "xy", "y2"]

    def mul(a, b):
        out = 0
        for i, j in product(bits(a), bits(b)):
            m = (monomials[i][0] + monomials[j][0], monomials[i][1] + monomials[j][1])
            out ^= 1 << monomials.index(m) if m in monomials else 0
        return out

    names = ["+".join(labels[k] for k in bits(a)) or "0" for a in range(64)]
    add = [[a ^ b for b in range(64)] for a in range(64)]
    return build_discrete_semiring(names, 0, 1, add, [[mul(a, b) for b in range(64)] for a in range(64)])


# ---------------------------------------------------------------------------
# adjoints


class NoAdjoint(PfspecError):
    def __init__(self, side, witness):
        self.side = side
        self.witness = witness
        super().__init__(f"no {side} adjoint: preservation fails at {witness}")


def adjoints(f, side):
    """The right adjoint of a join-preserving map, or the left adjoint of a
    meet-preserving one.

    ``g = adjoints(f, "right")`` satisfies f(a) <= b iff a <= g(b); it is
    computed as g(b) = join of {a : f(a) <= b} and the adjunction law is
    re-verified before returning.  NoAdjoint (with a witness) signals that f
    fails the preservation the requested side needs.
    """
    src, tgt = f.source, f.target
    if not isinstance(src, Lattice) or not isinstance(tgt, Lattice):
        raise TypeError("adjoints requires lattice source and target")
    if side == "right":
        if f(src.bottom) != tgt.bottom:
            raise NoAdjoint("right", "empty join")
        for a, b in product(range(src.n), repeat=2):
            if f(src.join(a, b)) != tgt.join(f(a), f(b)):
                raise NoAdjoint("right", (src.names[a], src.names[b]))
        values = [
            src.join_iter(a for a in range(src.n) if tgt.leq(f(a), b))
            for b in range(tgt.n)
        ]
        g = MonotoneMap(tgt, src, values)
        for a, b in product(range(src.n), range(tgt.n)):
            if tgt.leq(f(a), b) != src.leq(a, g(b)):
                raise LawViolation("f(a) <= b iff a <= g(b)", (src.names[a], tgt.names[b]))
        return g
    if side == "left":
        if f(src.top) != tgt.top:
            raise NoAdjoint("left", "empty meet")
        for a, b in product(range(src.n), repeat=2):
            if f(src.meet(a, b)) != tgt.meet(f(a), f(b)):
                raise NoAdjoint("left", (src.names[a], src.names[b]))
        values = [
            src.meet_iter(a for a in range(src.n) if tgt.leq(b, f(a)))
            for b in range(tgt.n)
        ]
        g = MonotoneMap(tgt, src, values)
        for a, b in product(range(src.n), range(tgt.n)):
            if tgt.leq(b, f(a)) != src.leq(g(b), a):
                raise LawViolation("b <= f(a) iff g(b) <= a", (src.names[a], tgt.names[b]))
        return g
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


# ---------------------------------------------------------------------------
# tensor lattices


def pure(t, tup):
    """Index in the tensor lattice ``t`` of the pure tensor of ``tup``."""
    return t.mask_index[t.space.closure(1 << t.space.index_of(tup))]


def as_map(elem):
    """For two factors: the fiber-top vector of a TensorElement, index in
    factor 0 -> join (in factor 1) of the fiber; determines the element."""
    if len(elem.space.factors) != 2:
        raise LawViolation("fiber-top vector needs two factors", len(elem.space.factors))
    return tuple(elem.fiber_join(1, (a,)) for a in range(elem.space.sizes[0]))


def induce(t, fn, target):
    """The unique SupMap from the tensor lattice ``t`` with
    induce(fn) o pure = fn, for ``fn`` a multilinear map given on index
    tuples.  Multilinearity and the universal property are verified."""
    space = t.space
    for k, lat in enumerate(space.factors):
        others = [range(s) for s in space.sizes]
        others[k] = [0]
        for rest in product(*others):
            tup = list(rest)
            tup[k] = lat.bottom
            if fn(tuple(tup)) != target.bottom:
                raise NotJoinPreserving(("multilinear", tuple(tup)))
        for tup in product(*(range(s) for s in space.sizes)):
            for b in range(space.sizes[k]):
                tj = list(tup)
                tj[k] = lat.join(tup[k], b)
                tb = list(tup)
                tb[k] = b
                if fn(tuple(tj)) != target.join(fn(tup), fn(tuple(tb))):
                    raise NotJoinPreserving(("multilinear", tup, b))
    values = [
        target.join_iter(fn(space.tuple_of(i)) for i in bits(m))
        for m in t.element_masks
    ]
    out = SupMap(t, target, values)
    for tup in product(*(range(s) for s in space.sizes)):
        if out(pure(t, tup)) != fn(tup):
            raise LawViolation("universal property of the tensor", tup)
    return out


def tensor_map(maps, source, target):
    """The SupMap between materialized tensor lattices induced by a tuple of
    SupMaps acting coordinatewise (functoriality of the tensor)."""
    fns = [m.values.__getitem__ for m in maps]
    values = []
    for mask in source.element_masks:
        elem = TensorElement(source.space, mask).map_through(fns, target.space)
        values.append(target.mask_index[elem.mask])
    return SupMap(source, target, values)


def totally_below_exhaustive(lat, caps=DEFAULT_CAPS):
    """Brute-force totally-below over all 2**n subsets (capped): rel[b] is
    the bitmask of a with a <<< b, read as every subset whose join is at
    least b reaching up to a."""
    if 1 << lat.n > caps.search_budget():
        raise CapExceeded("subset enumeration", 1 << lat.n, caps.search_budget())
    rel = [lat.full for _ in range(lat.n)]
    for s in range(1 << lat.n):
        j = lat.join_mask(s)
        reached = lat.down_closure(s)
        for b in bits(lat.down[j]):
            rel[b] &= reached
    return tuple(rel)


def literal_supmaps(source, target, caps=DEFAULT_CAPS):
    """Every SupMap source -> target, deduplicated, in canonical value order,
    the long way: each of the target.n**|J| assignments to the
    join-irreducibles J is extended by joins over the J below each element
    and kept when the extension preserves joins (``join_witness``), which
    it need not when the source is not distributive."""
    ji = source.join_irreducibles()
    total = target.n ** len(ji)
    if total > caps.search_budget():
        raise CapExceeded("supmap enumeration", total, caps.search_budget())
    seen = set()
    for assignment in product(range(target.n), repeat=len(ji)):
        values = tuple(
            target.join_iter(assignment[k] for k, p in enumerate(ji) if source.leq(p, a))
            for a in range(source.n)
        )
        if values not in seen and join_witness(source, target, values) is None:
            seen.add(values)
    return [SupMap(source, target, v) for v in sorted(seen)]


# ---------------------------------------------------------------------------
# locales: maps, coproducts, OWC sublocales, way-below


class LocaleMap:
    """A locale map source -> target, i.e. a monotone map of point posets;
    the corresponding frame map is the preimage on opens."""

    def __init__(self, source, target, values):
        self.source = source
        self.target = target
        self.point_map = MonotoneMap(source.points, target.points, values)

    def frame_map(self):
        values = []
        for m in self.target.open_masks:
            pre = 0
            for x in range(self.source.points.n):
                if m >> self.point_map(x) & 1:
                    pre |= 1 << x
            values.append(self.source.open_index[pre])
        return SupMap(self.target.opens, self.source.opens, values)


def coproduct(x, y, caps=DEFAULT_CAPS):
    """The locale coproduct-of-frames X (+) Y: points form the product poset.

    Returns (locale, iota1, iota2, iota1_lower) with the coproduct
    injections and the left adjoint of iota1.  The opens are verified
    isomorphic to the suplattice tensor of the factor opens (pure tensors
    matching iota1(a) /\\ iota2(b)) and iota1_lower is verified equal to
    (id (x) positivity) composed with the unitor, both within caps.
    """
    if x.points.n * y.points.n > caps.max_exhaustive:
        raise CapExceeded(
            "coproduct points", x.points.n * y.points.n, caps.max_exhaustive
        )
    loc = FiniteLocale(poset_product(x.points, y.points), caps)
    yn = y.points.n

    def pair_mask(xmask, ymask):
        out = 0
        for i in bits(xmask):
            for j in bits(ymask):
                out |= 1 << (i * yn + j)
        return out

    iota1 = SupMap(
        x.opens,
        loc.opens,
        [loc.open_index[pair_mask(m, y.points.full)] for m in x.open_masks],
    )
    iota2 = SupMap(
        y.opens,
        loc.opens,
        [loc.open_index[pair_mask(x.points.full, m)] for m in y.open_masks],
    )
    # left adjoint of iota1 is the open projection "exists y"
    lower_values = []
    for m in loc.open_masks:
        proj = 0
        for i in range(x.points.n):
            if m >> (i * yn) & ((1 << yn) - 1):
                proj |= 1 << i
        lower_values.append(x.open_index[proj])
    iota1_lower = SupMap(loc.opens, x.opens, lower_values)
    for w in range(loc.opens.n):
        for a in range(x.opens.n):
            if x.opens.leq(iota1_lower(w), a) != loc.opens.leq(w, iota1(a)):
                raise LawViolation("projection left adjoint to iota1", (loc.opens.names[w], x.opens.names[a]))
    if x.opens.n * y.opens.n <= caps.max_tensor_carrier:
        _verify_coproduct_is_tensor(x, y, loc, iota1, iota2, iota1_lower, caps)
    return loc, iota1, iota2, iota1_lower


def _verify_coproduct_is_tensor(x, y, loc, iota1, iota2, iota1_lower, caps):
    t = tensor([x.opens, y.opens], caps)
    # the canonical map: an open W corresponds to the bi-ideal of pairs
    # (a, b) with iota1(a) /\ iota2(b) <= W
    corr = []
    for w in range(loc.opens.n):
        mask = 0
        for a in range(x.opens.n):
            for b in range(y.opens.n):
                if loc.opens.leq(loc.opens.meet(iota1(a), iota2(b)), w):
                    mask |= 1 << t.space.index_of((a, b))
        if t.space.closure(mask) != mask:
            raise LawViolation("coproduct open is a bi-ideal", loc.opens.names[w])
        corr.append(t.mask_index[mask])
    if not len(set(corr)) == loc.opens.n == t.n:
        raise LawViolation("coproduct opens are the tensor", (len(set(corr)), loc.opens.n, t.n))
    for w1 in range(loc.opens.n):
        for w2 in range(loc.opens.n):
            if corr[loc.opens.join(w1, w2)] != t.join(corr[w1], corr[w2]):
                raise LawViolation("coproduct to tensor preserves joins", (loc.opens.names[w1], loc.opens.names[w2]))
            if corr[loc.opens.meet(w1, w2)] != t.meet(corr[w1], corr[w2]):
                raise LawViolation("coproduct to tensor preserves meets", (loc.opens.names[w1], loc.opens.names[w2]))
    for a in range(x.opens.n):
        for b in range(y.opens.n):
            if corr[loc.opens.meet(iota1(a), iota2(b))] != pure(t, (a, b)):
                raise LawViolation("iota1(a) /\\ iota2(b) is the pure tensor", (x.opens.names[a], y.opens.names[b]))
    # iota1_lower agrees with (id (x) positivity) then the unitor:
    # project each bi-ideal to the join of first components with positive fiber
    for w in range(loc.opens.n):
        fibers = as_map(TensorElement(t.space, t.element_masks[corr[w]]))
        expect = x.opens.join_iter(
            a for a in range(x.opens.n) if fibers[a] != y.opens.bottom
        )
        if iota1_lower(w) != expect:
            raise LawViolation("iota1_lower is (id (x) positivity) then the unitor", loc.opens.names[w])


class OwcSublocale:
    """An overt weakly closed sublocale: a down-set of points, acting on
    opens through "meets" (inhabited intersection)."""

    __slots__ = ("locale", "downset")

    def __init__(self, locale, downset):
        if locale.points.down_closure(downset) != downset:
            raise LawViolation("OWC sublocale is a down-set", locale.points.mask_name(downset))
        self.locale = locale
        self.downset = downset

    def meets(self, open_index):
        return bool(self.downset & self.locale.open_masks[open_index])

    def meets_map(self):
        return SupMap(
            self.locale.opens,
            omega(),
            [OMEGA_TRUE if self.downset & m else OMEGA_FALSE for m in self.locale.open_masks],
        )

    def __eq__(self, other):
        return (
            isinstance(other, OwcSublocale)
            and self.locale is other.locale
            and self.downset == other.downset
        )

    def __hash__(self):
        return hash(self.downset)

    def __repr__(self):
        return f"Owc({self.locale.points.mask_name(self.downset)})"


def owc(locale):
    """The suplattice of overt weakly closed sublocales: all down-sets of
    points ordered by inclusion.  On a finite poset the Scott-closed sets
    are the down-sets, so this is also the Scott-closed/OWC correspondence.

    The bijection with SupMaps opens -> Omega is verified both ways: each
    down-set's meets-map preserves joins and gives the down-set back as the
    points whose minimal open it meets (so distinct down-sets give distinct
    maps), and every dual element of the opens is one of these maps (the
    dual realizes hom(-, Omega)).
    """
    lat, masks = downset_lattice(locale.points)
    sublocales = [OwcSublocale(locale, m) for m in masks]
    if lat.n != locale.opens.n:
        raise LawViolation("as many down-sets as opens", (lat.n, locale.opens.n))
    seen = set()
    for sub in sublocales:
        values = sub.meets_map().values
        core = 0
        for x in range(locale.points.n):
            if values[locale.minimal_open_at(x)] == OMEGA_TRUE:
                core |= 1 << x
        if core != sub.downset:
            raise LawViolation("down-set to meets-map and back", repr(sub))
        seen.add(values)
    pairing = dual(locale.opens)
    for c in range(locale.opens.n):
        if tuple(pairing(c, a) for a in range(locale.opens.n)) not in seen:
            raise LawViolation("every SupMap opens -> Omega is a meets-map", locale.opens.names[c])
    return lat, sublocales


def owc_image(locale_map, sub):
    """Direct image of an OWC sublocale: the down-closure of the pointwise
    image; satisfies image meets a iff sub meets the preimage of a."""
    tgt = locale_map.target
    image = 0
    for p in bits(sub.downset):
        image |= 1 << locale_map.point_map(p)
    out = OwcSublocale(tgt, tgt.points.down_closure(image))
    fstar = locale_map.frame_map()
    for a in range(tgt.opens.n):
        if out.meets(a) != sub.meets(fstar(a)):
            raise LawViolation("image meets a iff sub meets the preimage of a", tgt.opens.names[a])
    return out


def directed_subsets(poset):
    """All directed subsets (every finite part has an upper bound inside).
    The empty set is not directed (it lacks an upper bound for itself)."""
    out = []
    for mask in range(1, 1 << poset.n):
        elems = list(bits(mask))
        if all(poset.up[a] & poset.up[b] & mask for a in elems for b in elems):
            out.append(mask)
    return out


def way_below_exhaustive(poset, caps=DEFAULT_CAPS):
    """The way-below relation over all directed subsets: rel[b] is the
    bitmask of a way below b.  On a finite poset it is the order itself."""
    if 1 << poset.n > caps.search_budget():
        raise CapExceeded("directed subsets", 1 << poset.n, caps.search_budget())
    rel = [0] * poset.n
    directed = directed_subsets(poset)
    for b in range(poset.n):
        for a in range(poset.n):
            ok = True
            for d in directed:
                join_candidates = [c for c in bits(d) if d & ~poset.down[c] == 0]
                if not join_candidates:
                    continue  # no join inside; in a finite poset the join of a
                    # directed set is its maximum, so only these matter
                top = join_candidates[0]
                if poset.leq(b, top) and not (d & poset.up[a]):
                    ok = False
                    break
            if ok:
                rel[b] |= 1 << a
    return tuple(rel)


# ---------------------------------------------------------------------------
# quotients by generated congruences


def quotient_by(quantale, relations):
    """Quotient by the congruence generated by pairs (u, v) read as
    u <= j(v)."""
    return quotient_by_nucleus(quantale, least_nucleus(quantale, relations))


# ---------------------------------------------------------------------------
# the prime anti-ideal and hom laws, none omitted, and the ideal closure by a loop


def full_anti_ideal_laws(data, classes, quantale, mode):
    """Every prime anti-ideal condition on a map G of classes, as (name,
    scope, test) laws in the order of ``spectrum._anti_ideal_laws``, which
    omits those that every monotone G obeys: G(class of one) = 1,
    G(c)G(e) = G(ce) for each pair of classes, and in semiring mode
    G(class of zero) = 0 and G(s) <= G(c) v G(e) for each s in the sum row
    ``classes.sums[c][e]``."""
    cls_of = classes.cls_of
    q_lat = quantale.carrier
    q_mul, q_join, q_up = quantale.mult_t, q_lat.join_t, q_lat.up
    one = cls_of[data.one_point]
    laws = [("unit", 1 << one, lambda g: g[one] == quantale.unit)]
    if mode == "semiring":
        zero = cls_of[data.zero_point]
        laws.append(("zero", 1 << zero, lambda g: g[zero] == q_lat.bottom))
    for c, e in combinations_with_replacement(range(classes.order.n), 2):
        m = classes.mul_t[c][e]
        scope = 1 << c | 1 << e | 1 << m
        laws.append(("multiplicativity", scope, lambda g, c=c, e=e, m=m: q_mul[g[c]][g[e]] == g[m]))
        for s in bits(classes.sums[c][e]) if mode == "semiring" else ():
            scope = 1 << c | 1 << e | 1 << s
            laws.append(("additivity", scope, lambda g, c=c, e=e, s=s: q_up[g[s]] >> q_join[g[c]][g[e]] & 1))
    return laws


def full_hom_laws(q1, q2):
    """Every quantale hom law on a monotone map g of the join-irreducibles
    J of q1 into q2, as (scope, test) laws in the order of
    ``quantale._hom_laws``, which omits those that every monotone g obeys:
    the unit, f(pq) = f(p)f(q) for each pair p, q in J, and
    f(p v c) = f(p) v f(c) for each split (k, c, a) of q1's carrier."""
    src, tgt = q1.carrier, q2.carrier
    ji = src.join_irreducibles()
    below = src.j_below()
    value = j_evaluator(src, tgt)
    laws = [(below[q1.unit], lambda g: value(g, q1.unit) == q2.unit)]
    for i, p in enumerate(ji):
        for j in range(i, len(ji)):
            a = q1.mul(p, ji[j])
            laws.append((1 << i | 1 << j | below[a], lambda g, i=i, j=j, a=a: value(g, a) == q2.mult_t[g[i]][g[j]]))
    for i, c, a in src.splits():
        laws.append((below[a], lambda g, i=i, c=c, a=a: value(g, a) == tgt.join_t[g[i]][value(g, c)]))
    return laws


def literal_checked_universal(data, quantale, masks, g, mode):
    """``spectrum._checked_universal`` by its full scans: monotone on every
    comparable pair of classes, the least element at each point, and every
    law of ``full_anti_ideal_laws`` in order, raising the same LawViolation
    on the first failure.  On a monotone map the laws that
    ``spectrum._anti_ideal_laws`` omits never fail, so the first failing law
    is the same in both lists."""
    classes = data.classes
    names, q_up = classes.order.names, quantale.carrier.up
    on_classes = [g[(m & -m).bit_length() - 1] for m in classes.members]
    for c, above in enumerate(classes.order.up):
        for d in bits(above):
            if not q_up[on_classes[c]] >> on_classes[d] & 1:
                raise LawViolation("universal element is monotone", (names[c], names[d]))
    pts = data.locale.points
    pos = {m: k for k, m in enumerate(masks)}
    for x in range(pts.n):
        least = pts.full
        for m in masks:
            if m >> x & 1:
                least &= m
        if pos.get(least) != g[x]:
            raise LawViolation("universal element is the least ideal at each point", pts.names[x])
    for name, scope, test in full_anti_ideal_laws(data, classes, quantale, mode):
        if not test(on_classes):
            raise LawViolation(f"universal element {name}", tuple(names[c] for c in bits(scope)))
    return g


def literal_ideal_witness(data, masks):
    """``spectrum._ideal_witness`` with absorption by ``_absorb``: the first
    of ``masks`` in (size, mask) order that misses the zero point's
    closure, is not fixed by ``_absorb`` or misses a sum of two of its
    maximal points, or None."""
    pts = data.locale.points
    zero = pts.down[data.zero_point]

    def fails(m):
        tops = pts.maximal(m)
        return (
            zero & ~m
            or _absorb(data, m) != m
            or any(not m >> data.add_t[v][w] & 1 for v in tops for w in tops)
        )

    return min(filter(fails, masks), key=lambda m: (m.bit_count(), m), default=None)


def close(classes, closed, extra):
    """The least set of classes over closed v extra that is down-closed and
    closed under the sum rows of the ``HoloidClasses`` ``classes``, for
    ``closed`` already so (or 0): the classes not yet in the set are
    down-closed and summed against the whole set until nothing changes.
    ``HoloidClasses.ideal_sum`` and the joins of Idl(R) reach the same sets
    with no loop, as every class down-set is an ideal."""
    down, sums = classes.order.down, classes.sums
    new = extra & ~closed
    while new:
        grown = 0
        for c in bits(new):
            grown |= down[c]
        new = grown & ~closed
        closed |= new
        inside = list(bits(closed))
        grown = 0
        for c in bits(new):
            row = sums[c]
            for e in inside:
                grown |= row[e]
        new = grown & ~closed
    return closed


def nextclosure_ideals(classes):
    """The ideals of the ``HoloidClasses`` ``classes``, as class masks, in
    lectic order: NextClosure (Ganter, "Two basic algorithms in concept
    analysis", 1984) over ``close``.  From an ideal a, the next one is the
    least ideal over the classes of a below i, plus i, for the largest i not
    in a whose closure adds nothing below i."""
    k = classes.order.n
    a = classes.bottom
    found = [a]
    while a != (1 << k) - 1:
        for i in reversed(range(k)):
            if a >> i & 1:
                continue
            low = (1 << i) - 1
            b = close(classes, classes.bottom, a & low | 1 << i)
            if b & low == a & low:
                a = b
                break
        found.append(a)
    return found


# ---------------------------------------------------------------------------
# monoid ideals the long way


def pairwise_owc_binop(points, masks, table):
    """The lift of a point operation to down-sets, pair by pair: V op W is
    the down-closure of the image of the maximal points of V and W."""
    maximals = [points.maximal(m) for m in masks]
    out = []
    for mv in maximals:
        row = []
        for mw in maximals:
            image = 0
            for v in mv:
                for w in mw:
                    image |= 1 << table[v][w]
            row.append(points.down_closure(image))
        out.append(tuple(row))
    return tuple(out)


def literal_pointwise_bound(data, caps=DEFAULT_CAPS):
    """The pointwise bound of ``spectrum.dualisability_conditions`` walked
    over every open and every down-set of the points: each open u lies
    below the join of pi(V) over the down-sets V meeting u, where pi(V) is
    the meet of the saturated opens that V meets."""
    sat = saturation(data, caps)
    pts = data.locale.points
    dn_masks = pts.down_sets()
    pi = []
    for v in dn_masks:
        acc = pts.full
        for s in sat.sat_masks:
            if v & s:
                acc &= s
        pi.append(acc)
    for u in data.locale.open_masks:
        cover = 0
        for k, v in enumerate(dn_masks):
            if v & u:
                cover |= pi[k]
        if u & ~cover:
            return False
    return True


# ---------------------------------------------------------------------------
# the input law checks over every element, pair and triple


def literal_semiring_laws(names, zero, one, add, mul):
    """The checks of ``FiniteCommSemiring`` by scans over all elements,
    pairs and triples, which the package runs only to name a failure:
    both commutative monoids, then annihilation and distributivity."""
    _literal_comm_monoid(names, zero, add, "add")
    _literal_comm_monoid(names, one, mul, "mul")
    n = len(names)
    for a in range(n):
        if mul[a][zero] != zero:
            raise LawViolation("annihilation", names[a])
        for b, c in product(range(n), repeat=2):
            if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                raise LawViolation("distributivity", (names[a], names[b], names[c]))


def _literal_comm_monoid(names, unit, table, law):
    n = len(names)
    for a in range(n):
        if table[unit][a] != a:
            raise LawViolation(f"{law} unit", names[a])
        for b in range(a, n):
            if table[a][b] != table[b][a]:
                raise LawViolation(f"{law} commutativity", (names[a], names[b]))
    for a, b, c in product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            raise LawViolation(f"{law} associativity", (names[a], names[b], names[c]))


def literal_monotone(pts, table, law):
    """The monotonicity check of ``LocalicSemiringData`` on every comparable
    pair, where the package reads only the covers."""
    for a in range(pts.n):
        for b in range(pts.n):
            for b2 in bits(pts.up[b]):
                if not pts.leq(table[a][b], table[a][b2]):
                    raise NotMonotone((pts.names[a], pts.names[b], pts.names[b2]), law)


def literal_lattice_structure(poset):
    """``lattice_structure`` by a least-upper-bound search in every cell;
    returns (join table, meet table, bottom, top)."""
    tables = []
    for kind, up in (("join", poset.up), ("meet", poset.down)):
        rows = []
        for i in range(poset.n):
            row = []
            for j in range(poset.n):
                ub = up[i] & up[j]
                least = [k for k in bits(ub) if ub & ~up[k] == 0]
                if len(least) != 1:
                    raise NotALattice(kind, (poset.names[i], poset.names[j]))
                row.append(least[0])
            rows.append(tuple(row))
        tables.append(tuple(rows))
    bottoms = [i for i in range(poset.n) if poset.up[i] == poset.full]
    tops = [i for i in range(poset.n) if poset.down[i] == poset.full]
    if len(bottoms) != 1:
        raise NotALattice("join", ("empty", "empty"))
    if len(tops) != 1:
        raise NotALattice("meet", ("empty", "empty"))
    return tables[0], tables[1], bottoms[0], tops[0]


def literal_family_lattice(masks, names):
    """``family_lattice`` by the route that read the tables off the family:
    each join the member whose up-set is the AND of the two up-sets, read
    from an index of the up-sets, each meet the intersection looked up in
    the family, and the join table checked before the meet table; returns
    (up-sets, join table, meet table, bottom, top)."""
    masks, names = list(masks), tuple(names)
    pos = {m: i for i, m in enumerate(masks)}
    if len(pos) != len(masks):
        raise DuplicateElement("repeated mask in family")
    up = tuple(sum(1 << j for j, mj in enumerate(masks) if mi & mj == mi) for mi in masks)
    index = {u: k for k, u in enumerate(up)}
    join_t = tuple(tuple([index.get(u & v) for v in up]) for u in up)
    meet_t = tuple(tuple([pos.get(mi & mj) for mj in masks]) for mi in masks)
    for kind, table in (("join", join_t), ("meet", meet_t)):
        for a, row in enumerate(table):
            if None in row:
                raise LawViolation(f"{kind} closes into the family", (names[a], names[row.index(None)]))
    bottom = top = 0
    for k in range(len(masks)):
        bottom, top = meet_t[bottom][k], join_t[top][k]
    return up, join_t, meet_t, bottom, top


def literal_is_distributive(lat):
    """``is_distributive`` over all triples."""
    for a, b, c in product(range(lat.n), repeat=3):
        if lat.meet(a, lat.join(b, c)) != lat.join(lat.meet(a, b), lat.meet(a, c)):
            return False, (lat.names[a], lat.names[b], lat.names[c])
    return True, None


def outcome(check, *args):
    """None when ``check(*args)`` returns, else the class and text of the
    PfspecError it raises (the text holds the law and the witness)."""
    try:
        check(*args)
    except PfspecError as exc:
        return type(exc), str(exc)
    return None


# ---------------------------------------------------------------------------
# model files and python -O


def pretty_print(model):
    """Canonical text form of a parsed model; parsing it gives the model
    back."""
    out = []
    for block in model.blocks:
        if isinstance(block, PosetBlock):
            rel = " ".join(f"{a}<={b}" for a, b in block.relations)
            body = f"elements: {' '.join(block.elements)}"
            if rel:
                body += f" ; leq: {rel}"
            out.append(f"poset {block.name} {{ {body} }}")
        elif isinstance(block, MonoidBlock):
            out.append(
                f"monoid {block.name} {{ elements: {' '.join(block.elements)}"
                f" ; unit: {block.unit} ; mul: {' '.join(block.mul)} }}"
            )
        elif isinstance(block, SemiringBlock):
            out.append(
                f"semiring {block.name} {{ elements: {' '.join(block.elements)}"
                f" ; zero: {block.zero} ; one: {block.one}"
                f" ; add: {' '.join(block.add)}"
                f" ; mul: {' '.join(block.mul)}"
                f" ; order: {block.order} }}"
            )
        elif isinstance(block, LatticeBlock):
            out.append(f"lattice {block.name} {{ poset: {block.poset} }}")
    return "\n".join(out) + "\n"


def run_optimized(script):
    """Run ``script`` with ``python -O`` in a fresh process that imports the
    package from the checkout and this module; returns the completed
    process, its output as text.  ``python -O`` strips assert statements,
    so a check that must survive it is run this way."""
    path = os.pathsep.join(p for p in (str(SRC), str(TESTS), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
