"""Posets, lattices, adjoints, closure operators."""

import random
import sys
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from pfspec.catalog import chain, powerset_lattice
from pfspec.errors import CapExceeded, CycleError, DuplicateElement, LawViolation, NotALattice, NotMonotone
from pfspec.iso import find_poset_iso
from pfspec.order import (
    ClosureOperator,
    FinitePoset,
    MonotoneMap,
    bits,
    build_poset,
    family_lattice,
    generators,
    inclusion_up_sets,
    is_distributive,
    lattice_structure,
    least_closure,
    monotone_search,
)
from pfspec.suplattice import omega
from reference import (
    NoAdjoint,
    adjoints,
    all_posets_up_to_iso,
    diamond_m3,
    grid,
    literal_family_lattice,
    literal_is_distributive,
    literal_lattice_structure,
    outcome,
    pentagon_n5,
    small_lattices,
)


def test_build_poset_two_chain_closure():
    p = build_poset(["a", "b"], [("a", "b")])
    related = sum(p.up[i].bit_count() for i in range(p.n))
    assert related == 3  # two reflexive pairs plus a<=b


def test_build_poset_m3_no_cross_pairs():
    p = build_poset(
        ["0", "x", "y", "z", "1"],
        [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")],
    )
    assert p.n == 5
    x, y, z = p.index("x"), p.index("y"), p.index("z")
    for a, b in [(x, y), (y, z), (x, z)]:
        assert not p.leq(a, b) and not p.leq(b, a)


def test_build_poset_cycle_error():
    with pytest.raises(CycleError):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])


def _reachable(n, pairs):
    """up[i], the elements reached from i along the pairs, by a depth-first
    search from each i."""
    succ = [[] for _ in range(n)]
    for a, b in pairs:
        succ[a].append(b)
    up = []
    for i in range(n):
        seen, stack = {i}, [i]
        while stack:
            for b in succ[stack.pop()]:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        up.append(sum(1 << j for j in seen))
    return tuple(up)


def test_build_poset_matches_reachability_on_seeded_relations():
    # the closure is the reachability relation, and a cycle is reported at
    # the first i, then the first j above it, that lie above each other
    rng = random.Random(2006)
    cycles = 0
    for _ in range(600):
        n = rng.randint(1, 7)
        names = [f"e{i}" for i in range(n)]
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n + 2))]
        relation = [(names[a], names[b]) for a, b in pairs]
        up = _reachable(n, pairs)
        cycle = next(((i, j) for i in range(n) for j in bits(up[i]) if j != i and up[j] >> i & 1), None)
        if cycle is None:
            assert build_poset(names, relation).up == up, relation
            continue
        cycles += 1
        i, j = cycle
        with pytest.raises(CycleError, match=f"^{names[i]!r} and {names[j]!r} are mutually related$"):
            build_poset(names, relation)
    assert 100 < cycles < 500, cycles


def test_build_poset_duplicate_element():
    with pytest.raises(DuplicateElement):
        build_poset(["a", "a"], [])


def test_lattice_structure_chain():
    c3 = chain(3)
    m, one = c3.index("m"), c3.index("1")
    assert c3.join(m, one) == one
    assert c3.meet(m, one) == m


def test_lattice_structure_m3():
    m3 = diamond_m3()
    x, y = m3.index("x"), m3.index("y")
    assert m3.join(x, y) == m3.top
    assert m3.meet(x, y) == m3.bottom


def test_lattice_structure_two_maximal_fails():
    p = build_poset(["0", "a", "b"], [("0", "a"), ("0", "b")])
    with pytest.raises(NotALattice) as exc:
        lattice_structure(p)
    assert exc.value.pair == ("a", "b")


def test_distributive_chain():
    assert is_distributive(chain(4)) == (True, None)


@pytest.mark.parametrize("lat", [diamond_m3(), pentagon_n5()])
def test_distributive_witness_violates_law(lat):
    # the returned witness must itself violate the law (self-validating)
    flag, witness = is_distributive(lat)
    assert not flag
    a, b, c = (lat.index(w) for w in witness)
    assert lat.meet(a, lat.join(b, c)) != lat.join(lat.meet(a, b), lat.meet(a, c))


def test_distributive_m3_brute_force_oracle():
    # independent triple scan over all 125 triples
    m3 = diamond_m3()
    violations = [
        (a, b, c)
        for a, b, c in product(range(5), repeat=3)
        if m3.meet(a, m3.join(b, c)) != m3.join(m3.meet(a, b), m3.meet(a, c))
    ]
    assert violations  # M3 is not distributive
    assert is_distributive(m3)[0] is False


def _bound_search_posets():
    """Every poset of up to 5 elements, M3, N5, and preorders: orders whose
    up-sets repeat, where equivalent elements have no least bound."""
    posets = [p for n in range(6) for p in all_posets_up_to_iso(n)]
    posets += [FinitePoset(lat.names, lat.up) for lat in (diamond_m3(), pentagon_n5())]
    posets.append(FinitePoset(["a", "b"], [0b11, 0b11]))
    posets.append(FinitePoset(["0", "a", "b", "1"], [0b1111, 0b1110, 0b1110, 0b1000]))
    return posets


def test_lattice_structure_reads_the_tables_the_search_finds():
    # the up-set index gives the tables of the least-bound search, and the
    # same NotALattice witness where a pair has no least bound
    found = Counter()
    for poset in _bound_search_posets():
        expected = outcome(literal_lattice_structure, poset)
        assert outcome(lattice_structure, poset) == expected, poset.up
        if expected is None:
            lat = lattice_structure(poset)
            assert (lat.join_t, lat.meet_t, lat.bottom, lat.top) == literal_lattice_structure(poset)
        found[expected is None] += 1
    assert found == {True: 12, False: 80}
    with pytest.raises(NotALattice) as exc:
        lattice_structure(FinitePoset(["a", "b"], [0b11, 0b11]))
    assert (exc.value.kind, exc.value.pair) == ("join", ("a", "a"))


def test_the_opposite_swaps_the_tables_and_the_bounds():
    # the opposite is built from the down-sets alone, and reads back the
    # meets as its joins, the joins as its meets, the top as its bottom
    for lat in small_lattices(7):
        op = lat.opposite()
        assert (op.join_t, op.meet_t, op.bottom, op.top) == (lat.meet_t, lat.join_t, lat.top, lat.bottom), lat.up


def test_is_distributive_on_generators_matches_the_triple_search():
    lattices = small_lattices(7) + [chain(1), chain(5), powerset_lattice(3), grid(3, 3)]
    flags = Counter()
    for lat in lattices:
        assert is_distributive(lat) == literal_is_distributive(lat), lat.up
        flags[is_distributive(lat)[0]] += 1
    assert flags == {True: 24, False: 57}


def test_generators_of_a_group_and_of_a_lattice_join():
    z12 = tuple(tuple((i + j) % 12 for j in range(12)) for i in range(12))
    assert generators(z12, 0) == [1]
    for lat in (diamond_m3(), pentagon_n5(), grid(3, 3), powerset_lattice(3)):
        assert sorted(generators(lat.join_t, lat.bottom)) == lat.join_irreducibles()


def test_family_not_closed_under_intersection_is_witnessed():
    # {a, b} and {b, c} meet in {b}, which is not in the family
    with pytest.raises(LawViolation) as exc:
        family_lattice([0b000, 0b011, 0b110, 0b111], ["0", "ab", "bc", "abc"])
    assert (exc.value.law, exc.value.witness) == ("meet closes into the family", ("ab", "bc"))


@pytest.mark.parametrize(
    "masks, names, found",
    [
        # {a,b} is no member: the join of {a} and {b} is the least member
        # above both, the top, read off the up-sets
        ([0b000, 0b001, 0b010, 0b111], ["0", "a", "b", "abc"], ("abc", "0", "abc")),
        # no member lies above both {a} and {b}
        ([0b00, 0b01, 0b10], ["0", "a", "b"], ("join closes into the family", ("a", "b"))),
    ],
)
def test_a_join_past_the_union_is_the_least_member_above_it(masks, names, found):
    try:
        lat = family_lattice(masks, names)
    except LawViolation as exc:
        assert (exc.law, exc.witness) == found
    else:
        assert (lat.names[lat.join(1, 2)], lat.names[lat.bottom], lat.names[lat.top]) == found
        assert lat.meet(1, 2) == lat.bottom


def test_family_lattice_matches_the_route_through_the_family():
    # the tables read off the order, then the one meet law, against the
    # route that read them off the family, joins checked before meets: the
    # same tables where both pass, the same law and witness where both fail.
    # On the hand cases above, seeded random families, among them families
    # with no least member and families not closed under intersection whose
    # order has every meet, and the down-sets of every poset of at most 4
    # elements
    rng = random.Random(30)
    families = [
        [0b000, 0b011, 0b110, 0b111],
        [0b000, 0b001, 0b010, 0b111],
        [0b00, 0b01, 0b10],
        [0b01, 0b10, 0b11],
        [0b001, 0b011, 0b101, 0b111],
    ]
    for _ in range(400):
        points = rng.randint(1, 4)
        family = rng.sample(range(1 << points), rng.randint(1, min(8, 1 << points)))
        if rng.random() < 0.5 and (1 << points) - 1 not in family:
            family.append((1 << points) - 1)
        families.append(family)
    families += [poset.down_sets() for n in range(5) for poset in all_posets_up_to_iso(n)]
    seen = Counter()
    for masks in families:
        names = [bin(m) for m in masks]
        expected = outcome(literal_family_lattice, masks, names)
        assert outcome(family_lattice, masks, names) == expected, masks
        if expected is None:
            lat = family_lattice(masks, names)
            assert (lat.up, lat.join_t, lat.meet_t, lat.bottom, lat.top) == literal_family_lattice(masks, names)
        ordered = outcome(lattice_structure, FinitePoset(names, inclusion_up_sets(masks))) is None
        seen[expected and expected[1].split(" closes")[0]] += 1
        seen["no least member"] += not any(all(m & ~k == 0 for k in masks) for m in masks)
        seen["order meets only"] += ordered and expected is not None
    assert seen[None] > 200 and seen["join"] > 30 and seen["meet"] > 60
    assert seen["no least member"] > 50 and seen["order meets only"] > 10


def test_inclusion_up_sets_match_the_literal_scan():
    # the members above each member, by ANDing the members that hold each of
    # its points, against the scan over every pair: on the empty family, on
    # families holding the empty mask or repeats, on seeded random families
    # and on the down-sets of every poset of at most 4 elements
    scan = lambda masks: [sum(1 << j for j, mj in enumerate(masks) if mi & mj == mi) for mi in masks]
    rng = random.Random(7)
    families = [[], [0], [0, 0], [0b101, 0, 0b101, 0b1]]
    families += [[rng.getrandbits(rng.randint(1, 12)) for _ in range(rng.randint(1, 40))] for _ in range(200)]
    families += [poset.down_sets() for n in range(5) for poset in all_posets_up_to_iso(n)]
    for masks in families:
        assert inclusion_up_sets(masks) == scan(masks), masks


# ---------------------------------------------------------------------------
# adjoints


def test_adjoint_identity():
    c3 = chain(3)
    ident = MonotoneMap.identity(c3)
    assert adjoints(ident, "right").values == ident.values
    assert adjoints(ident, "left").values == ident.values


def test_right_adjoint_c2_to_c3():
    # f: C2 -> C3 with 0 -> 0, 1 -> m; the join formula gives g = (0, 1, 1)
    c2, c3 = chain(2), chain(3)
    f = MonotoneMap(c2, c3, [c3.index("0"), c3.index("m")])
    g = adjoints(f, "right")
    assert [c2.names[v] for v in g.values] == ["0", "1", "1"]


def test_non_monotone_rejected_and_no_adjoint():
    c2, c3 = chain(2), chain(3)
    with pytest.raises(NotMonotone):
        MonotoneMap(c3, c2, [0, 1, 0])
    # monotone but not join-preserving: C2xC2 -> C2 sending only top to 1
    p2 = powerset_lattice(2)
    f = MonotoneMap(p2, chain(2), [0, 0, 0, 1])
    with pytest.raises(NoAdjoint):
        adjoints(f, "right")


def test_adjoint_law_exhaustive_small():
    p2, c3 = powerset_lattice(2), chain(3)
    # every join-preserving map has a right adjoint satisfying the law
    for values in product(range(3), repeat=3):
        table = [c3.index("0")] + list(values)
        try:
            f = MonotoneMap(p2, c3, table)
        except Exception:
            continue
        if any(
            table[p2.join(a, b)] != c3.join(table[a], table[b])
            for a in range(4)
            for b in range(4)
        ):
            continue
        g = adjoints(f, "right")
        for a in range(4):
            for b in range(3):
                assert c3.leq(f(a), b) == p2.leq(a, g(b))


# ---------------------------------------------------------------------------
# closure operators and least_closure


def test_every_mask_gives_the_closure_onto_its_meets():
    # the constructor checks nothing, so every mask of every lattice of up
    # to 7 elements must give a closure operator whose fixed points are the
    # meets of the mask's elements, the top being the empty meet
    closures = 0
    for lat in small_lattices(7):
        for mask in range(1 << lat.n):
            j = ClosureOperator(lat, mask).values
            for a in range(lat.n):
                assert lat.leq(a, j[a]) and j[j[a]] == j[a]
                assert all(lat.leq(j[a], j[b]) for b in bits(lat.up[a]))
            meets = {lat.top}
            for x in bits(mask):
                meets |= {lat.meet(x, c) for c in meets}
            assert {a for a in range(lat.n) if j[a] == a} == meets
            closures += 1
    assert closures == 7948


def test_least_closure_empty_forcings_identity():
    c3 = chain(3)
    clo, quotient, surj = least_closure(c3, [])
    assert clo.values == tuple(range(c3.n))
    assert quotient.n == 3


def test_least_closure_c3_collapse():
    # forcing m <= j(0) collapses {0, m}; fixed points are {m, 1}
    c3 = chain(3)
    clo, quotient, surj = least_closure(c3, [(c3.index("m"), c3.index("0"))])
    assert clo.values == (1, 1, 2)
    assert quotient.n == 2
    assert [c3.names[f] for f in clo.fixed_points()] == ["m", "1"]


def test_least_closure_powerset_collapse_to_point():
    # forcing {1} <= j({}) and {2} <= j({}) pushes j({}) to the top
    p2 = powerset_lattice(2)
    empty = p2.bottom
    s1, s2 = p2.index("{1}"), p2.index("{2}")
    clo, quotient, surj = least_closure(p2, [(s1, empty), (s2, empty)])
    assert quotient.n == 1
    assert clo.values[empty] == p2.top


def _all_closure_operators(lat):
    """Brute-force oracle: closure operators = meet-closed subsets
    containing the top, each the closure onto its mask."""
    out = []
    for mask in range(1 << lat.n):
        fixed = list(bits(mask))
        if mask >> lat.top & 1 and all(mask >> lat.meet(a, b) & 1 for a in fixed for b in fixed):
            out.append(ClosureOperator(lat, mask))
    return out


@pytest.mark.parametrize("lat", [chain(3), chain(4), powerset_lattice(2), diamond_m3()])
def test_least_closure_minimality_against_enumeration(lat):
    forcing_pool = [(1 % lat.n, 0), (lat.top, lat.bottom), (0, 0)]
    for forcings in ([], [forcing_pool[0]], [forcing_pool[1]]):
        clo, _, _ = least_closure(lat, forcings)
        for other in _all_closure_operators(lat):
            if all(lat.leq(a, other(b)) for a, b in forcings):
                assert all(
                    lat.leq(clo(x), other(x)) for x in range(lat.n)
                ), "least_closure is not minimal"


def test_quotient_surjection_preserves_joins():
    p2 = powerset_lattice(2)
    clo, quotient, surj = least_closure(p2, [(p2.index("{1}"), p2.bottom)])
    assert surj.values[p2.bottom] == quotient.bottom
    for a in range(p2.n):
        for b in range(p2.n):
            assert surj(p2.join(a, b)) == quotient.join(surj(a), surj(b))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.data())
def test_least_closure_properties_random(n, data):
    lat = chain(n)
    k = data.draw(st.integers(0, 3))
    forcings = [
        (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)))
        for _ in range(k)
    ]
    clo, quotient, surj = least_closure(lat, forcings)
    for a, b in forcings:
        assert lat.leq(a, clo(b))
    for x in range(n):
        assert lat.leq(x, clo(x))
        assert clo(clo(x)) == clo(x)
    assert set(surj.values) == set(range(quotient.n))


def _fixed_point_lattice_by_search(lat, fixed):
    """Reference: the sub-poset on ``fixed`` with its joins and meets found by
    the least-upper-bound search of lattice_structure."""
    pos = {e: k for k, e in enumerate(fixed)}
    up = [sum(1 << pos[f] for f in bits(lat.up[e]) if f in pos) for e in fixed]
    return lattice_structure(FinitePoset([lat.names[e] for e in fixed], up))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([chain(4), powerset_lattice(3), diamond_m3(), pentagon_n5(), grid(2, 3)]),
    st.data(),
)
def test_closure_quotient_matches_least_upper_bound_search(lat, data):
    element = st.integers(0, lat.n - 1)
    forcings = data.draw(st.lists(st.tuples(element, element), max_size=3))
    clo, quotient, surj = least_closure(lat, forcings)
    ref = _fixed_point_lattice_by_search(lat, clo.fixed_points())
    assert quotient.names == ref.names and quotient.up == ref.up
    assert quotient.join_t == ref.join_t and quotient.meet_t == ref.meet_t
    assert (quotient.bottom, quotient.top) == (ref.bottom, ref.top)


# ---------------------------------------------------------------------------
# monotone search


def test_each_law_is_judged_once_when_the_last_variable_of_its_scope_is_assigned():
    # every poset of at most 5 elements into Omega, one always-true law per
    # scope mask: a law whose last scope variable is the k-th of the search
    # order is judged once per monotone map on the first k variables, with
    # those k assigned (a later judgement repeats the all-bottom map, an
    # earlier one misses maps); a law with an empty scope once, before the
    # first variable
    target = omega()
    searches = 0
    for n in range(6):
        for poset in all_posets_up_to_iso(n):
            order = poset.search_rows()[0]
            monotone = [
                [
                    g
                    for g in product(range(target.n), repeat=k)
                    if all(target.leq(g[i], g[j]) for i in range(k) for j in range(k) if poset.leq(order[i], order[j]))
                ]
                for k in range(n + 1)
            ]
            seen = [[] for _ in range(1 << n)]
            laws = [(scope, lambda g, scope=scope: seen[scope].append(tuple(g)) or True) for scope in range(1 << n)]
            monotone_search(poset, target, laws, 10**6, "judged")
            for scope in range(1 << n):
                k = max((order.index(v) + 1 for v in bits(scope)), default=0)
                judged = sorted(tuple(g[v] for v in order[:k]) for g in seen[scope])
                assert judged == monotone[k], (poset.up, scope)
            searches += 1
    assert searches == 1 + 1 + 2 + 5 + 16 + 63


@pytest.fixture
def deep_chain():
    """A chain 100 elements longer than the recursion limit, as a bare
    poset (element i is below every j >= i), with the limit lowered to 300
    for the test so that the chain stays small."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    n = sys.getrecursionlimit() + 100
    full = (1 << n) - 1
    yield FinitePoset([str(i) for i in range(n)], [full ^ ((1 << i) - 1) for i in range(n)])
    sys.setrecursionlimit(limit)


def test_the_search_runs_deeper_than_the_recursion_limit(deep_chain):
    # one variable per level of the search: with g[v] = 0 required at each,
    # the all-bottom map into Omega is the one answer, after 2 nodes a level
    n = deep_chain.n
    laws = [(1 << v, lambda g, v=v: g[v] == 0) for v in range(n)]
    assert monotone_search(deep_chain, omega(), laws, 2 * n, "deep") == [(0,) * n]
    with pytest.raises(CapExceeded) as exc:
        monotone_search(deep_chain, omega(), laws, 2 * n - 1, "deep")
    assert exc.value.size == 2 * n


def test_the_iso_search_runs_deeper_than_the_recursion_limit(deep_chain):
    assert find_poset_iso(deep_chain, deep_chain) == list(range(deep_chain.n))
