"""Posets, lattices, adjoints, closure operators."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from pfspec.catalog import chain, diamond_m3, grid, pentagon_n5, powerset_lattice
from pfspec.errors import CycleError, DuplicateElement, LawViolation, NoAdjoint, NotALattice
from pfspec.order import (
    ClosureOperator,
    FinitePoset,
    MonotoneMap,
    bits,
    build_poset,
    is_distributive,
    lattice_structure,
    least_closure,
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


# ---------------------------------------------------------------------------
# adjoints


def test_adjoint_identity():
    c3 = chain(3)
    ident = MonotoneMap.identity(c3)
    from pfspec.order import adjoints

    assert adjoints(ident, "right").values == ident.values
    assert adjoints(ident, "left").values == ident.values


def test_right_adjoint_c2_to_c3():
    # f: C2 -> C3 with 0 -> 0, 1 -> m; the join formula gives g = (0, 1, 1)
    from pfspec.order import adjoints

    c2, c3 = chain(2), chain(3)
    f = MonotoneMap(c2, c3, [c3.index("0"), c3.index("m")])
    g = adjoints(f, "right")
    assert [c2.names[v] for v in g.values] == ["0", "1", "1"]


def test_non_monotone_rejected_and_no_adjoint():
    c2, c3 = chain(2), chain(3)
    from pfspec.errors import NotMonotone
    from pfspec.order import adjoints

    with pytest.raises(NotMonotone):
        MonotoneMap(c3, c2, [0, 1, 0])
    # monotone but not join-preserving: C2xC2 -> C2 sending only top to 1
    p2 = powerset_lattice(2)
    f = MonotoneMap(p2, chain(2), [0, 0, 0, 1])
    with pytest.raises(NoAdjoint):
        adjoints(f, "right")


def test_adjoint_law_exhaustive_small():
    from pfspec.order import adjoints

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


def test_closure_operator_laws_enforced():
    c3 = chain(3)
    with pytest.raises(LawViolation):
        ClosureOperator(c3, [0, 0, 2])  # not inflationary at m
    with pytest.raises(LawViolation):
        ClosureOperator(c3, [1, 1, 1])  # wait: inflationary, monotone, idempotent? 0->m,m->m,1->1 is fine
    ClosureOperator(c3, [1, 1, 2])  # collapses {0,m}: valid


def test_least_closure_empty_forcings_identity():
    c3 = chain(3)
    clo, quotient, surj = least_closure(c3, [])
    assert clo.is_identity()
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
    containing the top, via x -> least fixed point above x."""
    out = []
    n = lat.n
    for mask in range(1 << n):
        if not mask >> lat.top & 1:
            continue
        fixed = list(bits(mask))
        if any(
            not mask >> lat.meet(a, b) & 1 for a in fixed for b in fixed
        ):
            continue
        values = []
        for x in range(n):
            above = [f for f in fixed if lat.leq(x, f)]
            values.append(lat.meet_iter(above))
        if all(mask >> v & 1 for v in values):
            out.append(ClosureOperator(lat, values))
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
    assert surj.is_surjective()


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
