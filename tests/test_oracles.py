"""Brute-force oracle comparisons with the pipeline."""

from itertools import product

import pytest

from pfspec.algebra import build_discrete_semiring
from pfspec.catalog import (
    all_posets_up_to_iso,
    chain,
    powerset_lattice,
    semiring_catalog,
)
from pfspec.oracles import (
    ideal_product,
    prime_filters,
    prime_ideals,
    radical_ideals,
    scott_frame_compare,
    semiring_ideals,
    stone_compare,
    zariski_compare,
)
from pfspec.order import build_poset


def test_zariski_z4_counts():
    s = dict(semiring_catalog())["Z4"]
    assert len(semiring_ideals(s)) == 3
    assert len(radical_ideals(s)) == 2
    assert len(prime_ideals(s)) == 1
    assert zariski_compare(s).ok()


def test_zariski_ideal_product_z4():
    s = dict(semiring_catalog())["Z4"]
    two = 0b0101  # the ideal {0, 2}
    assert ideal_product(s, two, two) == 0b0001  # {0}


@pytest.mark.parametrize("name,semiring", semiring_catalog())
def test_zariski_pipeline_matches(name, semiring):
    cmp = zariski_compare(semiring, name=name)
    assert cmp.ok(), cmp


def test_stone_square_two_prime_filters():
    lat = powerset_lattice(2)
    assert len(prime_filters(lat)) == 2
    cmp = stone_compare(lat)
    assert cmp.ok() and cmp.point_count == 2


def test_prime_filters_are_principal_on_square():
    lat = powerset_lattice(2)
    a, b = lat.index("{1}"), lat.index("{2}")
    assert sorted(prime_filters(lat)) == sorted([lat.up[a], lat.up[b]])


def test_hofmann_lawson_two_chain():
    p = build_poset(["a", "b"], [("a", "b")])
    cmp = scott_frame_compare(p)
    assert cmp.ok()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hofmann_lawson_small_posets(n):
    for poset in all_posets_up_to_iso(n):
        assert scott_frame_compare(poset).ok()


def _commutative_tables(n, unit, absorbing=None):
    """Every associative commutative table on range(n) with the given unit
    (and absorbing element): all fillings of the free entries on and above
    the diagonal, kept when associative."""
    pinned = {unit} | ({absorbing} if absorbing is not None else set())
    free = [(a, b) for a in range(n) for b in range(a, n) if a not in pinned and b not in pinned]
    tables = []
    for values in product(range(n), repeat=len(free)):
        t = [[None] * n for _ in range(n)]
        for a in range(n):
            t[unit][a] = t[a][unit] = a
            if absorbing is not None:
                t[absorbing][a] = t[a][absorbing] = absorbing
        for (a, b), v in zip(free, values):
            t[a][b] = t[b][a] = v
        if all(t[t[a][b]][c] == t[a][t[b][c]] for a, b, c in product(range(n), repeat=3)):
            tables.append(t)
    return tables


def _all_semirings(n):
    """Every commutative semiring on range(n) with 0 and 1 pinned to the
    first two elements, labelled copies kept."""
    adds = _commutative_tables(n, unit=0)
    muls = _commutative_tables(n, unit=1, absorbing=0)
    return [
        build_discrete_semiring([str(i) for i in range(n)], 0, 1, add, mul)
        for add, mul in product(adds, muls)
        if all(
            mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
            for a, b, c in product(range(n), repeat=3)
        )
    ]


def test_zariski_exhaustive_small_semirings():
    families = {n: _all_semirings(n) for n in (2, 3, 4)}
    assert len(families[2]) + len(families[3]) == 8
    assert len(families[4]) == 69
    for semirings in families.values():
        for s in semirings:
            cmp = zariski_compare(s)
            assert cmp.ok(), (s.add_t, s.mul_t, cmp)
