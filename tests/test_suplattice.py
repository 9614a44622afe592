"""Tensor products, duals, totally-below, dual bases."""

from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import pfspec.suplattice
from pfspec.caps import Caps
from pfspec.catalog import chain, powerset_lattice
from pfspec.errors import CapExceeded, LawViolation, NotSupercontinuous
from pfspec.iso import find_lattice_iso
from pfspec.order import build_poset, is_distributive, lattice_structure, upset_lattice
from pfspec.suplattice import (
    OMEGA_FALSE,
    OMEGA_TRUE,
    SupMap,
    TensorSpace,
    all_supmaps,
    dual,
    dual_basis,
    omega,
    tensor,
    totally_below,
    supercontinuity_witness,
)
from reference import (
    all_posets_up_to_iso,
    diamond_m3,
    grid,
    induce,
    literal_supmaps,
    pentagon_n5,
    pure,
    run_optimized,
    small_lattices,
    tensor_map,
    totally_below_exhaustive,
)

CATALOG = [chain(2), chain(3), chain(4), powerset_lattice(2), diamond_m3(), pentagon_n5()]


SMALL_LATTICES = [chain(1)] + small_lattices(7)


# ---------------------------------------------------------------------------
# tensor lattices


def test_tensor_omega_omega_is_omega():
    t = tensor([omega(), omega()])
    assert t.n == 2
    # the codiagonal sends the pure tensor (p, q) to p /\ q
    om = omega()
    delta = induce(t, lambda pq: om.meet(pq[0], pq[1]), om)
    for p in range(2):
        for q in range(2):
            assert delta(pure(t, (p, q))) == om.meet(p, q)
    assert find_lattice_iso(t, om) is not None


def _joins_past_the_union(t):
    """The number of ordered pairs of the tensor ``t`` whose union is no
    bi-ideal, after checking that every join ``t`` reads off its order is
    the bi-ideal closure of the union, and every meet the intersection."""
    masks, past = t.element_masks, 0
    for (i, a), (j, b) in product(enumerate(masks), repeat=2):
        assert masks[t.join(i, j)] == t.space.closure(a | b), (i, j)
        assert masks[t.meet(i, j)] == a & b, (i, j)
        past += a | b not in t.mask_index
    return past


def test_tensor_powerset_powerset():
    # 98 pairs join past their union, 48 of them below the top
    p2 = powerset_lattice(2)
    t = tensor([p2, p2])
    assert t.n == 16
    assert find_lattice_iso(t, powerset_lattice(4)) is not None
    assert _joins_past_the_union(t) == 98


def test_tensor_c3_c3_is_grid_upsets():
    t = tensor([chain(3), chain(3)])
    assert t.n == 6
    two_by_two = build_poset(
        ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    )
    up, _ = upset_lattice(two_by_two)
    assert find_lattice_iso(t, up) is not None


def test_tensor_cap():
    p3 = powerset_lattice(3)
    with pytest.raises(CapExceeded):
        tensor([p3, p3], Caps(max_tensor_carrier=24))


def test_tensor_unitor():
    # L (x) Omega is isomorphic to L for every catalog lattice, and each
    # join that the tensor reads off its order is the bi-ideal closure of
    # the union; 12 of the 95 pairs join past their union
    past = 0
    for lat in CATALOG:
        t = tensor([lat, omega()])
        assert find_lattice_iso(t, lat) is not None
        past += _joins_past_the_union(t)
    assert past == 12


def test_equal_supmaps_on_separately_built_lattices_hash_alike():
    # == compares the lattices by value, so the hash must too
    a, b = (lattice_structure(build_poset(["0", "1"], [("0", "1")])) for _ in range(2))
    assert a is not b
    assert SupMap.identity(a) == SupMap.identity(b)
    assert len({SupMap.identity(a), SupMap.identity(b)}) == 1


def test_tensor_map_identity_and_composition():
    c2, c3 = chain(2), chain(3)
    t22 = tensor([c2, c2])
    ident = tensor_map([SupMap.identity(c2), SupMap.identity(c2)], t22, t22)
    assert ident.values == tuple(range(t22.n))
    t33 = tensor([c3, c3])
    f = SupMap(c2, c3, [0, 2])
    g = SupMap(c2, c3, [0, 1])
    fp = SupMap(c3, c3, [0, 1, 1])
    gp = SupMap(c3, c3, [0, 0, 2])
    outer, inner = tensor_map([fp, gp], t33, t33), tensor_map([f, g], t22, t33)
    rhs = tensor_map(
        [SupMap(c2, c3, [fp(v) for v in f.values]), SupMap(c2, c3, [gp(v) for v in g.values])],
        t22,
        t33,
    )
    assert tuple(outer(v) for v in inner.values) == rhs.values


def test_tensor_map_exists_component():
    # (id (x) positivity): L (x) M -> L (x) Omega sends a pure (a, b) to
    # (a, [b positive]); through the unitor that is a if b /= 0 else 0
    c3 = chain(3)
    t = tensor([c3, c3])
    to = tensor([c3, omega()])
    exists = SupMap(c3, omega(), [0, 1, 1])
    f = tensor_map([SupMap.identity(c3), exists], t, to)
    for a in range(3):
        for b in range(3):
            image = f(pure(t, (a, b)))
            expect = pure(to, (a, 1)) if b else to.bottom
            assert image == expect


def test_bi_ideal_closure_is_closure_operator():
    space = TensorSpace((chain(3), powerset_lattice(2)))
    full = (1 << space.ntuples) - 1
    for seed in range(0, full, 97):
        mask = seed & full
        closed = space.closure(mask)
        assert closed | mask == closed
        assert space.closure(closed) == closed
    assert space.closure(0) == space.zero_mask()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, (1 << 9) - 1), st.integers(0, (1 << 9) - 1))
def test_bi_ideal_closure_monotone(m1, m2):
    space = TensorSpace((chain(3), chain(3)))
    c1, c2 = space.closure(m1 & (1 << 9) - 1), space.closure((m1 | m2) & (1 << 9) - 1)
    assert c1 & c2 == c1  # monotone


def test_universal_property_counts():
    # bilinear maps L x M -> N are in bijection with SupMaps L (x) M -> N
    targets = [chain(1), chain(2), chain(3)]
    factor_pairs = [
        (chain(2), chain(2)),
        (chain(2), chain(3)),
        (chain(3), chain(3)),
        (chain(2), powerset_lattice(2)),
    ]
    for left, right in factor_pairs:
        t = tensor([left, right])
        for target in targets:
            bilinear = 0
            for table in product(range(target.n), repeat=left.n * right.n):
                fn = lambda ab: table[ab[0] * right.n + ab[1]]
                ok = all(fn((left.bottom, b)) == target.bottom for b in range(right.n))
                ok = ok and all(fn((a, right.bottom)) == target.bottom for a in range(left.n))
                ok = ok and all(
                    fn((left.join(a, a2), b)) == target.join(fn((a, b)), fn((a2, b)))
                    for a in range(left.n)
                    for a2 in range(left.n)
                    for b in range(right.n)
                )
                ok = ok and all(
                    fn((a, right.join(b, b2))) == target.join(fn((a, b)), fn((a, b2)))
                    for a in range(left.n)
                    for b in range(right.n)
                    for b2 in range(right.n)
                )
                if ok:
                    bilinear += 1
            supmaps = len(all_supmaps(t, target))
            assert bilinear == supmaps


# ---------------------------------------------------------------------------
# duals


def test_dual_omega_self():
    dual(omega())
    assert find_lattice_iso(omega().opposite(), omega()) is not None


def test_dual_powerset_is_complement():
    p2 = powerset_lattice(2)
    pairing = dual(p2)
    # the encoding c represents a -> [a not<= c], which is membership tests
    # against the complement; element index equals its subset mask by
    # construction
    for c in range(4):
        complement = 3 ^ c  # bitmask complement within {1,2}
        for a in range(4):
            assert (pairing(c, a) == OMEGA_TRUE) == bool(a & complement)


def test_supmap_count_c3_to_omega():
    # brute force over all 8 functions: exactly 3 preserve joins
    c3 = chain(3)
    om = omega()
    count = 0
    for values in product(range(2), repeat=3):
        if values[0] != 0:
            continue
        if all(
            values[c3.join(a, b)] == om.join(values[a], values[b])
            for a in range(3)
            for b in range(3)
        ):
            count += 1
    assert count == 3 == c3.n
    assert len(all_supmaps(c3, om)) == 3


def test_dual_roundtrip_encoding():
    # c encodes a SupMap L -> Omega whose kernel has join c
    for lat in CATALOG:
        pairing = dual(lat)
        for c in range(lat.n):
            h = SupMap(lat, omega(), [pairing(c, a) for a in range(lat.n)])
            assert lat.join_iter(a for a in range(lat.n) if h(a) == OMEGA_FALSE) == c


# ---------------------------------------------------------------------------
# totally below


def test_totally_below_chain():
    c4 = chain(4)
    rel = totally_below(c4)
    for b in range(4):
        for a in range(4):
            expect = c4.leq(a, b) and b != c4.bottom
            assert bool(rel[b] >> a & 1) == expect


def test_totally_below_m3():
    m3 = diamond_m3()
    rel = totally_below(m3)
    for b in range(5):
        for a in range(5):
            expect = a == m3.bottom and b != m3.bottom
            assert bool(rel[b] >> a & 1) == expect


def test_totally_below_powerset():
    p2 = powerset_lattice(2)
    rel = totally_below(p2)
    s1, top = p2.index("{1}"), p2.top
    assert rel[top] >> s1 & 1


@pytest.mark.parametrize("lat", CATALOG + [grid(2, 3)])
def test_totally_below_matches_subset_oracle(lat):
    assert totally_below(lat) == totally_below_exhaustive(lat)


def test_totally_below_matches_subset_oracle_on_all_small_lattices():
    assert len(SMALL_LATTICES) == 1 + 1 + 1 + 2 + 5 + 15 + 53
    for lat in SMALL_LATTICES:
        assert totally_below(lat) == totally_below_exhaustive(lat), lat.names


def test_join_irreducibles_match_the_definition():
    # not the bottom, and not the join of the elements strictly below
    for lat in SMALL_LATTICES + CATALOG + [grid(2, 3)]:
        literal = [
            i
            for i in range(lat.n)
            if i != lat.bottom and lat.join_iter(j for j in range(lat.n) if j != i and lat.leq(j, i)) != i
        ]
        assert lat.join_irreducibles() == literal, lat.names
        assert lat.join_irreducibles() == literal, lat.names  # the stored list


def test_join_irreducibles_hands_out_a_fresh_list():
    lat = powerset_lattice(3)
    first = lat.join_irreducibles()
    expected = list(first)
    first.append(lat.top)
    first[0] = lat.bottom
    assert lat.join_irreducibles() == expected


def test_totally_below_exhaustive_cap():
    with pytest.raises(CapExceeded):
        totally_below_exhaustive(powerset_lattice(2), Caps(max_exhaustive=2))


# ---------------------------------------------------------------------------
# dual bases


def test_dual_basis_powerset_atoms():
    p2 = powerset_lattice(2)
    basis = dual_basis(p2)
    assert [p2.names[p] for p in basis.irreducibles] == ["{1}", "{2}"]
    for k, p in enumerate(basis.irreducibles):
        for a in range(p2.n):
            assert (basis.sigma(k, a) == OMEGA_TRUE) == p2.leq(p, a)


def test_dual_basis_c3_reconstructs():
    c3 = chain(3)
    basis = dual_basis(c3)
    assert [c3.names[p] for p in basis.irreducibles] == ["m", "1"]
    for a in range(3):
        assert basis.reconstruct(a) == a


def test_dual_basis_m3_fails():
    m3 = diamond_m3()
    with pytest.raises(NotSupercontinuous):
        dual_basis(m3)
    # the totally-below join under the top is the bottom
    rel = totally_below(m3)
    assert m3.join_mask(rel[m3.top]) == m3.bottom


_BROKEN_DUAL_BASIS = """
import sys
import pfspec.suplattice as suplattice
from pfspec.errors import LawViolation
from reference import pentagon_n5

# pretend every lattice is supercontinuous, so the pentagon gets this far
suplattice.supercontinuity_witness = lambda lat: None
print("optimize", sys.flags.optimize)
try:
    suplattice.dual_basis(pentagon_n5())
except LawViolation as exc:
    print(exc.law, exc.witness)
"""


def test_dual_basis_checks_survive_optimize():
    # python -O strips assert statements; the join-primeness check that
    # stops the pentagon's non-prime irreducible c must not be one
    result = run_optimized(_BROKEN_DUAL_BASIS)
    assert result.stdout == "optimize 1\njoin-primeness ('c', 'c')\n", result.stderr


def _omega_supmaps_by_all_functions(lat):
    """The SupMaps L -> Omega the long way: the join test on each of the
    2**|L| functions."""
    out = set()
    for mask in range(1 << lat.n):
        values = tuple(OMEGA_TRUE if mask >> a & 1 else OMEGA_FALSE for a in range(lat.n))
        if values[lat.bottom] == OMEGA_FALSE and all(
            values[lat.join(a, b)] == (values[a] or values[b])
            for a in range(lat.n)
            for b in range(a, lat.n)
        ):
            out.add(values)
    return out


def test_kernel_search_matches_all_functions(monkeypatch):
    # every lattice on at most 7 elements and the catalog lattices; ``dual``
    # checks its encoding against all_supmaps on each, under its caps
    lattices = SMALL_LATTICES + CATALOG + [grid(2, 3)]
    calls = []
    monkeypatch.setattr(
        pfspec.suplattice,
        "all_supmaps",
        lambda lat, target, caps: calls.append(lat) or all_supmaps(lat, target, caps),
    )
    for lat in lattices:
        expected = _omega_supmaps_by_all_functions(lat)
        assert {f.values for f in all_supmaps(lat, omega())} == expected, lat.names
        pairing = dual(lat)
        assert {tuple(pairing(c, a) for a in range(lat.n)) for c in range(lat.n)} == expected
    assert calls == lattices


def test_dual_checks_its_encoding_on_every_lattice_under_the_callers_caps(monkeypatch):
    # P5 is past the size gate dual once had ((2**32) * 32**2 > 16 * 2**16),
    # under which it skipped its check with no record; the check runs there
    # now, under the caps it is given
    lat = powerset_lattice(5)
    calls = []
    monkeypatch.setattr(
        pfspec.suplattice,
        "all_supmaps",
        lambda lat, target, caps: calls.append(caps) or all_supmaps(lat, target, caps),
    )
    caps = Caps(max_exhaustive=8)
    dual(lat, caps)
    assert calls == [caps]
    with pytest.raises(CapExceeded):
        dual(lat, Caps(max_exhaustive=2))


@pytest.mark.parametrize(
    "lat,drop,add,witness",
    [
        (chain(3), (0, 1, 1), None, (0, 1, 1)),
        (powerset_lattice(2), (0, 1, 0, 1), None, (0, 1, 0, 1)),
        (chain(3), None, (0, 1, 0), (0, 1, 0)),
        (powerset_lattice(2), None, (0, 0, 0, 1), (0, 0, 0, 1)),
        (chain(3), (0, 0, 1), (0, 1, 0), (0, 0, 1)),
    ],
    ids=["C3-drop", "P2-drop", "C3-add", "P2-add", "C3-both"],
)
def test_dual_names_the_least_map_listed_on_one_side_only(monkeypatch, lat, drop, add, witness):
    # a map missing from all_supmaps, or one listed there that no element
    # encodes, fails the encoding check, which names the least value tuple
    # of the two sets' difference
    found = all_supmaps(lat, omega())
    assert drop is None or drop in [f.values for f in found]
    assert add is None or add not in [f.values for f in found]
    listed = [f for f in found if f.values != drop] + ([SimpleNamespace(values=add)] if add else [])
    monkeypatch.setattr(pfspec.suplattice, "all_supmaps", lambda source, target, caps: listed)
    with pytest.raises(LawViolation) as exc:
        dual(lat)
    assert (exc.value.law, exc.value.witness) == ("dual encoding exhausts hom(L, Omega)", witness)


def test_all_supmaps_matches_the_literal_enumeration():
    # the search on the join-irreducibles under the split laws lists the
    # maps that the target.n**|J| assignments, each checked on every join,
    # list: the same values in the same order, into distributive and
    # non-distributive targets, out of sources with and without splits
    sources = small_lattices(6) + [diamond_m3(), pentagon_n5(), powerset_lattice(3)]
    targets = [omega(), chain(3), chain(5), powerset_lattice(2), diamond_m3(), pentagon_n5()]
    maps = 0
    for source in sources:
        for target in targets:
            found = [f.values for f in all_supmaps(source, target)]
            assert found == [f.values for f in literal_supmaps(source, target)], (source.names, target.names)
            maps += len(found)
    assert maps > len(sources) * len(targets)


def test_supmap_search_cap_counts_the_values_tried():
    # C5 into C5: the 4 join-irreducibles form a chain, so the search tries
    # the 5 + 15 + 35 + 70 = 125 monotone partial maps, where the literal
    # enumeration faces 5^4 = 625 assignments; it stops at the 65th value
    # past a budget of 64 and lists the 70 maps within 128
    c5 = chain(5)
    with pytest.raises(CapExceeded) as exc:
        all_supmaps(c5, c5, Caps(max_exhaustive=6))
    assert (exc.value.what, exc.value.size, exc.value.cap) == ("supmap enumeration", 65, 64)
    found = all_supmaps(c5, c5, Caps(max_exhaustive=7))
    assert len(found) == 70
    assert [f.values for f in found] == sorted(f.values for f in found)


def test_supercontinuity_matches_distributivity():
    for lat in CATALOG + [grid(2, 3), chain(5)]:
        assert (supercontinuity_witness(lat) is None) == is_distributive(lat)[0]


def test_duality_unit_element_parity():
    # the unit element's bi-ideal contains exactly the pairs (c, a) bounded
    # by some basis pair
    c3 = chain(3)
    basis = dual_basis(c3)
    space = basis.unit_element.space
    dual_lattice = space.factors[0]
    for idx in basis.unit_element.members():
        c, a = space.tuple_of(idx)
        dominated = any(
            (basis.lattice.leq(a, p) and dual_lattice.leq(c, enc))
            for p, enc in zip(basis.irreducibles, basis.sigma_encodings)
        )
        assert dominated or a == c3.bottom or c == dual_lattice.bottom


_THREE_FACTOR_AS_MAP = """
import sys
from pfspec.errors import LawViolation
from pfspec.suplattice import TensorSpace, omega
from reference import as_map

print("optimize", sys.flags.optimize)
try:
    as_map(TensorSpace((omega(), omega(), omega())).element([(1, 1, 1)]))
except LawViolation as exc:
    print(exc.law, exc.witness)
"""


def test_as_map_factor_check_survives_optimize():
    # the fiber-top vector reads two factors; on three it raises
    # LawViolation, which python -O keeps, instead of an assert
    result = run_optimized(_THREE_FACTOR_AS_MAP)
    assert result.stdout == "optimize 1\nfiber-top vector needs two factors 3\n", result.stderr
