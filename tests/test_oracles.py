"""Brute-force oracle comparisons with the pipeline."""

import random
from collections import Counter
from functools import cache, partial
from itertools import product
from pathlib import Path

import pytest

import pfspec.quantale
import pfspec.spectrum
from pfspec.algebra import (
    FiniteCommMonoid,
    LocalicSemiringData,
    build_discrete_semiring,
    scott_localic_lattice,
    to_localic,
)
from pfspec.caps import DEFAULT_CAPS, Caps
from pfspec.catalog import chain, powerset_lattice, quantale_catalog
from pfspec.cli import _localic_data
from pfspec.errors import CapExceeded, CycleError, LawViolation, NotJoinPreserving, NotMonotone, NotSupercontinuous
from pfspec.iso import find_poset_iso
from pfspec.locale import locale_from_frame
from pfspec.modelfile import LatticeBlock, MonoidBlock, SemiringBlock, parse_model, realize
from pfspec.oracles import (
    ideal_product,
    prime_filters,
    prime_ideals,
    hofmann_lawson_compare,
    radical_ideals,
    semiring_ideals,
    stone_compare,
    zariski_compare,
)
from pfspec.order import (
    FinitePoset,
    Lattice,
    bits,
    build_poset,
    downset_lattice,
    is_distributive,
    lattice_structure,
    least_closure,
    monotone_search,
    upset_lattice,
)
from pfspec.quantale import (
    Nucleus,
    Quantale,
    QuantaleHom,
    _hom_laws,
    enumerate_homs,
    frame_quantale,
    least_nucleus,
    localic_reflection,
    quotient_by_nucleus,
    two_sided_reflection,
)
from pfspec.spectrum import (
    _absorb,
    _anti_ideal_laws,
    _checked_universal,
    _fixed_class_masks,
    _ideal_witness,
    _prime_at_generators,
    anti_ideals,
    count_saturated_opens,
    dualisability_conditions,
    ideal_quantale,
    idempotent_points,
    map_of_element,
    monoid_collapse,
    monoid_ideal_quantale,
    opens_oracle,
    radical_frame,
    representability_check,
    saturated_replacement,
    saturation,
    universal_element,
)
from pfspec.suplattice import SupMap, dual_basis, j_evaluator, omega, supercontinuity_witness
from reference import (
    all_posets_up_to_iso,
    close,
    dual_numbers_of_the_plane,
    full_anti_ideal_laws,
    full_hom_laws,
    grid,
    literal_checked_universal,
    literal_ideal_witness,
    literal_monotone,
    literal_pointwise_bound,
    literal_semiring_laws,
    literal_supmaps,
    monoid_catalog,
    nextclosure_ideals,
    outcome,
    pairwise_owc_binop,
    plane_modulo_cubes,
    semiring_catalog,
    small_lattices,
)

MODELS = sorted((Path(__file__).resolve().parent.parent / "models").glob("*.model"))


def test_zariski_z4_counts():
    s = dict(semiring_catalog())["Z4"]
    ideals = semiring_ideals(s)
    assert len(ideals) == 3
    assert len(radical_ideals(s, ideals)) == 2
    assert len(prime_ideals(s, ideals)) == 1
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


def test_prime_filters_list_the_up_sets_under_the_cap():
    # P3 has 20 up-sets, P6 7,828,354: the listing stops past the budget
    assert len(prime_filters(powerset_lattice(3), Caps(max_exhaustive=5))) == 3
    with pytest.raises(CapExceeded):
        prime_filters(powerset_lattice(3), Caps(max_exhaustive=4))
    with pytest.raises(CapExceeded):
        prime_filters(powerset_lattice(6))


def _scott_frame_compare(poset):
    """The spectrum of the up-set frame L of ``poset``, with its Scott
    topology, is L itself with point poset isomorphic to ``poset``: the
    Hofmann-Lawson comparison on L, whose points are matched with the
    join-irreducibles of L, and those with ``poset``."""
    lat, _ = upset_lattice(poset)
    loc, _, _ = locale_from_frame(lat)
    return hofmann_lawson_compare(lat).ok() and find_poset_iso(loc.points, poset) is not None


def test_hofmann_lawson_two_chain():
    p = build_poset(["a", "b"], [("a", "b")])
    assert _scott_frame_compare(p)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hofmann_lawson_small_posets(n):
    for poset in all_posets_up_to_iso(n):
        assert _scott_frame_compare(poset)


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


# ---------------------------------------------------------------------------
# monoid ideals against the all-down-sets OWC quantale


def _owc_monoid_ideals(data):
    """MM(R) the long way: the quantale of all down-sets with the convolution
    product and the unit point's closure as unit, then its two-sided
    reflection.  Returns (quantale, point masks of its elements)."""
    pts = data.locale.points
    dn_lat, dn_masks = downset_lattice(pts)
    dn_index = {m: i for i, m in enumerate(dn_masks)}
    mult = [[dn_index[m] for m in row] for row in pairwise_owc_binop(pts, dn_masks, data.mul_t)]
    owc = Quantale(dn_lat, mult, dn_index[pts.down[data.one_point]])
    ideals, _ = two_sided_reflection(owc)
    masks = [dn_masks[i] for i in range(dn_lat.n) if mult[i][dn_lat.top] == i]
    return ideals, masks


def _assert_matches_owc_oracle(data):
    mi = monoid_ideal_quantale(data)
    expected, masks = _owc_monoid_ideals(data)
    got = mi.monoid_ideals
    assert list(mi.ideal_masks) == masks
    for attr in ("names", "up", "join_t", "meet_t", "bottom", "top"):
        assert getattr(got.carrier, attr) == getattr(expected.carrier, attr), attr
    assert got.mult_t == expected.mult_t
    assert got.unit == expected.unit


def _catalog_and_small_objects():
    """The 13 catalog monoids and semirings and the 77 semirings of order
    2 to 4, as localic data."""
    objects = [to_localic(m, name=name) for name, m in monoid_catalog()]
    objects += [to_localic(s, name=name) for name, s in semiring_catalog()]
    objects += [to_localic(s) for n in (2, 3, 4) for s in _all_semirings(n)]
    assert len(objects) == 90
    return objects


def _model_objects(path):
    model = parse_model(path)
    return [
        _localic_data(model, block.name, DEFAULT_CAPS, partial(realize, model))
        for block in model.blocks
        if isinstance(block, (MonoidBlock, SemiringBlock, LatticeBlock))
    ]


def test_monoid_ideals_match_owc_oracle_on_catalogs_and_small_semirings():
    for data in _catalog_and_small_objects():
        _assert_matches_owc_oracle(data)


@pytest.mark.parametrize("path", MODELS, ids=[p.stem for p in MODELS])
def test_monoid_ideals_match_owc_oracle_on_model_files(path):
    for data in _model_objects(path):
        _assert_matches_owc_oracle(data)


@pytest.mark.parametrize("lat", [chain(5), powerset_lattice(3)], ids=["C5", "P3"])
def test_monoid_ideals_match_owc_oracle_on_scott_lattices(lat):
    _assert_matches_owc_oracle(scott_localic_lattice(lat))


def test_the_pointwise_bound_matches_the_walk_over_every_down_set():
    # the bound read on the principal down-sets of the points against the
    # walk over every open and every down-set: the catalogs, the semirings
    # of order 2 to 4, every object of the model files and Scott lattices
    objects = _catalog_and_small_objects()
    objects += [data for path in MODELS for data in _model_objects(path)]
    objects += [scott_localic_lattice(lat) for lat in (chain(5), powerset_lattice(3), grid(2, 3))]
    for data in objects:
        assert dualisability_conditions(data).pointwise_bound == literal_pointwise_bound(data), data.name


def _catalog_and_model_objects():
    """The 13 catalog monoids and semirings and the model-file objects."""
    objects = [to_localic(m, name=name) for name, m in monoid_catalog()]
    objects += [to_localic(s, name=name) for name, s in semiring_catalog()]
    return objects + [data for path in MODELS for data in _model_objects(path)]


def test_the_opens_have_a_dual_basis_exactly_when_supercontinuous():
    # dualisability_conditions reads the opens' supercontinuity off the
    # totally-below relation alone, so the dual basis of the opens, with
    # every check it runs (join-primeness, reconstruction, the encoding
    # through ``dual`` and triangle 2), is built here on the catalogs,
    # models/ and Scott lattices up to P4
    objects = _catalog_and_model_objects()
    objects += [scott_localic_lattice(lat) for lat in (chain(5), powerset_lattice(3), grid(3, 3), powerset_lattice(4))]
    for data in objects:
        opens = data.locale.opens
        try:
            dual_basis(opens)
            built = True
        except NotSupercontinuous:
            built = False
        assert built == (supercontinuity_witness(opens) is None), data.name
        assert dualisability_conditions(data).opens_supercontinuous == built, data.name


def test_dual_lattices_are_built_only_where_they_are_read(monkeypatch):
    # neither ``dual`` nor ``dual_basis`` builds an opposite lattice; the
    # dualisability conditions build the saturated frame's basis and none
    # of the opens, and the opens oracle builds one opposite, the dual
    # factor of that basis's unit element
    built, bases = [], []
    opposite, basis_of = Lattice.opposite, pfspec.spectrum.dual_basis
    monkeypatch.setattr(Lattice, "opposite", lambda lat: built.append((lat, opposite(lat))) or built[-1][1])
    monkeypatch.setattr(
        pfspec.spectrum, "dual_basis", lambda lat, caps: bases.append(basis_of(lat, caps)) or bases[-1]
    )
    for data in _catalog_and_model_objects():
        saturated = saturation(data).saturated
        dualisability_conditions(data)
        assert built == [] and len(bases) == 1 and bases[0].lattice is saturated, data.name
        dual_basis(data.locale.opens)
        assert built == [], data.name
        bases.clear()
        opens_oracle(data)
        assert len(built) == 1 and built[0][0] is saturated, data.name
        assert built[0][1] is bases[0].unit_element.space.factors[0], data.name
        built.clear()
        bases.clear()


# ---------------------------------------------------------------------------
# the comultiplication law, which the class check implies


def test_saturated_opens_obey_the_comultiplication_law():
    # (xz)(yw) in s implies xy in s, by the loop over every quadruple
    for data in _catalog_and_small_objects():
        n = data.locale.points.n
        for s in saturation(data).sat_masks:
            for x, y, z, w in product(range(n), repeat=4):
                if s >> data.mul(data.mul(x, z), data.mul(y, w)) & 1:
                    assert s >> data.mul(x, y) & 1, (data.name, s, x, y, z, w)


# ---------------------------------------------------------------------------
# the opens oracle against the opens-free pipeline


def _assert_opens_oracle_agrees(data):
    """Run the opens oracle, then compare the pipeline's saturated opens with
    the literal definition over every open, and the pipeline's universal map
    with the bi-ideal form the oracle built."""
    check = opens_oracle(data)
    loc = data.locale
    n = loc.points.n
    literal = [
        u
        for u in loc.open_masks
        if all(u >> x & 1 or not u >> data.mul(x, y) & 1 for x, y in product(range(n), repeat=2))
    ]
    assert list(saturation(data).sat_masks) == literal
    assert [loc.open_masks[i] for i in check.closure.fixed_points()] == literal
    if data.has_addition:
        g = radical_frame(data).universal_map
    else:
        g = monoid_ideal_quantale(data).universal_map
    assert map_of_element(loc, check.universal) == g


def test_opens_oracle_on_catalogs_and_small_semirings():
    for data in _catalog_and_small_objects():
        _assert_opens_oracle_agrees(data)


@pytest.mark.parametrize("path", MODELS, ids=[p.stem for p in MODELS])
def test_opens_oracle_on_model_files(path):
    for data in _model_objects(path):
        _assert_opens_oracle_agrees(data)


@pytest.mark.parametrize(
    "lat",
    [chain(5), powerset_lattice(3), grid(3, 3), powerset_lattice(4)],
    ids=["C5", "P3", "G33", "P4"],
)
def test_opens_oracle_on_scott_lattices(lat):
    _assert_opens_oracle_agrees(scott_localic_lattice(lat))


# ---------------------------------------------------------------------------
# the pruned searches against the leaf-tested routes they replace


def _leaf_tested_anti_ideals(data, quantale, mode):
    """Anti-ideals the long way: every monotone map with the unit (and
    zero) pinned, the laws tested on complete maps only."""
    pts = data.locale.points
    q_lat = quantale.carrier
    order = pts.linear_extension()
    g = [None] * pts.n
    found = []

    def conditions_hold():
        for x, y in product(range(pts.n), repeat=2):
            if quantale.mul(g[x], g[y]) != g[data.mul(x, y)]:
                return False
            if mode == "semiring" and not q_lat.leq(g[data.add(x, y)], q_lat.join(g[x], g[y])):
                return False
        return True

    def backtrack(k):
        if k == pts.n:
            if conditions_hold():
                found.append(tuple(g))
            return
        x = order[k]
        candidates = q_lat.up[q_lat.join_iter(g[y] for y in bits(pts.down[x] ^ 1 << x))]
        if x == data.one_point:
            candidates &= 1 << quantale.unit
        elif mode == "semiring" and x == data.zero_point:
            candidates &= 1 << q_lat.bottom
        for q in bits(candidates):
            g[x] = q
            backtrack(k + 1)

    backtrack(0)
    return sorted(found)


def _filtered_supmap_homs(q1, q2, kind):
    """Quantale (or frame) homs the long way: every SupMap from
    ``literal_supmaps``, kept when it preserves the unit and every product
    (and, for frames, top and every meet)."""
    src, tgt = q1.carrier, q2.carrier
    out = []
    for f in literal_supmaps(src, tgt):
        v = f.values
        if v[q1.unit] != q2.unit:
            continue
        if any(v[q1.mul(a, b)] != q2.mul(v[a], v[b]) for a, b in product(range(src.n), repeat=2)):
            continue
        if kind == "frame" and (
            v[src.top] != tgt.top
            or any(
                v[src.meet(a, b)] != tgt.meet(v[a], v[b])
                for a, b in product(range(src.n), repeat=2)
            )
        ):
            continue
        out.append(v)
    return out


def test_anti_ideal_search_matches_leaf_testing_on_small_semirings():
    # the search runs on the holoid classes; the leaf-tested maps run on the
    # points.  Every commutative semiring of order 2 to 4, the catalog
    # monoids and semirings and every object of the model files, into every
    # catalog quantale, both modes (monoid mode alone on monoid-only data):
    # the same maps in the same order.  The Scott lattices P3 and grid(2,3)
    # add points whose linear extension is not index order
    catalog = quantale_catalog()
    objects = _catalog_and_small_objects()
    objects += [data for path in MODELS for data in _model_objects(path)]
    objects += [scott_localic_lattice(powerset_lattice(3)), scott_localic_lattice(grid(2, 3))]
    assert len(objects) == 107
    for data in objects:
        modes = ("semiring", "monoid") if data.has_addition else ("monoid",)
        for name, q in catalog:
            for mode in modes:
                expected = _leaf_tested_anti_ideals(data, q, mode)
                assert list(anti_ideals(data, q, mode).maps) == expected, (data.name, name, mode)


def _expanded_homs(q1, q2):
    """The homs of ``enumerate_homs``, held on the join-irreducibles of q1,
    each expanded to every element by ``j_evaluator`` and checked as a
    QuantaleHom: their value tables, sorted."""
    value = j_evaluator(q1.carrier, q2.carrier)
    n = q1.carrier.n
    return sorted(QuantaleHom(q1, q2, [value(f, a) for a in range(n)]).values for f in enumerate_homs(q1, q2))


@cache
def _ideal_quantale_sources():
    """(name, MM(R)) and, for semirings, (name, Idl(R)) of the 90 catalog
    and small objects."""
    sources = []
    for data in _catalog_and_small_objects():
        sources.append((data.name, monoid_ideal_quantale(data).monoid_ideals))
        if data.has_addition:
            sources.append((data.name, ideal_quantale(data).ideals))
    assert len(sources) == 172
    return sources


def test_hom_search_matches_filtered_supmaps_on_small_semirings():
    # two-sided homs out of Idl(R) and out of MM(R) of the 90 catalog and
    # small objects, into every catalog quantale: the same maps
    catalog = quantale_catalog()
    for data_name, source in _ideal_quantale_sources():
        for name, q in catalog:
            assert _expanded_homs(source, q) == _filtered_supmap_homs(source, q, "two_sided"), (data_name, name)


def test_a_product_past_a_union_of_principal_ideals_is_the_ideal_product():
    # the products of Idl(R) that are no union of class down-sets are
    # joins of principal ideals past their union: each product must be the
    # additive span of the pointwise products, here (x,y)^2 = (x^2, xy, y^2)
    ring = plane_modulo_cubes()
    iq = ideal_quantale(to_localic(ring))
    q, masks = iq.ideals, iq.ideal_masks
    for i, j in product(range(q.carrier.n), repeat=2):
        span = {0}
        for a, b in product(bits(masks[i]), bits(masks[j])):
            p = ring.mul_t[a][b]
            if p not in span:
                span |= {ring.add_t[p][s] for s in span}
        assert masks[q.mul(i, j)] == sum(1 << s for s in span), (q.carrier.names[i], q.carrier.names[j])
    maximal = masks.index(sum(1 << a for a in range(0, 64, 2)))
    assert (q.carrier.n, masks[q.mul(maximal, maximal)]) == (27, sum(1 << a for a in range(0, 64, 8)))


def test_hom_search_keeps_the_joins_of_a_non_distributive_source():
    # a map on J may miss a join of M3: f(x) v f(y) need not reach f((x,y)).
    # The search's join laws leave exactly the filtered sup-maps
    source = ideal_quantale(to_localic(dual_numbers_of_the_plane())).ideals
    assert source.carrier.n == 6
    assert is_distributive(source.carrier) == (False, ("{0,x}", "{0,y}", "{0,x+y}"))
    counts = []
    for name, q in quantale_catalog():
        expanded = _expanded_homs(source, q)
        assert expanded == _filtered_supmap_homs(source, q, "two_sided"), name
        counts.append(len(expanded))
    assert counts == [1, 1, 1, 1, 1, 5, 5, 12]


def _all_below_floor_search(variables, lat, laws, budget, what):
    """``order.monotone_search`` with the floor of v read as the join of g
    over every variable strictly below v, not over its lower covers, and
    the candidates as ``bits(lat.up[floor])``.  Returns the maps found and
    the nodes the search took."""
    order = variables.linear_extension()
    rank = [0] * variables.n
    for k, v in enumerate(order):
        rank[v] = k + 1
    due = [[] for _ in range(variables.n + 1)]
    for scope, test in laws:
        due[max((rank[v] for v in bits(scope)), default=0)].append(test)
    below = [variables.down[v] ^ 1 << v for v in range(variables.n)]
    g = [None] * variables.n
    found = []
    nodes = 0

    def extend(k):
        nonlocal nodes
        if k == len(order):
            found.append(tuple(g))
            return
        v = order[k]
        tests = due[k + 1]
        for q in bits(lat.up[lat.join_iter(g[u] for u in bits(below[v]))]):
            nodes += 1
            if nodes > budget:
                raise CapExceeded(what, nodes, budget)
            g[v] = q
            if all(test(g) for test in tests):
                extend(k + 1)

    if all(test(g) for test in due[0]):
        extend(0)
    return found, nodes


def _search_outcome(search, variables, lat, laws, budget, what):
    """The maps a search returns, or the (what, size, cap) it raises."""
    try:
        return search(variables, lat, laws, budget, what)
    except CapExceeded as exc:
        return exc.what, exc.size, exc.cap


def test_search_on_lower_covers_matches_the_all_below_floor_search(monkeypatch):
    # every anti-ideal search on the class order of the 90 catalog and small
    # objects into every catalog quantale, both modes, and every hom search
    # on the J poset of their Idl(R) and MM(R): the same maps in the same
    # order, and the same CapExceeded at the budget of the cap tests and at
    # half of the nodes the search takes to complete
    oracle = lambda *args: _all_below_floor_search(*args)[0]
    outcomes = Counter()

    def compared(variables, lat, laws, budget, what):
        expected, nodes = _all_below_floor_search(variables, lat, laws, budget, what)
        got = monotone_search(variables, lat, laws, budget, what)
        assert got == expected, what
        for cap in (16, nodes // 2):
            outcome = _search_outcome(monotone_search, variables, lat, laws, cap, what)
            assert outcome == _search_outcome(oracle, variables, lat, laws, cap, what), (what, cap)
            outcomes[what, type(outcome)] += 1
        return got

    monkeypatch.setattr(pfspec.spectrum, "monotone_search", compared)
    monkeypatch.setattr(pfspec.quantale, "monotone_search", compared)
    catalog = quantale_catalog()
    for data in _catalog_and_small_objects():
        for mode in ("semiring", "monoid") if data.has_addition else ("monoid",):
            for _, q in catalog:
                anti_ideals(data, q, mode)
    for _, source in _ideal_quantale_sources():
        for _, q in catalog:
            enumerate_homs(source, q)
    assert outcomes[("anti-ideal enumeration", tuple)] > 0
    assert outcomes[("hom enumeration", tuple)] > 0
    assert sum(outcomes.values()) == 2 * len(catalog) * (82 * 2 + 8 + 172)


@cache
def _route_guard_objects():
    """The objects each new route is checked on against the route it
    replaced: the 90 catalog and small objects, the 909 ordered semirings,
    the 15 model-file objects, and Scott chain(5), P3, grid(3,3) and P4."""
    objects = _catalog_and_small_objects() + _ordered_small_semirings()
    objects += [data for path in MODELS for data in _model_objects(path)]
    objects += [scott_localic_lattice(lat) for lat in (chain(5), powerset_lattice(3), grid(3, 3), powerset_lattice(4))]
    assert len(objects) == 90 + 909 + 15 + 4
    return objects


def _class_masks(classes, masks):
    """The classes that meet each of the point masks ``masks``."""
    return [sum(1 << c for c, p in enumerate(classes.members) if p & m) for m in masks]


def test_the_ideal_sum_is_the_closed_union_on_every_pair_of_ideals():
    # the join of Idl(R) as an ideal sum, with no fixpoint loop, and as
    # Idl(R) reads it off its order, against the least ideal over the union
    # by the loop, on every ordered pair of ideals; 182 pairs join past
    # their union
    pairs = Counter()
    for data in filter(lambda data: data.has_addition, _route_guard_objects()):
        classes = data.classes
        ideals = _fixed_class_masks(classes, DEFAULT_CAPS)
        iq = ideal_quantale(data)
        cmasks = _class_masks(classes, iq.ideal_masks)
        at, join_t = {c: k for k, c in enumerate(cmasks)}, iq.ideals.carrier.join_t
        for a, b in product(ideals, repeat=2):
            joined = close(classes, a, a | b)
            assert classes.ideal_sum(a, a | b) == joined, (data.name, a, b)
            assert cmasks[join_t[at[a]][at[b]]] == joined, (data.name, a, b)
            pairs[a | b in ideals] += 1
    assert (pairs[False], pairs[True]) == (182, 9481)


def test_the_ideals_are_listed_as_nextclosure_over_the_fixpoint_loop():
    # every class down-set is an ideal, so the least ideal over a set of
    # classes is the join in Idl(R) of its principal ideals: against the
    # loop, the same bottom, the same least ideal over each of the 9,094
    # class sets of the objects with at most 8 classes, the same product in
    # each of the 9,663 cells of Idl(R), the least ideal over the class
    # down-sets of ce for c and e maximal in the factors, and the same
    # ideals, each listed once, as NextClosure over the loop
    objects = [data for data in _route_guard_objects() if data.has_addition]
    sets = cells = 0
    for data in objects:
        classes = data.classes
        down, maximal = classes.order.down, classes.order.maximal
        assert classes.bottom == close(classes, 0, 1 << classes.cls_of[data.zero_point]), data.name
        iq = ideal_quantale(data)
        q, lat = iq.ideals, iq.ideals.carrier
        cmasks = _class_masks(classes, iq.ideal_masks)
        principal = [cmasks.index(d) for d in down]
        if classes.order.n <= 8:
            for u in range(1 << classes.order.n):
                joined = cmasks[lat.join_iter(principal[c] for c in bits(u))]
                assert joined == close(classes, classes.bottom, u), (data.name, u)
            sets += 1 << classes.order.n
        for i, j in product(range(lat.n), repeat=2):
            u = 0
            for c, e in product(maximal(cmasks[i]), maximal(cmasks[j])):
                u |= down[classes.mul_t[c][e]]
            assert cmasks[q.mul(i, j)] == close(classes, classes.bottom, u), (data.name, i, j)
            cells += 1
        assert sorted(_fixed_class_masks(classes, DEFAULT_CAPS)) == sorted(nextclosure_ideals(classes)), data.name
    assert (len(objects), sets, cells) == (1004, 9094, 9663)


def test_the_points_are_the_idempotent_classes_on_the_route_guard_family():
    # idempotent_points against the Omega search it replaced, the same masks
    # in the same order, on the 2,022 (object, mode) pairs of the family and
    # on the Scott chain(60), P6 and grid(6,6).  In semiring mode the zero
    # check drops the whole space from every object, and the sum check
    # drops more on 21 of the family's objects and on P6 and grid(6,6)
    omega_valued = frame_quantale(omega())
    scott = [scott_localic_lattice(lat) for lat in (chain(60), powerset_lattice(6), grid(6, 6))]
    pairs, sums_bind = 0, Counter()
    for data in _route_guard_objects() + scott:
        got = {}
        for mode in ("semiring", "monoid") if data.has_addition else ("monoid",):
            searched = anti_ideals(data, omega_valued, mode).maps
            got[mode] = idempotent_points(data, mode)
            assert got[mode] == tuple(sum(1 << x for x, v in enumerate(g) if v) for g in searched), (data.name, mode)
            pairs += 1
        if data.has_addition:
            assert data.locale.points.full in set(got["monoid"]) - set(got["semiring"]), data.name
            sums_bind[data in scott] += len(got["monoid"]) - len(got["semiring"]) > 1
    assert pairs == 2 * 1004 + 14 + 2 * 3
    assert (sums_bind[False], sums_bind[True]) == (21, 2)


def _search_and_nodes(variables, lat, laws, budget):
    """The outcome of ``monotone_search`` under ``laws`` (``_search_outcome``)
    and the nodes it tried, counted by a law on each variable that is judged
    there before the others."""
    nodes = 0

    def count(g):
        nonlocal nodes
        nodes += 1
        return True

    counted = [(1 << v, count) for v in range(variables.n)] + laws
    return _search_outcome(monotone_search, variables, lat, counted, budget, "anti-ideal enumeration"), nodes


def test_the_omitted_anti_ideal_laws_never_prune_the_search():
    # the search builds only monotone maps, which obey every law that
    # _anti_ideal_laws omits: with the full list it finds the same maps in
    # the same order after the same nodes, and stops with the same
    # CapExceeded at half of the nodes it takes to complete
    catalog = quantale_catalog()
    omitted = searches = 0
    for data in _route_guard_objects():
        classes = data.classes
        for mode in ("semiring", "monoid") if data.has_addition else ("monoid",):
            for name, q in catalog:
                pruned, full = (
                    [(scope, test) for _, scope, test in laws(data, classes, q, mode)]
                    for laws in (_anti_ideal_laws, full_anti_ideal_laws)
                )
                omitted += len(full) - len(pruned)
                expected = _search_and_nodes(classes.order, q.carrier, full, DEFAULT_CAPS.search_budget())
                got = _search_and_nodes(classes.order, q.carrier, pruned, DEFAULT_CAPS.search_budget())
                assert got == expected, (data.name, name, mode)
                half = expected[1] // 2
                expected = _search_and_nodes(classes.order, q.carrier, full, half)
                assert _search_and_nodes(classes.order, q.carrier, pruned, half) == expected, (data.name, name, mode)
                searches += 1
    assert searches == len(catalog) * (2 * (82 + 909 + 9 + 4) + 8 + 6)
    assert omitted > 0


def _quantic_sides(data):
    """(mode, quantale, point masks, universal map) for each mode of
    ``data``: Idl(R) in semiring mode, for a semiring, and MM(R) in monoid
    mode."""
    mi = monoid_ideal_quantale(data)
    sides = [("monoid", mi.monoid_ideals, mi.ideal_masks, mi.universal_map)]
    if data.has_addition:
        iq = ideal_quantale(data)
        sides.insert(0, ("semiring", iq.ideals, iq.ideal_masks, iq.universal_map))
    return sides


def _one_class_changes(order, lat, on_classes):
    """Each (c, v, monotone) with v a value other than ``on_classes[c]`` at
    the class c: the bottom, the top, and at most four values that keep the
    map monotone, those between the join of the map below c and the meet of
    the map above c."""
    changes = []
    for c, value in enumerate(on_classes):
        floor = lat.join_iter(on_classes[d] for d in bits(order.down[c] ^ 1 << c))
        ceiling = lat.meet_iter(on_classes[d] for d in bits(order.up[c] ^ 1 << c))
        between = [v for v in bits(lat.up[floor] & lat.down[ceiling]) if v != value][:4]
        changes += [(c, v, True) for v in between]
        changes += [(c, v, False) for v in {lat.bottom, lat.top} - {value, *between}]
    return changes


def _law_of(outcome):
    """The law of a LawViolation's ``outcome``, or None for a pass."""
    return outcome and outcome[1].partition(" violated at")[0]


def test_the_universal_element_check_on_generators_agrees_with_the_full_scans():
    # _checked_universal against literal_checked_universal, its checks by
    # their full scans, in both modes of the 1,018 objects of the
    # route-guard family: on the universal map, on each one-class change of
    # it, and on the universal map into the frame on Idl(R)'s carrier where
    # that carrier is distributive and Idl(R) is not that frame.  A change
    # fails at monotonicity or at the least element, before the laws, so
    # the laws are also compared alone: _prime_at_generators against every
    # law of full_anti_ideal_laws, on the universal class map and its
    # monotone one-class changes
    checks, laws = Counter(), Counter()
    for data in _route_guard_objects():
        classes = data.classes
        for mode, q, masks, g in _quantic_sides(data):
            quantales = [q]
            if mode == "semiring" and not q.is_frame() and not q.carrier.splits():
                quantales.append(frame_quantale(q.carrier))
            for quantale in quantales:
                expected = outcome(literal_checked_universal, data, quantale, masks, g, mode)
                assert outcome(_checked_universal, data, quantale, masks, g, mode) == expected, (data.name, mode)
                checks["universal" if quantale is q else "into the frame", _law_of(expected)] += 1
            full = [test for _, _, test in full_anti_ideal_laws(data, classes, q, mode)]
            on_classes = [g[(m & -m).bit_length() - 1] for m in classes.members]
            changes = _one_class_changes(classes.order, q.carrier, on_classes)
            for c, v, monotone in [(None, None, True)] + changes:
                changed, on_changed = list(g), list(on_classes)
                if c is not None:
                    on_changed[c] = v
                    for x in bits(classes.members[c]):
                        changed[x] = v
                    args = (data, q, masks, tuple(changed), mode)
                    expected = outcome(literal_checked_universal, *args)
                    assert outcome(_checked_universal, *args) == expected, (data.name, mode, c, v)
                    checks["change", _law_of(expected)] += 1
                if monotone:
                    held = all(test(on_changed) for test in full)
                    assert _prime_at_generators(data, q, on_changed, mode) == held, (data.name, mode, c, v)
                    laws[held] += 1
    assert checks == {
        ("universal", None): 2022,
        ("into the frame", "universal element multiplicativity"): 249,
        ("change", "universal element is monotone"): 4694,
        ("change", "universal element is the least ideal at each point"): 8802,
    }
    assert laws == {True: 6237, False: 4578}


def test_the_ideal_predicate_on_generators_is_the_absorption_predicate():
    # _ideal_witness reads absorption at the multiplicative generators and
    # down-closure at the maximal points: against the _absorb predicate of
    # literal_ideal_witness on every down-set of the class order of each
    # semiring of the route-guard family, pulled back to the points, and on
    # every set of points of those with at most 6 points, one at a time and
    # as one list
    checked = rejected = 0
    for data in filter(lambda data: data.has_addition, _route_guard_objects()):
        classes, n = data.classes, data.locale.points.n
        masks = [classes.points(d) for d in classes.order.down_sets()]
        if n <= 6:
            masks += range(1 << n)
        for m in masks:
            expected = literal_ideal_witness(data, [m])
            assert _ideal_witness(data, [m]) == expected, (data.name, m)
            rejected += expected is not None
        assert _ideal_witness(data, masks) == literal_ideal_witness(data, masks), data.name
        checked += len(masks)
    assert (checked, rejected) == (19811, 13994)


def test_radical_frame_builds_no_anti_ideal_law_closures(monkeypatch):
    # the universal element's check builds the law list of the search only
    # when a law fails: with that list refused, radical_frame passes on the
    # route-guard family, the catalogs and models/ among it, and on the
    # Scott inputs of the benchmark's ladder and chain(60), P6 and grid(6,6)
    def refuse(*args):
        raise AssertionError("the universal element built the anti-ideal law closures")

    monkeypatch.setattr(pfspec.spectrum, "_anti_ideal_laws", refuse)
    lattices = (powerset_lattice(3), powerset_lattice(4), grid(4, 4), grid(2, 8), chain(16))
    lattices += (chain(60), powerset_lattice(6), grid(6, 6))
    for data in _route_guard_objects() + [scott_localic_lattice(lat) for lat in lattices]:
        radical_frame(data)


def test_the_omitted_hom_laws_never_prune_the_search():
    # the hom search builds only monotone maps on J, which obey every law
    # that _hom_laws omits: out of the 172 sources and Idl(F2[x,y]/(x,y)^2),
    # whose splits add join laws, into every catalog quantale, the full list
    # finds the same homs in the same order after the same nodes, and stops
    # with the same CapExceeded at half of the nodes it takes to complete.
    # Only frame targets lose laws, so the three nil chains keep them all
    sources = [source for _, source in _ideal_quantale_sources()]
    sources.append(ideal_quantale(to_localic(dual_numbers_of_the_plane())).ideals)
    omitted = Counter()
    for source in sources:
        j_poset = source.carrier.j_rows()[1]
        for name, q in quantale_catalog():
            pruned, full = _hom_laws(source, q), full_hom_laws(source, q)
            omitted[name] += len(full) - len(pruned)
            expected = _search_and_nodes(j_poset, q.carrier, full, DEFAULT_CAPS.search_budget())
            assert _search_and_nodes(j_poset, q.carrier, pruned, DEFAULT_CAPS.search_budget()) == expected, name
            half = expected[1] // 2
            expected = _search_and_nodes(j_poset, q.carrier, full, half)
            assert _search_and_nodes(j_poset, q.carrier, pruned, half) == expected, name
    assert sum(omitted.values()) > 0
    assert [omitted[name] for name in ("nilC3", "nilC4", "nilC5")] == [0, 0, 0]


def _join_over_all_j_below(q1, q2, g, a):
    lat = q1.carrier
    return q2.carrier.join_iter(g[k] for k, p in enumerate(lat.join_irreducibles()) if lat.leq(p, a))


def test_hom_values_from_the_maximal_j_match_the_join_over_all_j():
    # every hom out of the 172 sources and out of Idl(F2[x,y]/(x,y)^2),
    # M3 below a top, at every element
    sources = [source for _, source in _ideal_quantale_sources()]
    sources.append(ideal_quantale(to_localic(dual_numbers_of_the_plane())).ideals)
    homs = 0
    for source in sources:
        for _, q in quantale_catalog():
            value = j_evaluator(source.carrier, q.carrier)
            for f in enumerate_homs(source, q):
                homs += 1
                for a in range(source.carrier.n):
                    assert value(f, a) == _join_over_all_j_below(source, q, f, a)
    assert homs > len(sources)


def test_hom_evaluator_joins_two_incomparable_maximal_j():
    # the top of P2 has the two atoms as its maximal J; the identity hom,
    # held on them, is read there as their join
    p2 = dict(quantale_catalog())["P2frame"]
    lat = p2.carrier
    assert lat.j_rows()[0][lat.top] == (0, 1)  # the maximal J below the top
    atoms = tuple(lat.join_irreducibles())
    assert (atoms, lat.join(*atoms)) == ((1, 2), lat.top)
    assert atoms in enumerate_homs(p2, p2)
    assert j_evaluator(lat, lat)(atoms, lat.top) == lat.top == _join_over_all_j_below(p2, p2, atoms, lat.top)


def test_universal_element_is_an_anti_ideal_into_idl_on_small_semirings():
    # the Yoneda instance of representability, decided by listing every
    # anti-ideal into Idl(R): the universal element is one of them
    semirings = [data for data in _catalog_and_small_objects() if data.has_addition]
    assert len(semirings) == 82
    for data in semirings:
        iq = ideal_quantale(data)
        assert universal_element(data, iq) in anti_ideals(data, iq.ideals, "semiring").maps, data.name


def test_frame_hom_search_matches_filtered_supmaps_on_catalog_frames():
    # the quantale homs between frames are the frame homs; plus a 4-chain
    # listed top first, whose join-irreducibles are searched in an order
    # other than their index order
    frames = [(name, q) for name, q in quantale_catalog() if q.is_frame()]
    assert len(frames) == 5
    names = ["1", "c", "b", "0"]
    top_first = lattice_structure(build_poset(names, list(zip(names[1:], names))))
    frames.append(("C4top_first", frame_quantale(top_first)))
    for (n1, q1), (n2, q2) in product(frames, repeat=2):
        assert _expanded_homs(q1, q2) == _filtered_supmap_homs(q1, q2, "frame"), (n1, n2)


# ---------------------------------------------------------------------------
# Quantale.validate on generators against the all-elements scan


def _literal_validate(q):
    """Every quantale law over all elements, in the order validate reports
    them; (law, witness) of the first failure, or None."""
    lat, m, names = q.carrier, q.mult_t, q.carrier.names
    n = lat.n
    if len(m) != n or any(len(r) != n for r in m):
        return "totality", "multiplication table"
    for a in range(n):
        for b in range(a, n):
            if m[a][b] != m[b][a]:
                return "commutativity", (names[a], names[b])
    for a in range(n):
        if m[q.unit][a] != a:
            return "unit", names[a]
    for a, b, c in product(range(n), repeat=3):
        if m[m[a][b]][c] != m[a][m[b][c]]:
            return "associativity", (names[a], names[b], names[c])
    for a in range(n):
        if m[a][lat.bottom] != lat.bottom:
            return "bilinearity (empty join)", names[a]
        for b in range(n):
            for c in range(b, n):
                if m[a][lat.join(b, c)] != lat.join(m[a][b], m[a][c]):
                    return "bilinearity", (names[a], names[b], names[c])
    return None


def _unchecked_quantale(carrier, table, unit):
    """A Quantale on ``table`` without the check on construction."""
    q = object.__new__(Quantale)
    q.carrier, q.mult_t, q.unit = carrier, tuple(tuple(row) for row in table), unit
    return q


def _validate_outcome(q):
    try:
        q.validate()
    except LawViolation as exc:
        return exc.law, exc.witness
    return None


@cache
def _pipeline_quantales():
    """MM(R), Idl(R) and Rad(R) of the catalog and small objects, the model
    files and the Scott lattices P3 and grid(2,3) (MM(R) alone for monoids),
    then the quantale catalog."""
    objects = _catalog_and_small_objects()
    objects += [data for path in MODELS for data in _model_objects(path)]
    objects += [scott_localic_lattice(powerset_lattice(3)), scott_localic_lattice(grid(2, 3))]
    out = []
    for data in objects:
        if data.has_addition:
            r = radical_frame(data)
            out += [monoid_ideal_quantale(data).monoid_ideals, r.ideals, r.radicals]
        else:
            out.append(monoid_ideal_quantale(data).monoid_ideals)
    return out + [q for _, q in quantale_catalog()]


def test_validate_accepts_every_pipeline_quantale_the_scan_accepts():
    quantales = _pipeline_quantales()
    # 93 semirings give three quantales each, 14 monoids one, then the catalog
    assert len(quantales) == 3 * 93 + 14 + len(quantale_catalog())
    for q in quantales:
        assert _literal_validate(q) is None
        assert _validate_outcome(q) is None


def test_validate_reports_the_scans_law_and_witness_on_perturbed_tables():
    # one cell off the unit's row and its mirror changed, so commutativity
    # and the unit still hold and the first failure lies in associativity
    # or the join laws; larger carriers get more draws
    rng = random.Random(1905)
    laws = Counter()
    for q in _pipeline_quantales():
        n = q.carrier.n
        cells = [a for a in range(n) if a != q.unit]
        if n < 3:
            continue
        for _ in range(n + 4):
            a, b = rng.choice(cells), rng.choice(cells)
            table = [list(row) for row in q.mult_t]
            table[a][b] = table[b][a] = rng.choice([v for v in range(n) if v != table[a][b]])
            broken = _unchecked_quantale(q.carrier, table, q.unit)
            expected = _literal_validate(broken)
            laws[expected and expected[0]] += 1
            assert _validate_outcome(broken) == expected, (q, a, b)
    assert laws["associativity"] > 1000
    assert laws["bilinearity"] > 300 and laws["bilinearity (empty join)"] > 50


def test_validate_reports_the_scans_law_and_witness_on_bilinear_perturbations():
    # one product of join-irreducibles p, r changed and the table extended
    # bilinearly from the products of join-irreducibles: the join laws still
    # hold on distributive carriers, so the unit or associativity breaks
    rng = random.Random(2006)
    laws = Counter()
    for q in _distinct_pipeline_quantales():
        lat = q.carrier
        ji = lat.join_irreducibles()
        below = [[p for p in ji if lat.leq(p, a)] for a in range(lat.n)]
        for _ in range(40):
            products = {(x, y): q.mul(x, y) for x in ji for y in ji}
            p, r = rng.choice(ji), rng.choice(ji)
            products[p, r] = products[r, p] = rng.choice(list(bits(lat.down[lat.meet(p, r)])))
            table = [
                [lat.join_iter(products[x, y] for x in below[a] for y in below[b]) for b in range(lat.n)]
                for a in range(lat.n)
            ]
            broken = _unchecked_quantale(lat, table, q.unit)
            expected = _literal_validate(broken)
            laws[expected and expected[0]] += 1
            assert _validate_outcome(broken) == expected, (q, p, r)
    assert laws[None] > 500 and laws["unit"] > 100 and laws["associativity"] > 20


def _one_cell_changed(rng, table, n):
    """``table`` with one cell set to another value below ``n``."""
    rows = [list(row) for row in table]
    a, b = rng.randrange(n), rng.randrange(n)
    rows[a][b] = rng.choice([v for v in range(n) if v != rows[a][b]])
    return tuple(map(tuple, rows))


def test_the_frame_certificate_rejects_what_the_full_checks_reject(monkeypatch):
    # validate, which passes a frame on its certificate, against the full
    # checks alone: on every pipeline quantale and on seeded one-cell
    # changes to its product table and to its carrier's meet table taken as
    # the product; and on the meet of every lattice of up to 7 elements,
    # most of which are not distributive.  A carrier's own tables cannot be
    # changed: a Lattice reads them off its order
    full_checks, fell_back = Quantale._check_laws, []
    monkeypatch.setattr(Quantale, "_check_laws", lambda q: fell_back.append(q) or full_checks(q))
    rng = random.Random(2706)
    cases = [("lattice meet", lat, lat.meet_t, lat.top) for lat in small_lattices(7)]
    for q in _pipeline_quantales():
        lat, n = q.carrier, q.carrier.n
        cases.append(("pipeline", lat, q.mult_t, q.unit))
        for _ in range(3 if n > 1 else 0):
            cases.append(("product", lat, _one_cell_changed(rng, q.mult_t, n), q.unit))
            cases.append(("meet as product", lat, _one_cell_changed(rng, lat.meet_t, n), q.unit))
    seen = Counter()
    for kind, carrier, table, unit in cases:
        broken = _unchecked_quantale(carrier, table, unit)
        expected = outcome(full_checks, broken)
        fell_back.clear()
        assert outcome(broken.validate) == expected, (broken, kind)
        seen[kind, broken.is_frame(), bool(fell_back), expected is None] += 1
    # every pipeline frame and distributive lattice passes on the
    # certificate alone; the changed meet tables and the lattices that the
    # full checks reject reach them
    assert seen["pipeline", True, False, True] > 200 and seen["pipeline", True, True, True] == 0
    assert seen["lattice meet", True, False, True] == 20 and seen["lattice meet", True, True, False] == 57
    assert seen["meet as product", False, True, False] > 800


def test_validate_needs_the_empty_join_law():
    # on the chain 0 < m < 1 with unit m, 1*0 = m breaks only laws that
    # involve 0; every product of join-irreducibles m, 1 is still right and
    # a(p v c) = ap v ac holds for every join-irreducible p, so only the
    # empty-join law of the generator check sees it
    valid = _unchecked_quantale(chain(3), [[0, 0, 0], [0, 1, 2], [0, 2, 2]], 1)
    broken = _unchecked_quantale(chain(3), [[0, 0, 1], [0, 1, 2], [1, 2, 2]], 1)
    assert _literal_validate(valid) is None
    assert _literal_validate(broken) == ("associativity", ("0", "0", "1"))
    assert _validate_outcome(broken) == _literal_validate(broken)


def test_validate_needs_every_join_irreducible_for_associativity():
    # on P3 with unit {1}, the atoms multiply by {2}{2} = {2}{3} = {} and
    # {3}{3} = {1}, extended bilinearly; every triple of atoms that holds
    # {3} at most once associates, and ({3}{3}){2} = {2} while
    # {3}({3}{2}) = {}, so only the pairs p, q in J that hold {3} see it
    lat = powerset_lattice(3)
    e, z, p = lat.join_irreducibles()
    atoms = {(e, e): e, (e, z): z, (e, p): p, (z, z): lat.bottom, (z, p): lat.bottom, (p, p): e}
    below = [[x for x in (e, z, p) if lat.leq(x, a)] for a in range(lat.n)]
    table = [
        [lat.join_iter(atoms[min(x, y), max(x, y)] for x in below[a] for y in below[b]) for b in range(lat.n)]
        for a in range(lat.n)
    ]
    broken = _unchecked_quantale(lat, table, e)
    assert _literal_validate(broken) == ("associativity", ("{2}", "{3}", "{3}"))
    assert _validate_outcome(broken) == _literal_validate(broken)


class _CountingRow(tuple):
    """A table row that counts its cell reads in ``reads[0]``."""

    reads = [0]

    def __getitem__(self, i):
        self.reads[0] += 1
        return tuple.__getitem__(self, i)


@pytest.mark.parametrize("lat", [powerset_lattice(5), grid(4, 4)], ids=["P5", "G44"])
def test_validate_reads_grow_with_the_join_irreducibles(lat):
    # commutativity, the unit and the rows of elements that are joins of
    # two smaller ones are compared whole and read no cell by index; the
    # rows of J read |J|(|J|(n + 1) + 1) cells and associativity on J^2
    # reads |J|^2(n + 1), against the scan's 4n^3 + 3n^2(n+1)/2
    q = frame_quantale(lat)
    n, j = lat.n, len(lat.join_irreducibles())
    q.mult_t = tuple(_CountingRow(row) for row in q.mult_t)
    _CountingRow.reads[0] = 0
    q.validate()
    assert _CountingRow.reads[0] <= j + 2 * j * j * (n + 1)


# ---------------------------------------------------------------------------
# maps, homs and nuclei on generators against the all-pairs checks


def _all_pairs_join_ok(source, target, v):
    return v[source.bottom] == target.bottom and all(
        v[source.join(a, b)] == target.join(v[a], v[b])
        for a, b in product(range(source.n), repeat=2)
    )


def _all_pairs_hom_ok(q1, q2, v):
    return (
        _all_pairs_join_ok(q1.carrier, q2.carrier, v)
        and v[q1.unit] == q2.unit
        and all(v[q1.mul(a, b)] == q2.mul(v[a], v[b]) for a, b in product(range(q1.carrier.n), repeat=2))
    )


def _all_pairs_nucleus_ok(q, j):
    lat = q.carrier
    return all(
        lat.leq(q.mul(j[a], j[b]), j[q.mul(a, b)]) for a, b in product(range(lat.n), repeat=2)
    )


def _all_pairs_repair(lat, forcings, mult=None):
    """The least closure on ``lat`` with a <= j(b) for each forcing (a, b),
    and given the product table ``mult`` the least nucleus, repaired
    round-robin from the identity until a pass changes nothing: the
    forcings, monotonicity, idempotence and, with ``mult``,
    j(ab) v= j(a)j(b) over all pairs.  Every repair is forced in any closure
    (or nucleus) that obeys the forcings, so the result is the least."""
    j = list(range(lat.n))
    changed = True
    while changed:
        changed = False
        for a, b in forcings:
            if lat.join(j[b], a) != j[b]:
                j[b], changed = lat.join(j[b], a), True
        for x in range(lat.n):
            for y in bits(lat.up[x]):
                if lat.join(j[y], j[x]) != j[y]:
                    j[y], changed = lat.join(j[y], j[x]), True
            if j[j[x]] != j[x]:
                j[x], changed = lat.join(j[x], j[j[x]]), True
        for a, b in product(range(lat.n), repeat=2) if mult is not None else ():
            new = lat.join(j[mult[a][b]], mult[j[a]][j[b]])
            if new != j[mult[a][b]]:
                j[mult[a][b]], changed = new, True
    return j


@cache
def _distinct_pipeline_quantales():
    """The pipeline quantales on at least three elements, one per table."""
    out = {}
    for q in _pipeline_quantales():
        if q.carrier.n >= 3:
            out.setdefault((q.carrier.up, q.carrier.join_t, q.mult_t, q.unit), q)
    return list(out.values())


def _forcings(rng, n):
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 3))]


def _changed(rng, values, positions, size):
    """``values`` with one or two of ``positions`` set to other values
    below ``size``."""
    v = list(values)
    for x in rng.sample(positions, min(len(positions), rng.randint(1, 2))):
        v[x] = rng.choice([y for y in range(size) if y != v[x]])
    return v


def _ids(lat, names):
    return [lat.index(x) for x in names]


def _seeded_forcing_sets():
    """24 seeded forcing sets for each distinct pipeline quantale, as
    (quantale, forcings)."""
    rng = random.Random(2006)
    for q in _distinct_pipeline_quantales():
        for _ in range(24):
            yield q, _forcings(rng, q.carrier.n)


def _is_proper(lat, j):
    """Whether j is neither the identity nor the closure onto the top."""
    return j != list(range(lat.n)) and set(j) != {lat.top}


def test_least_nucleus_matches_the_all_pairs_repair():
    # about half of the 552 forcing sets give neither the identity nor the
    # nucleus onto the top
    proper = 0
    for q, forcings in _seeded_forcing_sets():
        got = list(least_nucleus(q, forcings).values)
        assert got == _all_pairs_repair(q.carrier, forcings, q.mult_t), (q, forcings)
        proper += _is_proper(q.carrier, got)
    assert proper > 250


def test_least_closure_matches_the_all_pairs_repair():
    proper = 0
    for q, forcings in _seeded_forcing_sets():
        closure, _, _ = least_closure(q.carrier, forcings)
        got = list(closure.values)
        assert got == _all_pairs_repair(q.carrier, forcings), (q.carrier, forcings)
        proper += _is_proper(q.carrier, got)
    assert proper > 250


def test_localic_reflection_is_the_least_nucleus_under_squares():
    # the least nucleus forced on J, against the one forced at every a with
    # a <= j(a*a), and its fixed points against the semiprime elements
    # (a*a <= p implies a <= p); every pipeline quantale is two-sided, and
    # the reflection is proper on some of them only
    quantales = [q for q in _pipeline_quantales() if q.two_sided]
    assert len(quantales) == 301
    proper = 0
    for q in quantales:
        radicals, rho = localic_reflection(q)
        lat = q.carrier
        nucleus = least_nucleus(q, [(a, q.mul(a, a)) for a in range(lat.n)])
        fixed = nucleus.fixed_points()
        assert [fixed[k] for k in rho.values] == list(nucleus.values), q
        semiprime = [p for p in range(lat.n) if all(lat.leq(a, p) for a in range(lat.n) if lat.leq(q.mul(a, a), p))]
        assert list(fixed) == semiprime, q
        proper += radicals.carrier.n < lat.n
    assert 0 < proper < len(quantales), proper


def test_map_checks_on_generators_agree_with_all_pairs():
    # the identity and quotient maps by seeded least nuclei, with one or two
    # values changed: anywhere, or on join-irreducibles and then extended
    # by joins, so that many changed maps still preserve joins
    rng = random.Random(1905)
    counts = Counter()
    for q in _distinct_pipeline_quantales():
        lat = q.carrier
        ji = lat.join_irreducibles()
        bases = [(q, tuple(range(lat.n)))]
        for _ in range(4):
            quotient, onto = quotient_by_nucleus(q, least_nucleus(q, _forcings(rng, lat.n)))
            if quotient.carrier.n > 1:
                bases.append((quotient, onto.values))
        for target_q, base in bases:
            tgt = target_q.carrier
            for _ in range(10):
                if rng.random() < 0.5:
                    v = _changed(rng, base, list(range(lat.n)), tgt.n)
                else:
                    g = _changed(rng, base, ji, tgt.n)
                    v = [tgt.join_iter(g[p] for p in ji if lat.leq(p, a)) for a in range(lat.n)]
                counts["maps"] += 1
                try:
                    SupMap(lat, tgt, v)
                except NotJoinPreserving as exc:
                    counts["not sup"] += 1
                    assert not _all_pairs_join_ok(lat, tgt, v)
                    if exc.witness == "empty join":
                        assert v[lat.bottom] != tgt.bottom
                    else:
                        p, c = _ids(lat, exc.witness)
                        assert p in ji and v[lat.join(p, c)] != tgt.join(v[p], v[c])
                else:
                    assert _all_pairs_join_ok(lat, tgt, v)
                try:
                    QuantaleHom(q, target_q, v)
                except NotJoinPreserving:
                    counts["not hom"] += 1
                except LawViolation as exc:
                    counts["not hom"] += 1
                    counts[exc.law] += 1
                    assert not _all_pairs_hom_ok(q, target_q, v)
                    if exc.law == "unit preservation":
                        assert v[q.unit] != target_q.unit
                    else:
                        a, b = _ids(lat, exc.witness)
                        assert a in ji and b in ji
                        assert v[q.mul(a, b)] != target_q.mul(v[a], v[b])
                else:
                    assert _all_pairs_hom_ok(q, target_q, v)
    assert counts["maps"] > 1000
    assert 300 < counts["not sup"] < 700 and counts["not hom"] - counts["not sup"] > 300
    assert counts["multiplicativity"] > 150 and counts["unit preservation"] > 150


def test_nucleus_check_on_generators_agrees_with_all_pairs():
    # closures a -> meet of the elements of F above a, where F is the set of
    # fixed points of the identity or of a seeded least nucleus with one or
    # two elements other than the top added or taken out
    rng = random.Random(1906)
    counts = Counter()
    for q in _distinct_pipeline_quantales():
        lat = q.carrier
        ji = lat.join_irreducibles()
        nuclei = [least_nucleus(q, _forcings(rng, lat.n)) for _ in range(6)]
        for fixed in [set(range(lat.n))] + [set(j.fixed_points()) for j in nuclei]:
            for _ in range(6):
                toggled = rng.sample([x for x in range(lat.n) if x != lat.top], rng.randint(1, 2))
                keep = fixed.symmetric_difference(toggled)
                j = [lat.meet_iter(x for x in keep if lat.leq(a, x)) for a in range(lat.n)]
                counts["closures"] += 1
                try:
                    nucleus = Nucleus(q, sum(1 << x for x in keep))
                except LawViolation as exc:
                    counts["not nucleus"] += 1
                    assert exc.law == "nucleus multiplicativity" and not _all_pairs_nucleus_ok(q, j)
                    p, b = _ids(lat, exc.witness)
                    assert p in ji and not lat.leq(q.mul(j[p], j[b]), j[q.mul(p, b)])
                else:
                    assert nucleus.values == tuple(j) and _all_pairs_nucleus_ok(q, j)
    assert 200 < counts["not nucleus"] < counts["closures"] - 300


def test_the_largest_quantale_is_validated_once_where_it_is_built(monkeypatch):
    # MM(R) of Scott P4 has 168 elements; radical_frame builds nothing
    # larger than Idl(R), 16 elements, and the opens oracle, which does
    # build MM(R), validates it once
    sizes = []
    validate = Quantale.validate
    monkeypatch.setattr(Quantale, "validate", lambda q: sizes.append(q.carrier.n) or validate(q))
    data = scott_localic_lattice(powerset_lattice(4))
    radical_frame(data)
    assert max(sizes) == 16
    sizes.clear()
    opens_oracle(data)
    assert sizes.count(168) == 1 and max(sizes) == 168


# ---------------------------------------------------------------------------
# Idl(R) from the holoid classes against the nucleus quotient of MM(R)


def _nucleus_route(data):
    """Idl(R) the long way: MM(R), the least nucleus forcing the absorbed
    zero to the bottom and I (+~) J below I v J (the sum lifted on pairs of
    monoid ideals and absorbed into the least one over it), and the quotient
    by it.  The fixed points must be the ideals in the definitional sense.
    Returns (MM data, Idl(R), the collapse, the ideals' point masks, the
    universal map collapsed from the dual basis of the saturated frame)."""
    mi = monoid_ideal_quantale(data)
    mm = mi.monoid_ideals
    pts = data.locale.points
    pos = {m: k for k, m in enumerate(mi.ideal_masks)}

    def ideal_of(mask):
        return pos[mask] if mask in pos else pos[_absorb(data, mask)]

    mod_add = [[ideal_of(m) for m in row] for row in pairwise_owc_binop(pts, mi.ideal_masks, data.add_t)]
    zero = pts.down[data.zero_point]
    forcings = [(ideal_of(zero), mm.carrier.bottom)]
    forcings += [
        (mod_add[i][j], mm.carrier.join(i, j)) for i in range(mm.carrier.n) for j in range(i, mm.carrier.n)
    ]
    nucleus = least_nucleus(mm, forcings)
    ideals, collapse = quotient_by_nucleus(mm, nucleus)
    definitional = [
        k
        for k, m in enumerate(mi.ideal_masks)
        if zero & ~m == 0 and mm.carrier.leq(mod_add[k][k], k)
    ]
    assert nucleus.fixed_points() == definitional
    g_monoid = _dual_basis_monoid_map(data, mi)
    masks = [mi.ideal_masks[k] for k in definitional]
    return mi, ideals, collapse, masks, tuple(collapse(v) for v in g_monoid)


def _assert_class_route_matches_nucleus_route(data):
    mi, expected, collapse, masks, g = _nucleus_route(data)
    iq = ideal_quantale(data)
    got = iq.ideals
    assert list(iq.ideal_masks) == masks
    for attr in ("names", "up", "join_t", "meet_t", "bottom", "top"):
        assert getattr(got.carrier, attr) == getattr(expected.carrier, attr), attr
    assert got.mult_t == expected.mult_t
    assert got.unit == expected.unit
    assert universal_element(data, iq) == g
    assert monoid_collapse(data, iq, mi).values == collapse.values


def test_class_route_matches_the_nucleus_route_on_catalogs_and_small_semirings():
    # the 5 catalog semirings and the 77 small ones; the 8 catalog monoids
    # have no ideals, but their saturated opens are counted as the up-sets
    # of the holoid order like everyone's
    semirings = 0
    for data in _catalog_and_small_objects():
        assert count_saturated_opens(data) == len(saturation(data).sat_masks)
        if data.has_addition:
            semirings += 1
            _assert_class_route_matches_nucleus_route(data)
    assert semirings == 82


@pytest.mark.parametrize("path", MODELS, ids=[p.stem for p in MODELS])
def test_class_route_matches_the_nucleus_route_on_model_files(path):
    for data in _model_objects(path):
        assert count_saturated_opens(data) == len(saturation(data).sat_masks)
        if data.has_addition:
            _assert_class_route_matches_nucleus_route(data)


@pytest.mark.parametrize(
    "lat",
    [chain(5), powerset_lattice(3), grid(3, 3), powerset_lattice(4)],
    ids=["C5", "P3", "G33", "P4"],
)
def test_class_route_matches_the_nucleus_route_on_scott_lattices(lat):
    _assert_class_route_matches_nucleus_route(scott_localic_lattice(lat))


def _all_orders(n):
    """Every partial order on range(n), as the up-set mask of each element."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    orders = []
    for chosen in product((0, 1), repeat=len(pairs)):
        up = [1 << a for a in range(n)]
        for (a, b), related in zip(pairs, chosen):
            up[a] |= related << b
        if all(
            up[b] & ~up[a] == 0 and (b == a or not up[b] >> a & 1) for a in range(n) for b in bits(up[a])
        ):
            orders.append(tuple(up))
    return orders


def _is_monotone(up, table):
    """Whether a <= b gives ac <= bc for every c; commutative tables only."""
    n = len(up)
    return all(up[table[a][c]] >> table[b][c] & 1 for a in range(n) for b in bits(up[a]) for c in range(n))


@cache
def _ordered_small_semirings():
    """Every semiring of order 2 to 4 (``_all_semirings``) with every partial
    order that makes both of its tables monotone, discrete orders included,
    as localic data."""
    return [
        to_localic(s, FinitePoset(s.names, up))
        for n in (2, 3, 4)
        for s in _all_semirings(n)
        for up in _all_orders(n)
        if _is_monotone(up, s.add_t) and _is_monotone(up, s.mul_t)
    ]


def test_both_quantales_match_their_oracles_on_ordered_small_semirings():
    # the class product rests on the point order (f <= g.k), which the
    # discrete families never exercise
    objects = _ordered_small_semirings()
    assert (len(_all_orders(3)), len(_all_orders(4))) == (19, 219)
    assert len(objects) == 909
    for data in objects:
        _assert_matches_owc_oracle(data)
        _assert_class_route_matches_nucleus_route(data)


def _perturbed(inputs, per_input, rng):
    """Seeded one-cell perturbations of each input (names, zero, one, add,
    mul, up): a cell of the add or mul table set to another element, with
    its mirror cell three times in four so that commutativity holds, or one
    pair of the order flipped and the order closed again (a flip that
    closes into a cycle is skipped)."""
    for names, zero, one, add, mul, up in inputs:
        n = len(names)
        for _ in range(per_input):
            tables = {"add": [list(row) for row in add], "mul": [list(row) for row in mul]}
            order = up
            i, j = rng.randrange(n), rng.randrange(n)
            which = rng.choice(("add", "mul", "order"))
            if which == "order":
                flipped = list(up)
                flipped[i] ^= 1 << j
                pairs = [(names[a], names[b]) for a in range(n) for b in bits(flipped[a]) if a != b]
                try:
                    order = build_poset(names, pairs).up
                except CycleError:
                    continue
            else:
                table = tables[which]
                table[i][j] = rng.choice([v for v in range(n) if v != table[i][j]])
                if rng.random() < 0.75:
                    table[j][i] = table[i][j]
            yield names, zero, one, tables["add"], tables["mul"], order


def _built_input(names, zero, one, add, mul, up):
    to_localic(build_discrete_semiring(names, zero, one, add, mul), FinitePoset(names, up))


def _literal_input(names, zero, one, add, mul, up):
    literal_semiring_laws(names, zero, one, add, mul)
    points = FinitePoset(names, up)
    literal_monotone(points, mul, "mul")
    literal_monotone(points, add, "add")


def test_input_laws_on_generators_and_covers_match_the_literal_scans():
    # each perturbed input passes both the checks on generators and covers
    # and the scans over all triples, or fails both with the same law and
    # witness
    rng = random.Random("input-laws/0")
    discrete = [
        (s.names, s.zero, s.one, s.add_t, s.mul_t, [1 << i for i in range(s.n)])
        for n in (2, 3, 4)
        for s in _all_semirings(n)
    ]
    ordered = [
        (d.locale.points.names, d.zero_point, d.one_point, d.add_t, d.mul_t, d.locale.points.up)
        for d in _ordered_small_semirings()
    ]
    lattices = [
        (lat.names, lat.bottom, lat.top, lat.join_t, lat.meet_t, lat.up)
        for lat in (chain(5), powerset_lattice(3), grid(3, 3), powerset_lattice(4))
    ]
    seen = Counter()
    for inputs, per_input in ((discrete, 4), (ordered, 2), (lattices, 150)):
        for item in _perturbed(inputs, per_input, rng):
            expected = outcome(_literal_input, *item)
            assert outcome(_built_input, *item) == expected, item
            if expected is None:
                seen["pass"] += 1
            elif expected[0] is NotMonotone:
                seen["monotone " + expected[1].rsplit(": ", 1)[1]] += 1
            else:
                seen[expected[1].split(" violated")[0]] += 1
    # every law is seen failing, and some perturbations pass
    assert sorted(seen) == [
        "add associativity",
        "add commutativity",
        "add unit",
        "annihilation",
        "distributivity",
        "monotone add",
        "monotone mul",
        "mul associativity",
        "mul commutativity",
        "mul unit",
        "pass",
    ]


def test_radical_frame_of_scott_p5_builds_nothing_larger_than_idl(monkeypatch):
    # P5 has 7,581 saturated opens; the class route never asks for them, and
    # the one family of masks it tabulates is Idl(R)
    for name in ("saturation", "monoid_ideal_quantale", "dual_basis"):
        monkeypatch.setattr(pfspec.spectrum, name, lambda *args, name=name: pytest.fail(name))
    sizes = []
    family = pfspec.spectrum.family_lattice
    monkeypatch.setattr(
        pfspec.spectrum, "family_lattice", lambda masks, *args: sizes.append(len(masks)) or family(masks, *args)
    )
    validate = Quantale.validate
    monkeypatch.setattr(Quantale, "validate", lambda q: sizes.append(q.carrier.n) or validate(q))
    result = radical_frame(scott_localic_lattice(powerset_lattice(5)))
    assert (result.ideals.carrier.n, result.radicals.carrier.n, len(result.points)) == (32, 32, 5)
    assert sizes and max(sizes) == 32


# ---------------------------------------------------------------------------
# both localic spectra against the radical class sets


def _radical_class_sets(classes, point_masks):
    """Index of each of ``point_masks``, unions of classes, whose set of
    classes holds c whenever it holds c*c: the radical ideals, read on
    classes."""
    squares = [classes.mul_t[c][c] for c in range(classes.order.n)]
    out = []
    for k, m in enumerate(point_masks):
        held = {c for c, members in enumerate(classes.members) if members & m}
        if all(c in held for c in range(classes.order.n) if squares[c] in held):
            out.append(k)
    return out


def _assert_reflections_fix_the_radical_class_sets(data):
    mi = monoid_ideal_quantale(data)
    spectra = [(mi.monoid_ideals, mi.ideal_masks, localic_reflection(mi.monoid_ideals)[0])]
    if data.has_addition:
        r = radical_frame(data)
        spectra.append((r.ideals, r.ideal_data.ideal_masks, r.radicals))
    for q, masks, reflection in spectra:
        fixed = [q.carrier.index(name) for name in reflection.carrier.names]
        assert fixed == _radical_class_sets(data.classes, masks), data.name
    return data.has_addition


def test_both_localic_spectra_are_the_radical_class_sets():
    # Rad(R) from Idl(R) is the radical class ideals, and the localic
    # spectrum of MM(R) the radical class down-sets
    objects = _catalog_and_small_objects() + [data for path in MODELS for data in _model_objects(path)]
    with_addition = sum(map(_assert_reflections_fix_the_radical_class_sets, objects))
    assert (with_addition, len(objects)) == (91, 105)


@cache
def _radical_guard_objects():
    """The route-guard family in both modes, the multiplicative monoid of
    each of its semirings added, and the five fixed Scott inputs of the
    benchmark's ladder."""
    objects = _route_guard_objects()
    monoids = [LocalicSemiringData(d.locale, d.mul_monoid, f"mul {d.name}") for d in objects if d.has_addition]
    lattices = (powerset_lattice(3), powerset_lattice(4), grid(4, 4), grid(2, 8), chain(16))
    return tuple(objects + monoids + [scott_localic_lattice(lat) for lat in lattices])


def test_rad_is_read_off_the_listing_with_no_nucleus(monkeypatch):
    # Rad(R) read off the ideal listing has the names and covers of the
    # localic reflection by the least nucleus; it is the quantic spectrum
    # itself exactly when every element is semiprime, on 1,524 of the 2,027
    # objects.  Then radical_frame gives the same Rad(R), points and
    # universal element with every nucleus and quotient route refused
    objects = _radical_guard_objects()
    expected, paths = [], Counter()
    for data in objects:
        result = radical_frame(data)
        q, rad = result.ideals, result.radicals.carrier
        reflection = localic_reflection(q)[0].carrier
        assert (rad.names, rad.covers()) == (reflection.names, reflection.covers()), data.name
        lat = q.carrier
        semiprime = all(lat.leq(a, p) for p in range(lat.n) for a in range(lat.n) if lat.leq(q.mul(a, a), p))
        assert (result.radicals is q) == semiprime, data.name
        paths[semiprime] += 1
        expected.append((rad.names, rad.covers(), result.points, result.universal_map))

    def refuse(*args, **kwargs):
        raise AssertionError("radical_frame built a nucleus or a quotient")

    for name in ("localic_reflection", "least_nucleus", "quotient_by_nucleus"):
        monkeypatch.setattr(pfspec.quantale, name, refuse)
    monkeypatch.setattr(Nucleus, "__init__", refuse)
    monkeypatch.setattr(QuantaleHom, "__init__", refuse)
    for data, want in zip(objects, expected):
        result = radical_frame(data)
        rad = result.radicals.carrier
        assert (rad.names, rad.covers(), result.points, result.universal_map) == want, data.name
    assert len(objects) == 1018 + 1004 + 5
    assert (paths[True], paths[False]) == (1524, 503)


def test_rad_is_spatial_on_its_points():
    # a finite frame is spatial (Johnstone, Stone Spaces, II.1): sending
    # each element of Rad(R) to the points u it meets, the prime ideals
    # (complements of u) that do not hold it, is one-to-one and preserves
    # and reflects the order, whichever route listed Rad(R) and its points
    for data in _radical_guard_objects():
        result = radical_frame(data)
        rad, names = result.radicals.carrier, result.ideals.carrier.names
        masks = [result.ideal_data.ideal_masks[names.index(name)] for name in rad.names]
        meets = [sum(1 << k for k, u in enumerate(result.points) if u & m) for m in masks]
        assert len(set(meets)) == rad.n, data.name
        for a, b in product(range(rad.n), repeat=2):
            assert rad.leq(a, b) == (meets[a] & ~meets[b] == 0), (data.name, rad.names[a], rad.names[b])


def _monoid_objects():
    """The 8 catalog monoids, the 6 model-file monoids, and the
    multiplicative monoids, on the same locales, of the 5 catalog semirings,
    of Scott grid(2, 2) to grid(2, 5) and of the 9 model-file semirings and
    lattices."""
    monoids = [to_localic(m, name=name) for name, m in monoid_catalog()]
    semirings = [to_localic(s, name=name) for name, s in semiring_catalog()]
    semirings += [scott_localic_lattice(grid(2, k), name=f"grid(2,{k})") for k in range(2, 6)]
    for data in (data for path in MODELS for data in _model_objects(path)):
        (semirings if data.has_addition else monoids).append(data)
    monoids += [LocalicSemiringData(d.locale, d.mul_monoid, f"mul {d.name}") for d in semirings]
    assert len(monoids) == 32
    return monoids


def test_radical_frame_of_a_monoid_is_the_localic_spectrum_of_mm():
    # the quantic spectrum is MM(R), Rad is its localic reflection, and the
    # points are the open sets u holding 1 with xy in u iff x and y are,
    # found by brute force over the opens
    for data in _monoid_objects():
        result = radical_frame(data)
        mi = monoid_ideal_quantale(data)
        assert result.ideal_data.ideal_masks == mi.ideal_masks, data.name
        assert result.ideals.carrier.names == mi.monoid_ideals.carrier.names, data.name
        assert result.radicals.carrier.names == localic_reflection(mi.monoid_ideals)[0].carrier.names, data.name
        pts = data.locale.points
        primes = [
            u
            for u in pts.up_sets()
            if u >> data.one_point & 1
            and all(
                (u >> data.mul(x, y) & 1) == (u >> x & u >> y & 1) for x, y in product(range(pts.n), repeat=2)
            )
        ]
        assert sorted(result.points) == sorted(primes), data.name


# ---------------------------------------------------------------------------
# the monoid side from the holoid classes against the saturated frame


def _dual_basis_monoid_map(data, mi):
    """The universal element of MM(R) the long way, from the dual basis of
    the saturated frame: x goes to the join of the monoid ideals dual to the
    irreducible saturated opens containing x (the complements of their dual
    encodings)."""
    sat = saturation(data)
    basis = dual_basis(sat.saturated)
    full = data.locale.points.full
    mm_pos = {m: k for k, m in enumerate(mi.ideal_masks)}
    pieces = [
        (sat.sat_masks[p], mm_pos[full ^ sat.sat_masks[c]])
        for p, c in zip(basis.irreducibles, basis.sigma_encodings)
    ]
    join_iter = mi.monoid_ideals.carrier.join_iter
    return tuple(join_iter(k for r, k in pieces if r >> x & 1) for x in range(data.locale.points.n))


def _frame_saturated_replacement(data):
    """The saturated replacement the long way: the locale of the saturated
    frame (``locale_from_frame``), whose points are its join-irreducibles,
    with the product of two of them the least saturated open over their
    pointwise product, which must be join-irreducible again, as must the
    least one over the unit point.  Returns (monoid data, point masks)."""
    sat = saturation(data)
    sl = sat.saturated
    pts = data.locale.points
    loc, _, _ = locale_from_frame(sl)
    ji_masks = [sat.sat_masks[p] for p in sl.join_irreducibles()]
    ji_pos = {m: k for k, m in enumerate(ji_masks)}

    def least_saturated_over(point_mask):
        acc = pts.full
        for m in sat.sat_masks:
            if point_mask & ~m == 0:
                acc &= m
        return acc

    def pointwise(a, b):
        out = 0
        for x in bits(a):
            for y in bits(b):
                out |= 1 << data.mul(x, y)
        return out

    times = [[ji_pos[least_saturated_over(pointwise(a, b))] for b in ji_masks] for a in ji_masks]
    unit = ji_pos[least_saturated_over(1 << data.one_point)]
    monoid = FiniteCommMonoid(loc.points.names, unit, times)
    return LocalicSemiringData(loc, monoid, name=f"saturated({data.name})"), tuple(ji_masks)


def _transported(data, replacement, masks, q):
    """The monoid anti-ideals of the replacement into q, carried to the
    points of ``data``: x goes to the join of the values at the points whose
    mask holds x."""
    join_iter = q.carrier.join_iter
    return {
        tuple(join_iter(gr[k] for k, m in enumerate(masks) if m >> x & 1) for x in range(data.locale.points.n))
        for gr in anti_ideals(replacement, q, "monoid").maps
    }


def _assert_monoid_side_matches_the_frame_route(data):
    mi = monoid_ideal_quantale(data)
    assert mi.universal_map == _dual_basis_monoid_map(data, mi)
    replacement, masks = saturated_replacement(data)
    expected, expected_masks = _frame_saturated_replacement(data)
    assert len(masks) == len(set(masks)) and set(masks) == set(expected_masks)
    # the same point order, carried along the masks
    points, expected_points = replacement.locale.points, expected.locale.points
    carried = [expected_masks.index(m) for m in masks]
    for a, b in product(range(points.n), repeat=2):
        assert points.leq(a, b) == expected_points.leq(carried[a], carried[b])
    for _, q in quantale_catalog():
        # the invariance that representability_check decides on the
        # replacement's classes: its anti-ideals carry one for one onto the
        # input's
        members = anti_ideals(data, q, "monoid").maps
        transported = _transported(data, replacement, masks, q)
        assert transported == _transported(data, expected, expected_masks, q)
        assert transported == set(members)
        assert len(anti_ideals(replacement, q, "monoid").maps) == len(members)


def test_monoid_side_matches_the_frame_route_on_catalogs_and_small_objects():
    for data in _catalog_and_small_objects():
        _assert_monoid_side_matches_the_frame_route(data)


@pytest.mark.parametrize("path", MODELS, ids=[p.stem for p in MODELS])
def test_monoid_side_matches_the_frame_route_on_model_files(path):
    for data in _model_objects(path):
        _assert_monoid_side_matches_the_frame_route(data)


@pytest.mark.parametrize(
    "lat",
    [chain(5), powerset_lattice(3), grid(3, 3), powerset_lattice(4)],
    ids=["C5", "P3", "G33", "P4"],
)
def test_monoid_side_matches_the_frame_route_on_scott_lattices(lat):
    _assert_monoid_side_matches_the_frame_route(scott_localic_lattice(lat))


def test_representability_on_catalogs_and_small_semirings():
    # homs out of Idl(R) and MM(R) classify the anti-ideals into every
    # catalog quantale, and the saturated replacement has the input's classes
    catalog = quantale_catalog()
    semirings = [data for data in _catalog_and_small_objects() if data.has_addition]
    assert len(semirings) == 82
    for data in semirings:
        assert representability_check(data, catalog).ok(), data.name
