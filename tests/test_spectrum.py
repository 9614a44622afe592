"""Saturation, monoid ideals, duality, ideal quantale, radical frame,
anti-ideals, representability, dualisability."""

from itertools import product

import pytest

from pfspec.algebra import monoid_to_localic, scott_localic_lattice, to_localic
from pfspec.caps import Caps
from pfspec.catalog import (
    chain,
    monoid_catalog,
    quantale_catalog,
    semiring_catalog,
)
from pfspec.errors import CapExceeded, LawViolation, NotSupercontinuous
from pfspec.iso import find_lattice_iso
from pfspec.order import bits, build_poset, downset_lattice
from pfspec.quantale import Quantale, frame_quantale
from pfspec.spectrum import (
    anti_ideals,
    dualisability_conditions,
    element_of_map,
    ideal_quantale,
    map_of_element,
    monoid_ideal_quantale,
    omega_quantale,
    radical_frame,
    representability_check,
    saturated_replacement,
    saturation,
    universal_element,
)
from pfspec.suplattice import TensorSpace, dual, tensor


def _monoid_data(name):
    table = dict(monoid_catalog())
    return monoid_to_localic(table[name], name=name)


def _semiring_data(name):
    table = dict(semiring_catalog())
    return to_localic(table[name], name=name)


# ---------------------------------------------------------------------------
# saturation


def _saturation_oracle(data, mask):
    """Literal one-step saturation: {x : exists y with xy in the set}."""
    pts = data.locale.points
    out = 0
    for x in range(pts.n):
        if any(mask >> data.mul(x, y) & 1 for y in range(pts.n)):
            out |= 1 << x
    return out


def test_saturation_nil_monoid():
    data = _monoid_data("nil2")
    sat = saturation(data)
    names = [data.locale.points.mask_name(m) for m in sat.sat_masks]
    assert names == ["{}", "{1}", "{1,a}", "{1,a,0}"]
    # chain shape
    for a in range(4):
        for b in range(4):
            assert sat.saturated.comparable(a, b)


def test_saturation_group_z2():
    data = _monoid_data("Z2")
    sat = saturation(data)
    assert [data.locale.points.mask_name(m) for m in sat.sat_masks] == ["{}", "{1,a}"]


def test_saturation_meet_monoid_deflationary_after_ordering():
    # discrete meet-monoid: saturated subsets are the up-sets of the lattice
    data = _monoid_data("meetC3")
    sat = saturation(data)
    assert len(sat.sat_masks) == 4
    assert not sat.deflationary  # discrete topology: closure moves opens
    from pfspec.algebra import scott_localic_lattice

    scott = scott_localic_lattice(chain(3))
    assert saturation(scott).deflationary


@pytest.mark.parametrize("name,monoid", monoid_catalog())
def test_saturation_closure_matches_oracle(name, monoid):
    data = monoid_to_localic(monoid, name=name)
    sat = saturation(data)
    loc = data.locale
    for i, mask in enumerate(loc.open_masks):
        assert loc.open_masks[sat.closure(i)] == _saturation_oracle(data, mask)


# ---------------------------------------------------------------------------
# monoid ideals and duality


def test_monoid_ideals_nil2_chain():
    mi = monoid_ideal_quantale(_monoid_data("nil2"))
    assert mi.monoid_ideals.carrier.n == 4
    assert find_lattice_iso(mi.monoid_ideals.carrier, chain(4)) is not None


def test_monoid_ideals_z2():
    mi = monoid_ideal_quantale(_monoid_data("Z2"))
    assert mi.monoid_ideals.carrier.n == 2


@pytest.mark.parametrize("name,monoid", monoid_catalog())
def test_duality_all_catalog_monoids(name, monoid):
    mi = monoid_ideal_quantale(monoid_to_localic(monoid, name=name))
    assert mi.duality.ok()
    # the dual of the saturated frame is isomorphic to the monoid ideals
    d, _ = dual(mi.sat.saturated)
    assert find_lattice_iso(mi.monoid_ideals.carrier, d) is not None


@pytest.mark.parametrize("name,monoid", monoid_catalog())
def test_free_quantale_generators_follow_divisibility(name, monoid):
    # the generator map f -> f.M embeds the holoid order: fM subset of gM
    # iff g divides f
    data = monoid_to_localic(monoid, name=name)
    mi = monoid_ideal_quantale(data)
    pts = data.locale.points
    div = monoid.divisibility()
    principal = []
    for f in range(monoid.n):
        mask = 0
        for k in range(monoid.n):
            mask |= 1 << monoid.mul(f, k)
        principal.append(mask)
        assert mask in [
            mi.owc_masks[o] for o in mi.ideal_owc_indices
        ]  # f.M is a monoid ideal
    for f in range(monoid.n):
        for g in range(monoid.n):
            assert (principal[f] & ~principal[g] == 0) == bool(div[g] >> f & 1)


def test_owc_quantale_with_zero_unit_breaks():
    # reading the additive point as the multiplicative unit fails the unit
    # law: {0} . S = {0} for Z/4 subsets
    data = _semiring_data("Z4")
    pts = data.locale.points
    dn_lat, dn_masks = downset_lattice(pts)
    dn_index = {m: i for i, m in enumerate(dn_masks)}
    from pfspec.spectrum import _owc_binop

    maximals = [pts.maximal(m) for m in dn_masks]
    mult = _owc_binop(pts, dn_masks, dn_index, maximals, data.mul_t)
    with pytest.raises(LawViolation) as exc:
        Quantale(dn_lat, mult, dn_index[1 << data.zero_point])
    assert "unit" in str(exc.value)
    # while the multiplicative point's closure is a genuine unit
    Quantale(dn_lat, mult, dn_index[pts.down[data.one_point]])


def test_monoid_ideals_reproduce_subset_ideals_discrete():
    # with the multiplicative unit, the OWC quantale on a discrete monoid is
    # the powerset with elementwise product, and the monoid ideals are the
    # set-theoretic ones
    data = _monoid_data("multZ4")
    mi = monoid_ideal_quantale(data)
    masks = sorted(mi.owc_masks[o] for o in mi.ideal_owc_indices)
    n = 4
    oracle = []
    for mask in range(1 << n):
        elems = list(bits(mask))
        if all(mask >> data.mul(a, r) & 1 for a in elems for r in range(n)):
            oracle.append(mask)
    assert masks == sorted(oracle)


# ---------------------------------------------------------------------------
# ideal quantale and radical frame


def test_ideal_quantale_z4():
    iq = ideal_quantale(_semiring_data("Z4"))
    assert iq.ideals.carrier.n == 3
    names = [iq.ideals.carrier.names[i] for i in range(3)]
    assert names == ["{0}", "{0,2}", "{0,1,2,3}"]
    assert iq.ideals.mul(1, 1) == 0  # (2).(2) = (0)


def test_ideal_quantale_boolean():
    iq = ideal_quantale(_semiring_data("B"))
    assert iq.ideals.carrier.n == 2


def test_ideal_quantale_reversed_sierpinski_trivial():
    from pfspec.algebra import build_discrete_semiring

    revs = build_discrete_semiring(
        ["b", "t"], 1, 0, [[0, 0], [0, 1]], [[0, 1], [1, 1]]
    )
    order = build_poset(["b", "t"], [("b", "t")])
    data = to_localic(revs, order=order)
    iq = ideal_quantale(data)
    assert iq.ideals.carrier.n == 1


def test_radical_frame_z4():
    res = radical_frame(_semiring_data("Z4"))
    assert res.radicals.carrier.n == 2
    assert len(res.points) == 1
    pts = res.data.locale.points
    assert pts.mask_name(res.points[0]) == "{1,3}"


def test_radical_frame_z6():
    res = radical_frame(_semiring_data("Z6"))
    assert res.radicals.carrier.n == 4
    assert res.radicals.is_frame()
    assert len(res.points) == 2


def test_radical_frame_reversed_sierpinski():
    from pfspec.algebra import build_discrete_semiring

    revs = build_discrete_semiring(
        ["b", "t"], 1, 0, [[0, 0], [0, 1]], [[0, 1], [1, 1]]
    )
    order = build_poset(["b", "t"], [("b", "t")])
    res = radical_frame(to_localic(revs, order=order))
    assert res.radicals.carrier.n == 1
    assert res.points == ()


# ---------------------------------------------------------------------------
# universal element


def test_universal_element_z4_is_principal_ideals():
    data = _semiring_data("Z4")
    iq = ideal_quantale(data)
    elem, g = universal_element(data, iq)
    names = [iq.ideals.carrier.names[v] for v in g]
    assert names == ["{0}", "{0,1,2,3}", "{0,2}", "{0,1,2,3}"]


def test_universal_element_conditions_boolean():
    data = _semiring_data("B")
    iq = ideal_quantale(data)
    elem, g = universal_element(data, iq)  # conditions asserted inside
    assert g[data.one_point] == iq.ideals.unit
    assert g[data.zero_point] == iq.ideals.carrier.bottom


def test_universal_element_bi_ideal_connects_to_map_form():
    data = _semiring_data("Z6")
    iq = ideal_quantale(data)
    elem, g = universal_element(data, iq)
    assert map_of_element(data.locale, elem) == g
    assert element_of_map(iq.ideals, data.locale, g) == elem


# ---------------------------------------------------------------------------
# anti-ideals


def test_anti_ideals_boolean_singleton():
    data = _semiring_data("B")
    result = anti_ideals(data, omega_quantale(), "semiring")
    assert len(result.maps) == 1
    assert result.maps[0] == (0, 1)  # the subset {1}


def test_anti_ideals_z6_two_points():
    data = _semiring_data("Z6")
    result = anti_ideals(data, omega_quantale(), "semiring")
    masks = sorted(
        sum(1 << x for x in range(6) if g[x]) for g in result.maps
    )
    assert len(masks) == 2
    names = [data.locale.points.mask_name(m) for m in masks]
    assert names == ["{1,3,5}", "{1,2,4,5}"]  # complements of (2) and (3)


def test_anti_ideals_z6_oracle_over_subsets():
    # literal subset scan of the four first-order conditions
    data = _semiring_data("Z6")
    s = dict(semiring_catalog())["Z6"]
    oracle = []
    for mask in range(1 << 6):
        if mask >> s.zero & 1 or not mask >> s.one & 1:
            continue
        if any(
            (mask >> s.mul(x, y) & 1) != (mask >> x & 1 and mask >> y & 1)
            for x in range(6)
            for y in range(6)
        ):
            continue
        if any(
            mask >> s.add(x, y) & 1 and not (mask >> x & 1 or mask >> y & 1)
            for x in range(6)
            for y in range(6)
        ):
            continue
        oracle.append(mask)
    result = anti_ideals(data, omega_quantale(), "semiring")
    masks = sorted(sum(1 << x for x in range(6) if g[x]) for g in result.maps)
    assert masks == sorted(oracle)


def test_anti_ideals_monoid_z2():
    # u = {1} fails since a.a = 1; only the whole monoid qualifies
    data = _monoid_data("Z2")
    result = anti_ideals(data, omega_quantale(), "monoid")
    assert len(result.maps) == 1
    assert result.maps[0] == (1, 1)


def test_anti_ideal_members_are_closed_bi_ideals():
    data = _semiring_data("Z4")
    for _, q in quantale_catalog()[:3]:
        result = anti_ideals(data, q, "semiring")
        for member, g in zip(result.members, result.maps):
            assert member.space.closure(member.mask) == member.mask
            assert map_of_element(data.locale, member) == g


def test_anti_ideals_cap():
    data = _semiring_data("Z6")
    with pytest.raises(CapExceeded):
        anti_ideals(data, quantale_catalog()[3][1], "semiring", Caps(max_exhaustive=8))


def test_anti_ideals_cap_counts_the_maps_reached():
    # Z/6 into the 5-chain: 5^4 maps once 1 and 0 are pinned; the search
    # stops at the first complete candidate map past the budget
    data = _semiring_data("Z6")
    with pytest.raises(CapExceeded) as exc:
        anti_ideals(data, quantale_catalog()[3][1], "semiring", Caps(max_exhaustive=8))
    assert (exc.value.size, exc.value.cap) == (257, 256)


def test_anti_ideals_cap_allows_long_chain():
    # 2^17 value tables exceed the default budget, but the Scott locale of a
    # 17-chain has only a handful of monotone Omega-valued maps
    result = radical_frame(scott_localic_lattice(chain(17)))
    assert result.radicals.carrier.n == 17
    assert len(result.points) == 16


def test_map_and_mask_representations_agree_exhaustively():
    # enumerate bi-ideals of Q (x) Up(X) two ways on a tiny instance
    s = alex_2chain = build_poset(["b", "t"], [("b", "t")])
    from pfspec.locale import alexandrov

    loc = alexandrov(s)
    q = chain(3)
    t = tensor([q, loc.opens])
    by_masks = set(t.element_masks)
    by_maps = set()
    for g in product(range(3), repeat=2):
        if not q.leq(g[0], g[1]):
            continue
        qa = frame_quantale(q)
        by_maps.add(element_of_map(qa, loc, g).mask)
    assert by_maps == by_masks


# ---------------------------------------------------------------------------
# representability and dualisability


@pytest.mark.parametrize("name", ["B", "Z4", "C3lat"])
def test_representability_small(name):
    data = _semiring_data(name)
    report = representability_check(data, quantale_catalog()[:3])
    assert report.ok()
    assert report.yoneda_ok


def test_representability_counts_b_omega():
    data = _semiring_data("B")
    report = representability_check(data, [("Omega", omega_quantale())])
    entry = report.semiring_entries[0]
    assert entry.hom_count == entry.member_count == 1


def test_saturated_replacement_invariance_z4_monoid():
    data = _monoid_data("multZ4")
    sat = saturation(data)
    replacement, ji_masks = saturated_replacement(sat)
    for _, q in quantale_catalog()[:3]:
        original = anti_ideals(data, q, "monoid")
        replaced = anti_ideals(replacement, q, "monoid")
        assert len(original.maps) == len(replaced.maps)


@pytest.mark.parametrize("name", ["B", "Z4", "Z6", "Z2xZ2", "C3lat"])
def test_dualisability_three_way_agreement(name):
    report = dualisability_conditions(_semiring_data(name))
    assert report.agree()
    assert report.basis_exists and report.opens_supercontinuous


def test_dualisability_pi_table_nil2():
    # pi of the OWC sublocale {0} in the nil monoid: only the full open
    # meets it, so pi({0}) is the whole carrier; the pointwise bound then
    # holds for all 8 opens
    data = _monoid_data("nil2")
    sat = saturation(data)
    pts = data.locale.points
    zero_pt = 1 << pts.index("0")
    pi = pts.full
    for s in sat.sat_masks:
        if s & zero_pt:
            pi &= s
    assert pi == pts.full
    report = dualisability_conditions(data)
    assert report.pointwise_bound and report.agree()


def test_dualisability_lets_other_errors_through(monkeypatch):
    # only "no dual basis" reads as False; a broken law check must surface
    def broken(lat, caps=None):
        raise LawViolation("triangle identity", lat.names[0])

    monkeypatch.setattr("pfspec.spectrum.dual_basis", broken)
    with pytest.raises(LawViolation):
        dualisability_conditions(_semiring_data("Z4"))


def test_dualisability_reads_not_supercontinuous_as_false(monkeypatch):
    def refuse(lat, caps=None):
        raise NotSupercontinuous(lat.names[0])

    monkeypatch.setattr("pfspec.spectrum.dual_basis", refuse)
    report = dualisability_conditions(_semiring_data("Z4"))
    assert not report.basis_exists
    assert not report.opens_supercontinuous
