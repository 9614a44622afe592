"""Saturation, monoid ideals, duality, ideal quantale, radical frame,
anti-ideals, representability, dualisability."""

import time
from itertools import product
from pathlib import Path

import pytest

import pfspec.algebra
import pfspec.locale
import pfspec.spectrum
import pfspec.suplattice

from pfspec.algebra import (
    FiniteCommMonoid,
    build_discrete_semiring,
    scott_localic_lattice,
    to_localic,
)
from pfspec.caps import Caps
from pfspec.catalog import chain, powerset_lattice, quantale_catalog
from pfspec.errors import CapExceeded, LawViolation, NotSupercontinuous
from pfspec.cli import main
from pfspec.iso import find_lattice_iso
from pfspec.modelfile import MonoidBlock, parse_model
from pfspec.oracles import zariski_compare
from pfspec.order import FinitePoset, Lattice, bits, build_poset, downset_lattice
from pfspec.quantale import Quantale, QuantaleHom, frame_quantale
from pfspec.spectrum import (
    _checked_universal,
    anti_ideals,
    count_saturated_opens,
    dualisability_conditions,
    element_of_map,
    ideal_quantale,
    is_deflationary,
    map_of_element,
    monoid_ideal_quantale,
    opens_oracle,
    radical_frame,
    RepresentabilityEntry,
    RepresentabilityReport,
    representability_check,
    saturated_replacement,
    saturation,
    universal_element,
)
from pfspec.suplattice import TensorElement, TensorSpace, dual, omega, tensor
from reference import grid, monoid_catalog, pairwise_owc_binop, run_optimized, semiring_catalog

MODELS = sorted((Path(__file__).resolve().parent.parent / "models").glob("*.model"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def _monoid_data(name):
    table = dict(monoid_catalog())
    return to_localic(table[name], name=name)


def _semiring_data(name):
    table = dict(semiring_catalog())
    return to_localic(table[name], name=name)


def _zmod(n):
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[(i * j) % n for j in range(n)] for i in range(n)]
    return build_discrete_semiring([str(i) for i in range(n)], 0, 1, add, mul)


def _opens_built(locale):
    return {"opens", "open_masks", "open_index"} & set(vars(locale))


# Z4 and Scott P4, built inside each test: an object keeps the holoid classes
# it first built, so a test that patches how they are built needs a fresh one
Z4_AND_P4 = pytest.mark.parametrize(
    "make",
    [lambda: _semiring_data("Z4"), lambda: scott_localic_lattice(powerset_lattice(4))],
    ids=["Z4", "P4"],
)


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
            assert sat.saturated.leq(a, b) or sat.saturated.leq(b, a)


def test_saturation_group_z2():
    data = _monoid_data("Z2")
    sat = saturation(data)
    assert [data.locale.points.mask_name(m) for m in sat.sat_masks] == ["{}", "{1,a}"]


def test_saturation_meet_monoid_deflationary_after_ordering():
    # discrete meet-monoid: saturated subsets are the up-sets of the lattice
    data = _monoid_data("meetC3")
    sat = saturation(data)
    assert len(sat.sat_masks) == 4
    assert not is_deflationary(data)  # discrete topology: closure moves opens
    from pfspec.algebra import scott_localic_lattice

    assert is_deflationary(scott_localic_lattice(chain(3)))


@pytest.mark.parametrize("name,monoid", monoid_catalog())
def test_saturation_closure_matches_oracle(name, monoid):
    data = to_localic(monoid, name=name)
    closure = opens_oracle(data).closure
    loc = data.locale
    for i, mask in enumerate(loc.open_masks):
        assert loc.open_masks[closure(i)] == _saturation_oracle(data, mask)


def _opposite_order_reflection(monoid, order):
    # every point its own class under the reversed point order: its up-sets
    # are the down-sets of the points, and most of them are not saturated
    return None, tuple(range(monoid.n)), order.opposite()


@Z4_AND_P4
def test_non_saturated_opens_break_the_comultiplication_law(monkeypatch, make):
    # the up-sets of the reversed point order break (xz)(yw) in s implies
    # xy in s, already with y = z = 1; the class check refuses the
    # reflection that would give them before saturation reads them
    monkeypatch.setattr(pfspec.algebra, "holoid_quotient", _opposite_order_reflection)
    data = make()
    pts = data.locale.points
    assert any(
        s >> data.mul(x, w) & 1 and not s >> x & 1
        for s in pts.opposite().up_sets()
        for x, w in product(range(pts.n), repeat=2)
    )
    with pytest.raises(LawViolation) as exc:
        saturation(data)
    assert exc.value.law == "holoid classes give the principal monoid ideals"


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
    data = to_localic(monoid, name=name)
    # the opens oracle checks the duality: the unit, the complements and the
    # universal element carried from the dual basis
    mi = opens_oracle(data).monoid
    # the dual of the saturated frame is isomorphic to the monoid ideals
    saturated = saturation(data).saturated
    dual(saturated)
    assert find_lattice_iso(mi.monoid_ideals.carrier, saturated.opposite()) is not None


@pytest.mark.parametrize("name,monoid", monoid_catalog())
def test_free_quantale_generators_follow_divisibility(name, monoid):
    # the generator map f -> f.M embeds the holoid order: fM subset of gM
    # iff g divides f
    data = to_localic(monoid, name=name)
    mi = monoid_ideal_quantale(data)
    pts = data.locale.points
    div = monoid.divisibility()
    principal = []
    for f in range(monoid.n):
        mask = 0
        for k in range(monoid.n):
            mask |= 1 << monoid.mul(f, k)
        principal.append(mask)
        assert mask in mi.ideal_masks  # f.M is a monoid ideal
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
    products = pairwise_owc_binop(pts, dn_masks, data.mul_t)
    mult = [[dn_index[m] for m in row] for row in products]
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
    masks = sorted(mi.ideal_masks)
    n = 4
    oracle = []
    for mask in range(1 << n):
        elems = list(bits(mask))
        if all(mask >> data.mul(a, r) & 1 for a in elems for r in range(n)):
            oracle.append(mask)
    assert masks == sorted(oracle)


def test_large_monoid_ideal_quantale_checks_each_principal_ideal_once(monkeypatch):
    # at every size the class check confirms, once per point x, that the
    # classes below the class of x make up the least monoid ideal over the
    # down-set of x; every monoid ideal is a union of those
    data = scott_localic_lattice(powerset_lattice(4))
    calls = []
    monkeypatch.setattr(pfspec.algebra, "_absorb", lambda data, mask: calls.append(mask) or mask)
    mi = monoid_ideal_quantale(data)
    assert mi.monoid_ideals.carrier.n == 168
    assert calls == list(data.locale.points.down)
    monkeypatch.setattr(pfspec.algebra, "_absorb", lambda data, mask: mask & (mask - 1))
    for obj in (scott_localic_lattice(powerset_lattice(4)), _semiring_data("Z4")):
        with pytest.raises(LawViolation) as exc:
            monoid_ideal_quantale(obj)
        assert exc.value.law == "holoid classes give the principal monoid ideals"


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


def test_radical_frame_never_builds_the_opens():
    data = to_localic(_zmod(12))
    result = radical_frame(data)
    assert (result.ideals.carrier.n, result.radicals.carrier.n, len(result.points)) == (6, 4, 2)
    assert not _opens_built(data.locale)


def test_z16_radical_frame_under_default_caps_in_under_a_second():
    # 2**16 opens would need 2**32 join and meet entries
    z16 = _zmod(16)
    start = time.perf_counter()
    result = radical_frame(to_localic(z16))
    assert time.perf_counter() - start < 1.0
    assert len(result.points) == 1
    cmp = zariski_compare(z16)
    assert cmp.ok(), cmp


def test_z17_radical_frame_passes_the_opens():
    # 2**17 opens exceed the search budget; the pipeline never asks for them
    data = to_localic(_zmod(17))
    result = radical_frame(data)
    assert result.radicals.carrier.n == 2 and len(result.points) == 1
    assert not _opens_built(data.locale)
    with pytest.raises(CapExceeded) as exc:
        data.locale.open_masks
    assert exc.value.what == "opens enumeration"


def test_opens_oracle_refuses_the_z16_tables_before_building_them():
    data = to_localic(_zmod(16))
    with pytest.raises(CapExceeded) as exc:
        opens_oracle(data)
    assert (exc.value.size, exc.value.cap) == (2**32, 16 * 2**16)
    assert len(data.locale.open_masks) == 2**16
    assert "opens" not in vars(data.locale)


def _lumped_reflection(monoid, order=None):
    return None, [0] * monoid.n, FinitePoset(["*"], [1])


def test_unabsorbable_ideal_sum_raises(monkeypatch):
    # a holoid quotient that lumps every point into one class leaves only
    # the empty and the full monoid ideal, while 0 generates {0}
    monkeypatch.setattr(pfspec.algebra, "holoid_quotient", _lumped_reflection)
    with pytest.raises(LawViolation) as exc:
        radical_frame(_semiring_data("Z4"))
    assert (exc.value.law, exc.value.witness) == ("holoid classes give the principal monoid ideals", "0")


@pytest.mark.parametrize("broken", [_opposite_order_reflection, _lumped_reflection], ids=["reversed", "lumped"])
@Z4_AND_P4
def test_radical_frame_checks_the_holoid_classes(monkeypatch, broken, make):
    # the class closure reads only the classes and their order, so both
    # wrong reflections must fail its point-by-point check
    monkeypatch.setattr(pfspec.algebra, "holoid_quotient", broken)
    with pytest.raises(LawViolation) as exc:
        radical_frame(make())
    assert exc.value.law == "holoid classes give the principal monoid ideals"


@pytest.mark.parametrize("broken", [_opposite_order_reflection, _lumped_reflection], ids=["reversed", "lumped"])
@pytest.mark.parametrize(
    "run",
    [monoid_ideal_quantale, saturated_replacement, lambda data: representability_check(data, [])],
    ids=["MM", "replacement", "representability"],
)
def test_monoid_side_checks_the_holoid_classes(monkeypatch, broken, run):
    # MM(R), its principal universal element and the replacement are read
    # off the classes, so a wrong reflection must fail the class check
    monkeypatch.setattr(pfspec.algebra, "holoid_quotient", broken)
    with pytest.raises(LawViolation) as exc:
        run(_semiring_data("Z4"))
    assert exc.value.law == "holoid classes give the principal monoid ideals"


def test_only_the_saturated_replacement_builds_the_quotient_monoid(monkeypatch):
    # the congruence check is enough for the classes; the quotient monoid
    # and its O(k^3) validation wait for the one caller that reads it
    data = scott_localic_lattice(grid(3, 3))
    built = []
    init = FiniteCommMonoid.__init__
    monkeypatch.setattr(FiniteCommMonoid, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    radical_frame(data)
    saturation(data)
    count_saturated_opens(data)
    assert built == []
    saturated_replacement(data)
    assert len(built) == 1


def _union_as_join(classes, ideal, union):
    return union


@pytest.mark.parametrize(
    "method, broken, data, law, witness",
    [
        # the first set listed, in (size, mask) order, that is no ideal:
        # every monoid ideal that holds 0, and (2) v (3) misses 2 + 3 = 5
        ("ideal_sum", _union_as_join, lambda: _semiring_data("Z6"), "class closure gives ideals", "{0,2,3,4}"),
    ],
    ids=["sums"],
)
def test_class_closure_output_is_checked_against_the_definition(monkeypatch, method, broken, data, law, witness):
    monkeypatch.setattr(pfspec.algebra.HoloidClasses, method, broken)
    with pytest.raises(LawViolation) as exc:
        radical_frame(data())
    assert (exc.value.law, exc.value.witness) == (law, witness)


def _every_class_as_join(classes, ideal, union):
    return (1 << classes.order.n) - 1


def test_a_principal_ideal_missing_from_the_listing_is_a_failed_law(monkeypatch, capsys):
    # were every ideal sum the full set, Z6 would list only (0) and the
    # whole ring; the universal element then names the first class whose
    # down-set is missing, and verify records it with no traceback
    monkeypatch.setattr(pfspec.algebra.HoloidClasses, "ideal_sum", _every_class_as_join)
    with pytest.raises(LawViolation) as exc:
        radical_frame(_semiring_data("Z6"))
    assert (exc.value.law, exc.value.witness) == ("principal ideals are listed", "2")
    assert main(["verify", "--suite", "oracles", str(MODELS[0].with_name("catalog.model"))]) == 1
    out, err = capsys.readouterr()
    failed = [line for line in out.splitlines() if "FAIL" in line]
    assert "[oracles] Z6: zariski brute force matches the pipeline ... FAIL (principal ideals are listed violated at 2)" in failed
    assert all("principal ideals are listed" in line for line in failed), failed
    assert "Traceback" not in out + err


def test_ideal_enumeration_stops_at_the_cap_before_any_table(monkeypatch):
    # Scott P4 has 16 ideals, so the listing takes more than 8 ideal sums;
    # the cap stops it at the ninth, before a lattice or a product is built
    built = []
    monkeypatch.setattr(pfspec.spectrum, "_class_quantale", lambda *args: built.append("product"))
    monkeypatch.setattr(Lattice, "__init__", lambda *args: built.append("lattice"))
    with pytest.raises(CapExceeded) as exc:
        ideal_quantale(scott_localic_lattice(powerset_lattice(4)), Caps(max_exhaustive=3))
    assert (exc.value.what, exc.value.size, exc.value.cap) == ("ideal enumeration", 9, 8)
    assert built == []


def test_z30_radical_frame_finds_three_points_under_default_caps():
    # 2^28 candidate maps once 0 and 1 are pinned; the pruned search
    # checks each law as soon as its three values are assigned
    result = radical_frame(to_localic(_zmod(30)))
    assert len(result.points) == 3


_BROKEN_UNIVERSAL_ELEMENT = """
import sys
import pfspec.spectrum as spectrum
from pfspec.algebra import to_localic
from pfspec.errors import LawViolation
from reference import semiring_catalog

# every point to the top ideal, whose radical lies above every prime
spectrum.universal_element = lambda data, iq: (iq.ideals.carrier.top,) * data.locale.points.n
data = to_localic(dict(semiring_catalog())["Z6"])
print("optimize", sys.flags.optimize)
try:
    spectrum.radical_frame(data)
except LawViolation as exc:
    print(exc.law, exc.witness)
"""


def test_points_of_rad_checked_against_the_search_under_optimize():
    # the search finds the anti-ideals {1,3,5} and {1,2,4,5} of Z/6; the
    # broken element makes each prime of Rad(R) give every point
    result = run_optimized(_BROKEN_UNIVERSAL_ELEMENT)
    assert result.stdout == "optimize 1\npoints of Rad(R) are the prime anti-ideals {1,3,5}\n", result.stderr


# ---------------------------------------------------------------------------
# universal element


def test_universal_element_z4_is_principal_ideals():
    data = _semiring_data("Z4")
    iq = ideal_quantale(data)
    g = universal_element(data, iq)
    names = [iq.ideals.carrier.names[v] for v in g]
    assert names == ["{0}", "{0,1,2,3}", "{0,2}", "{0,1,2,3}"]


def test_universal_element_conditions_boolean():
    data = _semiring_data("B")
    iq = ideal_quantale(data)
    g = universal_element(data, iq)  # conditions checked inside
    assert g[data.one_point] == iq.ideals.unit
    assert g[data.zero_point] == iq.ideals.carrier.bottom


def test_universal_element_checked_against_least_ideals(monkeypatch):
    # a map form that sends every point to the top ideal fails the
    # point-level route first: 0 lies in the smaller ideal (0); the class
    # route's map is checked by that function, and so is the collapse of
    # the principal monoid ideals in the opens oracle (elsewhere the class
    # check vouches for them)
    data = _semiring_data("Z4")
    iq = ideal_quantale(data)
    with pytest.raises(LawViolation) as exc:
        _checked_universal(data, iq.ideals, iq.ideal_masks, (iq.ideals.carrier.top,) * 4, "semiring")
    assert (exc.value.law, exc.value.witness) == ("universal element is the least ideal at each point", "0")
    original = pfspec.spectrum.monoid_ideal_quantale

    def all_top(data, caps):
        mi = original(data, caps)
        return mi._replace(universal_map=(mi.monoid_ideals.carrier.top,) * data.locale.points.n)

    monkeypatch.setattr(pfspec.spectrum, "monoid_ideal_quantale", all_top)
    with pytest.raises(LawViolation) as exc:
        opens_oracle(data)
    assert (exc.value.law, exc.value.witness) == ("universal element is the least ideal at each point", "0")


def test_universal_element_is_checked_monotone_before_its_laws():
    # on a chain every anti-ideal law but the unit and the zero holds for
    # all monotone maps and is omitted, so the laws alone would pass a
    # universal element with two values swapped
    data = scott_localic_lattice(chain(4))
    iq = ideal_quantale(data)
    g = list(universal_element(data, iq))
    g[1], g[2] = g[2], g[1]
    laws = pfspec.spectrum._anti_ideal_laws(data, data.classes, iq.ideals, "semiring")
    assert [name for name, _, _ in laws] == ["unit", "zero"]
    assert all(test(g) for _, _, test in laws)
    with pytest.raises(LawViolation) as exc:
        _checked_universal(data, iq.ideals, iq.ideal_masks, tuple(g), "semiring")
    assert (exc.value.law, exc.value.witness) == ("universal element is monotone", ("m1", "m2"))


def test_universal_element_laws_name_the_classes_they_read():
    # with the meet as Idl(Z4)'s product every least ideal is still right,
    # but the ideal (2) times itself is (2), not (0), the ideal of 2.2 = 0
    data = _semiring_data("Z4")
    iq = ideal_quantale(data)
    with pytest.raises(LawViolation) as exc:
        universal_element(data, iq._replace(ideals=frame_quantale(iq.ideals.carrier)))
    assert (exc.value.law, exc.value.witness) == ("universal element multiplicativity", ("0", "2"))


def test_monoid_route_is_compared_with_the_class_route(monkeypatch):
    # were the class route's universal map all the top, the monoid route,
    # which passes its own checks, would differ from it at the first point
    data = _semiring_data("Z4")
    original = pfspec.spectrum.ideal_quantale

    def all_top(data, caps):
        iq = original(data, caps)
        return iq._replace(universal_map=(iq.ideals.carrier.top,) * data.locale.points.n)

    monkeypatch.setattr(pfspec.spectrum, "ideal_quantale", all_top)
    with pytest.raises(LawViolation) as exc:
        opens_oracle(data)
    assert (exc.value.law, exc.value.witness) == ("universal element through the monoid ideals", "0")


def _empty_element(quantale, locale, g):
    return TensorElement(TensorSpace((quantale.carrier, locale.opens)), 0)


def test_universal_element_broken_cross_check_raises(monkeypatch):
    monkeypatch.setattr(pfspec.spectrum, "element_of_map", _empty_element)
    data = _semiring_data("Z4")
    with pytest.raises(LawViolation) as exc:
        opens_oracle(data)
    assert exc.value.law == "universal element map form"


_BROKEN_CROSS_CHECK = """
import sys
import pfspec.spectrum as spectrum
from pfspec.algebra import to_localic
from pfspec.errors import LawViolation
from pfspec.suplattice import TensorElement, TensorSpace
from reference import semiring_catalog

spectrum.element_of_map = lambda q, loc, g: TensorElement(TensorSpace((q.carrier, loc.opens)), 0)
data = to_localic(dict(semiring_catalog())["Z4"])
print("optimize", sys.flags.optimize)
try:
    spectrum.opens_oracle(data)
except LawViolation as exc:
    print(exc.law)
"""


def test_universal_element_broken_cross_check_raises_under_optimize():
    # python -O strips assert statements; the check must not be one
    result = run_optimized(_BROKEN_CROSS_CHECK)
    assert result.stdout == "optimize 1\nuniversal element map form\n", result.stderr


def test_universal_element_bi_ideal_connects_to_map_form():
    data = _semiring_data("Z6")
    iq = ideal_quantale(data)
    g = universal_element(data, iq)
    elem = opens_oracle(data).universal
    assert map_of_element(data.locale, elem) == g
    assert element_of_map(iq.ideals, data.locale, g) == elem


# ---------------------------------------------------------------------------
# anti-ideals


def test_anti_ideals_boolean_singleton():
    data = _semiring_data("B")
    result = anti_ideals(data, frame_quantale(omega()), "semiring")
    assert len(result.maps) == 1
    assert result.maps[0] == (0, 1)  # the subset {1}


def test_anti_ideals_z6_two_points():
    data = _semiring_data("Z6")
    result = anti_ideals(data, frame_quantale(omega()), "semiring")
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
    result = anti_ideals(data, frame_quantale(omega()), "semiring")
    masks = sorted(sum(1 << x for x in range(6) if g[x]) for g in result.maps)
    assert masks == sorted(oracle)


def test_anti_ideals_monoid_z2():
    # u = {1} fails since a.a = 1; only the whole monoid qualifies
    data = _monoid_data("Z2")
    result = anti_ideals(data, frame_quantale(omega()), "monoid")
    assert len(result.maps) == 1
    assert result.maps[0] == (1, 1)


def test_anti_ideal_members_are_closed_bi_ideals():
    data = _semiring_data("Z4")
    for _, q in quantale_catalog()[:3]:
        result = anti_ideals(data, q, "semiring")
        for g in result.maps:
            member = element_of_map(q, data.locale, g)
            assert member.space.closure(member.mask) == member.mask
            assert map_of_element(data.locale, member) == g


def test_anti_ideals_cap():
    data = _semiring_data("Z6")
    with pytest.raises(CapExceeded):
        anti_ideals(data, quantale_catalog()[3][1], "semiring", Caps(max_exhaustive=4))


def test_anti_ideals_cap_counts_the_maps_reached():
    # the cap counts search nodes, one per value tried: Z/6 into the
    # 5-chain stops at the 17th node past a budget of 16, and the pruned
    # search finishes within 128 nodes (5^2 maps of the classes {2,4} and
    # {3} once the classes of 1 and 0 are pinned)
    data = _semiring_data("Z6")
    q = quantale_catalog()[3][1]
    with pytest.raises(CapExceeded) as exc:
        anti_ideals(data, q, "semiring", Caps(max_exhaustive=4))
    assert (exc.value.size, exc.value.cap) == (17, 16)
    assert len(anti_ideals(data, q, "semiring", Caps(max_exhaustive=7)).maps) == 2


def test_anti_ideals_cap_allows_long_chain():
    # 2^17 value tables exceed the default budget, but the Scott locale of a
    # 17-chain has only a handful of monotone Omega-valued maps
    result = radical_frame(scott_localic_lattice(chain(17)))
    assert result.radicals.carrier.n == 17
    assert len(result.points) == 16


def test_radical_frame_reads_the_points_past_the_search_cap():
    # the Omega search on chain(40) passes a budget of 2**9 nodes; the
    # points are read off the classes, all 40 idempotent, and all but the
    # zero's give a point, one per meet-irreducible of Rad
    result = radical_frame(scott_localic_lattice(chain(40)), Caps(max_exhaustive=9))
    assert (len(result.points), result.radicals.carrier.n) == (39, 40)


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


def test_representability_counts_b_omega():
    data = _semiring_data("B")
    report = representability_check(data, [("Omega", frame_quantale(omega()))])
    entry = report.semiring_entries[0]
    assert entry.hom_count == entry.member_count == 1


def test_monoid_side_builds_no_saturated_frame_or_dual_basis(monkeypatch, capsys):
    # both universal elements, MM(R) and the replacement come from the
    # classes: representability passes and the monoid spectra print their
    # golden bytes with every binding of the frame's routes refused
    for module in (pfspec.spectrum, pfspec.suplattice, pfspec.locale):
        for name in ("saturation", "dual_basis", "locale_from_frame"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda *args, name=name: pytest.fail(name))
    for data in (to_localic(_zmod(8)), scott_localic_lattice(powerset_lattice(3))):
        assert representability_check(data, quantale_catalog()).ok()
    printed = 0
    for path in MODELS:
        for block in parse_model(path).blocks:
            if not isinstance(block, MonoidBlock):
                continue
            for mode in ("quantic", "localic"):
                code = main(["spectrum", str(path), "--object", block.name, "--mode", mode])
                golden = GOLDEN / path.stem / f"spectrum-{block.name}-{mode}.txt"
                assert f"exit {code}\n" + capsys.readouterr().out == golden.read_text(encoding="utf-8")
                printed += 1
    assert printed == 12


def test_pipeline_never_closes_the_duality_unit(monkeypatch):
    # the unit bi-ideal of dual (x) L is closed only when read, and only the
    # opens oracle reads it
    spaces = []
    original = TensorSpace.closure

    def counting(space, mask):
        spaces.append(space.factors)
        return original(space, mask)

    monkeypatch.setattr(TensorSpace, "closure", counting)
    p3 = scott_localic_lattice(powerset_lattice(3))
    radical_frame(scott_localic_lattice(powerset_lattice(4)))
    radical_frame(p3)
    assert representability_check(p3, quantale_catalog()).ok()
    assert spaces == []
    opens_oracle(p3)
    saturated = saturation(p3).saturated
    assert (saturated.opposite(), saturated) in spaces


def test_representability_z60_under_default_caps():
    # 12 holoid classes for 60 points: the anti-ideal search over the
    # points stopped at the default search cap
    report = representability_check(to_localic(_zmod(60)), quantale_catalog())
    assert report.ok(), report.failure()


def test_representability_quotients_each_monoid_once(monkeypatch):
    # Idl(R), MM(R), the replacement and every anti-ideal search read one
    # set of holoid classes; the replacement's own classes are built once,
    # for its structure check
    quotiented = []
    original = pfspec.algebra.holoid_quotient
    monkeypatch.setattr(
        pfspec.algebra, "holoid_quotient", lambda monoid, order: quotiented.append(monoid) or original(monoid, order)
    )
    data = _semiring_data("Z4")
    assert representability_check(data, quantale_catalog()).ok()
    assert len(quotiented) == 2 and quotiented[0] is data.mul_monoid


def _permute_the_replacement(monkeypatch):
    # the saturated replacement's own classes, numbered in reverse, and only
    # those: they pass the class check, but are not the input's classes in
    # their order; the replacement's points are the class order an earlier
    # call returned
    orders = []
    original = pfspec.algebra.holoid_quotient

    def permuting(monoid, order):
        table, cls_of, poset = original(monoid, order)
        if not any(order is o for o in orders):
            orders.append(poset)
            return table, cls_of, poset
        k = poset.n
        flip = [k - 1 - c for c in range(k)]
        up = [sum(1 << flip[e] for e in bits(poset.up[flip[c]])) for c in range(k)]
        return (
            tuple(tuple(flip[table[flip[c]][flip[e]]] for e in range(k)) for c in range(k)),
            tuple(flip[c] for c in cls_of),
            FinitePoset([poset.names[flip[c]] for c in range(k)], up),
        )

    monkeypatch.setattr(pfspec.algebra, "holoid_quotient", permuting)


def test_representability_checks_the_replacement_once_on_its_classes(monkeypatch):
    # Z4 has the classes {0}, {1,3} and {2}; the replacement's classes must
    # be their singletons, in their order
    _permute_the_replacement(monkeypatch)
    with pytest.raises(LawViolation) as exc:
        representability_check(_semiring_data("Z4"), quantale_catalog())
    assert (exc.value.law, exc.value.witness) == ("saturated replacement is saturated", "0")


def test_verify_records_an_unsaturated_replacement_as_fail(monkeypatch, capsys):
    _permute_the_replacement(monkeypatch)
    z4 = next(path for path in MODELS if path.stem == "z4")
    assert main(["verify", "--suite", "representability", str(z4)]) == 1
    assert capsys.readouterr().out.splitlines()[1] == (
        "[representability] Z4: homs classify anti-ideals over the quantale catalog ... "
        "FAIL (saturated replacement is saturated violated at 0)"
    )


def test_the_class_check_runs_once_per_object(monkeypatch):
    # the check reads _absorb once per point, where the classes are built;
    # the saturated replacement is an object of its own, whose classes are
    # checked once, where they are built
    data = _semiring_data("Z6")
    absorbed = []
    original = pfspec.algebra._absorb
    monkeypatch.setattr(pfspec.algebra, "_absorb", lambda data, mask: absorbed.append(mask) or original(data, mask))
    radical_frame(data)
    replacement, _ = saturated_replacement(data)
    assert absorbed == list(data.locale.points.down) + list(replacement.locale.points.down)
    assert len(replacement.locale.points.down) == data.classes.order.n == 4


def test_saturation_is_reused_within_the_caps_of_each_call():
    # Z6 has 6 saturated opens: a budget of 4 refuses the kept frame as it
    # refuses to enumerate it
    data = _semiring_data("Z6")
    with pytest.raises(CapExceeded) as fresh:
        saturation(data, Caps(max_exhaustive=2))
    sat = saturation(data)
    assert len(sat.sat_masks) == 6 and saturation(data) is sat
    with pytest.raises(CapExceeded) as kept:
        saturation(data, Caps(max_exhaustive=2))
    assert str(kept.value) == str(fresh.value)


def test_representability_failure_names_the_first_failing_entry():
    entry = RepresentabilityEntry("Omega", 2, 2, True, True, True)
    report = RepresentabilityReport([entry], [entry])
    assert report.ok() and report.failure() is None
    for field, broken, witness in [
        ("member_count", 3, "semiring Omega: hom_count 2 != member_count 3"),
        ("all_images_members", False, "semiring Omega: all_images_members"),
        ("injective", False, "semiring Omega: injective"),
        ("surjective", False, "semiring Omega: surjective"),
    ]:
        failing = report._replace(semiring_entries=[entry._replace(**{field: broken})])
        assert not failing.ok() and failing.failure() == witness
    monoid = report._replace(monoid_entries=[entry._replace(quantale_name="C3", injective=False)])
    assert monoid.failure() == "monoid C3: injective"


def test_representability_z8_under_default_caps():
    report = representability_check(to_localic(_zmod(8)), quantale_catalog())
    assert report.ok()


def test_representability_scott_p3_under_default_caps():
    # the hom search out of Idl(P3) no longer walks all |Q|^|J| sup-maps
    report = representability_check(scott_localic_lattice(powerset_lattice(3)), quantale_catalog())
    assert report.ok()


def test_representability_scott_p5_stops_at_the_table_cap():
    # MM(P5) has 7,581 monoid ideals, whose 57 million table cells each
    # exceed 16 times the default search budget: family_lattice refuses them
    # before it builds any table
    data = scott_localic_lattice(powerset_lattice(5))
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as exc:
        representability_check(data, quantale_catalog())
    assert time.perf_counter() - start < 1.0
    assert (exc.value.what, exc.value.size, exc.value.cap) == ("lattice join and meet tables", 7581**2, 16 * 2**16)


def test_representability_scott_grid_3_5_under_default_caps(monkeypatch):
    # the universal element's own laws decide the Yoneda instance: no
    # anti-ideal search is valued in Idl(R), where listing them all ran past
    # the default search cap.  The replacement's classes decide invariance:
    # one semiring and one monoid search per quantale, all on the input.
    # Homs are held on J and read at the universal element's values, so no
    # QuantaleHom is built
    catalog = quantale_catalog()
    data = scott_localic_lattice(grid(3, 5))
    built, valued, homs = [], [], []
    ideal_quantale, anti_ideals = pfspec.spectrum.ideal_quantale, pfspec.spectrum.anti_ideals
    monkeypatch.setattr(pfspec.spectrum, "ideal_quantale", lambda *args: built.append(ideal_quantale(*args)) or built[-1])
    monkeypatch.setattr(
        pfspec.spectrum, "anti_ideals", lambda data, q, *args: valued.append((data, q)) or anti_ideals(data, q, *args)
    )
    init = QuantaleHom.__init__
    monkeypatch.setattr(QuantaleHom, "__init__", lambda self, *args: homs.append(args) or init(self, *args))
    report = representability_check(data, catalog)
    assert report.ok(), report.failure()
    assert len(built) == 1 and len(valued) == 2 * len(catalog)
    assert all(source is data for source, _ in valued)
    assert not any(q is built[0].ideals for _, q in valued)
    assert homs == []


def test_saturated_replacement_invariance_z4_monoid():
    # the anti-ideals of the replacement, carried along the point masks,
    # are those of the monoid, one for one
    data = _monoid_data("multZ4")
    replacement, masks = saturated_replacement(data)
    for _, q in quantale_catalog()[:3]:
        original = anti_ideals(data, q, "monoid")
        replaced = anti_ideals(replacement, q, "monoid")
        assert len(original.maps) == len(replaced.maps)
        transported = {
            tuple(q.carrier.join_iter(g[k] for k, m in enumerate(masks) if m >> x & 1) for x in range(4))
            for g in replaced.maps
        }
        assert transported == set(original.maps)


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


def test_dualisability_never_lists_the_down_sets(monkeypatch):
    # the pointwise bound reads pi on the principal down-set of each point,
    # so the 2**|points| down-sets are never listed
    def refuse(self, limit=None):
        raise AssertionError("dualisability_conditions listed the down-sets")

    objects = [_semiring_data(name) for name in ("B", "Z4", "Z6", "Z2xZ2", "C3lat")]
    objects += [_monoid_data("nil2"), scott_localic_lattice(powerset_lattice(3))]
    monkeypatch.setattr(FinitePoset, "down_sets", refuse)
    for data in objects:
        assert dualisability_conditions(data).agree(), data.name


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
    monkeypatch.setattr("pfspec.spectrum.supercontinuity_witness", lambda lat: lat.top)
    report = dualisability_conditions(_semiring_data("Z4"))
    assert not report.basis_exists
    assert not report.opens_supercontinuous


def _cached_counts(monkeypatch, run, cls=Lattice, method="join_irreducibles"):
    """Run ``run()`` and count, per object asked for ``cls.method()``, which
    caches its answer in ``_method``, the calls and the computations (calls
    that stored a new answer)."""
    counts = {}
    original = getattr(cls, method)

    def counting(obj):
        entry = counts.setdefault(id(obj), [obj, 0, 0])  # keeps obj alive
        stored = getattr(obj, "_" + method)
        out = original(obj)
        entry[1] += 1
        entry[2] += getattr(obj, "_" + method) is not stored
        return out

    monkeypatch.setattr(cls, method, counting)
    run()
    return [(calls, computed) for _, calls, computed in counts.values()]


def test_join_irreducibles_computed_once_per_lattice(monkeypatch):
    # lattices that outlive one call (Omega, the catalog's) may have theirs
    # already, so a first call warms them; no lattice computes them twice
    z6 = to_localic(dict(semiring_catalog())["Z6"])
    radical_frame(z6)
    counts = _cached_counts(monkeypatch, lambda: radical_frame(z6))
    # Idl validated; the points are read off Rad's order, which is Idl's, as
    # every ideal of Z6 is semiprime, and no opposite lattice is built
    assert sum(computed for _, computed in counts) == 1
    assert all(computed <= 1 for _, computed in counts)
    # representability asks Idl(R) and MM(R) once per catalog quantale
    counts = _cached_counts(
        monkeypatch, lambda: representability_check(z6, quantale_catalog())
    )
    assert all(computed <= 1 for _, computed in counts)
    assert max(calls for calls, _ in counts) > 1


def test_search_and_j_rows_built_once_per_lattice(monkeypatch):
    # representability runs two searches per catalog quantale and mode, and
    # reads each hom at the universal element: no poset builds its search
    # rows twice, and the two hom sources, Idl(R) and MM(R), build their J
    # rows once each, though enumerate_homs and j_evaluator ask for them
    # for every catalog quantale
    z6 = to_localic(dict(semiring_catalog())["Z6"])
    catalog = quantale_catalog()
    run = lambda: representability_check(z6, catalog)
    counts = _cached_counts(monkeypatch, run, FinitePoset, "search_rows")
    assert all(computed <= 1 for _, computed in counts)
    # each search asks its variables and its target, and the universal
    # element's check asks the class order once for its lower covers
    assert sum(calls for calls, _ in counts) == 2 * 2 * 2 * len(catalog) + 1
    # per quantale: enumerate_homs, its evaluator, and the evaluator that
    # reads the homs at the universal element; the frame certificate that
    # validates each source, a frame here, reads only the splits
    counts = _cached_counts(monkeypatch, run, Lattice, "j_rows")
    assert counts == [(3 * len(catalog), 1)] * 2
    # the splits: once for the certificate, and once per quantale for the
    # join laws of enumerate_homs; both read the j_below rows of j_rows
    counts = _cached_counts(monkeypatch, run, Lattice, "splits")
    assert counts == [(len(catalog) + 1, 1)] * 2
    counts = _cached_counts(monkeypatch, run, Lattice, "j_below")
    assert [computed for _, computed in counts] == [1, 1]
