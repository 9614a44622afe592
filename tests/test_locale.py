"""Locales from posets, coproducts, OWC sublocales, Scott analysis."""

import pytest

from pfspec.caps import Caps
from pfspec.errors import CapExceeded, LawViolation, NotMonotone
from pfspec.iso import find_lattice_iso
from pfspec.locale import alexandrov, locale_from_frame
from pfspec.order import build_poset
from pfspec.suplattice import dual
from reference import (
    LocaleMap,
    OwcSublocale,
    all_posets_up_to_iso,
    antichain,
    coproduct,
    owc,
    owc_image,
    way_below_exhaustive,
)


def sierpinski():
    return alexandrov(build_poset(["b", "t"], [("b", "t")]))


def test_alexandrov_point():
    loc = alexandrov(antichain(1))
    assert loc.opens.n == 2  # Omega


def test_alexandrov_sierpinski():
    loc = sierpinski()
    assert loc.opens.n == 3
    assert [loc.opens.names[i] for i in range(3)] == ["{}", "{t}", "{b,t}"]


def test_alexandrov_discrete():
    loc = alexandrov(antichain(2))
    assert loc.opens.n == 4  # the powerset


def test_positivity_is_inhabitation():
    loc = sierpinski()
    for i, m in enumerate(loc.open_masks):
        assert (loc.positivity(i) == 1) == bool(m)


def test_coproduct_sierpinski():
    s = sierpinski()
    both, i1, i2, i1l = coproduct(s, s)
    assert both.opens.n == 6  # up-sets of the 2x2 grid


def test_coproduct_with_terminal_is_unitor():
    s = sierpinski()
    pt = alexandrov(antichain(1))
    both, i1, i2, i1l = coproduct(s, pt)
    assert find_lattice_iso(both.opens, s.opens) is not None


def test_coproduct_discrete():
    d2 = alexandrov(antichain(2))
    both, *_ = coproduct(d2, d2)
    assert both.opens.n == 16


def test_coproduct_cap():
    d4 = alexandrov(antichain(4))
    with pytest.raises(CapExceeded):
        coproduct(d4, d4, Caps(max_exhaustive=8))


def test_owc_discrete_two_points():
    lat, subs = owc(alexandrov(antichain(2)))
    assert lat.n == 4  # all subsets


def test_owc_sierpinski():
    lat, subs = owc(sierpinski())
    assert lat.n == 3
    masks = sorted(s.downset for s in subs)
    assert masks == [0b00, 0b01, 0b11]  # {}, {b}, {b,t}


def test_owc_meets():
    loc = sierpinski()
    lat, subs = owc(loc)
    top_open = loc.open_index[0b10]  # {t}
    by_mask = {s.downset: s for s in subs}
    assert not by_mask[0b01].meets(top_open)  # {b} misses {t}
    assert by_mask[0b11].meets(top_open)


def test_owc_is_dual_of_opens():
    for poset in all_posets_up_to_iso(3):
        loc = alexandrov(poset)
        lat, subs = owc(loc)
        dual(loc.opens)
        assert find_lattice_iso(lat, loc.opens.opposite()) is not None


def test_owc_image_identity_and_collapse():
    loc = sierpinski()
    lat, subs = owc(loc)
    ident = LocaleMap(loc, loc, [0, 1])
    for s in subs:
        assert owc_image(ident, s).downset == s.downset
    pt = alexandrov(antichain(1))
    collapse = LocaleMap(loc, pt, [0, 0])
    for s in subs:
        image = owc_image(collapse, s)
        assert image.downset == (1 if s.downset else 0)


def test_owc_sublocale_must_be_a_down_set():
    # {t} is not closed downwards in the Sierpinski space b <= t
    with pytest.raises(LawViolation) as exc:
        OwcSublocale(sierpinski(), 0b10)
    assert (exc.value.law, exc.value.witness) == ("OWC sublocale is a down-set", "{t}")


def test_locale_map_swap_not_monotone():
    loc = sierpinski()
    with pytest.raises(NotMonotone):
        LocaleMap(loc, loc, [1, 0])
    # monotone collapse b,t -> b sends the whole-space sublocale to {b}
    down = LocaleMap(loc, loc, [0, 0])
    lat, subs = owc(loc)
    whole = [s for s in subs if s.downset == 0b11][0]
    assert owc_image(down, whole).downset == 0b01


# Every directed subset of a finite poset holds its join, so way-below is
# the order itself: the down-sets ``poset.down`` the package reads.


def test_way_below_is_order_on_finite_posets():
    c3 = build_poset(["0", "m", "1"], [("0", "m"), ("m", "1")])
    rel = way_below_exhaustive(c3)
    assert sum(m.bit_count() for m in rel) == 6  # 3 reflexive + 3 strict


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_way_below_matches_directed_oracle(n):
    for poset in all_posets_up_to_iso(n):
        assert poset.down == way_below_exhaustive(poset)


# The Scott opens of a finite poset are its up-sets, so the Alexandrov locale
# is the Scott localification and the Scott-closed sets are the down-sets;
# ``owc`` checks their round trip through the meets-maps opens -> Omega.


def test_scott_analysis_c3():
    lat, subs = owc(alexandrov(build_poset(["0", "m", "1"], [("0", "m"), ("m", "1")])))
    assert lat.n == len(subs) == 4


def test_scott_analysis_antichain():
    lat, subs = owc(alexandrov(antichain(3)))
    assert lat.n == len(subs) == 8  # every subset is a down-set


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_scott_roundtrip_all_small_posets(n):
    for poset in all_posets_up_to_iso(n):
        lat, subs = owc(alexandrov(poset))
        assert sorted(s.downset for s in subs) == sorted(poset.down_sets())


def test_locale_from_frame_roundtrip():
    for n in (1, 2, 3):
        for poset in all_posets_up_to_iso(n):
            loc = alexandrov(poset)
            loc2, to_opens, from_opens = locale_from_frame(loc.opens)
            assert loc2.opens.n == loc.opens.n
            for a in range(loc.opens.n):
                assert from_opens(to_opens(a)) == a
