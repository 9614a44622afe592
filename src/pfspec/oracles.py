"""Brute-force oracles, independent of the categorical pipeline.

Each oracle enumerates raw subsets and checks first-order definitions
directly: semiring ideals, radicals and primes for the discrete case,
lattice ideals and prime filters for the bounded-distributive case, and the
frame/point reconstruction for a continuous (here: any finite) frame with
its Scott topology.  The comparison functions confront the pipeline output
with these sets elementwise.
"""

from collections import namedtuple

from .algebra import lattice_semiring, scott_localic_lattice, to_localic
from .caps import DEFAULT_CAPS
from .errors import CapExceeded
from .iso import find_lattice_iso, find_poset_iso
from .locale import locale_from_frame
from .order import bits
from .spectrum import radical_frame


# ---------------------------------------------------------------------------
# discrete semirings: the classical ideal/radical/prime sets


def semiring_ideals(semiring, caps=DEFAULT_CAPS):
    """All ideals of a discrete commutative semiring, as element bitmasks:
    subsets containing 0, closed under + and under multiplication by R.
    All 2**|R| subsets are tried, so CapExceeded is raised before any is
    when they are more than ``caps.search_budget()``."""
    n, budget = semiring.n, caps.search_budget()
    if 1 << n > budget:
        raise CapExceeded("ideal subset enumeration", 1 << n, budget)
    out = []
    for mask in range(1 << n):
        if not mask >> semiring.zero & 1:
            continue
        elems = list(bits(mask))
        if any(not mask >> semiring.add(a, b) & 1 for a in elems for b in elems):
            continue
        if any(not mask >> semiring.mul(a, r) & 1 for a in elems for r in range(n)):
            continue
        out.append(mask)
    return sorted(out)


def ideal_product(semiring, i_mask, j_mask):
    """The ideal generated by pairwise products."""
    gens = 0
    for a in bits(i_mask):
        for b in bits(j_mask):
            gens |= 1 << semiring.mul(a, b)
    return ideal_closure(semiring, gens)


def ideal_closure(semiring, mask):
    mask |= 1 << semiring.zero
    changed = True
    while changed:
        changed = False
        elems = list(bits(mask))
        for a in elems:
            for b in elems:
                s = semiring.add(a, b)
                if not mask >> s & 1:
                    mask |= 1 << s
                    changed = True
            for r in range(semiring.n):
                p = semiring.mul(a, r)
                if not mask >> p & 1:
                    mask |= 1 << p
                    changed = True
    return mask


def radical_of(semiring, i_mask):
    """{x : some power of x lies in I}; exponents up to |R| suffice since
    the power sequence of any element cycles within |R| steps."""
    out = 0
    for x in range(semiring.n):
        power = x
        for _ in range(semiring.n):
            if i_mask >> power & 1:
                out |= 1 << x
                break
            power = semiring.mul(power, x)
    return out


def radical_ideals(semiring, ideals):
    """The radical ideals among ``ideals``."""
    return [m for m in ideals if radical_of(semiring, m) == m]


def prime_ideals(semiring, ideals):
    """The proper ideals among ``ideals`` with xy in P implying x in P or y
    in P."""
    pairs = [(x, y, semiring.mul(x, y)) for x in range(semiring.n) for y in range(semiring.n)]
    prime = lambda m: all(m >> xy & 1 <= (m >> x | m >> y) & 1 for x, y, xy in pairs)
    return [m for m in ideals if not m >> semiring.one & 1 and prime(m)]


class ZariskiComparison(
    namedtuple(
        "ZariskiComparison",
        "ideal_count radical_count prime_count ideals_match ideal_mult_matches radicals_match points_match",
    )
):
    __slots__ = ()

    def ok(self):
        return (
            self.ideals_match
            and self.ideal_mult_matches
            and self.radicals_match
            and self.points_match
        )


def zariski_compare(semiring, caps=DEFAULT_CAPS, name=""):
    """Confront the pipeline with the brute-force ideal theory of a discrete
    semiring: the elements of Idl(R) must be exactly the semiring ideals
    (with matching multiplication), the elements of Rad(R) the radical
    ideals, and the points the complements of the prime ideals.  The ideals
    are enumerated once, under ``caps``, before the pipeline runs, and the
    radicals and primes are read off that list."""
    ideals = semiring_ideals(semiring, caps)
    result = radical_frame(to_localic(semiring, name=name), caps)
    ideals_match = sorted(result.ideal_data.ideal_masks) == ideals
    mask_to_idx = {m: i for i, m in enumerate(result.ideal_data.ideal_masks)}
    mult_ok = True
    for mi in ideals:
        for mj in ideals:
            got = result.ideal_data.ideal_masks[
                result.ideals.mul(mask_to_idx[mi], mask_to_idx[mj])
            ]
            if got != ideal_product(semiring, mi, mj):
                mult_ok = False
    radicals = radical_ideals(semiring, ideals)
    rad_masks = sorted(
        result.ideal_data.ideal_masks[_fixed_rep(result, q)]
        for q in range(result.radicals.carrier.n)
    )
    radicals_match = rad_masks == radicals
    full = (1 << semiring.n) - 1
    primes = prime_ideals(semiring, ideals)
    points_match = sorted(result.points) == sorted(full ^ p for p in primes)
    return ZariskiComparison(
        len(ideals),
        len(radicals),
        len(primes),
        ideals_match,
        mult_ok,
        radicals_match,
        points_match,
    )


def _fixed_rep(result, quotient_index):
    """Index in Idl(R) of the largest ideal in the class of a Rad element."""
    name = result.radicals.carrier.names[quotient_index]
    return result.ideals.carrier.names.index(name)


# ---------------------------------------------------------------------------
# distributive lattices as semirings: the Stone spectrum


def prime_filters(lat, caps=DEFAULT_CAPS):
    """Nonempty proper up-sets closed under meets with x v y in F implying
    x in F or y in F.  The up-sets are listed under ``caps``: CapExceeded
    past ``caps.search_budget()`` of them."""
    budget = caps.search_budget()
    ups = lat.up_sets(limit=budget)
    if ups is None:
        raise CapExceeded("up-set enumeration", f">{budget}", budget)
    out = []
    for mask in ups:
        elems = list(bits(mask))
        if not elems or mask >> lat.bottom & 1:
            continue
        if any(not mask >> lat.meet(a, b) & 1 for a in elems for b in elems):
            continue
        if all(
            mask >> lat.join(x, y) & 1 <= (mask >> x & 1 | mask >> y & 1)
            for x in range(lat.n)
            for y in range(lat.n)
        ):
            out.append(mask)
    return sorted(out)


class StoneComparison(
    namedtuple(
        "StoneComparison",
        [
            "ideal_lattice_matches",  # Idl(L) is isomorphic to L via principal ideals
            "point_count",
            "points_are_prime_filters",
        ],
    )
):
    __slots__ = ()

    def ok(self):
        return self.ideal_lattice_matches and self.points_are_prime_filters


def stone_compare(lat, caps=DEFAULT_CAPS, name=""):
    """A bounded distributive lattice, viewed as a discrete semiring with
    + = join and * = meet, must have Idl(L) isomorphic to L by principal
    down-sets and its points must be exactly the prime filters."""
    semiring = lattice_semiring(lat)
    data = to_localic(semiring, name=name)
    result = radical_frame(data, caps)
    expected = [lat.down[a] for a in range(lat.n)]
    principal_match = sorted(result.ideal_data.ideal_masks) == sorted(expected)
    order_match = find_lattice_iso(result.ideals.carrier, lat) is not None
    points_ok = sorted(result.points) == prime_filters(lat, caps)
    return StoneComparison(
        principal_match and order_match, len(result.points), points_ok
    )


# ---------------------------------------------------------------------------
# the Scott-topology case: finite frames


class ScottFrameComparison(
    namedtuple(
        "ScottFrameComparison",
        [
            "radical_frame_matches",  # Rad is isomorphic to the original frame
            "point_poset_matches",  # the points recover the original poset
        ],
    )
):
    __slots__ = ()

    def ok(self):
        return self.radical_frame_matches and self.point_poset_matches


def hofmann_lawson_compare(lat, caps=DEFAULT_CAPS, name=""):
    """For a finite distributive lattice L with its Scott topology, the
    spectrum must return L itself, Rad(R) isomorphic to L, and its point
    poset must match the poset of join-irreducibles that presents L as a
    frame (``locale_from_frame``)."""
    data = scott_localic_lattice(lat, caps, name=name)
    result = radical_frame(data, caps)
    frame_ok = find_lattice_iso(result.radicals.carrier, lat) is not None
    loc, _, _ = locale_from_frame(lat, caps)
    points_ok = find_poset_iso(result.point_poset, loc.points) is not None
    return ScottFrameComparison(frame_ok, points_ok)
