"""Brute-force oracles, independent of the categorical pipeline.

Each oracle enumerates raw subsets and checks first-order definitions
directly: semiring ideals, radicals and primes for the discrete case,
lattice ideals and prime filters for the bounded-distributive case, and the
frame/point reconstruction for a continuous (here: any finite) frame with
its Scott topology.  The comparison functions confront the pipeline output
with these sets elementwise.
"""

from dataclasses import dataclass

from .algebra import scott_localic_lattice, to_localic
from .caps import DEFAULT_CAPS
from .iso import find_lattice_iso, find_poset_iso
from .order import bits, upset_lattice
from .spectrum import radical_frame


# ---------------------------------------------------------------------------
# discrete semirings: the classical ideal/radical/prime sets


def semiring_ideals(semiring):
    """All ideals of a discrete commutative semiring, as element bitmasks:
    subsets containing 0, closed under + and under multiplication by R."""
    n = semiring.n
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


def radical_ideals(semiring):
    return sorted(m for m in semiring_ideals(semiring) if radical_of(semiring, m) == m)


def prime_ideals(semiring):
    """Proper ideals with xy in P implying x in P or y in P."""
    out = []
    for mask in semiring_ideals(semiring):
        if mask >> semiring.one & 1:
            continue
        if all(
            mask >> semiring.mul(x, y) & 1
            <= (mask >> x & 1 | mask >> y & 1)
            for x in range(semiring.n)
            for y in range(semiring.n)
        ):
            out.append(mask)
    return sorted(out)


@dataclass
class ZariskiComparison:
    ideal_count: int
    radical_count: int
    prime_count: int
    ideals_match: bool
    ideal_mult_matches: bool
    radicals_match: bool
    points_match: bool

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
    ideals, and the points the complements of the prime ideals."""
    data = to_localic(semiring, name=name)
    result = radical_frame(data, caps)
    ideals = semiring_ideals(semiring)
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
    radicals = radical_ideals(semiring)
    rad_masks = sorted(
        result.ideal_data.ideal_masks[_fixed_rep(result, q)]
        for q in range(result.radicals.carrier.n)
    )
    radicals_match = rad_masks == radicals
    full = (1 << semiring.n) - 1
    points_match = sorted(result.points) == sorted(
        full ^ p for p in prime_ideals(semiring)
    )
    return ZariskiComparison(
        len(ideals),
        len(radicals),
        len(prime_ideals(semiring)),
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


def prime_filters(lat):
    """Nonempty proper up-sets closed under meets with x v y in F implying
    x in F or y in F."""
    out = []
    for mask in lat.up_sets():
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


@dataclass
class StoneComparison:
    ideal_lattice_matches: bool  # Idl(L) is isomorphic to L via principal ideals
    point_count: int
    points_are_prime_filters: bool

    def ok(self):
        return self.ideal_lattice_matches and self.points_are_prime_filters


def stone_compare(lat, caps=DEFAULT_CAPS, name=""):
    """A bounded distributive lattice, viewed as a discrete semiring with
    + = join and * = meet, must have Idl(L) isomorphic to L by principal
    down-sets and its points must be exactly the prime filters."""
    from .catalog import lattice_semiring

    semiring = lattice_semiring(lat)
    data = to_localic(semiring, name=name)
    result = radical_frame(data, caps)
    expected = [lat.down[a] for a in range(lat.n)]
    principal_match = sorted(result.ideal_data.ideal_masks) == sorted(expected)
    order_match = find_lattice_iso(result.ideals.carrier, lat) is not None
    points_ok = sorted(result.points) == prime_filters(lat)
    return StoneComparison(
        principal_match and order_match, len(result.points), points_ok
    )


# ---------------------------------------------------------------------------
# the Scott-topology case: finite frames


@dataclass
class ScottFrameComparison:
    radical_frame_matches: bool  # Rad is isomorphic to the original frame
    point_poset_matches: bool  # the points recover the original poset

    def ok(self):
        return self.radical_frame_matches and self.point_poset_matches


def scott_frame_compare(poset, caps=DEFAULT_CAPS, name=""):
    """For the up-set frame L of a finite poset P, the spectrum of L with
    its Scott topology must return L itself with point poset P."""
    lat, _ = upset_lattice(poset)
    data = scott_localic_lattice(lat, caps, name=name)
    result = radical_frame(data, caps)
    frame_ok = find_lattice_iso(result.radicals.carrier, lat) is not None
    points_ok = find_poset_iso(result.point_poset, poset) is not None
    return ScottFrameComparison(frame_ok, points_ok)


def hofmann_lawson_compare(lat, caps=DEFAULT_CAPS, name=""):
    """Same comparison entered through a distributive lattice: the point
    poset must match the poset of join-irreducibles presenting the frame."""
    from .locale import locale_from_frame

    data = scott_localic_lattice(lat, caps, name=name)
    result = radical_frame(data, caps)
    frame_ok = find_lattice_iso(result.radicals.carrier, lat) is not None
    loc, _, _ = locale_from_frame(lat, caps)
    points_ok = find_poset_iso(result.point_poset, loc.points) is not None
    return ScottFrameComparison(frame_ok, points_ok)
