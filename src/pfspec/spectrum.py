"""The spectrum pipeline for finite localic semirings.

Everything runs at the point level of the Alexandrov presentation:

* saturation of opens and the frame of saturated opens,
* the quantale of overt weakly closed sublocales, its two-sided reflection
  (the quantale of monoid ideals) and the duality with saturated opens,
* the quantale of ideals as a quotient by the generated congruence, the
  radical frame as its localic reflection,
* the universal element transported from the dual basis of the saturated
  frame, and quantale-valued prime anti-ideals,
* representability and dualisability reports.

Elements of Q (x) O X are handled in two interchangeable forms: bi-ideal
bitmasks (TensorElement) and monotone maps X -> Q.  The two agree because
the principal up-sets are join-prime in an up-set frame; the agreement is
asserted wherever both forms are produced.
"""

from dataclasses import dataclass
from functools import cache
from itertools import product as iproduct

from .algebra import LocalicSemiringData
from .caps import DEFAULT_CAPS
from .errors import CapExceeded, LawViolation, NotSupercontinuous, NotTwoSided
from .locale import locale_from_frame
from .order import (
    ClosureOperator,
    FinitePoset,
    Lattice,
    bits,
    downset_lattice,
    family_lattice,
)
from .quantale import (
    FULL_CHECK_LIMIT,
    Quantale,
    QuantaleHom,
    enumerate_homs,
    frame_quantale,
    least_nucleus,
    localic_reflection,
    quotient_by_nucleus,
    two_sided_reflection,
)
from .suplattice import (
    SupMap,
    TensorElement,
    TensorSpace,
    dual_basis,
    omega,
)

@cache
def omega_quantale():
    return frame_quantale(omega())


# ---------------------------------------------------------------------------
# saturation


@dataclass
class SaturationData:
    data: LocalicSemiringData
    closure: ClosureOperator  # on the opens lattice
    saturated: Lattice  # standalone frame of saturated opens
    sat_masks: tuple  # point-mask of each saturated open
    embed: SupMap  # saturated -> opens (inclusion)
    reflect: SupMap  # opens -> saturated (left adjoint)
    deflationary: bool


def saturation(data, caps=DEFAULT_CAPS):
    """Close each open under "divides into": U -> {x : exists y, xy in U}.

    The fixed points are the saturated opens; the inclusion splits the
    closure, with the corestriction as left adjoint.  All of this is
    verified elementwise before returning.
    """
    loc = data.locale
    pts = loc.points
    opens = loc.opens
    values = []
    for mask in loc.open_masks:
        sat = 0
        for x in range(pts.n):
            row = data.mul_t[x]
            if any(mask >> row[y] & 1 for y in range(pts.n)):
                sat |= 1 << x
        values.append(loc.open_index[sat])
    closure = ClosureOperator(opens, values)
    fixed = closure.fixed_points()
    masks = [loc.open_masks[i] for i in fixed]
    saturated = family_lattice(masks, [opens.names[i] for i in fixed])
    embed = SupMap(saturated, opens, fixed)
    pos = {f: k for k, f in enumerate(fixed)}
    reflect = SupMap(opens, saturated, [pos[v] for v in values])
    for u in range(opens.n):
        assert embed(reflect(u)) == values[u], "closure does not split"
    for s in range(saturated.n):
        assert reflect(embed(s)) == s
    for u in range(opens.n):
        for s in range(saturated.n):
            assert saturated.leq(reflect(u), s) == opens.leq(u, embed(s))
    # family_lattice already forces the subframe property: it indexes the
    # union and intersection of every pair of saturated masks
    # comultiplication preserves saturation: (xz)(yw) in s implies xy in s;
    # quantified check only when cheap, it follows from associativity +
    # commutativity + saturation in general
    if pts.n ** 4 * saturated.n <= 4 * caps.search_budget():
        for mask in masks:
            for x, y, z, w in iproduct(range(pts.n), repeat=4):
                prod = data.mul(data.mul(x, z), data.mul(y, w))
                if mask >> prod & 1:
                    assert mask >> data.mul(x, y) & 1
    return SaturationData(
        data, closure, saturated, tuple(masks), embed, reflect, closure.is_identity()
    )


# ---------------------------------------------------------------------------
# overt weakly closed structure and monoid ideals


def _owc_binop(points, dn_masks, dn_index, maximals, table):
    """Lift a monotone point operation to down-sets: V op W is the
    down-closure of the pointwise image.  Only maximal generators matter."""
    out = []
    for i, _ in enumerate(dn_masks):
        row = []
        for j, _ in enumerate(dn_masks):
            image = 0
            for v in maximals[i]:
                trow = table[v]
                for w in maximals[j]:
                    image |= 1 << trow[w]
            row.append(dn_index[points.down_closure(image)])
        out.append(tuple(row))
    return tuple(out)


@dataclass
class DualityReport:
    complements_match: bool
    order_reversed: bool
    unit_matches: bool
    mult_transported: bool
    mult_witness: object = None

    def ok(self):
        return (
            self.complements_match
            and self.order_reversed
            and self.unit_matches
            and self.mult_transported
        )


@dataclass
class MonoidIdealData:
    sat: SaturationData
    owc_lattice: Lattice
    owc_masks: tuple
    owc_quantale: Quantale
    monoid_ideals: Quantale  # two-sided reflection of the OWC quantale
    to_ideals: QuantaleHom  # OWC -> monoid ideals
    ideal_owc_indices: tuple  # OWC index of each monoid-ideal element
    duality: DualityReport


def monoid_ideal_quantale(data, caps=DEFAULT_CAPS):
    """The quantale of monoid ideals and its duality with saturated opens.

    The OWC sublocales carry the convolution product (down-closure of the
    pointwise product) with unit the closure of the multiplicative unit
    point; monoid ideals are its two-sided reflection.  The duality check
    exhibits the canonical bijection, which on point masks is complementation
    against saturated opens, and re-verifies the multiplication transport
    from the raw point tables.
    """
    sat = saturation(data, caps)
    pts = data.locale.points
    dn_lat, dn_masks = downset_lattice(pts)
    dn_index = {m: i for i, m in enumerate(dn_masks)}
    maximals = [pts.maximal(m) for m in dn_masks]
    mult = _owc_binop(pts, dn_masks, dn_index, maximals, data.mul_t)
    unit = dn_index[pts.down[data.one_point]]
    owc_q = Quantale(dn_lat, mult, unit)
    ideals_q, to_ideals = two_sided_reflection(owc_q)
    fixed = [i for i in range(dn_lat.n) if mult[i][dn_lat.top] == i]
    assert len(fixed) == ideals_q.carrier.n
    ideal_masks = [dn_masks[i] for i in fixed]

    # duality with the saturated frame
    full = pts.full
    sat_set = {m: k for k, m in enumerate(sat.sat_masks)}
    complements_match = {full ^ m for m in ideal_masks} == set(sat.sat_masks)
    order_reversed = all(
        (mi & mj == mi) == ((full ^ mj) & (full ^ mi) == full ^ mj)
        for mi in ideal_masks
        for mj in ideal_masks
    )
    unit_matches = full ^ ideal_masks[ideals_q.unit] == sat.sat_masks[
        sat.saturated.bottom
    ]
    mult_transported = True
    mult_witness = None
    scan = dn_lat.n <= FULL_CHECK_LIMIT
    for i, fi in enumerate(fixed):
        if not mult_transported:
            break
        for j, fj in enumerate(fixed):
            prod_mask = ideal_masks[ideals_q.mul(i, j)]
            image = 0
            for v in maximals[fi]:
                trow = data.mul_t[v]
                for w in maximals[fj]:
                    image |= 1 << trow[w]
            raw = pts.down_closure(image)
            if scan:
                # independent route: largest saturated open avoiding the
                # raw product, found by scanning the saturated family
                star = 0
                for s in sat.sat_masks:
                    if not s & raw:
                        star |= s
            else:
                # the least monoid ideal over the raw product is its
                # top-absorption; complementation then gives the largest
                # avoiding saturated open
                absorbed = 0
                for v in pts.maximal(raw):
                    trow = data.mul_t[v]
                    for w in range(pts.n):
                        absorbed |= 1 << trow[w]
                star = full ^ pts.down_closure(raw | absorbed)
            if star != full ^ prod_mask or star not in sat_set:
                mult_transported = False
                mult_witness = (dn_lat.names[fi], dn_lat.names[fj])
                break
    report = DualityReport(
        complements_match, order_reversed, unit_matches, mult_transported, mult_witness
    )
    assert report.ok(), f"monoid-ideal/saturated duality failed: {report}"
    return MonoidIdealData(
        sat,
        dn_lat,
        tuple(dn_masks),
        owc_q,
        ideals_q,
        to_ideals,
        tuple(fixed),
        report,
    )


# ---------------------------------------------------------------------------
# the ideal quantale


@dataclass
class IdealQuantaleData:
    monoid: MonoidIdealData
    owc_add: tuple  # addition table on OWC indices
    owc_zero: int  # OWC index of the closure of the zero point
    mod_add: tuple  # modified addition on monoid-ideal indices
    mod_zero: int  # monoid-ideal index of the absorbed zero
    ideals: Quantale  # Idl(R)
    collapse: QuantaleHom  # monoid ideals ->> Idl(R)
    ideal_masks: tuple  # point-mask of each element of Idl(R)

    @property
    def sat(self):
        return self.monoid.sat


def ideal_quantale(data, caps=DEFAULT_CAPS):
    """The quantale of overt weakly closed ideals.

    Ideals are monoid ideals containing the zero point's closure and closed
    under addition; the quantale is the quotient of the monoid-ideal
    quantale by the least nucleus forcing the absorbed zero to the bottom
    and I (+~) J below I v J.  The fixed points are checked to be exactly
    the ideals in the definitional sense.
    """
    if not data.has_addition:
        raise LawViolation("additive structure", "monoid-only data has no ideals")
    mi = monoid_ideal_quantale(data, caps)
    pts = data.locale.points
    dn_masks = mi.owc_masks
    dn_index = {m: i for i, m in enumerate(dn_masks)}
    maximals = [pts.maximal(m) for m in dn_masks]
    owc_add = _owc_binop(pts, dn_masks, dn_index, maximals, data.add_t)
    owc_zero = dn_index[pts.down[data.zero_point]]
    owc_q = mi.owc_quantale
    top = mi.owc_lattice.top
    mm = mi.monoid_ideals
    mm_pos = {owc: k for k, owc in enumerate(mi.ideal_owc_indices)}
    mod_add = tuple(
        tuple(
            mm_pos[owc_q.mul(owc_add[oi][oj], top)]
            for oj in mi.ideal_owc_indices
        )
        for oi in mi.ideal_owc_indices
    )
    mod_zero = mm_pos[owc_q.mul(owc_zero, top)]
    forcings = [(mod_zero, mm.carrier.bottom)]
    for i in range(mm.carrier.n):
        for j in range(i, mm.carrier.n):
            forcings.append((mod_add[i][j], mm.carrier.join(i, j)))
    nucleus = least_nucleus(mm, forcings)
    ideals, collapse = quotient_by_nucleus(mm, nucleus)
    # fixed points of the quotient nucleus = ideals in the definitional sense
    kept = nucleus.fixed_points()
    zero_mask = dn_masks[owc_zero]
    definitional = [
        k
        for k in range(mm.carrier.n)
        if zero_mask & ~dn_masks[mi.ideal_owc_indices[k]] == 0
        and mm.carrier.leq(mod_add[k][k], k)
    ]
    assert kept == definitional, "nucleus fixed points differ from ideals"
    ideal_masks = tuple(dn_masks[mi.ideal_owc_indices[k]] for k in kept)
    return IdealQuantaleData(
        mi,
        owc_add,
        owc_zero,
        mod_add,
        mod_zero,
        ideals,
        collapse,
        ideal_masks,
    )


# ---------------------------------------------------------------------------
# quantale-valued prime anti-ideals


@dataclass
class AntiIdealSet:
    data: LocalicSemiringData
    quantale: Quantale
    mode: str
    maps: tuple  # monotone maps points -> Q, as value tuples
    members: tuple  # the same elements as bi-ideals of Q (x) opens


def anti_ideals(data, quantale, mode, caps=DEFAULT_CAPS):
    """All elements of Q (x) O R satisfying the prime anti-ideal conditions.

    In the monotone-map form g : points -> Q the conditions are pointwise:
    g(one) = 1 and g(xy) = g(x)g(y); in semiring mode additionally
    g(zero) = 0 and g(x+y) <= g(x) v g(y).  For Q = Omega and a discrete
    semiring this is exactly: subsets u with 1 in u, 0 not in u,
    xy in u iff x and y in u, and x+y in u implies x in u or y in u.

    The search backtracks over monotone maps and raises CapExceeded once it
    has reached more complete candidate maps than ``caps.search_budget()``.
    """
    if mode not in ("monoid", "semiring"):
        raise ValueError(f"unknown anti-ideal mode {mode!r}")
    if not quantale.two_sided:
        raise NotTwoSided("anti-ideals are valued in two-sided quantales")
    if mode == "semiring" and not data.has_addition:
        raise LawViolation("additive structure", "monoid-only data")
    pts = data.locale.points
    q_lat = quantale.carrier
    budget = caps.search_budget()
    order = pts.linear_extension()
    g = [None] * pts.n
    found = []
    leaves = 0

    def conditions_hold():
        for x in range(pts.n):
            gx = g[x]
            mrow = data.mul_t[x]
            for y in range(pts.n):
                if quantale.mul(gx, g[y]) != g[mrow[y]]:
                    return False
        if mode == "semiring":
            for x in range(pts.n):
                gx = g[x]
                arow = data.add_t[x]
                for y in range(pts.n):
                    if not q_lat.leq(g[arow[y]], q_lat.join(gx, g[y])):
                        return False
        return True

    def backtrack(k):
        nonlocal leaves
        if k == pts.n:
            leaves += 1
            if leaves > budget:
                raise CapExceeded("anti-ideal enumeration", leaves, budget)
            if conditions_hold():
                found.append(tuple(g))
            return
        x = order[k]
        if x == data.one_point:
            candidates = [quantale.unit]
        elif mode == "semiring" and x == data.zero_point:
            candidates = [q_lat.bottom]
        else:
            candidates = range(q_lat.n)
        for q in candidates:
            ok = True
            for x2 in order[:k]:
                if pts.leq(x2, x) and not q_lat.leq(g[x2], q):
                    ok = False
                    break
                if pts.leq(x, x2) and not q_lat.leq(q, g[x2]):
                    ok = False
                    break
            if ok:
                g[x] = q
                backtrack(k + 1)
                g[x] = None

    backtrack(0)
    maps = tuple(sorted(found))
    members = tuple(element_of_map(quantale, data.locale, m) for m in maps)
    return AntiIdealSet(data, quantale, mode, maps, members)


def element_of_map(quantale, locale, g):
    """The bi-ideal of Q (x) opens determined by a monotone map g on points:
    the pairs (q, U) with q below the meet of g over U."""
    q_lat = quantale.carrier
    space = TensorSpace((q_lat, locale.opens))
    mask = 0
    for u, umask in enumerate(locale.open_masks):
        m = q_lat.meet_iter(g[p] for p in bits(umask))
        for q in bits(q_lat.down[m]):
            mask |= 1 << space.index_of((q, u))
    return TensorElement(space, mask)


def map_of_element(locale, elem):
    """Inverse of element_of_map: evaluate fibers at minimal opens."""
    return tuple(
        elem.fiber_join(0, (locale.minimal_open_at(x),))
        for x in range(locale.points.n)
    )


# ---------------------------------------------------------------------------
# universal element and the radical frame


def universal_element(data, iq, caps=DEFAULT_CAPS):
    """(collapse (x) embed) applied to the duality unit at top.

    The dual basis of the saturated frame gives the unit element; its first
    leg is carried along the verified duality (complementation) into the
    monoid ideals and collapsed into Idl(R), its second leg included into the
    opens.  Returns (bi-ideal element, monotone-map form); the two forms are
    cross-checked and all four anti-ideal conditions are asserted with
    Q = Idl(R).
    """
    sat = iq.sat
    mi = iq.monoid
    pts = data.locale.points
    basis, duality = dual_basis(sat.saturated, caps)
    full = pts.full
    owc_index = {mi.owc_masks[o]: o for o in mi.ideal_owc_indices}
    mm_pos = {owc: k for k, owc in enumerate(mi.ideal_owc_indices)}

    def first_leg(c):
        # dual element of the saturated frame -> monoid ideal -> Idl(R)
        ideal_owc = owc_index[full ^ sat.sat_masks[c]]
        return iq.collapse(mm_pos[ideal_owc])

    def second_leg(s):
        return sat.embed(s)

    target = TensorSpace((iq.ideals.carrier, data.locale.opens))
    element = duality.unit_element.map_through((first_leg, second_leg), target)
    g = map_of_element(data.locale, element)
    # cross-check the monotone-map form against the bi-ideal form
    assert element == element_of_map(iq.ideals, data.locale, g)
    # the four anti-ideal conditions with Q = Idl(R)
    lat = iq.ideals.carrier
    assert g[data.one_point] == iq.ideals.unit
    if data.has_addition:
        assert g[data.zero_point] == lat.bottom
        for x, y in iproduct(range(pts.n), repeat=2):
            assert lat.leq(g[data.add(x, y)], lat.join(g[x], g[y]))
    for x, y in iproduct(range(pts.n), repeat=2):
        assert iq.ideals.mul(g[x], g[y]) == g[data.mul(x, y)]
    return element, g


@dataclass
class SpectrumResult:
    data: LocalicSemiringData
    ideal_data: IdealQuantaleData
    radicals: Quantale  # Rad(R), a frame
    radical_quotient: QuantaleHom  # Idl(R) ->> Rad(R)
    universal: TensorElement
    universal_map: tuple
    points: tuple  # open masks of the prime anti-ideals
    point_poset: FinitePoset

    @property
    def ideals(self):
        return self.ideal_data.ideals


def radical_frame(data, caps=DEFAULT_CAPS):
    """Idl(R), its localic reflection Rad(R), the universal element, and the
    points of the spectrum (prime anti-ideals, as opens of R)."""
    iq = ideal_quantale(data, caps)
    radicals, rho = localic_reflection(iq.ideals)
    universal, g = universal_element(data, iq, caps)
    points_set = anti_ideals(data, omega_quantale(), "semiring", caps)
    pts = data.locale.points
    masks = tuple(
        sum(1 << x for x in range(pts.n) if m[x] == 1) for m in points_set.maps
    )
    names = [pts.mask_name(m) for m in masks]
    up = [
        sum(1 << j for j, mj in enumerate(masks) if mi & mj == mi)
        for mi in masks
    ]
    point_poset = FinitePoset(names, up)
    return SpectrumResult(
        data, iq, radicals, rho, universal, g, masks, point_poset
    )


# ---------------------------------------------------------------------------
# the saturated replacement of a localic monoid


def saturated_replacement(sat, caps=DEFAULT_CAPS):
    """The localic monoid on the saturated frame, with the coreflected
    comultiplication extracted as a point-level operation.

    Returns (monoid data, point masks): point k of the new locale is the
    k-th join-irreducible saturated open; its mask in the original points is
    reported for transporting anti-ideals along the inclusion.
    """
    data = sat.data
    pts = data.locale.points
    sl = sat.saturated
    loc2, to_opens2, from_opens2 = locale_from_frame(sl, caps)
    ji = sl.join_irreducibles()
    sat_index = {m: k for k, m in enumerate(sat.sat_masks)}
    ji_masks = [sat.sat_masks[p] for p in ji]

    def least_saturated_over(point_mask):
        acc = pts.full
        for m in sat.sat_masks:
            if point_mask & ~m == 0:
                acc &= m
        return sat_index[acc]

    unit_point = None
    unit_sat = least_saturated_over(1 << data.one_point)
    times = [[None] * len(ji) for _ in range(len(ji))]
    ji_pos = {p: k for k, p in enumerate(ji)}
    for a, pa in enumerate(ji):
        for b, pb in enumerate(ji):
            prod_mask = 0
            for x in bits(ji_masks[a]):
                row = data.mul_t[x]
                for y in bits(ji_masks[b]):
                    prod_mask |= 1 << row[y]
            s = least_saturated_over(prod_mask)
            assert s in ji_pos, "comultiplication left the irreducibles"
            times[a][b] = ji_pos[s]
    assert unit_sat in ji_pos, "unit point has no irreducible saturation"
    unit_point = ji_pos[unit_sat]
    replacement = LocalicSemiringData(
        loc2, times, unit_point, name=f"saturated({data.name})"
    )
    return replacement, tuple(ji_masks)


# ---------------------------------------------------------------------------
# representability


@dataclass
class RepresentabilityEntry:
    quantale_name: str
    hom_count: int
    member_count: int
    all_images_members: bool
    injective: bool
    surjective: bool

    def ok(self):
        return (
            self.all_images_members
            and self.injective
            and self.surjective
            and self.hom_count == self.member_count
        )


@dataclass
class RepresentabilityReport:
    semiring_entries: list
    monoid_entries: list
    invariance_entries: list
    yoneda_ok: bool

    def ok(self):
        return (
            all(e.ok() for e in self.semiring_entries)
            and all(e.ok() for e in self.monoid_entries)
            and all(flag for _, flag in self.invariance_entries)
            and self.yoneda_ok
        )


def _monoid_universal_map(data, mi, caps):
    """The universal element for the monoid case, in map form: points -> MM."""
    sat = mi.sat
    pts = data.locale.points
    basis, _ = dual_basis(sat.saturated, caps)
    full = pts.full
    mm_pos = {owc: k for k, owc in enumerate(mi.ideal_owc_indices)}
    owc_index = {mi.owc_masks[o]: o for o in mi.ideal_owc_indices}
    mm = mi.monoid_ideals
    out = []
    for x in range(pts.n):
        parts = []
        for k, p in enumerate(basis.irreducibles):
            r_mask = sat.sat_masks[p]
            if r_mask >> x & 1:
                c = basis.sigma_encodings[k]
                parts.append(mm_pos[owc_index[full ^ sat.sat_masks[c]]])
        out.append(mm.carrier.join_iter(parts))
    return tuple(out)


def representability_check(data, quantale_catalog, caps=DEFAULT_CAPS):
    """Verify that homs out of Idl(R) (resp. the monoid ideals) classify
    semiring (resp. monoid) anti-ideals, for every quantale in the catalog.

    Each hom f is sent to (f (x) id)(universal element); the report records,
    per target quantale, that every image is an anti-ideal, that the map is
    injective, and that it is onto the enumerated anti-ideals.  The monoid
    part also checks invariance under the saturated replacement.
    """
    iq = ideal_quantale(data, caps)
    _, g_univ = universal_element(data, iq, caps)
    mi = iq.monoid
    g_monoid = _monoid_universal_map(data, mi, caps)
    replacement, ji_masks = saturated_replacement(mi.sat, caps)
    semiring_entries = []
    monoid_entries = []
    invariance_entries = []
    for name, q in quantale_catalog:
        homs = enumerate_homs(iq.ideals, q, "two_sided", caps)
        members = anti_ideals(data, q, "semiring", caps)
        images = [tuple(f(v) for v in g_univ) for f in homs]
        member_set = set(members.maps)
        semiring_entries.append(
            RepresentabilityEntry(
                name,
                len(homs),
                len(members.maps),
                all(im in member_set for im in images),
                len(set(images)) == len(images),
                set(images) == member_set,
            )
        )
        homs_m = enumerate_homs(mi.monoid_ideals, q, "two_sided", caps)
        members_m = anti_ideals(data, q, "monoid", caps)
        images_m = [tuple(f(v) for v in g_monoid) for f in homs_m]
        member_set_m = set(members_m.maps)
        monoid_entries.append(
            RepresentabilityEntry(
                name,
                len(homs_m),
                len(members_m.maps),
                all(im in member_set_m for im in images_m),
                len(set(images_m)) == len(images_m),
                set(images_m) == member_set_m,
            )
        )
        # anti-ideals of the saturated replacement transport bijectively
        members_r = anti_ideals(replacement, q, "monoid", caps)
        transported = set()
        for gr in members_r.maps:
            g = tuple(
                q.carrier.join_iter(
                    gr[k] for k, m in enumerate(ji_masks) if m >> x & 1
                )
                for x in range(data.locale.points.n)
            )
            transported.add(g)
        invariance_entries.append(
            (name, transported == member_set_m and len(members_r.maps) == len(members_m.maps))
        )
    # Yoneda instance: the identity hom corresponds to the universal element
    self_members = anti_ideals(data, iq.ideals, "semiring", caps)
    yoneda_ok = g_univ in set(self_members.maps)
    report = RepresentabilityReport(
        semiring_entries, monoid_entries, invariance_entries, yoneda_ok
    )
    return report


# ---------------------------------------------------------------------------
# dualisability conditions


@dataclass
class DualisabilityReport:
    basis_exists: bool  # saturated frame admits a dual basis
    family_reconstructs: bool  # the basis families reconstruct saturated opens
    pointwise_bound: bool  # u <= join of pi(V) over V meeting u, all opens
    opens_supercontinuous: bool

    def agree(self):
        return self.basis_exists == self.family_reconstructs == self.pointwise_bound


def dualisability_conditions(data, caps=DEFAULT_CAPS):
    """The three equivalent dualisability conditions, checked independently.

    pi(V) is the meet of the saturated opens met by V; the pointwise bound
    requires every open below the join of pi(V) over the sublocales meeting
    it.  The family condition uses the dual-basis families (irreducible
    saturated opens paired with the complements of their dual encodings).
    On finite carriers all three hold whenever they are well-posed; the
    value is that each is computed from its own definition.
    """
    sat = saturation(data, caps)
    pts = data.locale.points
    loc = data.locale
    dn_masks = pts.down_sets()
    pi = []
    for v in dn_masks:
        acc = pts.full
        for s in sat.sat_masks:
            if v & s:
                acc &= s
        pi.append(acc)
    pointwise_bound = True
    for u in loc.open_masks:
        cover = 0
        for k, v in enumerate(dn_masks):
            if v & u:
                cover |= pi[k]
        if u & ~cover:
            pointwise_bound = False
            break
    try:
        basis, _ = dual_basis(sat.saturated, caps)
        basis_exists = True
    except NotSupercontinuous:
        basis_exists = False
        basis = None
    family_reconstructs = False
    if basis is not None:
        full = pts.full
        family_reconstructs = True
        for s_mask in sat.sat_masks:
            rebuilt = 0
            for k, p in enumerate(basis.irreducibles):
                w_mask = full ^ sat.sat_masks[basis.sigma_encodings[k]]
                if w_mask & s_mask:
                    rebuilt |= sat.sat_masks[p]
            if rebuilt != s_mask:
                family_reconstructs = False
                break
    try:
        dual_basis(loc.opens, caps)
        opens_supercontinuous = True
    except NotSupercontinuous:
        opens_supercontinuous = False
    report = DualisabilityReport(
        basis_exists, family_reconstructs, pointwise_bound, opens_supercontinuous
    )
    if opens_supercontinuous:
        assert basis_exists, "supercontinuous carrier must give a dualisable saturated frame"
    return report
