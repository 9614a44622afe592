"""The spectrum pipeline for finite localic semirings.

Everything runs at the point level of the Alexandrov presentation:

* saturation of opens and the frame of saturated opens,
* the quantale of monoid ideals, read off the saturated opens as their
  complements, with the convolution product, and its duality with the
  saturated opens (the all-down-sets quantale of overt weakly closed
  sublocales and its two-sided reflection are the test oracle),
* the quantale of ideals as a quotient by the generated congruence, the
  radical frame as its localic reflection,
* the universal element transported from the dual basis of the saturated
  frame, and quantale-valued prime anti-ideals,
* representability and dualisability reports.

Elements of Q (x) O X are worked with as monotone maps X -> Q.  The
bi-ideal form (a TensorElement) is built only for the universal element,
whose two forms are cross-checked; they agree because the principal up-sets
are join-prime in an up-set frame.
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
        if embed(reflect(u)) != values[u]:
            raise LawViolation("saturation splits", opens.names[u])
    for s in range(saturated.n):
        if reflect(embed(s)) != s:
            raise LawViolation("saturation retraction", saturated.names[s])
    for u in range(opens.n):
        for s in range(saturated.n):
            if saturated.leq(reflect(u), s) != opens.leq(u, embed(s)):
                raise LawViolation("saturation adjunction", (opens.names[u], saturated.names[s]))
    # family_lattice already forces the subframe property: it indexes the
    # union and intersection of every pair of saturated masks
    # comultiplication preserves saturation: (xz)(yw) in s implies xy in s;
    # quantified check only when cheap, it follows from associativity +
    # commutativity + saturation in general
    if pts.n ** 4 * saturated.n <= 4 * caps.search_budget():
        for mask in masks:
            for x, y, z, w in iproduct(range(pts.n), repeat=4):
                prod = data.mul(data.mul(x, z), data.mul(y, w))
                if mask >> prod & 1 and not mask >> data.mul(x, y) & 1:
                    raise LawViolation(
                        "comultiplication preserves saturation",
                        (pts.mask_name(mask), *(pts.names[p] for p in (x, y, z, w))),
                    )
    return SaturationData(
        data, closure, saturated, tuple(masks), embed, reflect, closure.is_identity()
    )


# ---------------------------------------------------------------------------
# monoid ideals


def _owc_binop(points, masks, table):
    """Lift a monotone point operation to down-sets: V op W is the
    down-closure of the pointwise image.  Only maximal generators matter.
    Returns the table of result masks over ``masks``."""
    maximals = [points.maximal(m) for m in masks]
    out = []
    for mv in maximals:
        row = []
        for mw in maximals:
            image = 0
            for v in mv:
                trow = table[v]
                for w in mw:
                    image |= 1 << trow[w]
            row.append(points.down_closure(image))
        out.append(tuple(row))
    return tuple(out)


def _absorb(data, mask):
    """The least monoid ideal over the down-set ``mask``: its down-closure
    together with v.r for each maximal v and every point r."""
    pts = data.locale.points
    absorbed = mask
    for v in pts.maximal(mask):
        trow = data.mul_t[v]
        for w in range(pts.n):
            absorbed |= 1 << trow[w]
    return pts.down_closure(absorbed)


@dataclass
class DualityReport:
    complements_match: bool
    unit_matches: bool
    mult_transported: bool
    mult_witness: object = None

    def ok(self):
        return self.complements_match and self.unit_matches and self.mult_transported


@dataclass
class MonoidIdealData:
    sat: SaturationData
    monoid_ideals: Quantale  # MM(R)
    ideal_masks: tuple  # point-mask of each monoid ideal
    duality: DualityReport

    @property
    def owc_lattice(self):
        # the only down-sets this stage materialises; read by bench/spans.py
        return self.monoid_ideals.carrier


def monoid_ideal_quantale(data, caps=DEFAULT_CAPS):
    """The quantale MM(R) of monoid ideals and its duality with saturated
    opens.

    The monoid ideals are read off the saturated opens: they are their
    complements, a family closed under union and intersection.  The product
    is the convolution product (down-closure of the pointwise product) and
    the unit is the top, the absorption of the unit point's closure.  The
    duality check confirms that the down-sets fixed by a -> a.top are exactly
    the complements of saturated opens, and re-verifies the multiplication
    transport from the raw point tables.  The all-down-sets OWC quantale and
    its two-sided reflection give the same quantale; the tests use them as
    the oracle.
    """
    sat = saturation(data, caps)
    loc = data.locale
    pts = loc.points
    full = pts.full
    ideal_masks = sorted((full ^ s for s in sat.sat_masks), key=lambda m: (m.bit_count(), m))
    pos = {m: k for k, m in enumerate(ideal_masks)}
    lat = family_lattice(ideal_masks, [pts.mask_name(m) for m in ideal_masks])
    products = _owc_binop(pts, ideal_masks, data.mul_t)
    mult = []
    for i, row in enumerate(products):
        for j, m in enumerate(row):
            if m not in pos:
                raise LawViolation("product of monoid ideals", (lat.names[i], lat.names[j]))
        mult.append([pos[m] for m in row])
    ideals_q = Quantale(lat, mult, lat.top)

    # duality with the saturated frame
    sat_set = set(sat.sat_masks)
    complements_match = all(
        (_absorb(data, full ^ u) == full ^ u) == (u in sat_set) for u in loc.open_masks
    )
    unit_matches = full ^ ideal_masks[ideals_q.unit] == sat.sat_masks[sat.saturated.bottom]
    mult_transported = True
    mult_witness = None
    scan = lat.n <= FULL_CHECK_LIMIT
    for i, j in iproduct(range(lat.n), repeat=2):
        raw = products[i][j]
        if scan:
            # independent route: largest saturated open avoiding the raw
            # product, found by scanning the saturated family
            star = 0
            for s in sat.sat_masks:
                if not s & raw:
                    star |= s
        else:
            # the complement of the least monoid ideal over the raw product
            # is the largest saturated open avoiding it
            star = full ^ _absorb(data, raw)
        if star != full ^ ideal_masks[ideals_q.mul(i, j)] or star not in sat_set:
            mult_transported = False
            mult_witness = (lat.names[i], lat.names[j])
            break
    report = DualityReport(complements_match, unit_matches, mult_transported, mult_witness)
    if not report.ok():
        raise LawViolation("monoid-ideal/saturated duality", report)
    return MonoidIdealData(sat, ideals_q, tuple(ideal_masks), report)


# ---------------------------------------------------------------------------
# the ideal quantale


@dataclass
class IdealQuantaleData:
    monoid: MonoidIdealData
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
    and I (+~) J below I v J.  The sum I (+~) J is lifted on pairs of monoid
    ideals only (the nucleus reads no other pair) and, when it is not already
    a monoid ideal, absorbed into the least one over it.  The fixed points
    are checked to be exactly the ideals in the definitional sense.
    """
    if not data.has_addition:
        raise LawViolation("additive structure", "monoid-only data has no ideals")
    mi = monoid_ideal_quantale(data, caps)
    pts = data.locale.points
    mi_masks = mi.ideal_masks
    pos = {m: k for k, m in enumerate(mi_masks)}

    def ideal_of(mask):
        k = pos.get(mask)
        return pos[_absorb(data, mask)] if k is None else k

    mod_add = [[ideal_of(s) for s in row] for row in _owc_binop(pts, mi_masks, data.add_t)]
    mod_zero = ideal_of(pts.down[data.zero_point])
    mm = mi.monoid_ideals
    forcings = [(mod_zero, mm.carrier.bottom)]
    for i in range(mm.carrier.n):
        for j in range(i, mm.carrier.n):
            forcings.append((mod_add[i][j], mm.carrier.join(i, j)))
    nucleus = least_nucleus(mm, forcings)
    ideals, collapse = quotient_by_nucleus(mm, nucleus)
    # fixed points of the quotient nucleus = ideals in the definitional sense
    kept = nucleus.fixed_points()
    zero_mask = pts.down[data.zero_point]
    definitional = [
        k
        for k in range(mm.carrier.n)
        if zero_mask & ~mi_masks[k] == 0 and mm.carrier.leq(mod_add[k][k], k)
    ]
    if kept != definitional:
        witness = min(set(kept) ^ set(definitional))
        raise LawViolation("nucleus fixed points are the ideals", mm.carrier.names[witness])
    return IdealQuantaleData(mi, ideals, collapse, tuple(mi_masks[k] for k in kept))


# ---------------------------------------------------------------------------
# quantale-valued prime anti-ideals


@dataclass
class AntiIdealSet:
    maps: tuple  # monotone maps points -> Q, as value tuples


def anti_ideals(data, quantale, mode, caps=DEFAULT_CAPS):
    """All elements of Q (x) O R satisfying the prime anti-ideal conditions,
    as monotone maps g : points -> Q.

    The conditions are pointwise: g(one) = 1 and g(xy) = g(x)g(y); in
    semiring mode additionally g(zero) = 0 and g(x+y) <= g(x) v g(y).  For
    Q = Omega and a discrete semiring this is exactly: subsets u with 1 in u,
    0 not in u, xy in u iff x and y in u, and x+y in u implies x in u or
    y in u.  ``element_of_map`` gives the bi-ideal form of a map.

    The search assigns the points along a linear extension; the candidates
    at x are the values above the join of g over the points below x.  It
    raises CapExceeded once it has reached more complete candidate maps than
    ``caps.search_budget()``.
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
        # the points below x come earlier in the linear extension
        candidates = q_lat.up[q_lat.join_iter(g[y] for y in bits(pts.down[x] ^ 1 << x))]
        if x == data.one_point:
            candidates &= 1 << quantale.unit
        elif mode == "semiring" and x == data.zero_point:
            candidates &= 1 << q_lat.bottom
        for q in bits(candidates):
            g[x] = q
            backtrack(k + 1)

    backtrack(0)
    return AntiIdealSet(tuple(sorted(found)))


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
    cross-checked and all four anti-ideal conditions are checked with
    Q = Idl(R); a failure raises LawViolation.
    """
    sat = iq.sat
    mi = iq.monoid
    pts = data.locale.points
    basis, duality = dual_basis(sat.saturated, caps)
    full = pts.full
    mm_pos = {m: k for k, m in enumerate(mi.ideal_masks)}

    def first_leg(c):
        # dual element of the saturated frame -> monoid ideal -> Idl(R)
        return iq.collapse(mm_pos[full ^ sat.sat_masks[c]])

    def second_leg(s):
        return sat.embed(s)

    target = TensorSpace((iq.ideals.carrier, data.locale.opens))
    element = duality.unit_element.map_through((first_leg, second_leg), target)
    g = map_of_element(data.locale, element)
    lat = iq.ideals.carrier
    # cross-check the monotone-map form against the bi-ideal form
    if element != element_of_map(iq.ideals, data.locale, g):
        raise LawViolation("universal element map form", tuple(lat.names[v] for v in g))
    # the four anti-ideal conditions with Q = Idl(R)
    if g[data.one_point] != iq.ideals.unit:
        raise LawViolation("universal element unit", pts.names[data.one_point])
    if data.has_addition:
        if g[data.zero_point] != lat.bottom:
            raise LawViolation("universal element zero", pts.names[data.zero_point])
        for x, y in iproduct(range(pts.n), repeat=2):
            if not lat.leq(g[data.add(x, y)], lat.join(g[x], g[y])):
                raise LawViolation("universal element additivity", (pts.names[x], pts.names[y]))
    for x, y in iproduct(range(pts.n), repeat=2):
        if iq.ideals.mul(g[x], g[y]) != g[data.mul(x, y)]:
            raise LawViolation("universal element multiplicativity", (pts.names[x], pts.names[y]))
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
            if s not in ji_pos:
                raise LawViolation(
                    "comultiplication stays in the irreducibles", (sl.names[pa], sl.names[pb])
                )
            times[a][b] = ji_pos[s]
    if unit_sat not in ji_pos:
        raise LawViolation("unit point has an irreducible saturation", sl.names[unit_sat])
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
    mm_pos = {m: k for k, m in enumerate(mi.ideal_masks)}
    mm = mi.monoid_ideals
    out = []
    for x in range(pts.n):
        parts = []
        for k, p in enumerate(basis.irreducibles):
            r_mask = sat.sat_masks[p]
            if r_mask >> x & 1:
                c = basis.sigma_encodings[k]
                parts.append(mm_pos[full ^ sat.sat_masks[c]])
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
    if opens_supercontinuous and not basis_exists:
        raise LawViolation("supercontinuous opens give a dualisable saturated frame", data.name)
    return report
