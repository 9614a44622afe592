"""Finite locales presented by their posets of points.

Classically every finite frame is spatial: it is the frame of up-sets of its
poset of join-irreducibles.  The package therefore stores the point poset and
derives the opens, which keeps frame maps representable as monotone point
maps and makes positivity decidable as inhabitation.  Every finite locale
presented this way is overt, and the positivity map is verified to be left
adjoint to the unique map from the terminal frame.
"""

from .caps import DEFAULT_CAPS
from .errors import CapExceeded, LawViolation
from .order import (
    FinitePoset,
    MonotoneMap,
    bits,
    downset_lattice,
    upset_lattice,
)
from .suplattice import (
    OMEGA_FALSE,
    OMEGA_TRUE,
    SupMap,
    dual,
    omega,
    tensor,
)


class FiniteLocale:
    """A locale with point poset ``points`` and opens the up-sets of it."""

    def __init__(self, points, caps=DEFAULT_CAPS):
        self.points = points
        opens, masks = upset_lattice(points, limit=caps.search_budget())
        if opens is None:
            raise CapExceeded(
                "opens enumeration", f">{caps.search_budget()}", caps.search_budget()
            )
        self.opens = opens
        self.open_masks = tuple(masks)
        self.open_index = {m: i for i, m in enumerate(masks)}
        self.positivity = SupMap(
            opens,
            omega(),
            [OMEGA_TRUE if m else OMEGA_FALSE for m in masks],
        )
        # overtness: positivity is left adjoint to !: Omega -> opens
        bang = SupMap(omega(), opens, [opens.bottom, opens.top])
        for a in range(opens.n):
            for p in range(2):
                assert (self.positivity(a) <= p) == opens.leq(a, bang(p))

    def minimal_open_at(self, point):
        """The smallest open containing ``point`` (its principal up-set)."""
        return self.open_index[self.points.up[point]]

    def __repr__(self):
        return f"FiniteLocale({self.points.n} points, {self.opens.n} opens)"


def alexandrov(points, caps=DEFAULT_CAPS):
    """The locale whose opens are the up-sets of ``points``."""
    return FiniteLocale(points, caps)


def locale_from_frame(lat, caps=DEFAULT_CAPS):
    """Present a finite distributive lattice as the opens of a locale.

    Points are the join-irreducibles with the reversed induced order (so the
    principal up-set of a point corresponds to the irreducible itself).
    Returns (locale, to_opens, from_opens) where to_opens is the frame
    isomorphism ``lat -> locale.opens``.
    """
    ji = lat.join_irreducibles()
    pos = {p: k for k, p in enumerate(ji)}
    up = []
    for p in ji:
        mask = 0
        for q in ji:
            if lat.leq(q, p):
                mask |= 1 << pos[q]
        up.append(mask)
    points = FinitePoset([lat.names[p] for p in ji], up)
    loc = FiniteLocale(points, caps)
    to_values = []
    for a in range(lat.n):
        mask = 0
        for k, p in enumerate(ji):
            if lat.leq(p, a):
                mask |= 1 << k
        to_values.append(loc.open_index[mask])
    to_opens = SupMap(lat, loc.opens, to_values)
    if len(set(to_values)) != lat.n or loc.opens.n != lat.n:
        raise LawViolation("spatiality", "frame is not the up-set frame of its irreducibles")
    from_values = [None] * lat.n
    for a, v in enumerate(to_values):
        from_values[v] = a
    from_opens = SupMap(loc.opens, lat, from_values)
    for a in range(lat.n):
        for b in range(lat.n):
            assert to_values[lat.meet(a, b)] == loc.opens.meet(to_values[a], to_values[b])
    return loc, to_opens, from_opens


class LocaleMap:
    """A locale map source -> target, i.e. a monotone map of point posets;
    the corresponding frame map is the preimage on opens."""

    def __init__(self, source, target, values):
        self.source = source
        self.target = target
        self.point_map = MonotoneMap(source.points, target.points, values)

    def frame_map(self):
        values = []
        for m in self.target.open_masks:
            pre = 0
            for x in range(self.source.points.n):
                if m >> self.point_map(x) & 1:
                    pre |= 1 << x
            values.append(self.source.open_index[pre])
        return SupMap(self.target.opens, self.source.opens, values)


def coproduct(x, y, caps=DEFAULT_CAPS):
    """The locale coproduct-of-frames X (+) Y: points form the product poset.

    Returns (locale, iota1, iota2, iota1_lower) with the coproduct
    injections and the left adjoint of iota1.  The opens are verified
    isomorphic to the suplattice tensor of the factor opens (pure tensors
    matching iota1(a) /\\ iota2(b)) and iota1_lower is verified equal to
    (id (x) positivity) composed with the unitor, both within caps.
    """
    if x.points.n * y.points.n > caps.max_exhaustive:
        raise CapExceeded(
            "coproduct points", x.points.n * y.points.n, caps.max_exhaustive
        )
    pts = x.points.product(y.points)
    loc = FiniteLocale(pts, caps)
    yn = y.points.n

    def pair_mask(xmask, ymask):
        out = 0
        for i in bits(xmask):
            for j in bits(ymask):
                out |= 1 << (i * yn + j)
        return out

    yfull = y.points.full
    xfull = x.points.full
    iota1 = SupMap(
        x.opens,
        loc.opens,
        [loc.open_index[pair_mask(m, yfull)] for m in x.open_masks],
    )
    iota2 = SupMap(
        y.opens,
        loc.opens,
        [loc.open_index[pair_mask(xfull, m)] for m in y.open_masks],
    )
    # left adjoint of iota1 is the open projection "exists y"
    lower_values = []
    for m in loc.open_masks:
        proj = 0
        for i in range(x.points.n):
            if m >> (i * yn) & ((1 << yn) - 1):
                proj |= 1 << i
        lower_values.append(x.open_index[proj])
    iota1_lower = SupMap(loc.opens, x.opens, lower_values)
    for w in range(loc.opens.n):
        for a in range(x.opens.n):
            assert (x.opens.leq(iota1_lower(w), a)) == (loc.opens.leq(w, iota1(a)))
    if x.opens.n * y.opens.n <= caps.max_tensor_carrier:
        _verify_coproduct_is_tensor(x, y, loc, iota1, iota2, iota1_lower, caps)
    return loc, iota1, iota2, iota1_lower


def _verify_coproduct_is_tensor(x, y, loc, iota1, iota2, iota1_lower, caps):
    t = tensor([x.opens, y.opens], caps)
    # the canonical map: an open W corresponds to the bi-ideal of pairs
    # (a, b) with iota1(a) /\ iota2(b) <= W
    corr = []
    for w in range(loc.opens.n):
        pairs = [
            (a, b)
            for a in range(x.opens.n)
            for b in range(y.opens.n)
            if loc.opens.leq(loc.opens.meet(iota1(a), iota2(b)), w)
        ]
        mask = 0
        for a, b in pairs:
            mask |= 1 << t.space.index_of((a, b))
        assert t.space.closure(mask) == mask
        corr.append(t.mask_index[mask])
    assert len(set(corr)) == loc.opens.n == t.n, "coproduct opens != tensor"
    for w1 in range(loc.opens.n):
        for w2 in range(loc.opens.n):
            assert corr[loc.opens.join(w1, w2)] == t.join(corr[w1], corr[w2])
            assert corr[loc.opens.meet(w1, w2)] == t.meet(corr[w1], corr[w2])
    for a in range(x.opens.n):
        for b in range(y.opens.n):
            w = loc.opens.meet(iota1(a), iota2(b))
            assert corr[w] == t.pure((a, b))
    # iota1_lower agrees with (id (x) positivity) then the unitor:
    # project each bi-ideal to the join of first components with positive fiber
    for w in range(loc.opens.n):
        elem = t.element(corr[w])
        fibers = elem.as_map()
        expect = x.opens.join_iter(
            a for a in range(x.opens.n) if fibers[a] != y.opens.bottom
        )
        assert iota1_lower(w) == expect


class OwcSublocale:
    """An overt weakly closed sublocale: a down-set of points, acting on
    opens through "meets" (inhabited intersection)."""

    __slots__ = ("locale", "downset")

    def __init__(self, locale, downset):
        assert locale.points.is_down_set(downset)
        self.locale = locale
        self.downset = downset

    def meets(self, open_index):
        return bool(self.downset & self.locale.open_masks[open_index])

    def meets_map(self):
        return SupMap(
            self.locale.opens,
            omega(),
            [
                OMEGA_TRUE if self.downset & m else OMEGA_FALSE
                for m in self.locale.open_masks
            ],
        )

    def __eq__(self, other):
        return (
            isinstance(other, OwcSublocale)
            and self.locale is other.locale
            and self.downset == other.downset
        )

    def __hash__(self):
        return hash(self.downset)

    def __repr__(self):
        return f"Owc({self.locale.points.mask_name(self.downset)})"


def owc(locale):
    """The suplattice of overt weakly closed sublocales: all down-sets of
    points ordered by inclusion.

    The bijection with SupMaps opens -> Omega is verified: each down-set's
    meets-map is join-preserving, distinct down-sets give distinct maps, and
    every dual element of the opens is hit (the dual realizes hom(-, Omega)).
    """
    lat, masks = downset_lattice(locale.points)
    sublocales = [OwcSublocale(locale, m) for m in masks]
    assert lat.n == locale.opens.n
    seen = set()
    dual_lat, pairing = dual(locale.opens, verify=False)
    for sub in sublocales:
        values = tuple(sub.meets_map().values)
        assert values not in seen
        seen.add(values)
    for c in range(locale.opens.n):
        values = tuple(
            pairing(c, a) for a in range(locale.opens.n)
        )
        assert values in seen, "a SupMap opens -> Omega is not a meets-map"
    return lat, sublocales


def owc_image(locale_map, sub):
    """Direct image of an OWC sublocale: the down-closure of the pointwise
    image; satisfies image meets a iff sub meets the preimage of a."""
    src, tgt = locale_map.source, locale_map.target
    image = 0
    for p in bits(sub.downset):
        image |= 1 << locale_map.point_map(p)
    image = tgt.points.down_closure(image)
    out = OwcSublocale(tgt, image)
    fstar = locale_map.frame_map()
    for a in range(tgt.opens.n):
        assert out.meets(a) == sub.meets(fstar(a))
    return out


def way_below(poset):
    """The way-below relation of a finite poset.

    Every directed subset of a finite poset contains its join (it has a
    maximum), so way-below collapses to the order itself; the brute-force
    evaluation over all directed subsets is kept as an oracle below.
    """
    return tuple(poset.down)


def way_below_exhaustive(poset, caps=DEFAULT_CAPS):
    if 1 << poset.n > caps.search_budget():
        raise CapExceeded("directed subsets", 1 << poset.n, caps.search_budget())
    rel = [0] * poset.n
    directed = poset.directed_subsets()
    for b in range(poset.n):
        for a in range(poset.n):
            ok = True
            for d in directed:
                join_candidates = [c for c in bits(d) if d & ~poset.down[c] == 0]
                if not join_candidates:
                    continue  # no join inside; in a finite poset the join of a
                    # directed set is its maximum, so only these matter
                top = join_candidates[0]
                if poset.leq(b, top) and not (d & poset.up[a]):
                    ok = False
                    break
            if ok:
                rel[b] |= 1 << a
    return tuple(rel)


def scott_analysis(poset, caps=DEFAULT_CAPS):
    """Way-below, continuity, and the Scott-closed/OWC correspondence.

    On a finite poset the Scott opens are exactly the up-sets, so the
    Alexandrov locale is the Scott localification, and the two directions of
    the Scott-closed <-> OWC bijection (S -> meets-map, h -> closure of
    {x : h(minimal open at x) = true}) are built and verified inverse.
    """
    loc = alexandrov(poset, caps)
    wb = way_below(poset)
    down_masks = poset.down_sets()
    report = {
        "way_below": wb,
        "continuous": True,
        "locale": loc,
        "scott_closed": tuple(down_masks),
    }
    to_owc = {}
    for s in down_masks:
        values = tuple(
            OMEGA_TRUE if s & m else OMEGA_FALSE for m in loc.open_masks
        )
        SupMap(loc.opens, omega(), values)  # h_S preserves joins
        to_owc[s] = values
    back = {}
    for s, values in to_owc.items():
        core = 0
        for x in range(poset.n):
            if values[loc.minimal_open_at(x)] == OMEGA_TRUE:
                core |= 1 << x
        assert poset.is_down_set(core), "Scott closure should be one step"
        back[values] = core
        assert core == s
    # conversely every SupMap opens -> Omega arises from a down-set
    dual_lat, pairing = dual(loc.opens, verify=False)
    for c in range(loc.opens.n):
        values = tuple(pairing(c, a) for a in range(loc.opens.n))
        assert values in back
    report["roundtrip"] = True
    return report
