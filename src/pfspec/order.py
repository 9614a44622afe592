"""Finite posets, lattices, monotone maps and closure operators.

Elements are referenced by index into a fixed tuple of names; subsets of a
carrier are encoded as integer bitmasks.  Carriers stay small (a few hundred
elements at most), so dense order matrices and precomputed binary join/meet
tables are the right trade: every law check in the rest of the package is a
handful of table lookups.

A closure operator is its fixed points: ``ClosureOperator(carrier,
allowed)`` sends a to the meet of the elements of the bitmask ``allowed``
above a.  That is a closure for every mask, so none is checked, and its
fixed points are the meets of the allowed elements.  A least closure, and a
least nucleus (see ``quantale``), is the closure onto the elements its
forcings allow, found as one bitmask.  Anti-ideals and quantale homs come from
one search engine, ``monotone_search``, which reads the floor of each
variable on its lower covers (exact, as the maps are monotone) from rows built
once per poset.  A lattice is built from its order alone: ``Lattice(names,
up)`` reads the join of i and j as the k with up[k] = up[i] & up[j], from an
index of the up-sets, and each meet from an index of the down-sets, and
searches only to name a pair without a bound.  So no table can contradict
the order, and no caller checks one again.  ``lattice_structure`` is that
constructor on a poset, and ``family_lattice`` on a family of bitmasks
ordered by inclusion, with the up-sets ANDed from the members holding each
point (``inclusion_up_sets``) and its one further law, that meets are
intersections.  The quotient by a closure operator is the family of the
down-sets of its fixed points (``ClosureOperator.quotient``): meets carry
over, the join is j(a v b).

Laws of binary tables are decided on generators, never on all triples:
``generators`` picks a generating set of a commutative monoid, and
``distributes`` checks distributivity on pairs of generators, for the
semirings of ``algebra``.  A lattice is distributive by Birkhoff's
criterion, read on its join-irreducibles (``is_distributive``).  A triple
search runs only when a law fails, to name the first failing triple.

All values are immutable after construction and safe to share.
"""

from itertools import product as iproduct
from operator import itemgetter

from .caps import DEFAULT_CAPS
from .errors import (
    CapExceeded,
    CycleError,
    DuplicateElement,
    LawViolation,
    NotALattice,
    NotMonotone,
)


def bits(mask):
    """Yield the indices of set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePoset:
    """A finite poset: element names plus the full order relation.

    ``up[i]`` is the bitmask of elements >= i (reflexive); ``down[i]`` the
    bitmask of elements <= i.
    """

    def __init__(self, names, up):
        self.names = tuple(names)
        self.n = len(self.names)
        self.up = tuple(up)
        down = [0] * self.n
        for j, u in enumerate(self.up):
            for i in bits(u):
                down[i] |= 1 << j
        self.down = tuple(down)
        self.full = (1 << self.n) - 1
        self._index = {name: i for i, name in enumerate(self.names)}
        self._search_rows = None  # filled by the first search_rows()

    def index(self, name):
        return self._index[name]

    def leq(self, i, j):
        return bool(self.up[i] >> j & 1)

    def opposite(self):
        return FinitePoset(self.names, self.down)

    def down_closure(self, mask):
        out = 0
        for i in bits(mask):
            out |= self.down[i]
        return out

    def maximal(self, mask):
        """Indices of elements of mask with nothing of mask strictly above."""
        return [i for i in bits(mask) if self.up[i] & mask == 1 << i]

    def linear_extension(self):
        return sorted(range(self.n), key=lambda i: (self.down[i].bit_count(), i))

    def search_rows(self):
        """(linear extension, lower covers of each element, elements above
        each element) as tuples, for ``monotone_search``; computed once."""
        if self._search_rows is None:
            self._search_rows = (
                tuple(self.linear_extension()),
                tuple(tuple(self.maximal(d ^ 1 << v)) for v, d in enumerate(self.down)),
                tuple(tuple(bits(u)) for u in self.up),
            )
        return self._search_rows

    def up_sets(self, limit=None):
        """All up-sets as bitmasks, sorted by (size, mask).

        Backtracks over a linear extension, so the cost is proportional to
        the output, not to 2**n.  ``limit`` bounds the number produced.
        """
        order = self.linear_extension()
        found = [0]
        # process elements from top of the extension downwards: adding a
        # lower element forces nothing (everything above was already decided)
        for i in reversed(order):
            extra = []
            need = self.up[i]
            for mask in found:
                if mask & need == need & ~(1 << i):
                    extra.append(mask | 1 << i)
            found.extend(extra)
            if limit is not None and len(found) > limit:
                return None
        return sorted(found, key=lambda m: (m.bit_count(), m))

    def down_sets(self, limit=None):
        ups = self.up_sets(limit)
        if ups is None:
            return None
        return sorted((self.full ^ m for m in ups), key=lambda m: (m.bit_count(), m))

    def covers(self):
        """Covering pairs (i, j) with i covered by j, in index order."""
        out = []
        for i in range(self.n):
            for j in bits(self.up[i] & ~(1 << i)):
                if self.up[i] & self.down[j] == (1 << i) | (1 << j):
                    out.append((i, j))
        return out

    def mask_name(self, mask):
        return "{" + ",".join(self.names[i] for i in bits(mask)) + "}"

    def __eq__(self, other):
        return (
            isinstance(other, FinitePoset)
            and self.names == other.names
            and self.up == other.up
        )

    def __hash__(self):
        return hash((self.names, self.up))

    def __repr__(self):
        return f"FinitePoset({self.n} elements)"


def build_poset(elements, leq_pairs):
    """Reflexive-transitive closure of ``leq_pairs`` over ``elements``.

    Raises DuplicateElement for repeated names and CycleError when the
    closure violates antisymmetry.
    """
    names = list(elements)
    seen = set()
    for name in names:
        if name in seen:
            raise DuplicateElement(f"duplicate element {name!r}")
        seen.add(name)
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    up = [1 << i for i in range(n)]
    for a, b in leq_pairs:
        if a not in index or b not in index:
            missing = a if a not in index else b
            raise DuplicateElement(f"unknown element {missing!r} in relation")
        up[index[a]] |= 1 << index[b]
    # Warshall: after step k, up[i] holds every element reached from i
    # through intermediates among the first k + 1
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    for i in range(n):
        for j in bits(up[i]):
            if j != i and up[j] >> i & 1:
                raise CycleError(f"{names[i]!r} and {names[j]!r} are mutually related")
    return FinitePoset(names, up)


class MonotoneMap:
    """A monotone map between posets, stored as a total value table."""

    def __init__(self, source, target, values):
        self.source = source
        self.target = target
        self.values = tuple(values)
        if len(self.values) != source.n:
            raise NotMonotone(None, "value table is not total")
        self._check_laws()

    def _check_laws(self):
        """Monotonicity on every comparable pair; subclasses override it."""
        source, target, v = self.source, self.target, self.values
        for i in range(source.n):
            for j in bits(source.up[i]):
                if not target.leq(v[i], v[j]):
                    raise NotMonotone(
                        (source.names[i], source.names[j]),
                        f"{target.names[v[i]]} vs {target.names[v[j]]}",
                    )

    def __call__(self, i):
        return self.values[i]

    @classmethod
    def identity(cls, poset):
        return cls(poset, poset, range(poset.n))

    def __eq__(self, other):
        return (
            isinstance(other, MonotoneMap)
            and self.source == other.source
            and self.target == other.target
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.source, self.target, self.values))

    def __repr__(self):
        pairs = ", ".join(
            f"{self.source.names[i]}->{self.target.names[v]}"
            for i, v in enumerate(self.values)
        )
        return f"<{type(self).__name__} {pairs}>"


class Lattice(FinitePoset):
    """A finite complete lattice, fixed by its order: ``Lattice(names, up)``
    reads the binary join and meet tables, the bottom and the top off the
    up-sets and the down-sets (``_bound_table``), and raises NotALattice
    naming the first pair without a least bound.  So no table can contradict
    the order, and nothing downstream checks one again.

    Arbitrary joins and meets fold over the binary tables; the empty join is
    the bottom and the empty meet the top, which is all finite completeness
    needs.
    """

    def __init__(self, names, up):
        super().__init__(names, up)
        self.join_t = _bound_table(self, self.up, "join")
        self.meet_t = _bound_table(self, self.down, "meet")
        bottoms = [i for i in range(self.n) if self.up[i] == self.full]
        tops = [i for i in range(self.n) if self.down[i] == self.full]
        if len(bottoms) != 1:
            raise NotALattice("join", ("empty", "empty"))
        if len(tops) != 1:
            raise NotALattice("meet", ("empty", "empty"))
        self.bottom, self.top = bottoms[0], tops[0]
        self._join_irreducibles = None  # filled by the first join_irreducibles()
        self._j_below = None  # filled by the first j_below()
        self._j_rows = None  # filled by the first j_rows()
        self._splits = None  # filled by the first splits()

    def join(self, i, j):
        return self.join_t[i][j]

    def meet(self, i, j):
        return self.meet_t[i][j]

    def join_iter(self, items):
        out = self.bottom
        for i in items:
            out = self.join_t[out][i]
        return out

    def meet_iter(self, items):
        out = self.top
        for i in items:
            out = self.meet_t[out][i]
        return out

    def join_mask(self, mask):
        return self.join_iter(bits(mask))

    def join_irreducibles(self):
        """Elements that are not the join of the elements strictly below,
        as a fresh list; computed once per lattice."""
        if self._join_irreducibles is None:
            self._join_irreducibles = tuple(
                i
                for i in range(self.n)
                if i != self.bottom and self.join_mask(self.down[i] ^ (1 << i)) != i
            )
        return list(self._join_irreducibles)

    def j_below(self):
        """``below[a]``, the mask of the J below a at their positions in
        ``join_irreducibles()``, for each a; computed once per lattice."""
        if self._j_below is None:
            ji = self.join_irreducibles()
            self._j_below = tuple(
                sum(1 << k for k, p in enumerate(ji) if self.down[a] >> p & 1) for a in range(self.n)
            )
        return self._j_below

    def j_rows(self):
        """(maximal, poset): with ``j_below()``, the rows that hold a map by
        its values on the join-irreducibles J, at their positions in
        ``join_irreducibles()``; computed once per lattice.  ``maximal[a]``
        lists the maximal J below a; ``poset`` is J in the lattice's order."""
        if self._j_rows is None:
            ji, below = self.join_irreducibles(), self.j_below()
            # the J below each element of J, as up-sets, give J's opposite order
            poset = FinitePoset([self.names[p] for p in ji], [below[p] for p in ji]).opposite()
            self._j_rows = (tuple(tuple(poset.maximal(m)) for m in below), poset)
        return self._j_rows

    def splits(self):
        """Each (k, c, a) with a = p_k v c, p_k the k-th element of
        ``join_irreducibles()``, whose J below are more than the J below p_k
        and c, which a distributive lattice never has; computed once per
        lattice, from the rows ``j_below()`` it shares with ``j_rows()``."""
        if self._splits is None:
            below = self.j_below()
            self._splits = tuple(
                (k, c, a)
                for k, p in enumerate(self.join_irreducibles())
                for c, a in enumerate(self.join_t[p])
                if below[a] != below[p] | below[c]
            )
        return self._splits

    def opposite(self):
        return Lattice(self.names, self.down)


def lattice_structure(poset):
    """``poset`` as a ``Lattice``, or NotALattice with a witness pair.

    A finite poset with all binary joins and meets plus a top and bottom is a
    complete lattice, so success here certifies completeness.
    """
    return Lattice(poset.names, poset.up)


def _bound_table(poset, up, kind):
    """The table of least bounds in the order whose up-sets are ``up``: the
    joins for ``poset.up``, the meets for ``poset.down``.

    When no two up-sets repeat, cell (i, j) is the k with up[k] =
    up[i] & up[j], read from an index of the up-sets: k in up[i] & up[j] is
    an upper bound, and up[k] holding every upper bound makes it the least.
    A cell with no such k, or a preorder (repeated up-sets, where no pair of
    equivalent elements has a least bound), falls to the least-upper-bound
    search, which raises NotALattice naming the first pair without one."""
    if len(set(up)) == poset.n:
        get = {u: k for k, u in enumerate(up)}.get
        table = tuple(tuple([get(u & v) for v in up]) for u in up)
        if not any(None in row for row in table):
            return table
    rows = []
    for i in range(poset.n):
        row = []
        for j in range(poset.n):
            ub = up[i] & up[j]
            least = [k for k in bits(ub) if ub & ~up[k] == 0]
            if len(least) != 1:
                raise NotALattice(kind, (poset.names[i], poset.names[j]))
            row.append(least[0])
        rows.append(tuple(row))
    return tuple(rows)


def generators(table, unit):
    """Elements that, with ``unit``, generate the commutative magma
    ``table`` under its product; at most a few for a group, the
    join-irreducibles for a lattice's join.  Chosen greedily: elements with
    the largest row image first, each one kept when the product closure of
    those kept so far misses it."""
    reached, kept = {unit}, []
    for a in sorted(range(len(table)), key=lambda a: -len(set(table[a]))):
        if a not in reached:
            kept.append(a)
            reached.add(a)
            fresh = [a]
            while fresh:
                new = set(map(table[fresh.pop()].__getitem__, reached)) - reached
                reached |= new
                fresh.extend(new)
    return kept


def distributes(mul_t, xs, add_t, gs):
    """Whether x(y + g) = xy + xg for every x in ``xs``, g in ``gs`` and
    every y, comparing whole rows.

    Lemma: when both tables are commutative monoids and 0x = 0, this for
    generating sets ``xs`` of the product and ``gs`` of the sum is full
    distributivity.  The g passing for a fixed x hold 0 (as x0 = 0) and are
    closed under sums: x(y + g + g') = xy + xg + xg' = xy + x(g + g').  So
    an x passing for every g in ``gs`` passes for every z, and such x are
    closed under products: xx'(y + z) = x(x'y + x'z) = xx'y + xx'z."""
    for x in xs:
        row = mul_t[x]
        spread = itemgetter(*row)
        if not all(itemgetter(*add_t[g])(row) == spread(add_t[row[g]]) for g in gs):
            return False
    return True


def is_distributive(lat):
    """(flag, witness): whether a meet distributes over joins, decided by
    Birkhoff's criterion (1937): true when ``lat.splits()`` is empty.
    Then J(p v c) = J(p) | J(c) for p in J, so by induction a -> J(a), the
    join-irreducibles below a, sends every join to a union; it sends meets
    to intersections and is one-to-one, so the lattice embeds in the
    down-sets of J, which are distributive.  The witness is the first
    failing triple (a, b, c) of a meet (b join c), found by a search over
    all triples that runs only when the criterion fails."""
    if not lat.splits():
        return True, None
    for a, b, c in iproduct(range(lat.n), repeat=3):
        lhs = lat.meet(a, lat.join(b, c))
        rhs = lat.join(lat.meet(a, b), lat.meet(a, c))
        if lhs != rhs:
            return False, (lat.names[a], lat.names[b], lat.names[c])
    return True, None


class ClosureOperator:
    """The closure operator on ``carrier`` onto the meets of the elements in
    the bitmask ``allowed``: a goes to the meet of the allowed elements
    above a, and the top is the empty meet.  That is a closure operator for
    every mask, so nothing is checked: it is inflationary and monotone, and
    the allowed elements above j(a) are those above a, so j(j(a)) = j(a).
    Every closure is built this way, from its fixed points."""

    def __init__(self, carrier, allowed):
        self.carrier = carrier
        self.values = tuple(carrier.meet_iter(bits(up & allowed)) for up in carrier.up)

    def __call__(self, i):
        return self.values[i]

    def fixed_points(self):
        return [i for i in range(self.carrier.n) if self.values[i] == i]

    def quotient(self):
        """The lattice of fixed points and, for each element a, the index of
        j(a) in it: the ``family_lattice`` of their down-sets, which meet in
        the family as fixed points are closed under meets, and whose join,
        the least fixed point above both, is j(a v b)."""
        lat, fixed = self.carrier, self.fixed_points()
        pos = {e: k for k, e in enumerate(fixed)}
        quotient = family_lattice([lat.down[e] for e in fixed], [lat.names[e] for e in fixed])
        return quotient, [pos[v] for v in self.values]

    def __eq__(self, other):
        return (
            isinstance(other, ClosureOperator)
            and self.carrier == other.carrier
            and self.values == other.values
        )

    def __hash__(self):
        return hash(self.values)


def family_lattice(masks, names, caps=DEFAULT_CAPS):
    """The ``Lattice`` of a family of bitmasks ordered by inclusion, where
    every pair has a least member above both and meets in a member; the one
    constructor of a lattice on masks.  The order alone fixes the tables
    (the up-sets come from ``inclusion_up_sets``); the one law left to check
    is that each meet is the intersection.  A pair without a join raises
    LawViolation("join closes into the family", (a, b)); otherwise the first
    pair whose intersection is no member raises its "meet" form.  When the
    order has a meet, the intersection is a member exactly when it is that
    meet.

    The order, join and meet tables hold |masks|**2 cells each, so a family
    with more cells than 16 times ``caps.search_budget()`` raises CapExceeded
    before any table is built or ``names`` is read.
    """
    masks = list(masks)
    check_table_cap(len(masks), caps)
    pos = {m: i for i, m in enumerate(masks)}
    if len(pos) != len(masks):
        raise DuplicateElement("repeated mask in family")
    names = tuple(names)
    try:
        lat = Lattice(names, inclusion_up_sets(masks))
    except NotALattice as exc:
        if exc.kind == "join":
            raise LawViolation("join closes into the family", exc.pair) from None
        lat = None
    meets = tuple(tuple([pos.get(mi & mj) for mj in masks]) for mi in masks)
    if lat is None or lat.meet_t != meets:
        a, row = next((a, row) for a, row in enumerate(meets) if None in row)
        raise LawViolation("meet closes into the family", (names[a], names[row.index(None)]))
    return lat


def check_table_cap(n, caps):
    """Raise CapExceeded before a lattice of ``n`` elements tabulates its
    n**2 joins and meets, when they are more than 16 times
    ``caps.search_budget()``."""
    cap = 16 * caps.search_budget()
    if n**2 > cap:
        raise CapExceeded("lattice join and meet tables", n**2, cap)


def inclusion_up_sets(masks):
    """For each member of the family ``masks``, the bitmask of the positions
    of the members that contain it: the AND, over the points of the member,
    of the positions of the members holding that point (all positions for
    the empty member).  Cost proportional to the points of the members, not
    to |masks|**2; ``bits`` is inlined, as its generator would cost more
    than the |masks|**2 scan on families of a few dozen members."""
    holding = [0] * max(masks, default=0).bit_length()
    for j, m in enumerate(masks):
        member = 1 << j
        while m:
            low = m & -m
            holding[low.bit_length() - 1] |= member
            m ^= low
    everything = (1 << len(masks)) - 1
    up = []
    for m in masks:
        u = everything
        while m:
            low = m & -m
            u &= holding[low.bit_length() - 1]
            m ^= low
        up.append(u)
    return up


def upset_lattice(poset, limit=None):
    """The frame of up-sets of ``poset``; returns (lattice, masks)."""
    masks = poset.up_sets(limit)
    if masks is None:
        return None, None
    return family_lattice(masks, [poset.mask_name(m) for m in masks]), masks


def downset_lattice(poset, limit=None):
    masks = poset.down_sets(limit)
    if masks is None:
        return None, None
    return family_lattice(masks, [poset.mask_name(m) for m in masks]), masks


def least_closure(lat, forcings):
    """Least closure operator j on ``lat`` with a <= j(b) for each pair (a, b).

    A closure obeys the pairs exactly when each of its fixed points p does:
    b <= p implies a <= p.  The elements that do are meet-closed and hold
    the top, so the closure onto them, the ``ClosureOperator`` of the mask
    of the elements no pair rules out, is the least one.

    Returns (closure, lattice of fixed points, surjection a -> j(a)).
    """
    bad = 0
    for a, b in forcings:
        bad |= lat.up[b] & ~lat.up[a]
    closure = ClosureOperator(lat, lat.full & ~bad)
    quotient, onto = closure.quotient()
    return closure, quotient, MonotoneMap(lat, quotient, onto)


def monotone_search(variables, lat, laws, budget, what):
    """Every monotone map g from the poset ``variables`` to the lattice
    ``lat`` that satisfies ``laws``, as value tuples in the order found.

    Backtracking with forward checking: the variables are assigned along a
    linear extension, and the candidates at v are the values above the
    floor, the join of g over the lower covers of v, so only monotone maps
    are built.  That is the join over everything below v: each element
    below v is below a lower cover, assigned earlier, and g is monotone.
    A law is a pair (scope, test): ``scope`` is the bitmask of the
    variables it reads and ``test(g)`` judges the partial map, as soon as
    the last variable of the scope is assigned (a law with an empty scope
    is judged before the first).  That position is found by bisection on
    the linear extension: the least k such that no variable of the scope
    comes after the first k, about log n mask tests per law, each an AND
    with a mask built once.  Every candidate value tried is one search
    node; past ``budget`` nodes the search raises CapExceeded(what, ...).
    The search is depth-first on an explicit stack, not a recursion, so a
    poset of any height is searched.
    """
    order, covers, _ = variables.search_rows()
    above = lat.search_rows()[2]
    join_t = lat.join_t
    rest = [0] * (variables.n + 1)  # rest[k]: the variables after the first k
    for k in reversed(range(variables.n)):
        rest[k] = rest[k + 1] | 1 << order[k]
    due = [[] for _ in rest]
    for scope, test in laws:
        lo, hi = 0, variables.n
        while lo < hi:
            mid = (lo + hi) // 2
            if scope & rest[mid]:
                lo = mid + 1
            else:
                hi = mid
        due[lo].append(test)
    g = [None] * variables.n
    found = []
    nodes = 0

    def candidates(k):
        floor = lat.bottom
        for u in covers[order[k]]:
            floor = join_t[floor][g[u]]
        return iter(above[floor])

    if not all(test(g) for test in due[0]):
        return found
    if not order:
        return [()]
    stack = [candidates(0)]  # the untried candidates of each variable assigned
    while stack:
        k = len(stack) - 1
        v, tests = order[k], due[k + 1]
        for q in stack[-1]:
            nodes += 1
            if nodes > budget:
                raise CapExceeded(what, nodes, budget)
            g[v] = q
            for test in tests:
                if not test(g):
                    break
            else:
                if k + 1 == len(order):
                    found.append(tuple(g))
                    continue
                stack.append(candidates(k + 1))
                break
        else:
            stack.pop()
    return found
