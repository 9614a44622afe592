"""Isomorphism search for finite posets and lattices.

Every isomorphism claim in the package is backed by an exhibited bijection,
never a cardinality count.  The search backtracks over elements sorted by an
order-theoretic profile (degrees, covers, join-irreducibility), which prunes
hard enough for the carriers we meet (a few hundred elements).
"""


def _poset_profile(poset):
    covers_up = [0] * poset.n
    covers_dn = [0] * poset.n
    for i, j in poset.covers():
        covers_up[i] += 1
        covers_dn[j] += 1
    return [
        (
            poset.down[i].bit_count(),
            poset.up[i].bit_count(),
            covers_dn[i],
            covers_up[i],
        )
        for i in range(poset.n)
    ]


def find_poset_iso(a, b):
    """An order isomorphism a -> b as a value list, or None.

    For lattices this is enough: any order isomorphism preserves all joins
    and meets that exist.  The search is depth-first on an explicit stack,
    not a recursion, so a poset of any size is searched.
    """
    if a.n != b.n:
        return None
    pa, pb = _poset_profile(a), _poset_profile(b)
    if sorted(pa) != sorted(pb):
        return None
    candidates = [
        [j for j in range(b.n) if pb[j] == pa[i]] for i in range(a.n)
    ]
    order = sorted(range(a.n), key=lambda i: (len(candidates[i]), i))
    assigned = [None] * a.n
    used = [False] * b.n
    if not order:
        return []
    stack = [iter(candidates[order[0]])]  # the untried candidates of each element assigned
    while stack:
        k = len(stack) - 1
        i = order[k]
        if assigned[i] is not None:  # back from a failed extension: undo
            used[assigned[i]] = False
            assigned[i] = None
        for j in stack[-1]:
            if not used[j] and all(
                a.leq(i, i2) == b.leq(j, assigned[i2]) and a.leq(i2, i) == b.leq(assigned[i2], j)
                for i2 in order[:k]
            ):
                assigned[i] = j
                used[j] = True
                if k + 1 == a.n:
                    return assigned
                stack.append(iter(candidates[order[k + 1]]))
                break
        else:
            stack.pop()
    return None


def find_lattice_iso(a, b):
    """``find_poset_iso``: a lattice is fixed by its order, so an order
    isomorphism of lattices carries every join and meet."""
    return find_poset_iso(a, b)
