"""Finite locales presented by their posets of points.

Classically every finite frame is spatial: it is the frame of up-sets of its
poset of join-irreducibles.  A ``FiniteLocale`` therefore stores the point
poset and derives the opens only when something asks for them: there are up
to 2**|points| of them, and the spectrum pipeline works on the points alone.
Positivity is decidable as inhabitation.  ``alexandrov`` gives the locale of
a poset, and ``locale_from_frame`` presents a finite distributive lattice as
the opens of one.  Every finite locale presented this way is overt; the
opens oracle in ``spectrum`` verifies that the positivity map is left
adjoint to the unique map from the terminal frame.
"""

from functools import cached_property

from .caps import DEFAULT_CAPS
from .errors import CapExceeded, LawViolation
from .order import family_lattice
from .suplattice import OMEGA_FALSE, OMEGA_TRUE, SupMap, omega


class FiniteLocale:
    """A locale with point poset ``points`` and opens the up-sets of it.

    The opens are enumerated on first use, and their lattice is tabulated
    under the caps of ``family_lattice``.
    """

    def __init__(self, points, caps=DEFAULT_CAPS):
        self.points = points
        self.caps = caps

    @cached_property
    def open_masks(self):
        budget = self.caps.search_budget()
        masks = self.points.up_sets(limit=budget)
        if masks is None:
            raise CapExceeded("opens enumeration", f">{budget}", budget)
        return tuple(masks)

    @cached_property
    def open_index(self):
        return {m: i for i, m in enumerate(self.open_masks)}

    @cached_property
    def opens(self):
        masks = self.open_masks
        return family_lattice(masks, (self.points.mask_name(m) for m in masks), caps=self.caps)

    @cached_property
    def positivity(self):
        return SupMap(
            self.opens,
            omega(),
            [OMEGA_TRUE if m else OMEGA_FALSE for m in self.open_masks],
        )

    def minimal_open_at(self, point):
        """The smallest open containing ``point`` (its principal up-set)."""
        return self.open_index[self.points.up[point]]

    def __repr__(self):
        return f"FiniteLocale({self.points.n} points)"


def alexandrov(points, caps=DEFAULT_CAPS):
    """The locale whose opens are the up-sets of ``points``."""
    return FiniteLocale(points, caps)


def locale_from_frame(lat, caps=DEFAULT_CAPS):
    """Present a finite distributive lattice as the opens of a locale.

    Points are the join-irreducibles with the reversed induced order (so the
    principal up-set of a point corresponds to the irreducible itself).
    Returns (locale, to_opens, from_opens) where to_opens is the frame
    isomorphism ``lat -> locale.opens``: both maps are checked as SupMaps,
    so are monotone, and the spatiality check makes them inverse
    bijections, so together they are an order isomorphism, which carries
    meets as well as joins.
    """
    points = lat.j_rows()[1].opposite()
    loc = FiniteLocale(points, caps)
    to_values = [loc.open_index[mask] for mask in lat.j_below()]
    to_opens = SupMap(lat, loc.opens, to_values)
    if len(set(to_values)) != lat.n or loc.opens.n != lat.n:
        raise LawViolation("spatiality", "frame is not the up-set frame of its irreducibles")
    from_values = [None] * lat.n
    for a, v in enumerate(to_values):
        from_values[v] = a
    from_opens = SupMap(loc.opens, lat, from_values)
    return loc, to_opens, from_opens
