"""Size caps for exhaustive operations.

Tensor lattices are doubly exponential in the factor sizes and several checks
enumerate all subsets of a carrier, so every potentially explosive operation
takes a cap and fails loudly with CapExceeded instead of silently truncating.
"""

import os
from collections import namedtuple

from .errors import PfspecError

ENV_MAX_EXHAUSTIVE = "PFSPEC_MAX_EXHAUSTIVE"


class Caps(
    namedtuple(
        "Caps",
        [
            # largest product carrier for which a full tensor lattice is materialized
            "max_tensor_carrier",
            # largest carrier for subset-exhaustive checks (2**max_exhaustive states)
            "max_exhaustive",
        ],
        defaults=(24, 16),
    )
):
    __slots__ = ()

    def search_budget(self):
        return 1 << self.max_exhaustive


def caps_from_env(max_tensor_carrier=None, max_exhaustive=None):
    """Build a Caps, letting explicit arguments override the environment.

    A non-integer environment value or a negative cap raises PfspecError,
    naming where the value came from.
    """
    exhaustive_source = "--max-exhaustive"
    if max_exhaustive is None:
        env = os.environ.get(ENV_MAX_EXHAUSTIVE)
        if env is not None:
            exhaustive_source = ENV_MAX_EXHAUSTIVE
            try:
                max_exhaustive = int(env)
            except ValueError:
                raise PfspecError(f"{ENV_MAX_EXHAUSTIVE}={env!r} is not an integer") from None
    kwargs = {}
    for field, value, source in (
        ("max_tensor_carrier", max_tensor_carrier, "--max-tensor-carrier"),
        ("max_exhaustive", max_exhaustive, exhaustive_source),
    ):
        if value is not None:
            if value < 0:
                raise PfspecError(f"{source}={value} is negative; a cap must be at least 0")
            kwargs[field] = value
    return Caps(**kwargs)


DEFAULT_CAPS = Caps()
