"""Spans around pfspec's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function in every ``pfspec.*`` module
namespace that binds it (so calls through ``from .order import ...`` copies
are seen too), and wraps ``Quantale.validate`` and
``LocalicSemiringData.__init__`` on their classes.  ``uninstall`` puts every
original back.  A span records its name, its parent span, and its start and
end; a layer's self time is its span minus its child spans.
"""

import functools
import sys
import time
from collections import Counter

# (module, attribute, metric name, sizes read from the returned object)
_FUNCTIONS = [
    ("order", "upset_lattice", "order.upset_lattice", None),
    ("order", "downset_lattice", "order.downset_lattice", None),
    ("order", "family_lattice", "order.family_lattice", None),
    ("order", "lattice_structure", "order.lattice_structure", None),
    ("order", "least_closure", "order.least_closure", None),
    ("locale", "alexandrov", "locale.alexandrov", lambda r: [("locale.opens", r.opens.n)]),
    ("locale", "locale_from_frame", "locale.locale_from_frame", lambda r: [("locale.opens", r[0].opens.n)]),
    ("spectrum", "saturation", "spectrum.saturation", lambda r: [("spectrum.saturated_opens", r.saturated.n)]),
    (
        "spectrum",
        "monoid_ideal_quantale",
        "spectrum.monoid_ideal_quantale",
        lambda r: [("spectrum.downsets", r.owc_lattice.n), ("spectrum.monoid_ideals", r.monoid_ideals.carrier.n)],
    ),
    ("spectrum", "ideal_quantale", "spectrum.ideal_quantale", lambda r: [("spectrum.ideals", r.ideals.carrier.n)]),
    ("spectrum", "universal_element", "spectrum.universal_element", None),
    ("spectrum", "anti_ideals", "spectrum.anti_ideals", lambda r: [("spectrum.anti_ideals", len(r.maps))]),
    (
        "spectrum",
        "radical_frame",
        "spectrum.radical_frame",
        lambda r: [("spectrum.radicals", r.radicals.carrier.n), ("spectrum.points", len(r.points))],
    ),
    ("spectrum", "saturated_replacement", "spectrum.saturated_replacement", None),
    ("spectrum", "representability_check", "spectrum.representability_check", None),
    ("spectrum", "dualisability_conditions", "spectrum.dualisability_conditions", None),
    ("quantale", "least_nucleus", "quantale.least_nucleus", None),
    ("quantale", "quotient_by_nucleus", "quantale.quotient_by_nucleus", None),
    ("quantale", "two_sided_reflection", "quantale.two_sided_reflection", None),
    ("quantale", "localic_reflection", "quantale.localic_reflection", None),
    ("quantale", "enumerate_homs", "quantale.enumerate_homs", lambda r: [("quantale.homs", len(r))]),
    ("suplattice", "dual_basis", "suplattice.dual_basis", None),
    ("suplattice", "tensor", "suplattice.tensor", None),
    ("suplattice", "all_supmaps", "suplattice.all_supmaps", None),
    ("oracles", "zariski_compare", "oracles.zariski_compare", None),
    ("oracles", "stone_compare", "oracles.stone_compare", None),
    ("oracles", "hofmann_lawson_compare", "oracles.hofmann_lawson_compare", None),
    ("iso", "find_lattice_iso", "iso.find_lattice_iso", None),
    ("modelfile", "parse_model", "modelfile.parse_model", None),
    ("cli", "cmd_verify", "cli.cmd_verify", None),
]

# (module, class, method, metric name)
_METHODS = [
    ("quantale", "Quantale", "validate", "quantale.validate"),
    ("algebra", "LocalicSemiringData", "__init__", "algebra.localic_data"),
]

SPAN_NAMES = [f[2] for f in _FUNCTIONS] + [m[3] for m in _METHODS]
SIZE_NAMES = [
    "locale.opens",
    "spectrum.downsets",
    "spectrum.saturated_opens",
    "spectrum.monoid_ideals",
    "spectrum.ideals",
    "spectrum.radicals",
    "spectrum.points",
    "spectrum.anti_ideals",
    "quantale.homs",
]
IMPORTS = sorted({f[0] for f in _FUNCTIONS} | {m[0] for m in _METHODS})


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or None, start, end]
        self.sizes = Counter()
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, sizes):
        spans, stack, counts = self.spans, self._stack, self.sizes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else None, time.perf_counter(), None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if sizes is not None:
                for key, value in sizes(result):
                    counts[key] += value
            return result

        return traced

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items()) if k == "pfspec" or k.startswith("pfspec.")]
        for mod, attr, name, sizes in _FUNCTIONS:
            original = getattr(sys.modules[f"pfspec.{mod}"], attr)
            wrapper = self._wrap(name, original, sizes)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        for mod, cls_name, method, name in _METHODS:
            cls = getattr(sys.modules[f"pfspec.{mod}"], cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original, None))

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def self_times(self):
        """Self seconds and call counts per span name."""
        seconds = Counter()
        calls = Counter()
        for name, parent, start, end in self.spans:
            seconds[name] += end - start
            calls[name] += 1
            if parent is not None:
                seconds[self.spans[parent][0]] -= end - start
        return seconds, calls

    def stage_share(self, first, total):
        """Share of ``total`` seconds spent in the children of the top-level
        spans among spans[first:], i.e. in the stages below each job's entry
        call.  Near 1 when every costly stage has a span."""
        tops = {i for i in range(first, len(self.spans)) if self.spans[i][1] is None}
        inside = sum(end - start for _, parent, start, end in self.spans[first:] if parent in tops)
        return inside / total if total else 0.0
