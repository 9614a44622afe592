"""The benchmark's workloads.

A workload generates its plain inputs from the seed (``inputs.py``), builds
the package's objects from them in ``build`` (timed as set-up), and hands out
its fixed job list.  A job is (label, run, check): ``run`` makes one call into
the package and returns what it produced, and ``check`` compares that with
the independent answer (``checks.py``) and returns a list of problems.

Jobs look the package functions up on the module at call time, so that the
traced run sees them through its wrappers.
"""

import contextlib
import io
import os
import subprocess
import sys

import checks
import inputs

MODEL = os.path.join("models", "catalog.model")


class _Workload:
    modules = ()
    uses_children = False
    sizes = None  # optional: result -> [(size name, value)] for the traced run

    def __init__(self):
        self._expected = {}

    def _cached(self, key, compute):
        if key not in self._expected:
            self._expected[key] = compute()
        return self._expected[key]


class ZariskiLadder(_Workload):
    """radical_frame on discrete semirings: Z/6 .. Z/10 and seeded draws."""

    name = "zariski-ladder"
    modules = ("algebra", "spectrum")

    def __init__(self, seed):
        super().__init__()
        self.semirings = inputs.ladder_inputs(seed)

    def build(self, pf):
        return [
            pf.algebra.to_localic(
                pf.algebra.build_discrete_semiring(s.names, s.zero, s.one, s.add, s.mul),
                name=s.label,
            )
            for s in self.semirings
        ]

    def jobs(self, pf, built, in_process):
        return [
            (s.label, lambda d=data: pf.spectrum.radical_frame(d), lambda r, s=s: self._check(s, r))
            for s, data in zip(self.semirings, built)
        ]

    def _check(self, s, result):
        expected = self._cached(s.label, lambda: checks.zariski_expected(s))
        return checks.check_zariski(
            s.label,
            expected,
            result.ideal_data.ideal_masks,
            result.points,
            result.radicals.carrier.n,
        )


def _scott_data(pf, p):
    lat = pf.order.lattice_structure(pf.order.FinitePoset(p.names, p.up))
    return pf.algebra.scott_localic_lattice(lat, name=p.label)


class ScottFrames(_Workload):
    """radical_frame on finite distributive lattices in the Scott topology."""

    name = "scott-frames"
    modules = ("algebra", "order", "spectrum")

    def __init__(self, seed):
        super().__init__()
        self.lattices = inputs.scott_inputs(seed)

    def build(self, pf):
        return [_scott_data(pf, p) for p in self.lattices]

    def jobs(self, pf, built, in_process):
        return [
            (p.label, lambda d=data: pf.spectrum.radical_frame(d), lambda r, p=p: self._check(p, r))
            for p, data in zip(self.lattices, built)
        ]

    def _check(self, p, result):
        expected = self._cached(p.label, lambda: checks.scott_expected(p))
        return checks.check_scott(
            p.label,
            expected,
            result.ideal_data.ideal_masks,
            result.points,
            result.radicals.carrier.n,
        )


# The default cap (2**16 states) refuses Z/8: the anti-ideal search is
# estimated at |Q|**|points| = 5**8 for the 5-element catalog quantales.
REPRESENTABILITY_MAX_EXHAUSTIVE = 20


class Representability(_Workload):
    """representability_check over the quantale catalog."""

    name = "representability"
    modules = ("algebra", "caps", "catalog", "order", "spectrum")

    def __init__(self, seed):
        super().__init__()
        self.items = inputs.representability_rings(seed) + inputs.representability_lattices()

    def build(self, pf):
        data = []
        for item in self.items:
            if isinstance(item, inputs.Semiring):
                semiring = pf.algebra.build_discrete_semiring(
                    item.names, item.zero, item.one, item.add, item.mul
                )
                data.append(pf.algebra.to_localic(semiring, name=item.label))
            else:
                data.append(_scott_data(pf, item))
        catalog = pf.catalog.quantale_catalog()
        caps = pf.caps.Caps(max_exhaustive=REPRESENTABILITY_MAX_EXHAUSTIVE)
        return data, catalog, caps

    def jobs(self, pf, built, in_process):
        data, catalog, caps = built
        return [
            (
                item.label,
                lambda d=d: pf.spectrum.representability_check(d, catalog, caps),
                lambda r, item=item: self._check(item, r),
            )
            for item, d in zip(self.items, data)
        ]

    def _check(self, item, report):
        expected = self._cached(item.label, lambda: checks.representability_expected(item))
        entries = {e.quantale_name: (e.hom_count, e.member_count) for e in report.semiring_entries}
        return checks.check_representability(item.label, expected, report.ok(), entries)


class CliVerify(_Workload):
    """``pfspec verify models/catalog.model``, one fresh process per job.

    The traced run calls ``pfspec.cli.main`` in-process instead, since spans
    are recorded in this process.
    """

    name = "cli-verify"
    modules = ("cli", "modelfile")
    uses_children = True

    def __init__(self, seed):
        super().__init__()
        self.first_output = None

    def build(self, pf):
        return pf.modelfile.parse_model(MODEL)

    def jobs(self, pf, built, in_process):
        run = (lambda: self._in_process(pf)) if in_process else self._child
        return [("verify", run, self._check)]

    @staticmethod
    def _child():
        env = dict(os.environ)
        env.pop("PFSPEC_MAX_EXHAUSTIVE", None)
        src = os.path.abspath("src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.run(
            [sys.executable, "-m", "pfspec.cli", "verify", MODEL],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=150,
            check=False,
        )
        return proc.stdout, proc.returncode

    @staticmethod
    def _in_process(pf):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = pf.cli.main(["verify", MODEL])
        return out.getvalue().encode("utf-8"), code

    @staticmethod
    def sizes(result):
        return [("report.checks", checks.count_records(result[0]))]

    def _check(self, result):
        output, code = result
        if self.first_output is None:
            self.first_output = output
        expected = self._cached("checks", lambda: _expected_checks())
        return checks.check_verify_output([self.first_output, output], [code], expected)


def _expected_checks():
    with open(MODEL, encoding="utf-8") as fh:
        return checks.expected_verify_checks(fh.read())


WORKLOADS = {w.name: w for w in (ZariskiLadder, ScottFrames, Representability, CliVerify)}
