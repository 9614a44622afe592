"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a pfspec checkout: the package is imported from
./src and cli-verify reads ./models/catalog.model.  Workloads:
zariski-ladder, scott-frames, representability, cli-verify.

Set-up (importing the package afresh and building every input) is repeated
at least SETUP_REPEATS times and for at least SETUP_MIN_S seconds; the
median is reported.  The run then repeats whole rounds of the workload's
fixed job list until ``--seconds`` have passed (at least one round), and
checks every answer against ``checks.py``.  ``solve_s`` is one pass over the
job list, the sum of each job's median time over the rounds; ``job_s.p50``
is the median of all job times.  With ``--trace 1`` the run alternates
untraced and traced rounds instead and reports per-layer self times, call
counts and sizes per traced round.

End-to-end times are wall seconds rescaled to a fixed CPU speed.  The run
times ``reference_pass`` (fixed pure-Python work that does not touch pfspec)
before every set-up and every job and once after the last, and multiplies
each timed interval by REFERENCE_S over the mean of the two reference passes
around it.  On a shared machine whose speed drifts by a factor of two within
minutes this keeps runs comparable; a change to pfspec moves the jobs and not
the reference.  The raw wall times are kept in the record under bench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
import types

import spans
from workloads import MODEL, WORKLOADS

SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
REFERENCE_S = 0.026  # about one reference_pass on a quiet 2-core host
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

END_TO_END = [("setup_s", "s"), ("solve_s", "s"), ("job_s.p50", "s"), ("peak_rss_mb", "MB")]


def per_layer_metrics():
    """Names and units of the traced run's metrics."""
    out = []
    for name in spans.SPAN_NAMES:
        out += [(f"{name}_s", "s"), (f"{name}.calls", "count")]
    out += [(name, "count") for name in spans.SIZE_NAMES]
    out += [
        ("report.checks", "count"),
        ("spectrum.ideal_yield", "ratio"),
        ("trace.overhead_s", "s"),
        ("trace.stage_share", "ratio"),
    ]
    return out


def reference_pass():
    """Fixed pure-Python work of the kinds pfspec spends its time on:
    integer arithmetic, dict stores and lookups, small tuples."""
    table = {}
    acc = 0
    for i in range(36000):
        key = i * 7919 % 30011
        table[key] = (i, key)
        acc += i * i % 7
    for i in range(36000):
        acc += table.get(i * 104729 % 30011, (0, 0))[1] & 7
    rows = [tuple(range(k % 8)) for k in range(30000)]
    return acc + len(rows)


def timed_reference(samples):
    start = time.perf_counter()
    reference_pass()
    samples.append(time.perf_counter() - start)


def rescaled(times, reference):
    """Each of ``times`` scaled by the reference passes just before and just
    after it (``reference`` has one more entry than ``times``)."""
    return [t * 2 * REFERENCE_S / (reference[i] + reference[i + 1]) for i, t in enumerate(times)]


def import_package(modules):
    """Import the named pfspec modules afresh; returns a namespace of every
    loaded pfspec module."""
    for key in [k for k in sys.modules if k == "pfspec" or k.startswith("pfspec.")]:
        del sys.modules[key]
    for module in modules:
        importlib.import_module(f"pfspec.{module}")
    return package_namespace()


def package_namespace():
    return types.SimpleNamespace(
        **{k[len("pfspec.") :]: v for k, v in sys.modules.items() if k.startswith("pfspec.")}
    )


def set_up(workload):
    """Returns the last (namespace, built inputs), the wall seconds of each
    set-up and the reference passes around them."""
    seconds, reference = [], []
    pf = built = None
    first = time.perf_counter()
    while len(seconds) < SETUP_REPEATS or time.perf_counter() - first < SETUP_MIN_S:
        pf = built = None
        timed_reference(reference)
        start = time.perf_counter()
        pf = import_package(workload.modules)
        built = workload.build(pf)
        seconds.append(time.perf_counter() - start)
    timed_reference(reference)
    return pf, built, seconds, reference


class Tally:
    """Counts and checks jobs, and takes a reference pass before each."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.problems = []
        self.reference = []

    def run_round(self, jobs, on_result=None):
        """Run every job once; returns the wall seconds of each job."""
        times = []
        for label, run, check in jobs:
            self.attempted += 1
            timed_reference(self.reference)
            start = time.perf_counter()
            try:
                result = run()
            except Exception as exc:  # a failed job is counted, the run goes on
                times.append(time.perf_counter() - start)
                self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            times.append(time.perf_counter() - start)
            self.problems.extend(check(result))
            if on_result is not None:
                on_result(result)
            del result
        return times


def timed_run(workload, pf, built, seconds, tally):
    jobs = workload.jobs(pf, built, in_process=False)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(tally.run_round(jobs))
    timed_reference(tally.reference)
    who = resource.RUSAGE_CHILDREN if workload.uses_children else resource.RUSAGE_SELF
    flat = [t for r in rounds for t in r]
    scaled = rescaled(flat, tally.reference)
    m = len(jobs)
    metrics = {
        "solve_s": sum(statistics.median(scaled[j::m]) for j in range(m)),
        "job_s.p50": statistics.median(scaled),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    details = {
        "labels": [label for label, _, _ in jobs],
        "rounds": rounds,
        "reference_s": tally.reference,
        "wall": {
            "solve_s": sum(statistics.median(flat[j::m]) for j in range(m)),
            "job_s.p50": statistics.median(flat),
        },
    }
    return metrics, details


def traced_run(workload, pf, built, seconds, tally):
    for module in spans.IMPORTS:
        importlib.import_module(f"pfspec.{module}")
    pf = package_namespace()
    jobs = workload.jobs(pf, built, in_process=True)
    tracer = spans.Tracer()
    untraced, traced, shares = [], [], []
    first_round = None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(sum(tally.run_round(jobs)))
        mark = len(tracer.spans)
        tracer.install()
        try:
            traced_built = workload.build(pf)
            solve_mark = len(tracer.spans)
            on_result = None
            if workload.sizes is not None:
                on_result = lambda r: tracer.sizes.update(dict(workload.sizes(r)))
            solve = sum(tally.run_round(workload.jobs(pf, traced_built, in_process=True), on_result))
        finally:
            tracer.uninstall()
        traced.append(solve)
        shares.append(tracer.stage_share(solve_mark, solve))
        if first_round is None:
            first_round = (mark, len(tracer.spans))
    rounds = len(traced)
    self_s, calls = tracer.self_times()
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}_s"] = self_s[name] / rounds
        metrics[f"{name}.calls"] = calls[name] / rounds
    for name in spans.SIZE_NAMES + ["report.checks"]:
        metrics[name] = tracer.sizes[name] / rounds
    downsets = tracer.sizes["spectrum.downsets"]
    metrics["spectrum.ideal_yield"] = tracer.sizes["spectrum.ideals"] / downsets if downsets else 0.0
    metrics["trace.overhead_s"] = statistics.mean(traced) - statistics.mean(untraced)
    metrics["trace.stage_share"] = statistics.mean(shares)
    lo, hi = first_round
    t0 = tracer.spans[lo][2] if hi > lo else 0.0
    details = {
        "untraced_solve_s": untraced,
        "traced_solve_s": traced,
        "spans": [[n, p, s - t0, e - t0] for n, p, s, e in tracer.spans[lo:hi]],
    }
    return metrics, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "pfspec", "spectrum.py")) or not os.path.isfile(MODEL):
        sys.stderr.write("error: run from the root of a pfspec checkout (needs src/pfspec and models/)\n")
        return 2
    sys.path.insert(0, src)

    workload = WORKLOADS[args.workload](args.seed)
    pf, built, setup_times, setup_reference = set_up(workload)
    loaded_from = os.path.dirname(os.path.abspath(pf.spectrum.__file__))
    if loaded_from != os.path.join(src, "pfspec"):
        sys.stderr.write(f"error: pfspec was imported from {loaded_from}, not from {src}\n")
        return 2

    tally = Tally()
    if args.trace:
        metrics, details = traced_run(workload, pf, built, args.seconds, tally)
        names = per_layer_metrics()
    else:
        metrics, details = timed_run(workload, pf, built, args.seconds, tally)
        metrics["setup_s"] = statistics.median(rescaled(setup_times, setup_reference))
        details["wall"]["setup_s"] = statistics.median(setup_times)
        names = END_TO_END
    details["setup_s"] = setup_times
    details["setup_reference_s"] = setup_reference

    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, stem + ".json"), "w", encoding="utf-8") as fh:
        record = dict(result, workload=args.workload, seed=args.seed, problems=tally.problems)
        json.dump(dict(record, failures=tally.failures, details=details), fh)
    for line in tally.problems + tally.failures:
        print(f"problem: {line}")
    if args.trace:
        print(f"traced rounds: {len(details['traced_solve_s'])}, trace overhead {metrics['trace.overhead_s']:.4f} s per round")
        print(
            f"spectrum.ideal_yield = {metrics['spectrum.ideals']:g} ideals"
            f" / {metrics['spectrum.downsets']:g} down-sets per round"
        )
    else:
        wall = details["wall"]
        print(
            f"job_s.p50 over {tally.attempted} jobs in {len(details['rounds'])} rounds;"
            f" wall set-up {wall['setup_s']:.4f} s, solve {wall['solve_s']:.4f} s,"
            f" job p50 {wall['job_s.p50']:.4f} s before rescaling"
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
