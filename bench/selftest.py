"""Self-test of the benchmark's answer checks.

    python3 bench/selftest.py        (from the root of a pfspec checkout)

For each check in ``checks.py`` it shows that the package's answer on the
current code passes (Z/6, Z/10, P3 and truncated N with 4, 6 and 8 elements,
plus the representability and CLI inputs) and that a deliberately wrong
answer of every kind is rejected.  It also confirms that BENCHMARK.json names
exactly the workloads and metrics that run.py prints.  Exits 1 on any
failure.  Takes about 15 s.
"""

import json
import os
import random
import sys

import checks
import inputs
import run
from workloads import WORKLOADS, CliVerify

failures = []


def expect(condition, what):
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        failures.append(what)


def rejects(problems, what):
    expect(bool(problems), f"rejects {what}")


def package():
    sys.path.insert(0, os.path.abspath("src"))
    return run.import_package(("algebra", "catalog", "caps", "cli", "order", "spectrum"))


def zariski_cases(pf):
    rng = random.Random("selftest")
    for s in [inputs.mod_ring(6), inputs.mod_ring(10)]:
        s = inputs.shuffled(rng, s)
        ideals, points, _ = checks.ring_expected(s)
        expect(checks.ideals_bruteforce(s) == ideals, f"{s.label}: brute-force ideals agree with dZ/n")
        expect(checks.prime_anti_ideals_bruteforce(s) == points, f"{s.label}: brute-force points agree with the primes")
    cases = [inputs.shuffled(rng, inputs.mod_ring(n)) for n in (6, 10)]
    cases += [inputs.shuffled(rng, inputs.truncated_nat(n)) for n in (4, 6, 8)]
    for s in cases:
        data = pf.algebra.to_localic(pf.algebra.build_discrete_semiring(s.names, s.zero, s.one, s.add, s.mul))
        result = pf.spectrum.radical_frame(data)
        ideals = list(result.ideal_data.ideal_masks)
        points = list(result.points)
        rad = result.radicals.carrier.n
        expected = checks.zariski_expected(s)
        expect(not checks.check_zariski(s.label, expected, ideals, points, rad), f"{s.label}: package answer passes")
        rejects(checks.check_zariski(s.label, expected, ideals[1:], points, rad), f"{s.label}: a missing ideal")
        full = (1 << len(s.names)) - 1
        rejects(checks.check_zariski(s.label, expected, ideals, points[1:] + [full], rad), f"{s.label}: a wrong point")
        rejects(checks.check_zariski(s.label, expected, ideals, points, rad + 1), f"{s.label}: a wrong |Rad|")


def scott_cases(pf):
    for p in [inputs.powerset(3), inputs.grid(2, 3)]:
        lat = pf.order.lattice_structure(pf.order.FinitePoset(p.names, p.up))
        result = pf.spectrum.radical_frame(pf.algebra.scott_localic_lattice(lat))
        ideals = list(result.ideal_data.ideal_masks)
        points = list(result.points)
        rad = result.radicals.carrier.n
        expected = checks.scott_expected(p)
        expect(not checks.check_scott(p.label, expected, ideals, points, rad), f"{p.label}: package answer passes")
        rejects(checks.check_scott(p.label, expected, ideals[:-1], points, rad), f"{p.label}: a missing ideal")
        top = (1 << len(p.names)) - 1
        rejects(checks.check_scott(p.label, expected, ideals, points[1:] + [top], rad), f"{p.label}: the whole lattice as a point")
        rejects(checks.check_scott(p.label, expected, ideals, points, rad - 1), f"{p.label}: a wrong |Rad|")


def representability_cases(pf):
    workload = WORKLOADS["representability"](seed=0)
    items = [workload.items[1], inputs.chain(5)]  # Z/6, chain(5)
    catalog = pf.catalog.quantale_catalog()
    caps = pf.caps.Caps(max_exhaustive=20)
    for item in items:
        if isinstance(item, inputs.Semiring):
            data = pf.algebra.to_localic(
                pf.algebra.build_discrete_semiring(item.names, item.zero, item.one, item.add, item.mul)
            )
        else:
            lat = pf.order.lattice_structure(pf.order.FinitePoset(item.names, item.up))
            data = pf.algebra.scott_localic_lattice(lat)
        report = pf.spectrum.representability_check(data, catalog, caps)
        entries = {e.quantale_name: (e.hom_count, e.member_count) for e in report.semiring_entries}
        expected = checks.representability_expected(item)
        label = item.label
        expect(not checks.check_representability(label, expected, report.ok(), entries), f"{label}: package answer passes")
        rejects(checks.check_representability(label, expected, False, entries), f"{label}: report.ok() false")
        bumped = dict(entries, C4frame=(entries["C4frame"][0] + 1, entries["C4frame"][1]))
        rejects(checks.check_representability(label, expected, True, bumped), f"{label}: a wrong hom count")
        missing = {k: v for k, v in entries.items() if k != "P2frame"}
        rejects(checks.check_representability(label, expected, True, missing), f"{label}: a missing catalog entry")


def cli_cases():
    output, code = CliVerify._child()
    with open(os.path.join("models", "catalog.model"), encoding="utf-8") as fh:
        expected = checks.expected_verify_checks(fh.read())
    expect(sum(expected.values()) == checks.count_records(output), f"verify makes {sum(expected.values())} records")
    expect(not checks.check_verify_output([output, output], [code], expected), "verify output passes")
    rejects(checks.check_verify_output([output], [1], expected), "a nonzero exit code")
    failed = output.replace(b"... PASS", b"... FAIL (witness)", 1)
    rejects(checks.check_verify_output([failed], [0], expected), "a FAIL record")
    rejects(checks.check_verify_output([output, output + b" "], [0], expected), "outputs that differ between jobs")
    lines = output.split(b"\n")
    dropped = b"\n".join(line for i, line in enumerate(lines) if i != 1)
    rejects(checks.check_verify_output([dropped], [0], expected), "a missing record")


def benchmark_json():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json names the workloads")
    expect(
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END,
        "BENCHMARK.json end_to_end matches run.py",
    )
    expect(
        [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics(),
        "BENCHMARK.json per_layer matches run.py",
    )


def main():
    pf = package()
    zariski_cases(pf)
    scott_cases(pf)
    representability_cases(pf)
    cli_cases()
    benchmark_json()
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
