"""Command-line interface.

Subcommands:

    validate FILE                       parse + law-check every object
    analyze  FILE --object NAME         structural facts about one object
    spectrum FILE --object NAME --mode quantic|localic
    points   FILE --object NAME         prime anti-ideals as element sets
    verify   FILE [--suite ...]         run the verification suites
    export   FILE --object NAME [--what ...] --format dot|report --out PATH

Reports are deterministic: identical invocations produce byte-identical
output.  The exit code is 1 when a report holds a FAIL record, and 2 on an
error reported on stderr: a failed law outside a report, or a model file or
output path that cannot be used.
"""

import argparse
import functools
import sys
from itertools import product as iproduct

from .algebra import scott_localic_lattice, to_localic
from .caps import caps_from_env
from .catalog import quantale_catalog
from .dot import hasse_dot, quantale_dot
from .errors import CapExceeded, NotALattice, PfspecError
from .iso import find_lattice_iso
from .modelfile import BLOCK_KINDS, LatticeBlock, PosetBlock, SemiringBlock, parse_model, realize
from .oracles import hofmann_lawson_compare, stone_compare, zariski_compare
from .order import is_distributive, lattice_structure
from .report import FAIL, Report
from .spectrum import (
    count_saturated_opens,
    dualisability_conditions,
    ideal_quantale,
    idempotent_points,
    is_deflationary,
    opens_oracle,
    radical_frame,
    representability_check,
)
from .suplattice import all_supmaps, omega, tensor


def _argument_parser():
    parser = argparse.ArgumentParser(
        prog="pfspec",
        description="spectra of finite localic semirings, with exhaustive verification",
    )
    parser.add_argument("--max-exhaustive", type=int, default=None,
                        help="cap on subset-exhaustive searches (2**N states)")
    parser.add_argument("--max-tensor-carrier", type=int, default=None,
                        help="cap on materialized tensor product carriers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a model file and check all laws")
    p.add_argument("file")

    p = sub.add_parser("analyze", help="structural report for one object")
    p.add_argument("file")
    p.add_argument("--object", required=True)

    p = sub.add_parser("spectrum", help="quantic or localic spectrum of an object")
    p.add_argument("file")
    p.add_argument("--object", required=True)
    p.add_argument("--mode", choices=["quantic", "localic"], default="localic")

    p = sub.add_parser("points", help="prime anti-ideals of an object")
    p.add_argument("file")
    p.add_argument("--object", required=True)

    p = sub.add_parser("verify", help="run verification suites over a model file")
    p.add_argument("file")
    p.add_argument(
        "--suite",
        choices=["all", "tensor", "duality", "representability", "oracles"],
        default="all",
    )
    p.add_argument("--strict-caps", action="store_true",
                   help="treat SKIPPED(cap) records as failures")

    p = sub.add_parser("export", help="export a diagram or report to a file")
    p.add_argument("file")
    p.add_argument("--object", required=True)
    p.add_argument("--what", choices=["hasse", "quantic", "localic"], default="hasse")
    p.add_argument("--format", choices=["dot", "report"], default="dot")
    p.add_argument("--out", required=True)
    return parser


def _localic_data(model, name, caps, realised):
    """A model object as localic semiring/monoid data, built on the
    structure ``realised(name)`` gives (``realize`` on ``model``)."""
    block = model.get(name)
    if isinstance(block, PosetBlock):
        raise PfspecError(f"object {name!r} has no semiring structure to analyze")
    structure = realised(name)
    if isinstance(block, LatticeBlock):
        return scott_localic_lattice(structure, caps, name=name)
    # a semiring is realised with its order
    algebra = structure if isinstance(block, SemiringBlock) else (structure,)
    return to_localic(*algebra, caps=caps, name=name)


def _law_check(model, name):
    """Realize a model object; a semiring is also put on its order, which
    checks that its tables are monotone there."""
    structure = realize(model, name)
    if type(structure) is tuple:
        to_localic(*structure)


def cmd_validate(args, caps, out):
    model = parse_model(args.file)
    report = Report()
    kinds = {cls: kind for kind, (cls, _) in BLOCK_KINDS.items()}
    for block in model.blocks:
        name = block.name
        report.run("validate", f"{kinds[type(block)]} {name}", lambda n=name: _law_check(model, n))
    out.write(report.render())
    return report.exit_code()


def cmd_analyze(args, caps, out):
    model = parse_model(args.file)
    block = model.get(args.object)
    lines = [f"object: {args.object}"]
    if isinstance(block, PosetBlock):
        poset = realize(model, args.object)
        lines.append(f"kind: poset ({poset.n} elements, {len(poset.covers())} covers)")
        try:
            lat = lattice_structure(poset)
            flag, witness = is_distributive(lat)
            lines.append(f"lattice: yes, distributive: {'yes' if flag else f'no {witness}'}")
        except PfspecError as exc:
            lines.append(f"lattice: no ({exc})")
    elif isinstance(block, LatticeBlock):
        lat = realize(model, args.object)
        flag, witness = is_distributive(lat)
        ji = lat.join_irreducibles()
        lines.append(f"kind: lattice ({lat.n} elements)")
        lines.append(f"distributive: {'yes' if flag else f'no {witness}'}")
        lines.append(f"join-irreducibles: {' '.join(lat.names[p] for p in ji)}")
    else:
        data = _localic_data(model, args.object, caps, functools.partial(realize, model))
        kind = "semiring" if data.has_addition else "monoid"
        try:
            opens = len(data.locale.open_masks)
        except CapExceeded as exc:
            opens = exc.size  # the cap's estimate, as ">N"
        lines.append(f"kind: {kind} ({data.locale.points.n} points, {opens} opens)")
        lines.append(f"discrete: {'yes' if data.is_discrete() else 'no'}")
        # the monoid ideals are the complements of the saturated opens
        try:
            saturated = count_saturated_opens(data, caps)
        except CapExceeded as exc:
            saturated = exc.size
        lines.append(f"saturated opens: {saturated}")
        lines.append(f"deflationary: {'yes' if is_deflationary(data) else 'no'}")
        lines.append(f"monoid ideals: {saturated}")
        if data.has_addition:
            # the cap's size counts ideal sums tried or table cells, not
            # ideals, so it is printed with what it counts
            try:
                ideals = ideal_quantale(data, caps).ideals.carrier.n
            except CapExceeded as exc:
                ideals = f"capped ({exc})"
            lines.append(f"ideals: {ideals}")
    out.write("\n".join(lines) + "\n")
    return 0


def _covers(lat):
    return ["covers:"] + [f"  {lat.names[i]} -> {lat.names[j]}" for i, j in lat.covers()]


def _describe_quantale(q, title):
    lat = q.carrier
    lines = [f"{title}: {lat.n} elements", f"unit: {lat.names[q.unit]}", *_covers(lat), "mult:"]
    for a in range(lat.n):
        row = " ".join(lat.names[q.mul(a, b)] for b in range(lat.n))
        lines.append(f"  {lat.names[a]} | {row}")
    return lines


def cmd_spectrum(args, caps, out):
    model = parse_model(args.file)
    result = radical_frame(_localic_data(model, args.object, caps, functools.partial(realize, model)), caps)
    if args.mode == "quantic":
        lines = _describe_quantale(result.ideals, "quantic spectrum")
    else:
        lat = result.radicals.carrier
        lines = [f"localic spectrum: {lat.n} elements", *_covers(lat), f"points: {len(result.points)}"]
    out.write("\n".join(lines) + "\n")
    return 0


def cmd_points(args, caps, out):
    model = parse_model(args.file)
    data = _localic_data(model, args.object, caps, functools.partial(realize, model))
    masks = idempotent_points(data, "semiring" if data.has_addition else "monoid")
    lines = [f"points of {args.object}: {len(masks)}", *(f"  {data.locale.points.mask_name(m)}" for m in masks)]
    out.write("\n".join(lines) + "\n")
    return 0


def cmd_export(args, caps, out):
    model = parse_model(args.file)
    realised = functools.partial(realize, model)
    if args.what == "hasse":
        if args.format == "report":
            raise PfspecError("hasse export is DOT-only")
        if isinstance(model.get(args.object), (PosetBlock, LatticeBlock)):
            target = realised(args.object)
        else:
            target = _localic_data(model, args.object, caps, realised).locale.points
        text = hasse_dot(target, args.object)
    else:
        result = radical_frame(_localic_data(model, args.object, caps, realised), caps)
        q = result.ideals if args.what == "quantic" else result.radicals
        if args.format == "dot":
            text = quantale_dot(q, f"{args.object}-{args.what}")
        else:
            text = "\n".join(_describe_quantale(q, f"{args.what} spectrum")) + "\n"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    out.write(f"wrote {args.out}\n")
    return 0


# ---------------------------------------------------------------------------
# verification suites


def _suite_tensor(model, caps, report, realised, localic):
    for block in model.blocks:
        name = block.name
        if isinstance(block, PosetBlock):
            try:
                lat = lattice_structure(realised(name))
            except NotALattice:
                continue  # a poset that is no lattice has no tensor checks
            except PfspecError as exc:
                report.add("tensor", f"{name}: poset is realised", FAIL, str(exc))
                continue
            lattice = lambda lat=lat: lat
        elif isinstance(block, LatticeBlock):
            # realised inside each check, so that a failure is its record
            lattice = lambda n=name: realised(n)
        else:
            continue
        report.run(
            "tensor",
            f"{name}: L (x) Omega unitor",
            lambda lattice=lattice: _unitor_check(lattice(), caps),
        )
        report.run(
            "tensor",
            f"{name}: universal property count",
            lambda lattice=lattice: _universal_count_check(lattice(), caps),
        )


def _unitor_check(lat, caps):
    return find_lattice_iso(tensor([lat, omega()], caps), lat) is not None


def _universal_count_check(lat, caps):
    if 1 << (lat.n * 2) > caps.search_budget():
        raise CapExceeded("bilinear map enumeration", 1 << (lat.n * 2), caps.search_budget())
    om = omega()
    t = tensor([lat, om], caps)
    bilinear = 0
    for table in iproduct(range(2), repeat=lat.n * 2):
        fn = lambda ab: table[ab[0] * 2 + ab[1]]
        ok = all(fn((lat.bottom, b)) == 0 for b in range(2))
        ok = ok and all(fn((a, 0)) == 0 for a in range(lat.n))
        ok = ok and all(
            fn((lat.join(a, a2), b)) == max(fn((a, b)), fn((a2, b)))
            for a in range(lat.n)
            for a2 in range(lat.n)
            for b in range(2)
        )
        ok = ok and all(
            fn((a, 1)) >= fn((a, 0)) for a in range(lat.n)
        )
        if ok:
            bilinear += 1
    return bilinear == len(all_supmaps(t, om, caps)), (
        f"bilinear={bilinear}"
    )


def _suite_duality(model, caps, report, realised, localic):
    for block in model.blocks:
        if not isinstance(block, PosetBlock):
            name = block.name
            report.run(
                "duality",
                f"{name}: monoid ideals are the dual of the saturated opens",
                # the oracle raises on the first failed law
                lambda n=name: bool(opens_oracle(localic(n), caps)),
            )
            report.run(
                "duality",
                f"{name}: dualisability conditions agree",
                lambda n=name: dualisability_conditions(localic(n), caps).agree(),
            )


def _representability_outcome(data, caps):
    """(ok, witness): the witness names the first failing entry of
    ``representability_check`` over the quantale catalog."""
    failure = representability_check(data, quantale_catalog(), caps).failure()
    return failure is None, failure


def _suite_representability(model, caps, report, realised, localic):
    for block in model.blocks:
        if isinstance(block, (SemiringBlock, LatticeBlock)):
            name = block.name
            report.run(
                "representability",
                f"{name}: homs classify anti-ideals over the quantale catalog",
                lambda n=name: _representability_outcome(localic(n), caps),
            )


def _suite_oracles(model, caps, report, realised, localic):
    # each object is realised inside its checks, so that a failure is their
    # record
    for block in model.blocks:
        name = block.name
        if isinstance(block, SemiringBlock) and block.order == "discrete":
            report.run(
                "oracles",
                f"{name}: zariski brute force matches the pipeline",
                lambda n=name: zariski_compare(realised(n)[0], caps, name=n).ok(),
            )
        elif isinstance(block, LatticeBlock):
            report.run(
                "oracles",
                f"{name}: stone brute force matches the pipeline",
                lambda n=name: stone_compare(realised(n), caps, name=n).ok(),
            )
            report.run(
                "oracles",
                f"{name}: scott-topology spectrum returns the frame",
                lambda n=name: hofmann_lawson_compare(realised(n), caps, name=n).ok(),
            )


def cmd_verify(args, caps, out):
    model = parse_model(args.file)
    report = Report()
    suites = {
        "tensor": _suite_tensor,
        "duality": _suite_duality,
        "representability": _suite_representability,
        "oracles": _suite_oracles,
    }
    chosen = list(suites) if args.suite == "all" else [args.suite]
    # each object is realised once per run and its localic data built once;
    # a failed build is not cached, so every check on it records its own
    # failure
    realised = functools.cache(functools.partial(realize, model))
    localic = functools.cache(lambda name: _localic_data(model, name, caps, realised))
    for suite_name in chosen:
        suites[suite_name](model, caps, report, realised, localic)
    out.write(report.render())
    return report.exit_code(strict_caps=args.strict_caps)


def main(argv=None):
    parser = _argument_parser()
    args = parser.parse_args(argv)
    commands = {
        "validate": cmd_validate,
        "analyze": cmd_analyze,
        "spectrum": cmd_spectrum,
        "points": cmd_points,
        "verify": cmd_verify,
        "export": cmd_export,
    }
    try:
        caps = caps_from_env(args.max_tensor_carrier, args.max_exhaustive)
        return commands[args.command](args, caps, sys.stdout)
    except (PfspecError, OSError) as exc:
        # a failed law, or a model file or output path that cannot be used
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
