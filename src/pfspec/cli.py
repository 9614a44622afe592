"""Command-line interface.

Subcommands:

    validate FILE                       parse + law-check every object
    analyze  FILE --object NAME         structural facts about one object
    spectrum FILE --object NAME --mode quantic|localic
    points   FILE --object NAME         prime anti-ideals as element sets
    verify   FILE [--suite ...]         run the verification suites
    export   FILE --object NAME [--what ...] --format dot|report --out PATH

Reports are deterministic: identical invocations produce byte-identical
output (timings are measured but never rendered).
"""

import argparse
import sys

from .algebra import monoid_to_localic, scott_localic_lattice, to_localic
from .caps import caps_from_env
from .dot import hasse_dot, quantale_dot
from .errors import PfspecError
from .iso import find_lattice_iso
from .modelfile import (
    LatticeBlock,
    MonoidBlock,
    PosetBlock,
    SemiringBlock,
    parse_model,
    realize_lattice,
    realize_monoid,
    realize_poset,
    realize_semiring,
)
from .oracles import hofmann_lawson_compare, stone_compare, zariski_compare
from .order import is_distributive, lattice_structure
from .quantale import localic_reflection
from .report import Report
from .spectrum import (
    anti_ideals,
    dualisability_conditions,
    ideal_quantale,
    monoid_ideal_quantale,
    omega_quantale,
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


def _localic_data(model, name, caps):
    """Realize a model object as localic semiring/monoid data."""
    block = model.get(name)
    if isinstance(block, SemiringBlock):
        semiring, order = realize_semiring(model, name)
        return to_localic(semiring, order=order, caps=caps, name=name), "semiring"
    if isinstance(block, MonoidBlock):
        return monoid_to_localic(realize_monoid(model, name), caps=caps, name=name), "monoid"
    if isinstance(block, LatticeBlock):
        lat = realize_lattice(model, name)
        return scott_localic_lattice(lat, caps, name=name), "lattice"
    raise PfspecError(f"object {name!r} has no semiring structure to analyze")


def _spectrum_quantales(data, kind, caps):
    """(quantic, localic) spectra for the object kind."""
    if kind == "monoid":
        mi = monoid_ideal_quantale(data, caps)
        quantic = mi.monoid_ideals
        localic, _ = localic_reflection(quantic)
        return quantic, localic
    result = radical_frame(data, caps)
    return result.ideals, result.radicals


def cmd_validate(args, caps, out):
    model = parse_model(args.file)
    report = Report()
    for block in model.blocks:
        name = block.name
        if isinstance(block, PosetBlock):
            report.run("validate", f"poset {name}", lambda n=name: bool(realize_poset(model, n)) or True)
        elif isinstance(block, LatticeBlock):
            report.run("validate", f"lattice {name}", lambda n=name: bool(realize_lattice(model, n)) or True)
        elif isinstance(block, MonoidBlock):
            report.run("validate", f"monoid {name}", lambda n=name: bool(realize_monoid(model, n)) or True)
        elif isinstance(block, SemiringBlock):
            report.run("validate", f"semiring {name}", lambda n=name: bool(_localic_data(model, n, caps)[0]) or True)
    out.write(report.render())
    return report.exit_code()


def cmd_analyze(args, caps, out):
    model = parse_model(args.file)
    block = model.get(args.object)
    lines = [f"object: {args.object}"]
    if isinstance(block, PosetBlock):
        poset = realize_poset(model, args.object)
        lines.append(f"kind: poset ({poset.n} elements, {len(poset.covers())} covers)")
        try:
            lat = lattice_structure(poset)
            flag, witness = is_distributive(lat)
            lines.append(f"lattice: yes, distributive: {'yes' if flag else f'no {witness}'}")
        except PfspecError as exc:
            lines.append(f"lattice: no ({exc})")
    elif isinstance(block, LatticeBlock):
        lat = realize_lattice(model, args.object)
        flag, witness = is_distributive(lat)
        ji = lat.join_irreducibles()
        lines.append(f"kind: lattice ({lat.n} elements)")
        lines.append(f"distributive: {'yes' if flag else f'no {witness}'}")
        lines.append(f"join-irreducibles: {' '.join(lat.names[p] for p in ji)}")
    else:
        data, kind = _localic_data(model, args.object, caps)
        pts = data.locale.points
        lines.append(f"kind: {kind} ({pts.n} points, {data.locale.opens.n} opens)")
        lines.append(f"discrete: {'yes' if data.is_discrete() else 'no'}")
        from .spectrum import saturation

        sat = saturation(data, caps)
        lines.append(f"saturated opens: {sat.saturated.n}")
        lines.append(f"deflationary: {'yes' if sat.deflationary else 'no'}")
        mi = monoid_ideal_quantale(data, caps)
        lines.append(f"monoid ideals: {mi.monoid_ideals.carrier.n}")
        if data.has_addition:
            iq = ideal_quantale(data, caps)
            lines.append(f"ideals: {iq.ideals.carrier.n}")
    out.write("\n".join(lines) + "\n")
    return 0


def _describe_quantale(q, title):
    lat = q.carrier
    lines = [f"{title}: {lat.n} elements"]
    lines.append(f"unit: {lat.names[q.unit]}")
    lines.append("covers:")
    for i, j in lat.covers():
        lines.append(f"  {lat.names[i]} -> {lat.names[j]}")
    lines.append("mult:")
    for a in range(lat.n):
        row = " ".join(lat.names[q.mul(a, b)] for b in range(lat.n))
        lines.append(f"  {lat.names[a]} | {row}")
    return lines


def cmd_spectrum(args, caps, out):
    model = parse_model(args.file)
    data, kind = _localic_data(model, args.object, caps)
    quantic, localic = _spectrum_quantales(data, kind, caps)
    if args.mode == "quantic":
        lines = _describe_quantale(quantic, "quantic spectrum")
    else:
        lat = localic.carrier
        lines = [f"localic spectrum: {lat.n} elements"]
        lines.append("covers:")
        for i, j in lat.covers():
            lines.append(f"  {lat.names[i]} -> {lat.names[j]}")
        mode = "monoid" if kind == "monoid" else "semiring"
        points = anti_ideals(data, omega_quantale(), mode, caps)
        lines.append(f"points: {len(points.maps)}")
    out.write("\n".join(lines) + "\n")
    return 0


def cmd_points(args, caps, out):
    model = parse_model(args.file)
    data, kind = _localic_data(model, args.object, caps)
    mode = "monoid" if kind == "monoid" else "semiring"
    result = anti_ideals(data, omega_quantale(), mode, caps)
    pts = data.locale.points
    lines = [f"points of {args.object}: {len(result.maps)}"]
    for g in result.maps:
        mask = sum(1 << x for x in range(pts.n) if g[x])
        lines.append(f"  {pts.mask_name(mask)}")
    out.write("\n".join(lines) + "\n")
    return 0


def cmd_export(args, caps, out):
    model = parse_model(args.file)
    block = model.get(args.object)
    if args.what == "hasse":
        if isinstance(block, PosetBlock):
            target = realize_poset(model, args.object)
            text = hasse_dot(target, args.object)
        elif isinstance(block, LatticeBlock):
            text = hasse_dot(realize_lattice(model, args.object), args.object)
        else:
            data, _ = _localic_data(model, args.object, caps)
            text = hasse_dot(data.locale.points, args.object)
        if args.format == "report":
            raise PfspecError("hasse export is DOT-only")
    else:
        data, kind = _localic_data(model, args.object, caps)
        quantic, localic = _spectrum_quantales(data, kind, caps)
        q = quantic if args.what == "quantic" else localic
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


def _suite_tensor(model, caps, report):
    om = omega()
    for block in model.blocks:
        name = block.name
        if isinstance(block, (PosetBlock, LatticeBlock)):
            if isinstance(block, LatticeBlock):
                lat = realize_lattice(model, name)
            else:
                try:
                    lat = lattice_structure(realize_poset(model, name))
                except PfspecError:
                    continue
            report.run(
                "tensor",
                f"{name}: L (x) Omega unitor",
                lambda lat=lat: find_lattice_iso(tensor([lat, om], caps), lat) is not None,
            )
            report.run(
                "tensor",
                f"{name}: universal property count",
                lambda lat=lat: _universal_count_check(lat, caps),
            )


def _universal_count_check(lat, caps):
    from itertools import product as iproduct

    from .errors import CapExceeded

    if 1 << (lat.n * 2) > caps.search_budget():
        raise CapExceeded("bilinear map enumeration", 1 << (lat.n * 2), caps.search_budget())
    t = tensor([lat, om_small := omega()], caps)
    target = om_small
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
    return bilinear == len(all_supmaps(t, target, caps)), (
        f"bilinear={bilinear}"
    )


def _suite_duality(model, caps, report):
    for block in model.blocks:
        if isinstance(block, (MonoidBlock, SemiringBlock, LatticeBlock)):
            name = block.name
            report.run(
                "duality",
                f"{name}: monoid ideals are the dual of the saturated opens",
                lambda n=name: monoid_ideal_quantale(
                    _localic_data(model, n, caps)[0], caps
                ).duality.ok(),
            )
            report.run(
                "duality",
                f"{name}: dualisability conditions agree",
                lambda n=name: dualisability_conditions(
                    _localic_data(model, n, caps)[0], caps
                ).agree(),
            )


def _suite_representability(model, caps, report):
    from .catalog import quantale_catalog

    for block in model.blocks:
        if isinstance(block, (SemiringBlock, LatticeBlock)):
            name = block.name
            report.run(
                "representability",
                f"{name}: homs classify anti-ideals over the quantale catalog",
                lambda n=name: representability_check(
                    _localic_data(model, n, caps)[0], quantale_catalog(), caps
                ).ok(),
            )


def _suite_oracles(model, caps, report):
    for block in model.blocks:
        name = block.name
        if isinstance(block, SemiringBlock):
            semiring, order = realize_semiring(model, name)
            if order is None:
                report.run(
                    "oracles",
                    f"{name}: zariski brute force matches the pipeline",
                    lambda s=semiring, n=name: zariski_compare(s, caps, name=n).ok(),
                )
        elif isinstance(block, LatticeBlock):
            lat = realize_lattice(model, name)
            report.run(
                "oracles",
                f"{name}: stone brute force matches the pipeline",
                lambda l=lat, n=name: stone_compare(l, caps, name=n).ok(),
            )
            report.run(
                "oracles",
                f"{name}: scott-topology spectrum returns the frame",
                lambda l=lat, n=name: hofmann_lawson_compare(l, caps, name=n).ok(),
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
    for suite_name in chosen:
        suites[suite_name](model, caps, report)
    out.write(report.render())
    return report.exit_code(strict_caps=args.strict_caps)


def main(argv=None):
    parser = _argument_parser()
    args = parser.parse_args(argv)
    caps = caps_from_env(args.max_tensor_carrier, args.max_exhaustive)
    commands = {
        "validate": cmd_validate,
        "analyze": cmd_analyze,
        "spectrum": cmd_spectrum,
        "points": cmd_points,
        "verify": cmd_verify,
        "export": cmd_export,
    }
    try:
        return commands[args.command](args, caps, sys.stdout)
    except PfspecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
