"""Command-line behaviour that the golden files do not pin down: how often
``verify`` realises an object, caps given by flag or environment, a failed
check, in the pipeline or in the opens oracle, reported as a FAIL record,
and ``analyze`` on a locale whose opens are too many to tabulate."""

import sys
import time
from collections import Counter
from copy import copy
from pathlib import Path

import pytest

import pfspec.algebra
import pfspec.cli
import pfspec.locale
import pfspec.order
import pfspec.quantale
import pfspec.spectrum
import pfspec.suplattice
from pfspec.caps import ENV_MAX_EXHAUSTIVE, Caps
from pfspec.cli import main
from pfspec.errors import PfspecError
from pfspec.modelfile import LatticeBlock, MonoidBlock, SemiringBlock, parse_model
from pfspec.report import PASS, Report
from pfspec.suplattice import SupMap, TensorElement, TensorSpace, omega

MODELS = Path(__file__).resolve().parent.parent / "models"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _count_realisations(monkeypatch, fail=()):
    calls = Counter()
    original = pfspec.cli._localic_data

    def counting(model, name, caps, realised):
        calls[name] += 1
        if name in fail:
            raise PfspecError("refused")
        return original(model, name, caps, realised)

    monkeypatch.setattr(pfspec.cli, "_localic_data", counting)
    return calls


def test_verify_realises_each_object_once(monkeypatch, capsys):
    calls = _count_realisations(monkeypatch)
    assert main(["verify", str(MODELS / "catalog.model")]) == 0
    assert calls and max(calls.values()) == 1, calls


def test_verify_realises_each_block_once(monkeypatch, capsys):
    # the tensor and oracle checks of a lattice, and the localic data of a
    # semiring or lattice, read one realisation of the block
    calls = Counter()
    original = pfspec.cli.realize

    def counting(model, name):
        calls[name] += 1
        return original(model, name)

    monkeypatch.setattr(pfspec.cli, "realize", counting)
    path = MODELS / "catalog.model"
    assert main(["verify", str(path)]) == 0
    assert calls == Counter(block.name for block in parse_model(path).blocks)


def test_verify_does_not_cache_a_failed_realisation(monkeypatch, capsys):
    # Z4 has two duality checks and one representability check
    calls = _count_realisations(monkeypatch, fail={"Z4"})
    assert main(["verify", str(MODELS / "catalog.model")]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    assert len(failed) == 3 and all("Z4:" in line for line in failed), failed
    assert calls["Z4"] == 3


BROKEN_OBJECTS = (
    "semiring BAD { elements: 0 1 ; zero: 0 ; one: 1 ; add: 0 1 1 0 ; mul: 0 0 0 0 ; order: discrete }\n"
    "lattice BADLAT { poset: VEE }\n"
)


def test_verify_keeps_every_record_when_an_object_fails_to_build(tmp_path, capsys):
    # BAD fails the unit law of its product and BADLAT's poset has no join
    # of x and y: each of their checks records the failure, and every check
    # of the catalog still runs
    path = tmp_path / "broken.model"
    path.write_text((MODELS / "catalog.model").read_text(encoding="utf-8") + BROKEN_OBJECTS, encoding="utf-8")
    assert main(["verify", str(path)]) == 1
    records = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
    golden = (GOLDEN / "catalog" / "verify.txt").read_text(encoding="utf-8").splitlines()
    broken = [line for line in records if "] BAD: " in line or "] BADLAT: " in line]
    assert [line for line in records if line not in broken] == [line for line in golden if line.startswith("[")]
    assert len(broken) == 11
    for line in broken:
        law = "mul unit violated at 1" if "] BAD: " in line else "no join for pair ('x', 'y')"
        assert line.endswith(f"... FAIL ({law})"), line


def test_verify_records_a_poset_that_fails_to_build(tmp_path, capsys):
    # a poset that is no lattice has no tensor checks, but one that is no
    # poset at all is a FAIL, as under validate
    path = tmp_path / "cycle.model"
    path.write_text("poset CYC { elements: a b ; leq: a<=b b<=a }\n", encoding="utf-8")
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "[tensor] CYC: poset is realised ... FAIL ('a' and 'b' are mutually related)" in out
    assert "total: 1  pass: 0  fail: 1  skipped: 0" in out


def test_validate_checks_a_semiring_on_its_order(tmp_path, capsys):
    # Z/2 is a semiring, but x + 1 is not monotone on 0 <= 1
    path = tmp_path / "ordered.model"
    path.write_text(
        "poset T { elements: 0 1 ; leq: 0<=1 }\n"
        "semiring Z2 { elements: 0 1 ; zero: 0 ; one: 1 ; add: 0 1 1 0 ; mul: 0 0 0 1 ; order: T }\n",
        encoding="utf-8",
    )
    assert main(["validate", str(path)]) == 1
    assert "[validate] semiring Z2 ... FAIL (map not monotone at ('1', '0', '1'): add)" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["BAD", "CYC"])
def test_hasse_report_export_is_refused_before_the_object_is_built(tmp_path, capsys, name):
    # BAD fails the unit law of its product and CYC is no poset: neither
    # failure is reached, since no hasse export is a report
    path = tmp_path / "broken.model"
    cycle = "poset CYC { elements: a b ; leq: a<=b b<=a }\n"
    path.write_text((MODELS / "catalog.model").read_text(encoding="utf-8") + BROKEN_OBJECTS + cycle, encoding="utf-8")
    target = tmp_path / "hasse.txt"
    argv = ["export", str(path), "--object", name, "--what", "hasse", "--format", "report", "--out", str(target)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: hasse export is DOT-only\n")
    assert not target.exists()


@pytest.mark.parametrize("mode", ["quantic", "localic"])
def test_monoid_spectrum_checks_the_points_against_rad(monkeypatch, capsys, mode):
    # a monoid's spectrum is built by radical_frame, as a semiring's is: a
    # monoid-mode point list that misses a point disagrees with the primes
    # of Rad(MM(R))
    original = pfspec.spectrum.idempotent_points

    def one_short(data, mode):
        found = original(data, mode)
        return found[1:] if mode == "monoid" else found

    monkeypatch.setattr(pfspec.spectrum, "idempotent_points", one_short)
    code = main(["spectrum", str(MODELS / "catalog.model"), "--object", "NIL2", "--mode", mode])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: points of Rad(R) are the prime anti-ideals violated at "), err


def test_a_missing_model_file_is_an_error(capsys):
    assert main(["validate", "/nonexistent.model"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: [Errno 2] No such file or directory: '/nonexistent.model'\n"


def test_an_unwritable_output_path_is_an_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.dot"
    assert main(["export", str(MODELS / "z4.model"), "--object", "Z4", "--out", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"


def test_a_model_file_that_is_not_utf8_is_an_error(tmp_path, capsys):
    # the file, and the line and column of the first bad byte, as a parse
    # error gives them: characters, not bytes, before it on its line
    path = tmp_path / "latin1.model"
    path.write_bytes("monoid M\xc9 { elements: 1 ; one: 1 ; mul: 1 }\n".encode("latin-1"))
    assert main(["validate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: byte 0xc9 is not UTF-8 (line 1, column 9)\n"
    path.write_bytes(b"# \xc3\xa9t\xc3\xa9\r\nmonoid M {\n  elements: \xc9 1\n")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: byte 0xc9 is not UTF-8 (line 3, column 13)\n"


def test_malformed_environment_cap_is_an_error(monkeypatch, capsys):
    monkeypatch.setenv(ENV_MAX_EXHAUSTIVE, "abc")
    assert main(["validate", str(MODELS / "z4.model")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {ENV_MAX_EXHAUSTIVE}='abc' is not an integer\n"


def test_caps_are_immutable_and_hashable():
    caps = Caps(max_exhaustive=17)
    assert caps == Caps(24, 17) and hash(caps) == hash(Caps(24, 17))
    assert caps != Caps() and len({caps, Caps(24, 17), Caps()}) == 2
    with pytest.raises(AttributeError):
        caps.max_exhaustive = 20
    assert caps.max_exhaustive == 17


def test_each_report_owns_its_record_list():
    first, second = Report(), Report()
    assert first.records is not second.records
    first.add("suite", "check", PASS)
    assert len(first.records) == 1 and second.records == []


def test_negative_cap_flag_is_an_error(monkeypatch, capsys):
    monkeypatch.delenv(ENV_MAX_EXHAUSTIVE, raising=False)
    assert main(["--max-exhaustive", "-1", "verify", str(MODELS / "z4.model")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --max-exhaustive=-1 is negative; a cap must be at least 0\n"


def test_verify_reports_a_broken_cross_check_as_fail(monkeypatch, capsys):
    def empty_element(quantale, locale, g):
        return TensorElement(TensorSpace((quantale.carrier, locale.opens)), 0)

    monkeypatch.setattr(pfspec.spectrum, "element_of_map", empty_element)
    assert main(["verify", str(MODELS / "z4.model")]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    assert failed and all("universal element map form violated" in line for line in failed), failed


def test_verify_reports_points_off_rad_as_fail(monkeypatch, capsys):
    # a universal element at the top ideal gives points other than the
    # search's; representability reads the same element, and its images
    # are no anti-ideals, which the witness names for the first quantale
    monkeypatch.setattr(
        pfspec.spectrum,
        "universal_element",
        lambda data, iq: (iq.ideals.carrier.top,) * data.locale.points.n,
    )
    assert main(["verify", str(MODELS / "z4.model")]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    assert failed == [
        "[representability] Z4: homs classify anti-ideals over the quantale catalog ... "
        "FAIL (semiring Omega: all_images_members)",
        "[oracles] Z4: zariski brute force matches the pipeline ... "
        "FAIL (points of Rad(R) are the prime anti-ideals violated at {1,3})",
    ]


def _bottom_positivity(locale):
    return SupMap(locale.opens, omega(), [0] * locale.opens.n)


def _bottom_counit(data, table, unit_point):
    opens = data.locale.opens
    return SupMap(opens, opens, [opens.bottom] * opens.n)


def _down_sets_as_saturated(classes, caps):
    # the class down-sets in place of the up-sets: the classes still pass
    # their check, but most of these masks are no saturated opens
    return classes.order.opposite().up_sets()


_monoid_ideal_quantale = pfspec.spectrum.monoid_ideal_quantale


def _unit_at_bottom(data, caps):
    # MM(R) with its unit moved from the top, the complement of the empty
    # saturated open, to the bottom
    mi = _monoid_ideal_quantale(data, caps)
    mm = copy(mi.monoid_ideals)
    mm.unit = mm.carrier.bottom
    return mi._replace(monoid_ideals=mm)


def _identity_closure(carrier, allowed):
    # the closure onto every element, whatever the fixed points asked for
    return pfspec.order.ClosureOperator(carrier, carrier.full)


BROKEN_OPENS_CHECKS = [
    ("positivity adjunction", pfspec.locale.FiniteLocale, "positivity", property(_bottom_positivity)),
    ("mul counit on opens", pfspec.spectrum, "_counit_composite", _bottom_counit),
    ("saturated opens are the closure's fixed points", pfspec.algebra.HoloidClasses, "up_sets", _down_sets_as_saturated),
    ("monoid ideals are the complements of the saturated opens", pfspec.spectrum, "_absorb", lambda data, mask: mask),
    ("monoid-ideal/saturated duality", pfspec.spectrum, "monoid_ideal_quantale", _unit_at_bottom),
    ("saturation is a closure", pfspec.spectrum, "ClosureOperator", _identity_closure),
]


@pytest.mark.parametrize(
    "law, owner, attr, broken", BROKEN_OPENS_CHECKS, ids=[c[0] for c in BROKEN_OPENS_CHECKS]
)
def test_verify_reports_a_broken_opens_check_as_fail(monkeypatch, capsys, law, owner, attr, broken):
    monkeypatch.setattr(owner, attr, broken)
    assert main(["verify", "--suite", "duality", str(MODELS / "z4.model")]) == 1
    lines = capsys.readouterr().out.splitlines()
    record = next(line for line in lines if "monoid ideals are the dual of the saturated opens" in line)
    assert record.startswith("[duality] Z4: ") and f"... FAIL ({law} violated at " in record, record


def test_duality_suite_builds_each_saturated_frame_once(monkeypatch, capsys):
    # the opens oracle and the dualisability conditions share the frame of
    # saturated opens that the object's classes keep; MM(R) is built once
    built = Counter()
    original = pfspec.spectrum.family_lattice

    def counting(*args, **kwargs):
        # the quantales are tabulated by _class_quantale: count its caller
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_class_quantale":
            caller = caller.f_back
        built[caller.f_code.co_name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(pfspec.spectrum, "family_lattice", counting)
    assert main(["verify", "--suite", "duality", str(MODELS / "catalog.model")]) == 0
    # 13 monoids, semirings and lattices; Idl(R) once for each of the 7
    # semirings and lattices
    assert built == {"saturation": 13, "monoid_ideal_quantale": 13, "ideal_quantale": 7}


def _zmod_model(tmp_path, n):
    """A model file holding the discrete semiring Z/n as the object Zn."""
    elements = " ".join(str(i) for i in range(n))
    add = " ".join(str((i + j) % n) for i in range(n) for j in range(n))
    mul = " ".join(str(i * j % n) for i in range(n) for j in range(n))
    path = tmp_path / f"z{n}.model"
    path.write_text(
        f"semiring Z{n} {{ elements: {elements} ; zero: 0 ; one: 1 ; "
        f"add: {add} ; mul: {mul} ; order: discrete }}\n",
        encoding="utf-8",
    )
    return path


def test_analyze_counts_the_opens_without_their_tables(tmp_path, capsys):
    # 2**16 opens: counting them is cheap, their 2**32-entry tables are not
    assert main(["analyze", str(_zmod_model(tmp_path, 16)), "--object", "Z16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "kind: semiring (16 points, 65536 opens)"
    assert lines[-1] == "ideals: 5"


def test_analyze_prints_the_estimate_of_opens_past_the_cap(capsys):
    # Z6 has 64 opens, past a cap of 2**5: the kind line gives the cap's
    # estimate and every other line is the golden one
    assert main(["--max-exhaustive", "5", "analyze", str(MODELS / "catalog.model"), "--object", "Z6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    golden = (GOLDEN / "catalog" / "analyze-Z6.txt").read_text(encoding="utf-8").splitlines()[1:]
    assert lines[1] == "kind: semiring (6 points, >32 opens)"
    assert lines[:1] + lines[2:] == golden[:1] + golden[2:]
    assert lines[-1] == "ideals: 4"


def test_analyze_prints_the_estimate_of_saturated_opens_past_the_cap(capsys):
    # Z6 has 6 saturated opens, past a cap of 2**2: their line and the
    # monoid ideals' give the cap's estimate, as the opens line does
    assert main(["--max-exhaustive", "2", "analyze", str(MODELS / "catalog.model"), "--object", "Z6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    golden = (GOLDEN / "catalog" / "analyze-Z6.txt").read_text(encoding="utf-8").splitlines()[1:]
    assert [lines[k] for k in (1, 3, 5)] == ["kind: semiring (6 points, >4 opens)", "saturated opens: >4", "monoid ideals: >4"]
    assert [lines[k] for k in (0, 2, 4, 6)] == [golden[k] for k in (0, 2, 4, 6)]


def test_analyze_prints_the_estimate_of_ideals_past_the_cap(capsys):
    # at a cap of 2**1 the ideal enumeration tries 3 ideal sums: the ideals
    # line names that estimate, what it counts and the cap, and the run
    # exits 0, the other lines as past the saturated opens' cap
    assert main(["--max-exhaustive", "1", "analyze", str(MODELS / "catalog.model"), "--object", "Z6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    golden = (GOLDEN / "catalog" / "analyze-Z6.txt").read_text(encoding="utf-8").splitlines()[1:]
    assert lines[6] == "ideals: capped (ideal enumeration: size 3 exceeds cap 2)"
    assert [lines[k] for k in (1, 3, 5)] == ["kind: semiring (6 points, >2 opens)", "saturated opens: >2", "monoid ideals: >2"]
    assert [lines[k] for k in (0, 2, 4)] == [golden[k] for k in (0, 2, 4)]


def test_duality_suite_on_z13_reaches_both_table_caps(tmp_path, capsys):
    # 2**13 opens, whose 2**26-cell tables pass the cap: both records are
    # skipped there, and the pointwise bound before the second one walks
    # the opens against the 13 points, not against the 2**13 down-sets
    assert main(["verify", "--suite", "duality", str(_zmod_model(tmp_path, 13))]) == 0
    skipped = "SKIPPED (cap: lattice join and meet tables: size 67108864 exceeds cap 1048576)"
    assert capsys.readouterr().out.splitlines()[1:3] == [
        f"[duality] Z13: monoid ideals are the dual of the saturated opens ... {skipped}",
        f"[duality] Z13: dualisability conditions agree ... {skipped}",
    ]


def test_oracles_suite_skips_the_subsets_past_the_cap_before_any_work(tmp_path, capsys):
    # 2**17 subsets of Z/17 pass the default budget of 2**16: the record is
    # skipped before the pipeline or the brute force runs, and only
    # --strict-caps fails on it
    path = str(_zmod_model(tmp_path, 17))
    start = time.perf_counter()
    assert main(["verify", "--suite", "oracles", path]) == 0
    assert time.perf_counter() - start < 1.0
    skipped = "SKIPPED (cap: ideal subset enumeration: size 131072 exceeds cap 65536)"
    assert capsys.readouterr().out.splitlines()[1] == f"[oracles] Z17: zariski brute force matches the pipeline ... {skipped}"
    assert main(["verify", "--strict-caps", "--suite", "oracles", path]) == 1


def _refuse(*args, **kwargs):
    raise AssertionError("analyze tabulated the saturated frame or MM(R)")


@pytest.mark.parametrize("path", sorted(MODELS.glob("*.model")), ids=lambda p: p.stem)
def test_analyze_counts_the_saturated_opens_without_building_them(monkeypatch, capsys, path):
    # the golden bytes, with the saturated frame and MM(R) refused by name,
    # in the pipeline and in the CLI's own imports, and no family of masks
    # tabulated that is larger than Idl(R)
    for module in (pfspec.spectrum, pfspec.cli):
        for name in ("saturation", "monoid_ideal_quantale"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _refuse)
    sizes = []
    family = pfspec.order.family_lattice
    for module in (pfspec.order, pfspec.locale, pfspec.spectrum):
        monkeypatch.setattr(
            module,
            "family_lattice",
            lambda masks, *args, **kwargs: sizes.append(len(masks)) or family(masks, *args, **kwargs),
        )
    model = parse_model(path)
    objects = [b.name for b in model.blocks if isinstance(b, (MonoidBlock, SemiringBlock, LatticeBlock))]
    assert objects
    for name in objects:
        sizes.clear()
        code = main(["analyze", str(path), "--object", name])
        out = capsys.readouterr().out
        golden = GOLDEN / path.stem / f"analyze-{name}.txt"
        assert f"exit {code}\n" + out == golden.read_text(encoding="utf-8"), name
        ideals = sum(int(line.split()[1]) for line in out.splitlines() if line.startswith("ideals: "))
        assert all(size <= ideals for size in sizes), (name, sizes, ideals)


def _no_search(*args, **kwargs):
    raise AssertionError("monotone_search was called")


@pytest.mark.parametrize("name", ["Z4", "C3L", "NIL2"])
def test_spectrum_and_points_run_no_search(monkeypatch, capsys, name):
    # radical_frame and the points command read the points of a semiring,
    # a lattice or a monoid off the idempotent classes, with no search
    for module in (pfspec.spectrum, pfspec.quantale, pfspec.suplattice):
        monkeypatch.setattr(module, "monotone_search", _no_search)
    for argv, golden in (
        (["spectrum", "--mode", "localic"], f"spectrum-{name}-localic.txt"),
        (["points"], f"points-{name}.txt"),
    ):
        code = main([*argv, str(MODELS / "catalog.model"), "--object", name])
        assert f"exit {code}\n" + capsys.readouterr().out == (GOLDEN / "catalog" / golden).read_text(encoding="utf-8")


def test_points_run_past_the_search_cap(capsys):
    # the Omega search on Z6 passes a budget of 2**3 nodes; the points
    # command reads the same two points off the classes
    assert main(["--max-exhaustive", "3", "points", str(MODELS / "catalog.model"), "--object", "Z6"]) == 0
    golden = (GOLDEN / "catalog" / "points-Z6.txt").read_text(encoding="utf-8")
    assert "exit 0\n" + capsys.readouterr().out == golden
