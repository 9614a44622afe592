"""Command-line behaviour that the golden files do not pin down: how often
``verify`` realises an object, caps given by flag or environment, and a
failed check reported as a FAIL record."""

from collections import Counter
from pathlib import Path

import pfspec.cli
import pfspec.spectrum
from pfspec.caps import ENV_MAX_EXHAUSTIVE
from pfspec.cli import main
from pfspec.errors import PfspecError
from pfspec.suplattice import TensorElement, TensorSpace

MODELS = Path(__file__).resolve().parent.parent / "models"


def _count_realisations(monkeypatch, fail=()):
    calls = Counter()
    original = pfspec.cli._localic_data

    def counting(model, name, caps):
        calls[name] += 1
        if name in fail:
            raise PfspecError("refused")
        return original(model, name, caps)

    monkeypatch.setattr(pfspec.cli, "_localic_data", counting)
    return calls


def test_verify_realises_each_object_once(monkeypatch, capsys):
    calls = _count_realisations(monkeypatch)
    assert main(["verify", str(MODELS / "catalog.model")]) == 0
    assert calls and max(calls.values()) == 1, calls


def test_verify_does_not_cache_a_failed_realisation(monkeypatch, capsys):
    # Z4 has two duality checks and one representability check
    calls = _count_realisations(monkeypatch, fail={"Z4"})
    assert main(["verify", str(MODELS / "catalog.model")]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    assert len(failed) == 3 and all("Z4:" in line for line in failed), failed
    assert calls["Z4"] == 3


def test_malformed_environment_cap_is_an_error(monkeypatch, capsys):
    monkeypatch.setenv(ENV_MAX_EXHAUSTIVE, "abc")
    assert main(["validate", str(MODELS / "z4.model")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {ENV_MAX_EXHAUSTIVE}='abc' is not an integer\n"


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
