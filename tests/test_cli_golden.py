"""Golden tests for the command-line interface and the model-file printer.

Every subcommand runs on every object of every file in ``models/`` and must
reproduce the recorded output under ``tests/golden/`` byte for byte: the exit
code, standard output, standard error and, for ``export``, the written file.
After an intended change of output, record the files again with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest

from pfspec.caps import ENV_MAX_EXHAUSTIVE
from pfspec.cli import main
from pfspec.modelfile import (
    LatticeBlock,
    MonoidBlock,
    SemiringBlock,
    parse_model,
    parse_model_text,
    pretty_print,
)

ROOT = Path(__file__).resolve().parent.parent
MODELS = sorted((ROOT / "models").glob("*.model"))
GOLDEN = Path(__file__).resolve().parent / "golden"
OUT = "OUT"  # stands for the export path in argv and in recorded output


def _cases():
    """(golden file name, argv) for every invocation over ``models/``."""
    cases = []
    for path in MODELS:
        stem = path.stem
        cases.append((f"{stem}/validate", ["validate", str(path)]))
        cases.append((f"{stem}/verify", ["verify", str(path)]))
        for block in parse_model(path).blocks:
            name = block.name
            obj = [str(path), "--object", name]
            cases.append((f"{stem}/analyze-{name}", ["analyze", *obj]))
            cases.append((f"{stem}/export-{name}-hasse-dot", ["export", *obj, "--out", OUT]))
            if not isinstance(block, (SemiringBlock, MonoidBlock, LatticeBlock)):
                cases.append((
                    f"{stem}/export-{name}-hasse-report",
                    ["export", *obj, "--format", "report", "--out", OUT],
                ))
                continue
            for mode in ("quantic", "localic"):
                cases.append((f"{stem}/spectrum-{name}-{mode}", ["spectrum", *obj, "--mode", mode]))
                for fmt in ("dot", "report"):
                    cases.append((
                        f"{stem}/export-{name}-{mode}-{fmt}",
                        ["export", *obj, "--what", mode, "--format", fmt, "--out", OUT],
                    ))
            cases.append((f"{stem}/points-{name}", ["points", *obj]))
    return cases


CASES = _cases()


def _run(argv, out_dir):
    """Run the CLI once and render all it produced as one text: the exit
    code, standard output, standard error and any exported file."""
    out_path = out_dir / "export.out"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(out_path) if a == OUT else a for a in argv])
    text = f"exit {code}\n" + out.getvalue().replace(str(out_path), OUT)
    if err.getvalue():
        text += "--- stderr\n" + err.getvalue()
    if out_path.exists():
        text += "--- file\n" + out_path.read_text(encoding="utf-8")
        out_path.unlink()
    return text


@pytest.mark.parametrize("name, argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, argv, tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_MAX_EXHAUSTIVE, raising=False)
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert _run(argv, tmp_path) == expected


@pytest.mark.parametrize("path", MODELS, ids=[p.stem for p in MODELS])
def test_pretty_print_round_trip(path):
    model = parse_model(path)
    assert parse_model_text(pretty_print(model)) == model


def _record():
    os.environ.pop(ENV_MAX_EXHAUSTIVE, None)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES:
            target = GOLDEN / f"{name}.txt"
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(_run(argv, Path(tmp)), encoding="utf-8")
    print(f"recorded {len(CASES)} golden files under {GOLDEN}")


if __name__ == "__main__":
    _record()
