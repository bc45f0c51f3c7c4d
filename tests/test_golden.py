"""Byte-for-byte CLI artifacts of the bundled cases, against tests/golden/.

A change that moves an artifact on purpose regenerates the files with

    python tests/test_golden.py

and the git diff of tests/golden/ is then the list of moved values that the
change log explains. exit_codes.json holds each artifact's exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

if __name__ == "__main__":  # run as a script from a checkout: use its sources
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest

from pfcert.cli import main

from conftest import BUNDLED, DATA_DIR

GOLDEN = Path(__file__).resolve().with_name("golden")
EXIT_CODES = GOLDEN / "exit_codes.json"
SCALES = (0.5, 1.0, 1.5, 2.0, 2.5)
OUT = object()  # where an argument list takes the artifact's path


def artifacts() -> list[tuple[str, list]]:
    """(file name, pfcert arguments) of every golden artifact."""
    out = []
    for name in BUNDLED:
        case = ["--case", DATA_DIR / f"{name}.m"]
        for s in SCALES:
            out.append((f"{name}.certify.{s}.json", ["certify", *case, "--scale", s, "--out", OUT]))
            out.append((f"{name}.certify.{s}.known.json",
                        ["certify", *case, "--scale", s, "--known-solution", "--out", OUT]))
        out += [
            (f"{name}.limits.json", ["limits", *case, "--with-oracle", "--out", OUT]),
            (f"{name}.limits.known.json", ["limits", *case, "--with-oracle", "--known-solution", "--out", OUT]),
            (f"{name}.limits.solved.json", ["limits", *case, "--with-oracle", "--gen-phasors", "solved", "--out", OUT]),
            (f"{name}.solve.json", ["solve", *case, "--out", OUT]),
            (f"{name}.sweep.json", ["sweep", *case, "--with-oracle", "--points", 12, "--out", OUT]),
        ]
    out += [
        ("case39.bounds.4.json", ["bounds", "--case", DATA_DIR / "case39.m", "--bus", 4, "--with-oracle", "--out", OUT]),
        ("case9.bounds.5.solved.json", ["bounds", "--case", DATA_DIR / "case9.m", "--bus", 5, "--with-oracle",
                                        "--gen-phasors", "solved", "--out", OUT]),
    ]
    return out


def produce(args: list, path: Path) -> tuple[int, bytes]:
    """Run pfcert in-process, writing the artifact to path; its exit code and bytes."""
    code = main([str(path) if a is OUT else str(a) for a in args])
    return code, path.read_bytes()


ARTIFACTS = artifacts()


@pytest.mark.parametrize("name, args", ARTIFACTS, ids=[name for name, _ in ARTIFACTS])
def test_artifact_is_byte_identical(name, args, tmp_path):
    code, text = produce(args, tmp_path / name)
    assert text == (GOLDEN / name).read_bytes()
    assert code == json.loads(EXIT_CODES.read_text())[name]


def test_golden_set_has_no_orphans():
    """A removed artifact, or a removed command's, leaves no stale file or exit code behind."""
    names = {name for name, _ in ARTIFACTS}
    assert {path.name for path in GOLDEN.iterdir()} == names | {EXIT_CODES.name}
    assert set(json.loads(EXIT_CODES.read_text())) == names


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {name: produce(args, GOLDEN / name)[0] for name, args in ARTIFACTS}
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
