"""Report the src/pfcert lines that no golden command runs, and those that no test runs.

Imports every pfcert module under sys.settrace, then runs the 108 golden CLI
commands of tests/test_golden.py and, separately, the tier-1 test suite
(pytest.main, in this process) under the same tracer. For each of the two runs
it prints, per module, the executable lines (those the compiled module maps
bytecode to) that never ran, as line ranges; the lines that run at import count
as run by both. Code that no command reaches shows up in the first section:
either a command should reach it, or it can go. A line in the second section is
one no test checks: an error path or guard with no test, or dead code. Tests
that start a fresh interpreter are not traced.

    python scripts/unreached_lines.py
"""

import contextlib
import importlib
import io
import os
import pkgutil
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pfcert"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def executable_lines(path: Path) -> set[int]:
    """The lines the compiled module, its functions and classes map bytecode to."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes += [const for const in code.co_consts if hasattr(const, "co_lines")]
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as "a-b, c, ..." runs of consecutive numbers."""
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}-{b}" if a != b else f"{a}" for a, b in runs)


def traced(run):
    """Call run() under the tracer: its result, and the src/pfcert lines that ran per file."""
    ran: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(str(SRC)):
            return None  # no line events inside frames of other files
        ran.setdefault(path, set()).add(frame.f_lineno)
        return trace

    sys.settrace(trace)
    try:
        return run(), ran
    finally:
        sys.settrace(None)


def import_modules() -> None:
    """Import every pfcert module, so that the lines that run at import are traced once."""
    for info in pkgutil.iter_modules([str(SRC)]):
        importlib.import_module(f"pfcert.{info.name}")


def golden_commands() -> int:
    """Run the golden commands; their number."""
    from test_golden import ARTIFACTS, produce

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()):
        for name, args in ARTIFACTS:
            produce(args, Path(tmp) / name)
    return len(ARTIFACTS)


def tier1_suite() -> str:
    """Run the tier-1 suite quietly, with src on the PYTHONPATH of the processes it starts; its summary line."""
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")])
    return out.getvalue().strip().splitlines()[-1].strip("= ")


def report(title: str, ran: dict[str, set[int]]) -> None:
    print(title)
    total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - ran.get(str(path), set()))
        total += len(missed)
        print(f"- {path.name}: {len(missed)} of {len(lines)} lines" + (f": {ranges(missed)}" if missed else ""))
    print(f"Total: {total} lines")


def main() -> None:
    _, imported = traced(import_modules)
    commands, by_commands = traced(golden_commands)
    summary, by_tests = traced(tier1_suite)
    for ran in (by_commands, by_tests):
        for path, lines in imported.items():
            ran.setdefault(path, set()).update(lines)
    report(f"src/pfcert lines that none of the {commands} golden commands runs:", by_commands)
    print()
    report(f"src/pfcert lines that no tier-1 test runs ({summary}):", by_tests)


if __name__ == "__main__":
    main()
