"""Report the src/pfcert lines that no golden command runs.

Runs the 107 golden CLI commands of tests/test_golden.py in this process, under
sys.settrace from before pfcert is imported, and prints for each module the
executable lines (those the compiled module maps bytecode to) that never ran,
as line ranges. Code that no command reaches shows up here: either a command
should reach it, or it can go. A line that only runs under a fault no golden
command has (an error path, a fallback) is listed too.

    python scripts/unreached_lines.py
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

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


def ran_lines() -> tuple[int, dict[str, set[int]]]:
    """Run the golden commands under the tracer: their number, and the src/pfcert lines that ran per file."""
    ran: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(str(SRC)):
            return None  # no line events inside frames of other files
        ran.setdefault(path, set()).add(frame.f_lineno)
        return trace

    sys.settrace(trace)
    try:
        from test_golden import ARTIFACTS, produce

        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()):
            for name, args in ARTIFACTS:
                produce(args, Path(tmp) / name)
    finally:
        sys.settrace(None)
    return len(ARTIFACTS), ran


def main() -> None:
    commands, ran = ran_lines()
    print(f"src/pfcert lines that none of the {commands} golden commands runs:")
    total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - ran.get(str(path), set()))
        total += len(missed)
        print(f"- {path.name}: {len(missed)} of {len(lines)} lines" + (f": {ranges(missed)}" if missed else ""))
    print(f"Total: {total} lines")


if __name__ == "__main__":
    main()
