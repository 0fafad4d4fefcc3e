"""Which lines of ``src/ragvqa`` a pytest run never executes, with the
standard library only.

    python3 tools/linecov.py [pytest arguments]    (default: the tier-1 suite)

The line tracer is installed with ``sys.settrace`` (and ``threading.settrace``)
before pytest starts, so the package's import-time lines count too. Its
global function hands a local tracer only to frames whose code lives under
``src/ragvqa``; every other frame runs untraced. A file's executable lines are
the line numbers its compiled code objects list in ``co_lines``. The unrun
lines are printed per module, then their total. Tracing makes the run about
three times slower. Exits with pytest's status.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ragvqa"


def executable_lines(path: Path) -> set[int]:
    """Every line number that some code object compiled from ``path`` lists."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        # line None marks instructions without a line, 0 a module's entry
        lines.update(line for _start, _end, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the tracer; returns (exit status, file -> lines run)."""
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, _event, _arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    import pytest

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    status, ran = traced_run(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    total_executable = total_unrun = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        executable = executable_lines(path)
        unrun = sorted(executable - ran.get(str(path), set()))
        total_executable += len(executable)
        total_unrun += len(unrun)
        if unrun:
            print(f"{path.relative_to(ROOT)}: {len(unrun)} unrun: {', '.join(map(str, unrun))}")
    print(f"{total_unrun} of {total_executable} executable lines in "
          f"{PACKAGE.relative_to(ROOT)} never ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
