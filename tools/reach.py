"""Tier-1 reach: the lines of ``src/hcspec`` that the test suite never runs.

Usage (from anywhere):

    python tools/reach.py [pytest arguments]

Runs the suite under ``tests/`` in this process with a ``sys.settrace`` line
recorder limited to ``src/hcspec``; extra arguments go to pytest.  A module's
executable lines are the lines of its code objects (``co_lines``), nested
functions and comprehensions included.  Every line never run is printed as
``file:line: text``, then a count.  Lines that may stay unrun are the bodies
of ``if TYPE_CHECKING:`` blocks and lines marked ``pragma: no cover``; they
are printed too, marked ``(allowed)``.

Exits with pytest's code when a test fails, otherwise 1 when an unrun line
lies outside that allowlist and 0 when none does.  The fresh-interpreter
tests of ``tests/test_import_graph.py`` run outside the recorder, so what
only they run counts as unrun.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hcspec"


def executable_lines(code) -> set[int]:
    """Line numbers of the instructions of ``code`` and its nested code objects."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def allowed_lines(source: str) -> set[int]:
    """Bodies of ``if TYPE_CHECKING:`` blocks and ``pragma: no cover`` lines."""
    allowed = {n for n, text in enumerate(source.splitlines(), 1) if "pragma: no cover" in text}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            for stmt in node.body:
                allowed.update(range(stmt.lineno, stmt.end_lineno + 1))
    return allowed


def main(argv: list[str]) -> int:
    modules = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    hits: dict[str, set[int]] = {name: set() for name in modules}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def recorder(frame, event, arg):
        return local if frame.f_code.co_filename in hits else None

    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(recorder)
    sys.settrace(recorder)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = unrun = blocking = 0
    for name, path in modules.items():
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        lines = executable_lines(compile(source, name, "exec"))
        allowed = allowed_lines(source)
        total += len(lines)
        for line in sorted(lines - hits[name]):
            unrun += 1
            mark = " (allowed)" if line in allowed else ""
            blocking += not mark
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}{mark}")
    print(f"{unrun} of {total} executable lines unrun, {blocking} outside the allowlist")
    if code != 0:
        return int(code)
    return 1 if blocking else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
