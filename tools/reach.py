"""Reachability audit: the lines of src/prymcert that no Tier-1 test runs.

    python3 tools/reach.py [pytest arguments]

Runs the test suite in this process under a line tracer (sys.settrace)
that records the lines of src/prymcert only, and prints every executable
line that no test reached and that ALLOWED does not excuse, as
path:line: source, and then every ALLOWED entry that excused no line, so
the list cannot outlive the code it names.  Exits 0 when both lists are
empty, 1 when either is not, and with pytest's exit code when the suite
itself fails.  It needs only
the standard library and pytest, takes well under a minute, and is run
by hand, not as part of Tier-1.  (The trace module is not used: its
ignore list is cached by module base name, so ignoring the standard
library's __init__.py files also drops prymcert/__init__.py.)
"""

from __future__ import annotations

import dis
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "prymcert"

# (function name or None, stripped source line or None, why no test must reach it)
ALLOWED = [
    ("entry_point", None, "the console script: tests run it only in a subprocess"),
    ("<module>", "entry_point()", "runs only when cli is the main module, in a subprocess"),
    (None, "return NotImplemented", "operator protocol: lets Python try the reflected operation"),
    ("__repr__", None, "a debugging aid; no verdict or output is built from it"),
]


def executable_lines(path: Path) -> "dict[int, str]":
    """Line number -> name of the innermost function whose bytecode starts a line there.

    A comprehension, generator expression or lambda counts as part of the
    function that contains it.
    """
    lines: dict[int, str] = {}
    pending = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "<module>")]
    while pending:
        code, function = pending.pop()
        if not code.co_name.startswith("<"):
            function = code.co_name
        for _, lineno in dis.findlinestarts(code):
            if lineno:  # a module's code starts at line 0, before any source line
                lines[lineno] = function
        pending.extend((c, function) for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def run_suite(argv: "list[str]") -> "tuple[int, set[tuple[str, int]]]":
    """pytest's exit code, and the (file, line) pairs of src/prymcert it executed."""
    import pytest

    prefix = str(PACKAGE) + "/"
    reached: set[tuple[str, int]] = set()

    def line(frame, event, _arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, _event, _arg):
        return line if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
    return int(code), reached


def excuses(function: str, source: str) -> "list[tuple[str | None, str | None, str]]":
    """The ALLOWED entries that excuse an unreached line of this function and source."""
    return [entry for entry in ALLOWED
            if (entry[0] is None or entry[0] == function)
            and (entry[1] is None or entry[1] == source)]


def main(argv: "list[str]") -> int:
    sys.path.insert(0, str(ROOT / "src"))
    code, traced = run_suite(argv)
    if code != 0:
        print(f"the test suite failed (pytest exit code {code})", file=sys.stderr)
        return code
    reached = {(Path(filename).resolve(), lineno) for filename, lineno in traced}
    unreached = []
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for lineno, function in sorted(executable_lines(path).items()):
            text = source[lineno - 1].strip()
            if (path, lineno) in reached:
                continue
            entries = excuses(function, text)
            used.update(entries)
            if not entries:
                unreached.append(f"{path.relative_to(ROOT)}:{lineno}: {text}")
    stale = [f"stale ALLOWED entry: {entry}" for entry in ALLOWED if entry not in used]
    print("\n".join(unreached) if unreached else "every executable line of src/ is reached")
    print("\n".join(stale) if stale else "every ALLOWED entry excuses a line")
    return 1 if unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
