"""Run the package tests in process under a line tracer; list the lines of src/ that never run.

    PYTHONPATH=src python tests/line_trace.py [pytest arguments]

The tracer is the standard library's own, sys.settrace and
threading.settrace (3.10 and 3.11 have no sys.monitoring), installed
before the package is imported, so module bodies count too.  It sees
this process only: lines that only subprocess tests or pool workers
reach are never run here.  An executable line is one that a code
object compiled from a module under src/branch_invariants maps an
instruction to; a function's `def` line counts once its module body
runs it.  The lines never run must equal UNRUN, entry for entry, in
both directions: new code that no test runs fails, and so does a listed
line that a test now runs.  Exits with pytest's code if a test fails,
1 if the lists differ, and 0 otherwise.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import Counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "branch_invariants")

# (module, function, the line as written, why no in-process test runs it)
UNRUN = [
    ("cli", "_stream", 'raise OSError(errno.EBADF, os.strerror(errno.EBADF), f"<{name}>")',
     "a process started with a standard stream closed: subprocess tests only"),
    ("cli", "_std_stream", "return stream",
     "--out naming the file behind fd 1 or fd 2: subprocess tests only"),
    ("cli", "_fail", "except OSError:  # a closed pipe, or an fd that is not open for writing",
     "a standard stream that refuses the error line: subprocess tests only"),
    ("cli", "_fail", "null = os.open(os.devnull, os.O_WRONLY)", "as the except line above"),
    ("cli", "_fail", "os.dup2(null, stream.fileno())", "as the except line above"),
    ("cli", "_fail", "os.close(null)", "as the except line above"),
    ("cli", "<module>", "sys.exit(main())", "python -m branch_invariants.cli: subprocess tests only"),
    ("combinatorics", "_generator_step", 'exact_div(acc, e, "generator accumulator")',
     "a fault check: the gcd chain divides every accumulator of a valid class"),
]


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def executable_lines(path: str) -> dict[int, str]:
    """Each executable line of the module at path, with the function it belongs to.

    A line that several code objects map to belongs to the innermost one,
    except a function's first line, which its enclosing body runs.
    """
    with open(path, encoding="utf-8") as f:
        module = compile(f.read(), path, "exec")
    owner: dict[int, str] = {}
    for code in _code_objects(module):
        name = getattr(code, "co_qualname", code.co_name)
        for _, _, line in code.co_lines():
            if line and not (code is not module and line == code.co_firstlineno):
                owner[line] = name if code is not module else "<module>"
    return owner


def main(args: list[str]) -> int:
    ran = {os.path.join(SRC, name): set() for name in os.listdir(SRC) if name.endswith(".py")}
    files: dict[str, set | None] = {}  # co_filename -> its module's lines run, or None

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            files[name] = ran.get(os.path.realpath(name))
        lines = files[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args or ["-q", "-p", "no:cacheprovider",
                                    "--continue-on-collection-errors", os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code:
        return code
    unrun = Counter()
    for path, lines in sorted(ran.items()):
        with open(path, encoding="utf-8") as f:
            source = f.read().splitlines()
        module = os.path.basename(path)[:-3]
        for line, function in sorted(executable_lines(path).items()):
            if line not in lines:
                unrun[module, function, source[line - 1].strip()] += 1
                print(f"never run: {module}.py:{line} in {function}: {source[line - 1].strip()}")
    listed = Counter(entry[:3] for entry in UNRUN)
    for entry in sorted((unrun - listed).elements()):
        print(f"FAIL never run and not in UNRUN: {entry}")
    for entry in sorted((listed - unrun).elements()):
        print(f"FAIL in UNRUN but run: {entry}")
    return 1 if unrun != listed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
