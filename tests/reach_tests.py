"""Which lines of src/fsorf does no test run?

Runs `pytest tests` in this process under a line tracer (sys.settrace,
and threading.settrace for the pool threads; coverage is not a
dependency), then prints each executable line of src/fsorf that no test
ran, as runs of consecutive lines with the first line's text.  A line
is executable when the compiler gives it bytecode, so a `def` or
`class` line counts as run once its module is imported.

Lines run only in a subprocess are not traced: the tests that start
`fsorf` or a probe interpreter as a child process see their lines run
there, and this list names them anyway.  tests/reach_cli.py traces the
CLI sweeps themselves.

The file has no test_ prefix, so pytest does not collect it.  Run it
from the repository root; it takes about a minute on two cores:

    python tests/reach_tests.py [extra pytest arguments]
"""

import sys
import threading
from itertools import groupby
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fsorf"


def executable_lines(path):
    """The line numbers that carry bytecode in the module at path."""
    stack = [compile(path.read_text(), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(args):
    sources = {str(path): path for path in sorted(SRC.glob("*.py"))}
    ran = {name: set() for name in sources}
    files = {}      # a code object's file name -> its set in ran, or None

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            files[name] = ran.get(str(Path(name).resolve()))
        if files[name] is None:
            return None         # no line events outside src/fsorf
        files[name].add(frame.f_lineno)
        return local

    sys.path.insert(0, str(SRC.parent))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    print(f"pytest exit {int(status)}; lines of src/fsorf no test ran:")
    for name, path in sources.items():
        source = path.read_text().splitlines()
        missed = sorted(executable_lines(path) - ran[name])
        total += len(missed)
        runs = [[line for _, line in run] for _, run in groupby(
            enumerate(missed), key=lambda il: il[1] - il[0])]
        for run in runs:
            span = f"{run[0]}" if len(run) == 1 else f"{run[0]}-{run[-1]}"
            print(f"  {path.name}:{span}  {source[run[0] - 1].strip()}")
    print(f"{total} lines")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
