"""Which functions of src/fsorf do the CLI sweeps and the README reach?

Traces every function call (sys.settrace, and threading.settrace for
the pool threads) while it runs

- fsorf --preset fig1, fig2 and fig3, each with all three methods at
  --trials 2000;
- fig3 again at --workers 2;
- the Python block of the README's Library section;

then prints each function and method defined in src/fsorf, at module or
class level, that no run entered, with its line count.  A function on
that list serves no sweep and no documented call: it is either a named
layer or surface the tests and benchmark need, or a candidate to move
under tests/ or delete.  Nested functions are not listed; they run when
their enclosing function does, or not at all.  The CSVs go to a
temporary directory.

The file has no test_ prefix, so pytest does not collect it.  Run it
from the repository root; it takes a few seconds:

    PYTHONPATH=src python tests/reach_cli.py
"""

import ast
import os
import re
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fsorf"
PRESETS = ("fig1", "fig2", "fig3")


def definitions():
    """(file, first line) -> (name, line count) of each function and
    method at module or class level, the first line being its first
    decorator's, as a code object counts it."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [("", tree.body)]
        scopes += [(node.name + ".", node.body) for node in tree.body
                   if isinstance(node, ast.ClassDef)]
        for prefix, body in scopes:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([node.lineno] + [d.lineno for d in
                                                 node.decorator_list])
                    found[str(path), first] = (
                        f"{path.name}:{prefix}{node.name}",
                        node.end_lineno - first + 1)
    return found


def readme_example():
    """The first Python block after the README's Library heading."""
    text = (ROOT / "README.md").read_text()
    library = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", library, re.S).group(1)


def runs(out_dir):
    from fsorf.cli import main

    for preset in PRESETS:
        yield f"--preset {preset}", lambda p=preset: main(
            ["--preset", p, "--trials", "2000",
             "--out", os.path.join(out_dir, f"{p}.csv")])
    yield "--preset fig3 --workers 2", lambda: main(
        ["--preset", "fig3", "--trials", "2000", "--workers", "2",
         "--out", os.path.join(out_dir, "fig3-w2.csv")])
    yield "README Library example", lambda: exec(readme_example(), {})


def main():
    entered = set()
    paths = {}      # a code object's file name -> its resolved path

    def tracer(frame, event, arg):
        code = frame.f_code
        path = paths.get(code.co_filename)
        if path is None:
            path = paths[code.co_filename] = str(
                Path(code.co_filename).resolve())
        entered.add((path, code.co_firstlineno))
        return None         # no line events

    with tempfile.TemporaryDirectory() as out_dir:
        threading.settrace(tracer)
        sys.settrace(tracer)
        try:
            for name, run in runs(out_dir):
                status = run()
                print(f"ran {name}: exit {status or 0}")
        finally:
            sys.settrace(None)
            threading.settrace(None)

    found = definitions()
    missed = sorted((label, lines) for key, (label, lines) in found.items()
                    if key not in entered)
    print(f"{len(missed)} of {len(found)} functions in src/fsorf entered "
          f"by no run ({sum(lines for _, lines in missed)} lines):")
    for label, lines in missed:
        print(f"  {label}  {lines} lines")


if __name__ == "__main__":
    main()
