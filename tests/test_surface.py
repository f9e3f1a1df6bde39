"""The package's public surface is no bigger than its users need.

Every public top-level function and class of an fsorf module must be
named somewhere beyond its own definition: elsewhere in the package
source, in the README, or in the traced layers of perfbench/spans.py.
A name that none of them uses is a test-only reference, and belongs
under tests/ (reference_models.py holds such models).
"""

import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import fsorf

ROOT = Path(__file__).resolve().parents[1]


def _traced_names():
    spec = importlib.util.spec_from_file_location(
        "_fsorf_surface_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {name for names in spans.LAYERS.values() for name in names}


def _public_definitions():
    """(module name, object name) of each public top-level function and
    class that an fsorf module defines itself."""
    for info in pkgutil.iter_modules(fsorf.__path__):
        module = importlib.import_module(f"fsorf.{info.name}")
        for name, obj in vars(module).items():
            if (not name.startswith("_")
                    and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__):
                yield module.__name__, name


def test_every_public_name_has_a_user():
    source = "\n".join(path.read_text()
                       for path in Path(fsorf.__file__).parent.glob("*.py"))
    readme = (ROOT / "README.md").read_text()
    traced = _traced_names()
    unused = []
    for module, name in _public_definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        # one mention in the source is the definition itself
        if (len(word.findall(source)) < 2 and not word.search(readme)
                and name not in traced):
            unused.append(f"{module}.{name}")
    assert not unused, f"public names no one uses: {unused}"
