"""Every module of the package uses each name it imports, and binds each
name the benchmark's tracer wraps.

No linter ships with the toolchain, so this is the check: parse each module
other than `__init__` (which imports to re-export) and list the imported
names that no expression of the module reads.

`perfbench/spans.py` looks up the functions it traces by name, module by
module (`WRAPPED`); a name that a refactor drops would break only a traced
benchmark run, which this suite does not make, so it is checked here."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "finstack"


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    unused = [u for p in modules for u in unused_imports(p)]
    assert unused == []


def test_every_traced_name_is_bound_in_its_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert len(spans.WRAPPED) > 5
    missing = [f"{layer}.{name}" for layer, names in spans.WRAPPED.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"finstack.{layer}"), name, None))]
    assert missing == []
