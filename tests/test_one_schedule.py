"""Constraint schedules are built in one place, `caps`.

The bounded searches file each check under the position where its scope
closes (`caps.search`, `caps.pruned_product`).  A module that files checks
itself, by `d.setdefault(max(...), ...)`, keeps a second copy of that
schedule; this parses every other module of the package and lists each
such call."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "finstack"


def own_schedules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "setdefault"
        and node.args
        and isinstance(node.args[0], ast.Call)
        and isinstance(node.args[0].func, ast.Name)
        and node.args[0].func.id == "max"
    ]


def test_no_module_but_caps_files_constraints_by_position():
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "caps.py"]
    assert len(modules) > 5
    assert [s for p in modules for s in own_schedules(p)] == []
