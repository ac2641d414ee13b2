"""Every module of the package uses each name it imports.

No linter ships with the toolchain, so this is the check: parse each module
other than `__init__` (which imports to re-export) and list the imported
names that no expression of the module reads."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "finstack"


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
