"""Every function of the package reads each parameter it takes, and builds
no parameter it could also be given.

No linter ships with the toolchain, so this is the check: parse each module,
and for every module-level function and every method list the parameters
that no expression of its body (nested callbacks included) reads.  `self`
and `cls` are exempt, and so are the `cli.cmd_*` handlers, which share one
dispatch signature.  A parameter read as `p if p is not None else ...` is a
part that is either passed or built, so it has two sources; the second
check lists those."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "finstack"


def _functions(body, prefix=""):
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, prefix + node.name + ".")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node


def _params(fn):
    a = fn.args
    params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    return params + [p.arg for p in (a.vararg, a.kwarg) if p is not None]


def unread_params(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for name, fn in _functions(tree.body):
        if path.name == "cli.py" and name.startswith("cmd_"):
            continue
        params = _params(fn)
        read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
        out += [f"{path.name}:{fn.lineno} {name}({p})" for p in params
                if p not in read and p not in ("self", "cls")]
    return out


def test_no_function_takes_a_parameter_it_never_reads():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    unread = [u for p in modules for u in unread_params(p)]
    assert unread == []


def built_or_passed(path):
    """The parameters read as an if-expression whose body is the parameter
    itself: `p if p is not None else build()`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for name, fn in _functions(tree.body):
        params = set(_params(fn))
        out += [f"{path.name}:{n.lineno} {name}({n.body.id})"
                for n in ast.walk(fn)
                if isinstance(n, ast.IfExp) and isinstance(n.body, ast.Name)
                and n.body.id in params]
    return out


def test_no_parameter_is_both_passed_and_built():
    modules = sorted(SRC.glob("*.py"))
    forks = [f for p in modules for f in built_or_passed(p)]
    assert forks == []
