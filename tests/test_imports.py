"""Every module of the package uses each name it imports, reads each name
its functions assign, binds each name the benchmark's tracer wraps, and
exports only names that something besides the tests uses.

No linter ships with the toolchain, so this is the check: parse each module
other than `__init__` (which imports to re-export) and list the imported
names that no expression of the module reads, and parse every module for
single-name assignments in a function that the function never reads.

`perfbench/spans.py` looks up the functions it traces by name, module by
module (`WRAPPED`); a name that a refactor drops would break only a traced
benchmark run, which this suite does not make, so it is checked here.

A name `finstack` re-exports must be read by the library outside its own
definition, or by the benchmark, or be traced by it; there are no
exceptions.  A search or cross-check that only tests call belongs with the
tests (`tests/oracles.py`)."""

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


def _own_nodes(fn):
    """The nodes of a function, not descending into the scopes it nests."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def dead_locals(path):
    """Single names a function assigns and never reads, nested scopes
    included; unpacking targets and global or nonlocal names are exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    dead = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        kept = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in _own_nodes(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                kept.update(node.names)
        for node in _own_nodes(fn):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            dead += [(t.lineno, t.id, fn.name) for t in targets
                     if isinstance(t, ast.Name) and t.id not in kept]
    return [f"{path.name}:{line} {name} in {fn}"
            for line, name, fn in sorted(dead)]


def test_no_function_assigns_a_name_it_never_reads(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("def f(xs):\n"
                      "    a, b = xs\n"
                      "    n = len(xs)\n"
                      "    total = 0\n"
                      "    total += n\n"
                      "    def g():\n"
                      "        return a\n"
                      "    return g\n")
    assert dead_locals(sample) == ["sample.py:4 total in f",
                                   "sample.py:5 total in f"]
    modules = sorted(SRC.glob("*.py"))
    assert [d for p in modules for d in dead_locals(p)] == []


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


class _Reads(ast.NodeVisitor):
    """Names read as variables or attributes, except a name read inside the
    definition that binds it."""

    def __init__(self):
        self.inside = []
        self.names = set()

    def visit_FunctionDef(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id not in self.inside:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self.inside:
            self.names.add(node.attr)
        self.generic_visit(node)


def names_read(paths):
    reads = _Reads()
    for path in paths:
        reads.visit(ast.parse(path.read_text(encoding="utf-8")))
    return reads.names


def test_every_exported_name_has_a_caller_outside_the_tests():
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(exported) > 100
    read = names_read(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    read |= names_read((ROOT / "perfbench").glob("*.py"))
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    traced = {name for names in spans.WRAPPED.values() for name in names}
    assert sorted(exported - read - traced) == []


def private_definitions(path):
    """(line, name) of each private module-level function and class."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(node.lineno, node.name) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def test_every_private_helper_is_read_outside_its_own_body():
    """A private helper that nothing in the package reads outside its own
    definition is dead: a replaced implementation left beside its
    successor."""
    modules = sorted(SRC.glob("*.py"))
    read = names_read(modules)
    defined = [(p.name, line, name) for p in modules
               for line, name in private_definitions(p)]
    assert len(defined) > 40
    assert [f"{file}:{line} {name}" for file, line, name in defined
            if name not in read] == []


class _ConstructorCalls(ast.NodeVisitor):
    """(line, enclosing function) of each call `FinCat(...)`, the
    constructor that sorts by `ckey`; "" for a call outside any function."""

    def __init__(self):
        self.inside = [""]
        self.calls = []

    def visit_FunctionDef(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        f = node.func
        if (isinstance(f, ast.Name) and f.id == "FinCat"
                or isinstance(f, ast.Attribute) and f.attr == "FinCat"):
            self.calls.append((node.lineno, self.inside[-1]))
        self.generic_visit(node)


def fincat_calls(path):
    calls = _ConstructorCalls()
    calls.visit(ast.parse(path.read_text(encoding="utf-8")))
    return [(path.name, line, fn) for line, fn in calls.calls]


def test_only_the_interchange_reader_calls_the_sorting_constructor(tmp_path):
    """A category the library builds lists its ids in stable order and is
    stored by `FinCat.from_homs`; only categories read whole from input
    go through `FinCat(...)`, which sorts them."""
    sample = tmp_path / "sample.py"
    sample.write_text("c = fs.FinCat((), {}, {}, {})\n"
                      "def f():\n"
                      "    def g():\n"
                      "        return FinCat((), {}, {}, {})\n"
                      "    return FinCat.from_homs((), {}, {}, None)\n")
    assert fincat_calls(sample) == [("sample.py", 1, ""), ("sample.py", 4, "g")]
    modules = sorted(SRC.glob("*.py"))
    assert [(name, fn) for p in modules for name, _, fn in fincat_calls(p)] == [
        ("dsl.py", "_cat_unjson")]


# `InternalError` and the classes above it: an `except` clause naming one of
# these, or naming none, catches a bug in finstack.
_CATCHES_BUGS = {"InternalError", "AssertionError", "Exception", "BaseException"}


def bug_handlers(path):
    """(file, line, enclosing function) of each `except` clause that catches
    `InternalError`; "" for a clause outside any function."""
    out = []

    def walk(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
                continue
            if isinstance(child, ast.ExceptHandler):
                names = {n.id if isinstance(n, ast.Name) else n.attr
                         for n in ast.walk(child.type or ast.Pass())
                         if isinstance(n, (ast.Name, ast.Attribute))}
                if child.type is None or names & _CATCHES_BUGS:
                    out.append((path.name, child.lineno, fn))
            walk(child, fn)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def test_only_the_cli_entry_point_catches_internal_errors(tmp_path):
    """An `InternalError` is a bug in finstack and ends a run with exit 4;
    only `cli.main` turns it into that exit.  Anywhere else, catching it
    would let a bug pass for bad input or for a finding."""
    sample = tmp_path / "sample.py"
    sample.write_text("def f():\n"
                      "    try:\n"
                      "        pass\n"
                      "    except (KeyError, fincat.InternalError):\n"
                      "        pass\n"
                      "    except ValueError:\n"
                      "        pass\n"
                      "try:\n"
                      "    pass\n"
                      "except:\n"
                      "    pass\n")
    assert bug_handlers(sample) == [("sample.py", 4, "f"), ("sample.py", 10, "")]
    modules = sorted(SRC.glob("*.py"))
    assert [(name, fn) for p in modules for name, _, fn in bug_handlers(p)] == [
        ("cli.py", "main")]


# The words of the findings on families of fibre arrows: unitors,
# compositors, an indexed functor's cells, a transformation's components.
_FIBRE_ARROW_WORDS = (" malformed at ", " not invertible at ", " not natural at ")


def fibre_arrow_wordings(path):
    """(file, line, enclosing function) of each string constant, f-string
    parts included, that holds one of `_FIBRE_ARROW_WORDS`; "" for a
    constant outside any function."""
    out = []

    def walk(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
                continue
            if (isinstance(child, ast.Constant) and isinstance(child.value, str)
                    and any(w in child.value for w in _FIBRE_ARROW_WORDS)):
                out.append((path.name, child.lineno, fn))
            walk(child, fn)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def test_one_function_words_the_findings_on_fibre_arrows(tmp_path):
    """Typing, invertibility and naturality of every family of fibre arrows
    are decided in one place, so the words of those findings are written in
    one function."""
    sample = tmp_path / "sample.py"
    sample.write_text("def f(x):\n"
                      "    return f'cell {x} malformed at {x}'\n"
                      "def g():\n"
                      "    return 'not natural at'\n"
                      "MSG = 'unit not invertible at '\n")
    assert fibre_arrow_wordings(sample) == [("sample.py", 2, "f"),
                                            ("sample.py", 5, "")]
    modules = sorted(SRC.glob("*.py"))
    assert {(name, fn) for p in modules
            for name, _, fn in fibre_arrow_wordings(p)} == {
        ("indexed.py", "_fibre_arrows")}


def members_reads(path):
    """(file, line, scope) of each call `….members()`; the scope names the
    enclosing functions and classes, dotted, and "" stands for none."""
    out = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                walk(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "members"):
                out.append((path.name, child.lineno, scope))
            walk(child, scope)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def test_one_derivation_of_member_order(tmp_path):
    """The members of a sieve in stable order, and everything descent
    derives from them, are worked out by `descent.Plan`; only the set-level
    oracle, which shares no machinery with descent, reads them for itself."""
    sample = tmp_path / "sample.py"
    sample.write_text("class P:\n"
                      "    def __init__(self, R):\n"
                      "        self.members = R.members()\n"
                      "def f(plan, R):\n"
                      "    return plan.members, [g(m) for m in R.members()]\n"
                      "ms = S.members()\n")
    assert members_reads(sample) == [("sample.py", 3, "P.__init__"),
                                     ("sample.py", 5, "f"), ("sample.py", 6, "")]
    assert {(name, scope) for p in (SRC / "descent.py", SRC / "stackify.py")
            for name, _, scope in members_reads(p)} == {
        ("descent.py", "Plan.__init__"),
        ("stackify.py", "matching_families"),
        ("stackify.py", "plus_presheaf"),
        ("stackify.py", "_sheaf_over"),
    }


def _is_intersection(node):
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.BitAnd)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "intersection")


def covers_intersections(path):
    """(file, line, function) of each intersection, an `intersection` call
    or an `&`, in a function whose own body reads some `.covers`."""
    out = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(_own_nodes(fn))
        if any(isinstance(n, ast.Attribute) and n.attr == "covers"
               for n in nodes):
            out += [(path.name, n.lineno, fn.name)
                    for n in nodes if _is_intersection(n)]
    return sorted(out)


def test_one_source_of_least_covers(tmp_path):
    """A topology's least covers come from `site`: `least_covers`, from the
    fixpoint that `saturate` runs, and `minimal_cover`, which checks that
    the intersection of the covers is one of them.  No other module
    intersects a topology's covers; in `site` the lint also finds the
    mask tests of `validate_topology`."""
    sample = tmp_path / "sample.py"
    sample.write_text("def f(J, x):\n"
                      "    return frozenset.intersection(*J.covers[x])\n"
                      "def g(J, x, acc):\n"
                      "    for s in J.covers[x]:\n"
                      "        acc &= s\n"
                      "def h(a, b):\n"
                      "    return a & b\n")
    assert covers_intersections(sample) == [("sample.py", 2, "f"),
                                            ("sample.py", 5, "g")]
    assert [hit for p in sorted(SRC.glob("*.py")) if p.name != "site.py"
            for hit in covers_intersections(p)] == []
    assert {fn for _, _, fn in covers_intersections(SRC / "site.py")} == {
        "least_covers", "minimal_cover", "validate_topology"}
