"""Bad input is a diagnostic (exit 2), never an internal error (exit 4).

One small document per elaboration or interchange diagnostic, each run
through `validate`; the documents that used to break the exit-code
contract or to say more than the fault; and every re-imaging of the
functor entries in `tests/data`."""

import hashlib
import itertools
import json
import re
from pathlib import Path

import pytest

from finstack.cli import main
from finstack.dsl import load_input, serialize_env

DATA = Path(__file__).parent / "data"


def run(tmp_path, capsys, text, *argv, suffix=".site"):
    path = tmp_path / f"doc{suffix}"
    path.write_text(text, encoding="utf-8")
    code = main([*(argv or ("validate",)), str(path)])
    return code, capsys.readouterr().err


def _interchange(site, edit):
    """The interchange form of `site`, its blocks changed by `edit`, with a
    digest that matches the change."""
    doc = json.loads(serialize_env(load_input(site)[0]))
    edit(doc["blocks"])
    body = json.dumps({"format": doc["format"], "blocks": doc["blocks"]},
                      sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    digest = "sha256:" + hashlib.sha256(body.encode("utf-8")).hexdigest()
    return json.dumps({**json.loads(body), "digest": digest})


SPAN = (DATA / "span.site").read_text(encoding="utf-8")

# A two-object base with one arrow f : x -> y and a one-object fibre K.
BASE = (
    "category B { objects: x, y; morphisms: f: x -> y; }"
    " category K { objects: v; }"
    " functor I : K -> K { obj v = v; }"
)
# Strict over B with both fibres K.
STRICT = BASE + " indexed D over B { fiber x = K; fiber y = K; restrict f = I; strict; }"
# Strict over B with both fibres the discrete {u, v}, restricting f by the swap.
SWAPPED = (
    "category B { objects: x, y; morphisms: f: x -> y; }"
    " category K2 { objects: u, v; }"
    " functor Sw : K2 -> K2 { obj u = v; obj v = u; }"
    " functor I2 : K2 -> K2 { obj u = u; obj v = v; }"
    " indexed D over B { fiber x = K2; fiber y = K2; restrict f = Sw; strict; }"
)

# (case, the message, a .site or interchange text that must be refused with it)
DIAGNOSED = [
    ("le-in-relation",
     "relations in category blocks use generator names, not <=",
     "category C { objects: a; morphisms: f: a -> a; compose: f . f = a <= a; }"),
    ("relation-right-side",
     "relation right side is not composable",
     "category C { objects: a, b; morphisms: f: a -> b, g: a -> a;"
     " compose: g . g = f . f; }"),
    ("dotted-reference",
     "composite not defined: f . f",
     "category C { objects: a, b; morphisms: f: a -> b; }"
     " coverage J on C { b: [f . f]; }"),
    ("compositor-pair",
     "the pair is not composable",
     BASE + " indexed D over B { fiber x = K; fiber y = K; restrict f = I;"
     " compositor (f, f) at v = id(v); }"),
    ("compositor-slot",
     "no fibre object 'w' at y",
     BASE + " indexed D over B { fiber x = K; fiber y = K; restrict f = I;"
     " compositor (f, id(x)) at w = id(v); }"),
    ("fibration-cell-slot",
     "no fibre object 'w' at y",
     STRICT + " fibration P : D -> D { component x = I; component y = I;"
     " cell f at w = id(v); }"),
    ("component-object",
     "no object 'z' in the base",
     STRICT + " fibration P : D -> D { component x = I; component y = I;"
     " component z = I; }"),
    ("component-endpoints",
     "component at 'x' must map the source fiber to the target fiber",
     STRICT + " category L { objects: w; } functor J : L -> L { obj w = w; }"
     " fibration P : D -> D { component x = J; component y = I; }"),
    ("fibration-cell-needed",
     "fibration 'P' needs an explicit cell along f at u",
     SWAPPED + " fibration P : D -> D { component x = Sw; component y = I2; }"),
    ("action-element",
     "'zz' is not an element at a",
     "poset P { a <= b; } presheaf S over P { a = {s}; b = {t}; a <= b: t -> zz; }"),
    ("functor-images-compose",
     "mor images along g.f in 'S' do not compose",
     "category S { objects: a, b, c; morphisms: f: a -> b, g: b -> c; }"
     " category T { objects: u, v; morphisms: h: u -> v; }"
     " functor F : S -> T { obj a = u; obj b = u; obj c = v;"
     " mor f = h; mor g = h; }"),
    ("interchange-duplicate",
     "duplicate block name 'S'",
     _interchange(SPAN, lambda blocks: blocks.append(dict(blocks[0])))),
    ("interchange-reference",
     "topology 'J' references unknown category 'Nope'",
     _interchange(SPAN, lambda blocks: blocks[1].update(base="Nope"))),
]


@pytest.mark.parametrize("msg,text", [case[1:] for case in DIAGNOSED],
                         ids=[case[0] for case in DIAGNOSED])
def test_bad_input_is_a_diagnostic(msg, text, tmp_path, capsys):
    suffix = ".json" if text.startswith("{") else ".site"
    code, err = run(tmp_path, capsys, text, suffix=suffix)
    assert code == 2, err
    assert f": {msg}" in err, err


def test_a_taken_category_name_keeps_the_first_blocks_words(tmp_path, capsys):
    # The second block is refused; the functor is elaborated against the
    # first one and is fine, so the duplicate is the one diagnostic.
    text = ("category C { objects: a; }"
            " category C { objects: b, c; morphisms: k: b -> c; }"
            " functor F : C -> C { obj a = a; }")
    code, err = run(tmp_path, capsys, text)
    assert code == 2
    assert err == "error: line 1:28: duplicate name 'C' (already a category)\n"


STRAY_CELL = (DATA / "factor.site").read_text(encoding="utf-8").replace(
    "component r = Fr;\n", "component r = Fr;\n  cell p <= X at nosuch = id(tp);\n")


@pytest.mark.parametrize("command", ["validate", "fiber-adjunction", "factorize"])
def test_fibration_cell_at_no_fibre_object_is_a_diagnostic(command, tmp_path, capsys):
    assert "nosuch" in STRAY_CELL
    code, err = run(tmp_path, capsys, STRAY_CELL, command)
    assert code == 2
    assert err == "error: line 41:3: no fibre object 'nosuch' at X\n"


# -- every re-imaging of the functor entries in tests/data --------------------


def _ref(m):
    """A morphism id of a DSL category as the DSL writes it."""
    if isinstance(m, tuple):
        return f"id({m[1]})" if m[0] == "id" else f"{m[1]} <= {m[2]}"
    return m.replace(".", " . ")


def _reimagings(site):
    """Every document made from `site` by dropping each `mor` entry of a
    functor block or giving it any morphism of the functor's target."""
    env, _ = load_input(site)
    for block in re.finditer(r"functor (\w+) : \w+ -> (\w+) \{([^}]*)\}", site):
        # entry i splits into its head and its image, parts 3i+1 and 3i+2
        parts = re.split(r"(mor [^=;]+= )([^;]+;)", block.group(3))
        heads = parts[1::3]
        if not heads:
            continue
        images = [None] + [_ref(m) + ";" for m in env.cats[block.group(2)].mor]
        docs = []
        for choice in itertools.product(images, repeat=len(heads)):
            body = list(parts)
            for i, img in enumerate(choice):
                body[3 * i + 1:3 * i + 3] = ("", "") if img is None else (heads[i], img)
            docs.append(site[:block.start(3)] + "".join(body) + site[block.end(3):])
        yield block.group(1), docs


@pytest.mark.parametrize("stem,functor,count", [
    ("bad_laws", "F", 64),
    ("twisted", "IdF", 3),
])
def test_every_reimaging_of_functor_entries_keeps_the_exit_contract(
        stem, functor, count, tmp_path, capsys):
    site = (DATA / f"{stem}.site").read_text(encoding="utf-8")
    (name, docs), = _reimagings(site)
    assert (name, len(docs)) == (functor, count)
    codes = []
    for doc in docs:
        code, err = run(tmp_path, capsys, doc)
        assert code in (0, 1, 2), (doc, err)
        codes.append(code)
    assert 0 in codes and 2 in codes
