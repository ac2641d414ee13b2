"""The interchange writer against the structure writer it replaced.

`serialize_blocks` writes text directly: each datum's text once, each tuple's
and frozenset's once per document, keyed by identity. `ref_serialize_blocks`
(tests/oracles.py) builds a JSON structure of the whole document and hands
it to the C encoder. Both must give the same bytes on the goldens, on what
every `--emit` command writes (the blocks as the command built them, with
their shared ids), and on a document whose ids are equal in value but not
in text, which a value-keyed memo would confuse."""

import json
import random
from pathlib import Path

import pytest

from finstack import (
    DescentDatum,
    FinCat,
    Functor,
    Presheaf,
    Topology,
    embed_discrete,
    identity_indexed_fun,
    serialize_blocks,
)
from finstack import cli
from finstack.dsl import _dec, _text, load_input, load_interchange, serialize_env

import sitegen
from oracles import ref_enc, ref_serialize_blocks

DATA = Path(__file__).parent / "data"
GOLDENS = ("patches", "span", "twisted", "factor")


def _blocks(env):
    return [(kind, name, env.kinds_of(kind)[name]) for kind, name in env.order]


@pytest.mark.parametrize("stem", GOLDENS)
def test_goldens_match_the_structure_writer(stem):
    env, diags = load_input((DATA / f"{stem}.site").read_text(encoding="utf-8"))
    assert not diags
    text = serialize_blocks(_blocks(env))
    assert text == ref_serialize_blocks(_blocks(env))
    assert text == (DATA / f"{stem}.golden.json").read_text(encoding="utf-8")


def _sitegen_document(seed):
    rng = random.Random(seed)
    c, J = sitegen.rand_site(rng)
    D = sitegen.rand_indexed(rng, c)
    P = sitegen.rand_presheaf(rng, c, max_el=2)
    return serialize_blocks([("category", "C", c), ("topology", "J", J),
                             ("indexed", "D", D), ("presheaf", "P", P)])


def test_every_emit_matches_the_structure_writer(tmp_path, monkeypatch):
    """Each command's blocks, as it built them, written by both writers."""
    written = []

    def both(blocks):
        text = serialize_blocks(blocks)
        written.append((text, ref_serialize_blocks(blocks)))
        return text

    monkeypatch.setattr(cli, "serialize_blocks", both)
    inputs = [DATA / "patches.site"]
    for seed in range(3):
        path = tmp_path / f"sitegen{seed}.json"
        path.write_text(_sitegen_document(seed), encoding="utf-8")
        inputs.append(path)
    emitted = set()
    for path in inputs:
        for command in ("stackify", "sheafify", "groth", "giraud"):
            out = tmp_path / f"{command}-{path.stem}.json"
            before = len(written)
            if cli.main([command, str(path), "--emit", str(out)]) == 0:
                assert len(written) == before + 1
                text, ref = written[-1]
                assert text == ref, f"{command} {path.name}"
                assert out.read_text(encoding="utf-8") == text
                env, diags = load_interchange(text)
                assert not diags
                assert serialize_env(env) == ref_serialize_blocks(_blocks(env))
                emitted.add(command)
    assert emitted == {"stackify", "sheafify", "groth", "giraud"}


def _mixed_blocks():
    """A category, functor, topology, presheaf, indexed category and
    fibration whose ids mix True with 1, None, frozensets, non-ASCII names
    and data nested in data. (True, "é") and (1, "é") are equal tuples with
    different texts; both occur, as ids of different things."""
    inner = DescentDatum({("f", 1): (True, "é")},
                         {(("f", 1), ("id", True)): ("id", (True, "é"))})
    outer = DescentDatum({("g", True): inner, ("g", 1, None): "ß"},
                         {(("g", True), ("g", 1, None)): frozenset({1, "ü"})})
    a, b, c = (True, "é"), None, frozenset({1, "ü", (None, inner)})
    f, g, h = (1, "é"), (None, True), (frozenset({(1, "x"), "ß"}), outer)
    ident = {x: ("id", x) for x in (a, b, c)}
    mor = {f: (a, b), g: (b, c), h: (a, c), **{i: (x, x) for x, i in ident.items()}}
    table = {(g, f): h}
    for m, (x, y) in mor.items():
        table[(ident[y], m)] = m
        table[(m, ident[x])] = m
    C = FinCat((a, b, c), mor, ident, table, name="Ĉ")
    # a presheaf: elements over a, b, c; actions go from cod to dom
    els = {a: (True, "é"), b: (1,), c: (None, outer)}
    act = {f: {1: True}, g: {None: 1, outer: 1}, h: {None: True, outer: True}}
    act.update({ident[x]: {e: e for e in els[x]} for x in (a, b, c)})
    P = Presheaf(C, els, act, name="Ψ")
    J = Topology(C, {a: frozenset({frozenset({ident[a]}), frozenset({ident[a], f})}),
                     c: frozenset({frozenset({g, h, ident[c]})})})
    F = Functor(C, C, {x: x for x in C.objects}, {m: m for m in C.mor}, name="F")
    D = embed_discrete(P, name="disc Ψ")
    return [("category", "C", C), ("functor", "F", F), ("topology", "J", J),
            ("presheaf", "P", P), ("indexed", "D", D),
            ("fibration", "Id", identity_indexed_fun(D))]


def test_ids_equal_in_value_keep_their_own_text():
    blocks = _mixed_blocks()
    text = serialize_blocks(blocks)
    assert text == ref_serialize_blocks(blocks)
    assert '{"b":true}' in text and '{"i":1}' in text and "é" in text
    env, diags = load_interchange(text)
    assert not diags
    assert serialize_env(env) == text


def test_one_memo_keeps_equal_ids_apart():
    memo = {}
    assert _text((True, "é"), memo) == '[{"b":true},"é"]'
    assert _text((1, "é"), memo) == '[{"i":1},"é"]'
    C = _mixed_blocks()[0][2]
    for x in (*C.objects, *C.mor, *C.table):
        text = _text(x, memo)
        assert text == json.dumps(ref_enc(x), sort_keys=True,
                                  separators=(",", ":"), ensure_ascii=False)
        assert _dec(json.loads(text)) == x
