"""Seeded fuzzing of both input paths.  Structurally mutated golden
documents, each with its digest recomputed so that the mutation reaches the
decoder and the validators, must get exit code 0, 1, 2 or 3 from `validate`
and `check --stack`: a verdict, bad input or a cap, never an internal error
or a traceback.  Each is written twice, with default separators and in the
form `serialize_blocks` writes, and must load in both as it does when
`json.loads` parses every datum copy.  Text-mutated `.site` documents must
do the same under `validate` and `saturate`, which enumerates sieve
universes."""

import copy
import hashlib
import json
import random
import re
from pathlib import Path

from finstack.cli import main

from oracles import in_emitted_form, load_outcome

DATA = Path(__file__).parent / "data"
GOLDENS = ("patches", "span", "twisted", "factor")
# `check` flags that pick one block where a golden declares several.
PICKS = {"factor": (["--indexed", "D"], ["--indexed", "T"])}
SEED = 20251018
DOCUMENTS = 300
SITES = sorted(DATA.glob("*.site"))
TEXT_SEED = 20251019
TEXT_DOCUMENTS = 300
TOKEN = re.compile(r"\s+|[A-Za-z_][\w']*|<=|->|\S")


def _slots(node, out):
    """Every (container, key) slot under node, at any depth."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for k, v in items:
        out.append((node, k))
        if isinstance(v, (dict, list)):
            _slots(v, out)
    return out


def _leaves(node, out):
    items = node.values() if isinstance(node, dict) else node
    for v in items:
        if isinstance(v, (dict, list)):
            _leaves(v, out)
        else:
            out.append(v)
    return out


def _mutate(rng, blocks):
    """One edit at a random slot: delete it, duplicate or swap a list item,
    put in a leaf, a copy of a container or a `"dd"` descent datum made of
    leaves, or a value of another type.  List edits that hit a dict slot
    fall through to the last."""
    slots = _slots(blocks, [])
    node, k = rng.choice(slots)
    leaves = _leaves(blocks, [])
    op = rng.randrange(7)
    if op == 0:
        del node[k]
    elif op == 1 and isinstance(node, list):
        node.insert(k, copy.deepcopy(node[k]))
    elif op == 2 and isinstance(node, list) and len(node) > 1:
        j = rng.randrange(len(node))
        node[k], node[j] = node[j], node[k]
    elif op == 3:
        node[k] = rng.choice(leaves)
    elif op == 4:
        node[k] = copy.deepcopy(rng.choice(slots)[0])
    elif op == 5:
        a, b = rng.choice(leaves), rng.choice(leaves)
        node[k] = {"dd": [[[a, b]], [[[a, a], b]]]}
    else:
        node[k] = rng.choice([{"i": 1}, {"b": True}, {"n": 0}, {"fs": []},
                              [], {}, "", None, 0])


def _document(doc, blocks, emitted=False):
    """The mutant with its digest, last and with default separators, or in
    emitted form: compact sorted text with the digest member before the
    tail."""
    body = {"format": doc["format"], "blocks": blocks}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    if emitted:
        return in_emitted_form(text)
    digest = "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
    return json.dumps({**body, "digest": digest}, ensure_ascii=False)


def test_mutated_interchange_keeps_exit_contract(tmp_path, capsys):
    rng = random.Random(SEED)
    goldens = {n: json.loads((DATA / f"{n}.golden.json").read_text(encoding="utf-8"))
               for n in GOLDENS}
    path = tmp_path / "mutant.json"
    for i in range(DOCUMENTS):
        name = GOLDENS[i % len(GOLDENS)]
        doc = goldens[name]
        blocks = copy.deepcopy(doc["blocks"])
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, blocks)
        for emitted in (False, True):
            text = _document(doc, blocks, emitted)
            path.write_text(text, encoding="utf-8")
            runs = [["validate", str(path)]] + [
                ["check", str(path), "--stack", *pick]
                for pick in PICKS.get(name, ([],))
            ]
            for argv in runs:
                code = main(argv)
                err = capsys.readouterr().err
                assert code in (0, 1, 2, 3) and "Traceback" not in err, (i, argv, text)
            assert load_outcome(text) == load_outcome(text, full_parse=True), (i, text)


def _blocks(toks):
    """(header words, index of the `{`, names inside) for each block of a
    token list."""
    out, head = [], 0
    for k, t in enumerate(toks):
        if t == "{":
            words = [w for w in toks[head:k] if not w.isspace()] or [""]
            close = next((j for j in range(k, len(toks)) if toks[j] == "}"), len(toks))
            names = [w for w in toks[k:close] if w[0].isalpha() or w[0] == "_"]
            out.append((words, k, names or ["x"]))
        elif t == "}":
            head = k + 1
    return out


def _mutate_text(rng, text):
    """One text edit: delete or duplicate a line, swap two tokens, or insert
    an arrow or a cover made of a block's own names.  An arrow goes at the
    top of a poset or category block; a cover at the top of a coverage
    block, or in a new coverage block on a poset or category."""
    lines = text.splitlines()
    toks = TOKEN.findall(text)
    solid = [k for k, t in enumerate(toks) if not t.isspace()]
    op = rng.randrange(5)
    if op == 0 and lines:
        del lines[rng.randrange(len(lines))]
    elif op == 1 and lines:
        k = rng.randrange(len(lines))
        lines.insert(k, lines[k])
    elif op == 2 and solid:
        i, j = rng.choice(solid), rng.choice(solid)
        toks[i], toks[j] = toks[j], toks[i]
        return "".join(toks)
    else:
        blocks = _blocks(toks)
        cats = [b for b in blocks if b[0][0] in ("poset", "category")]
        covs = [b for b in blocks if b[0][0] == "coverage"]
        if not cats:
            return text + "poset Q { a <= b; }\n"
        words, k, names = rng.choice(cats if op == 3 or not covs else covs)
        a, b = rng.choice(names), rng.choice(names)
        cover = rng.choice([f" {b}: [{a} <= {b}];", f" {b}: [{a}];"])
        if op == 3:
            edit = (f" {a} <= {b};" if words[0] == "poset"
                    else f" morphisms: {a}{b}: {a} -> {b};")
        elif not covs:
            return text + f"coverage K on {words[-1]} {{{cover} }}\n"
        else:
            edit = cover
        toks.insert(k + 1, edit)
        return "".join(toks)
    return "\n".join(lines) + "\n"


def text_mutants():
    """The `TEXT_DOCUMENTS` seeded text mutants, in order: each of the seven
    `.site` files in turn, with one to three `_mutate_text` edits."""
    rng = random.Random(TEXT_SEED)
    sources = [p.read_text(encoding="utf-8") for p in SITES]
    assert len(sources) == 7
    for i in range(TEXT_DOCUMENTS):
        text = sources[i % len(sources)]
        for _ in range(rng.randint(1, 3)):
            text = _mutate_text(rng, text)
        yield text


def test_mutated_site_text_keeps_exit_contract(tmp_path, capsys):
    path = tmp_path / "mutant.site"
    for i, text in enumerate(text_mutants()):
        path.write_text(text, encoding="utf-8")
        for cmd in ("validate", "saturate"):
            argv = [cmd, str(path)]
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3) and "Traceback" not in err, (i, argv, text)
