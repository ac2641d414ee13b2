"""Seeded fuzzing of the interchange loader: structurally mutated golden
documents, each with its digest recomputed so that the mutation reaches the
decoder and the validators, must get exit code 0, 1, 2 or 3 from `validate`
and `check --stack`: a verdict, bad input or a cap, never an internal error
or a traceback."""

import copy
import hashlib
import json
import random
from pathlib import Path

from finstack.cli import main

DATA = Path(__file__).parent / "data"
GOLDENS = ("patches", "span", "twisted", "factor")
# `check` flags that pick one block where a golden declares several.
PICKS = {"factor": (["--indexed", "D"], ["--indexed", "T"])}
SEED = 20251018
DOCUMENTS = 300


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


def _document(doc, blocks):
    body = {"format": doc["format"], "blocks": blocks}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
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
        text = _document(doc, blocks)
        path.write_text(text, encoding="utf-8")
        runs = [["validate", str(path)]] + [
            ["check", str(path), "--stack", *pick] for pick in PICKS.get(name, ([],))
        ]
        for argv in runs:
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3) and "Traceback" not in err, (i, argv, text)
