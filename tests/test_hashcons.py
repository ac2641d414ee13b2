"""Hash-consed descent data: one object per distinct datum, whichever path
built it, held in a weak table, and no output that depends on the
address-based hashes this gives."""

import copy
import gc
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import finstack
from finstack import (
    Plan,
    comparison_datum,
    embed_discrete,
    enumerate_data,
    identity_indexed_fun,
    push_datum,
    restrict_datum,
    stackify,
)
from finstack import descent
from finstack.cli import main
from finstack.dsl import _dec, _text, load_interchange

import corpus
from oracles import pullback_sieve

DATA = Path(__file__).parent / "data"


def _round_trip(v):
    """`v` written as interchange text and read back."""
    return _dec(json.loads(_text(v, {})))


# name -> (site, indexed category over it)
CASES = {
    "patches-nonsheaf": (corpus.patches_site,
                         lambda: embed_discrete(corpus.patches_nonsheaf())),
    "multicover": (corpus.multicover_site,
                   lambda: embed_discrete(corpus.patches_nonseparated())),
    "arrow-iso": (corpus.arrow_site,
                  lambda: corpus.const_walking_iso(corpus.arrow_cat())),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_construction_path_returns_the_one_datum(case):
    site, indexed = CASES[case]
    (c, J), D = site(), indexed()
    idD = identity_indexed_fun(D)
    for X in c.objects:
        for R in J.covers_of(X):
            plan = Plan(D, R)
            data = enumerate_data(plan)
            assert len({id(a) for a in data}) == len(data)
            assert all(a is b for a, b in zip(data, enumerate_data(plan)))
            for V in D.fib[X].objects:
                v = comparison_datum(plan, V)
                assert any(v is a for a in data)
            for a in data:
                assert _round_trip(a) is a
                assert push_datum(idD, plan, a) is a
                assert restrict_datum(plan, a, c.ident[X]) is a
                for y in c.into(X):
                    pulled = Plan(D, pullback_sieve(R, y))
                    assert any(restrict_datum(pulled, a, y) is b
                               for b in enumerate_data(pulled))


def test_nested_data_are_shared_across_stages():
    (c, J), D = corpus.patches_site(), embed_discrete(corpus.patches_nonsheaf())
    s = stackify(D, J)
    for X in c.objects:
        for a in s.twice.output.fib[X].objects:
            assert _round_trip(a) is a
            for b in a.obj.values():
                assert _round_trip(b) is b
            assert copy.deepcopy(a) is a
            assert pickle.loads(pickle.dumps(a)) is a


def test_intern_table_is_weak():
    (_, J), D = corpus.patches_site(), embed_discrete(corpus.patches_nonsheaf())
    gc.collect()
    before = len(descent._interned)
    s = stackify(D, J)
    assert len(descent._interned) > before
    del s
    gc.collect()
    assert len(descent._interned) == before


def test_decode_memo_is_local_to_one_load(tmp_path, capsys):
    """Loading decodes each distinct datum once, through a memo that lives
    only as long as the call: once the loaded D++ is dropped, its data
    leave the weak intern table."""
    out = tmp_path / "stack.json"
    assert main(["stackify", str(DATA / "patches.site"), "--emit", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text(encoding="utf-8")
    gc.collect()
    before = len(descent._interned)
    env, diags = load_interchange(text)
    assert not diags
    assert len(descent._interned) > before
    del env
    gc.collect()
    assert len(descent._interned) == before


@pytest.mark.parametrize("cmd", ["stackify", "giraud"])
def test_emitted_bytes_ignore_hash_seed(cmd, tmp_path):
    """Identity hashes differ between processes; emitted documents must not."""
    src = str(Path(finstack.__file__).resolve().parents[1])
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"{cmd}-{seed}.json"
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-m", "finstack.cli", cmd,
                        str(DATA / "patches.site"), "--emit", str(out)],
                       env=env, capture_output=True, timeout=60, check=True)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
