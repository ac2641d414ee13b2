"""Closing `category` blocks: known presentations give their known sizes,
and every category that elaborates from a random presentation satisfies
each relation it states."""

import random
import time

import pytest

from finstack import CapExceeded, Caps, elaborate, parse, validate_fincat
from finstack.cli import main

SEED = 20261018
PRESENTATIONS = 300

KNOWN = {
    "Z2": ("s: a -> a", ["s . s = id(a)"], 2),
    "S3": ("s: a -> a, t: a -> a",
           ["s . s = id(a)", "t . t = id(a)", "s . t . s = t . s . t"], 6),
    "g2-g3": ("g: a -> a", ["g . g = id(a)", "g . g . g = id(a)"], 1),
    "monoid3": ("g0: a -> a, g1: a -> a",
                ["g1 . g1 = g1", "g1 . g0 . g1 = g0", "g0 . g0 = g1"], 3),
    "D8": ("r: a -> a, f: a -> a",
           ["r . r . r . r = id(a)", "f . f = id(a)", "f . r . f = r . r . r"], 8),
}


def block(objects, gens, rels):
    compose = "".join(f" compose: {r};" for r in rels)
    return (f"category C {{ objects: {', '.join(objects)};"
            f" morphisms: {gens};{compose} }}")


def close(text):
    doc, diags = parse(text)
    assert not diags, [str(d) for d in diags]
    env, diags = elaborate(doc)
    assert env is not None, [str(d) for d in diags]
    return env


def holds(env, rel):
    """Whether `rel`, a (lhs word, rhs word or object) pair in composition
    order, holds in C when its generators are read through `env.aliases`."""
    c, alias = env.cats["C"], env.aliases["C"]

    def composite(word):
        m = alias[word[-1]]
        for g in reversed(word[:-1]):
            m = c.compose(alias[g], m)
        return m

    lhs, rhs = rel
    return composite(lhs) == (c.ident[rhs] if isinstance(rhs, str)
                              else composite(rhs))


@pytest.mark.parametrize("name", sorted(KNOWN))
def test_known_presentation_sizes(name):
    gens, rels, size = KNOWN[name]
    env = close(block(["a"], gens, rels))
    c = env.cats["C"]
    assert len(c.mor) == size
    assert validate_fincat(c) == []


def test_names_are_least_words():
    gens, rels, _ = KNOWN["S3"]
    c = close(block(["a"], gens, rels)).cats["C"]
    assert set(c.mor) == {("id", "a"), "s", "t", "s.t", "t.s", "s.t.s"}
    assert c.compose("t", "s.t") == "s.t.s"


def _walk(rng, gens, start, length):
    """A random composable word of `length` generators out of `start`, in
    composition order, or None when the walk gets stuck."""
    word, at = (), start
    for _ in range(length):
        out = [g for g, (d, _) in gens.items() if d == at]
        if not out:
            return None
        g = rng.choice(out)
        word, at = (g,) + word, gens[g][1]
    return word


def presentation(rng):
    """A random category block as (objects, gens text, relation texts,
    relations), with 1-3 objects, 1-4 generators and up to 4 relations."""
    objects = [f"x{i}" for i in range(rng.randint(1, 3))]
    gens = {f"g{i}": (rng.choice(objects), rng.choice(objects))
            for i in range(rng.randint(1, 4))}
    rels = []
    for _ in range(rng.randint(1, 4)):
        start = rng.choice(objects)
        lhs = _walk(rng, gens, start, rng.randint(2, 4))
        if lhs is None:
            continue
        end = gens[lhs[0]][1]
        choices = [_walk(rng, gens, start, rng.randint(1, 3)) for _ in range(8)]
        choices = [w for w in choices if w and gens[w[0]][1] == end]
        if end == start:
            choices.append(start)
        if choices:
            rels.append((lhs, rng.choice(choices)))
    text = [" . ".join(lhs) + " = "
            + (f"id({rhs})" if isinstance(rhs, str) else " . ".join(rhs))
            for lhs, rhs in rels]
    gtext = ", ".join(f"{g}: {d} -> {c}" for g, (d, c) in gens.items())
    return objects, gtext, text, rels


def test_random_presentations_satisfy_their_relations():
    rng = random.Random(SEED)
    closed = 0
    for i in range(PRESENTATIONS):
        objects, gtext, text, rels = presentation(rng)
        doc, diags = parse(block(objects, gtext, text))
        assert not diags, (i, [str(d) for d in diags])
        try:
            env, diags = elaborate(doc, Caps(max_closure=300))
        except CapExceeded:
            continue
        assert env is not None, (i, [str(d) for d in diags])
        closed += 1
        assert validate_fincat(env.cats["C"]) == [], i
        assert all(holds(env, r) for r in rels), (i, text)
    assert closed > PRESENTATIONS // 10


def test_free_endomorphism_hits_default_cap_quickly(tmp_path, capsys):
    f = tmp_path / "free.site"
    f.write_text("category N { objects: a; morphisms: n: a -> a; }\n")
    t0 = time.perf_counter()
    code = main(["validate", str(f)])
    assert time.perf_counter() - t0 < 2
    assert code == 3
    assert "--max-closure (10000)" in capsys.readouterr().err
