"""The block kinds are listed once: the site language's grammar in
`dsl.BLOCK_KINDS` and the interchange format's kinds in `dsl._INTERCHANGE`.
Every place that handles a kind finds its handler there by the kind's name,
so a kind added in one place only fails here."""

import re

from finstack.dsl import (
    BLOCK_KINDS,
    MOR,
    RESERVED,
    Elaborated,
    _Elab,
    _INTERCHANGE,
    _Parser,
    _Writer,
    parse,
)


def _is_shape(shape):
    return isinstance(shape, tuple) and all(isinstance(w, str) for w in shape)


def _is_reader(name):
    return isinstance(name, str) and callable(getattr(_Parser, name, None))


def test_each_kind_has_a_handler_in_each_place():
    for kind, (header, rules) in BLOCK_KINDS.items():
        assert _is_shape(header), kind
        assert MOR not in header, kind
        for phrase in header:
            assert " " not in phrase or phrase in _Elab.REFERENTS, (kind, phrase)
        if isinstance(rules, dict):
            for keyword, rule in rules.items():
                assert _is_shape(rule) or _is_reader(rule), (kind, keyword)
        else:
            assert _is_reader(rules), kind
        assert callable(getattr(_Elab, "do_" + kind, None)), kind
    env = Elaborated()
    tables = []
    for kind, (refs, _, read, validate) in _INTERCHANGE.items():
        assert callable(read) and callable(validate), kind
        assert callable(getattr(_Writer, kind, None)), kind
        tables.append(env.kinds_of(kind))
        assert isinstance(tables[-1], dict), kind
        for _, _, referent in refs:
            assert referent in _INTERCHANGE, (kind, referent)
    assert len({id(t) for t in tables}) == len(_INTERCHANGE)

    _, diags = parse("sieve S { }")
    assert diags[0].msg == "unknown block kind 'sieve'"
    words = re.findall(r"[a-z]+", diags[0].hint)
    assert words[0] == "expected" and words[-2] == "or"
    assert words[1:-2] + words[-1:] == list(BLOCK_KINDS)


def test_reserved_words_are_the_grammar_words():
    assert RESERVED == {
        "category", "poset", "coverage", "functor", "presheaf", "indexed",
        "fibration", "objects", "morphisms", "compose", "on", "over", "fiber",
        "restrict", "compositor", "unitor", "strict", "component", "cell",
        "obj", "mor", "at", "id",
    }


def test_unknown_entry_hints_list_the_keywords():
    for kind, block in (
            ("category", "category C { frob; }"),
            ("functor", "functor F : C -> C { frob; }"),
            ("indexed", "indexed D over C { frob; }"),
            ("fibration", "fibration Q : D -> D { frob; }")):
        _, diags = parse(block)
        assert diags[0].msg == f"unknown {kind} entry 'frob'"
        hint = diags[0].hint.replace(",", "").split()
        assert hint[0] == "expected" and hint[-2] == "or"
        assert hint[1:-2] + hint[-1:] == list(BLOCK_KINDS[kind][1])
    _, diags = parse("indexed D over C { frob; }")
    assert diags[0].hint == ("expected fiber, restrict, compositor, unitor, "
                             "or strict")
    _, diags = parse("functor F : C -> C { frob; }")
    assert diags[0].hint == "expected obj or mor"
