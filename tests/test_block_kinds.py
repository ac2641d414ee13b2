"""The block kinds are listed once: the site language's in `dsl.BLOCK_KINDS`
and the interchange format's in `dsl._INTERCHANGE`.  Every place that
handles a kind finds its handler there by the kind's name, so a kind added
in one place only fails here."""

import re

from finstack.dsl import (
    BLOCK_KINDS,
    RESERVED,
    Elaborated,
    _Elab,
    _INTERCHANGE,
    _Parser,
    _Writer,
    parse,
)


def test_each_kind_has_a_handler_in_each_place():
    for kind in BLOCK_KINDS:
        assert callable(getattr(_Parser, kind, None)), kind
        assert callable(getattr(_Elab, "do_" + kind, None)), kind
        assert kind in RESERVED
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
