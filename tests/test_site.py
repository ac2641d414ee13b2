import pytest

from finstack import (
    Caps,
    CapExceeded,
    SiteError,
    Sieve,
    Topology,
    generate_sieve,
    intersect_sieves,
    maximal_sieve,
    minimal_cover,
    pullback_sieve,
    saturate,
    sieves_on,
    slice_site,
    validate_sieve,
    validate_topology,
)

import corpus
from corpus import le


def test_sieves_on_arrow():
    c = corpus.arrow_cat()
    got = sieves_on(c, "b")
    assert set(got) == {frozenset(), frozenset({"i"}), frozenset({"i", "idb"})}
    assert sieves_on(c, "a") == [frozenset(), frozenset({"ida"})]


def test_validate_sieve():
    c = corpus.arrow_cat()
    assert validate_sieve(Sieve("b", frozenset({"i"}), c)) == []
    bad = validate_sieve(Sieve("b", frozenset({"idb"}), c))
    assert any("not closed" in e for e in bad)
    assert validate_sieve(Sieve("b", frozenset({"ida"}), c)) != []


def test_generate_and_pullback():
    c = corpus.patches_cat()
    s = generate_sieve(c, "X", [le("p", "X"), le("q", "X")])
    assert s.mors == frozenset({le("p", "X"), le("q", "X"), le("r", "X")})
    back = pullback_sieve(s, le("p", "X"))
    assert back.target == "p"
    assert back.mors == frozenset(c.into("p"))  # contains the identity
    with pytest.raises(SiteError):
        generate_sieve(c, "X", [le("r", "p")])


def test_intersect():
    c = corpus.span_cat()
    a = generate_sieve(c, "X", ["jp"])
    b = generate_sieve(c, "X", ["jq"])
    assert intersect_sieves(a, b).mors == frozenset()


def test_saturate_arrow():
    c, J = corpus.arrow_site()
    assert validate_topology(J) == []
    assert J.covers["b"] == frozenset({frozenset({"i", "idb"}), frozenset({"i"})})
    assert J.covers["a"] == frozenset({frozenset({"ida"})})
    assert minimal_cover(J, "b").mors == frozenset({"i"})


def test_saturate_span():
    c, J = corpus.span_site()
    assert validate_topology(J) == []
    assert minimal_cover(J, "X").mors == frozenset({"jp", "jq"})
    assert minimal_cover(J, "p").mors == frozenset({"idp"})


def test_saturate_patches():
    c, J = corpus.patches_site()
    assert validate_topology(J) == []
    assert minimal_cover(J, "X").mors == frozenset(
        {le("p", "X"), le("q", "X"), le("r", "X")}
    )
    # Nothing forces proper covers below X.
    assert J.covers["p"] == frozenset({frozenset(c.into("p"))})


def test_saturate_multicover():
    c, J = corpus.multicover_site()
    assert validate_topology(J) == []
    # Transitivity promotes every sieve containing the r-leg.
    on_x = {s for s in J.covers["X"]}
    assert frozenset({le("r", "X")}) in on_x
    assert len(on_x) == 5
    assert minimal_cover(J, "X").mors == frozenset({le("r", "X")})
    assert minimal_cover(J, "p").mors == frozenset({le("r", "p")})
    assert minimal_cover(J, "q").mors == frozenset({le("r", "q")})
    assert minimal_cover(J, "r").mors == frozenset({le("r", "r")})


def test_saturate_idempotent():
    for build in (corpus.arrow_site, corpus.span_site, corpus.multicover_site):
        c, J = build()
        again = saturate(c, {x: list(J.covers[x]) for x in c.objects})
        assert again == J


def test_empty_sieve_cover_degenerates():
    # Declaring the empty family as a cover makes every sieve covering.
    c = corpus.arrow_cat()
    J = saturate(c, {"b": [[]]})
    assert validate_topology(J) == []
    assert J.covers["b"] == frozenset(sieves_on(c, "b"))
    assert minimal_cover(J, "b").mors == frozenset()


def test_validate_topology_failures():
    c = corpus.arrow_cat()
    missing_max = Topology(c, {
        "a": frozenset({frozenset({"ida"})}),
        "b": frozenset({frozenset({"i"})}),
    })
    assert any("maximal" in e for e in validate_topology(missing_max))

    unstable = Topology(c, {
        "a": frozenset({frozenset({"ida"})}),
        "b": frozenset({frozenset({"i", "idb"}), frozenset()}),
    })
    errs = validate_topology(unstable)
    assert any("stability" in e for e in errs)


def test_minimal_cover_requires_saturation():
    c = corpus.span_cat()
    J = Topology(c, {
        "p": frozenset({frozenset({"idp"})}),
        "q": frozenset({frozenset({"idq"})}),
        "X": frozenset({
            frozenset({"idX", "jp", "jq"}),
            frozenset({"jp"}),
            frozenset({"jq"}),
        }),
    })
    with pytest.raises(SiteError):
        minimal_cover(J, "X")


def test_maximal_sieve():
    c = corpus.span_cat()
    assert maximal_sieve(c, "X").mors == frozenset({"idX", "jp", "jq"})
    assert maximal_sieve(c, "X").is_maximal()


def test_sieve_cap():
    c = corpus.span_cat()
    with pytest.raises(CapExceeded) as e:
        sieves_on(c, "X", Caps(max_sieves_per_object=4))
    assert str(e.value) == (
        "sieve universe on X: 8 exceeds cap 4; raise --max-sieves-per-object"
    )


def test_slice_site_patches():
    c, J = corpus.patches_site()
    sl, JX, proj = slice_site(J, "X")
    assert len(sl.objects) == 4
    from finstack import validate_fincat

    assert validate_fincat(sl) == []
    assert proj.validate() == []
    assert validate_topology(JX) == []
    # The slice object id_X is covered by the sieve of patch inclusions.
    idX = le("X", "X")
    members = frozenset(
        (idX, h) for h in [le("p", "X"), le("q", "X"), le("r", "X")]
    )
    assert members in JX.covers[idX]


def test_slice_site_arrow():
    c, J = corpus.arrow_site()
    sl, JX, proj = slice_site(J, "b")
    assert set(sl.objects) == {"idb", "i"}
    assert validate_topology(JX) == []
    # Over the slice object i (whose domain is a), only the maximal sieve covers.
    covers_i = JX.covers["i"]
    assert covers_i == frozenset({frozenset({("i", "ida")})})
