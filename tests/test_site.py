import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import finstack
from finstack import (
    Caps,
    CapExceeded,
    SiteError,
    Topology,
    minimal_cover,
    saturate,
    sieves_on,
    slice_cat,
    slice_site,
    validate_topology,
)

import corpus
import sitegen
from corpus import le


def test_sieves_on_arrow():
    c = corpus.arrow_cat()
    got = sieves_on(c, "b")
    assert set(got) == {frozenset(), frozenset({"i"}), frozenset({"i", "idb"})}
    assert sieves_on(c, "a") == [frozenset(), frozenset({"ida"})]


def test_saturate_rejects_a_generator_not_into_its_object():
    c = corpus.patches_cat()
    for gen, text in ((le("r", "p"), "(le,r,p)"), ("nowhere", "nowhere")):
        with pytest.raises(SiteError) as e:
            saturate(c, {"X": [[le("p", "X"), gen]]})
        assert str(e.value) == f"generator {text} is not a morphism into X"


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


_MALFORMED = """
from finstack import Topology, poset_cat, validate_topology
c = poset_cat("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
top = {x: frozenset(c.into(x)) for x in c.objects}
ad, bd, cd = ("le", "a", "d"), ("le", "b", "d"), ("le", "c", "d")
def with_d(*extra):
    return Topology(c, {x: frozenset({top[x], *(extra if x == "d" else ())})
                        for x in c.objects})
junk = with_d(frozenset({"junk1", "junk2", "junk3"}),
              frozenset({"junk4", ("le", "a", "b")}))
unclosed = with_d(frozenset({bd, cd}))
unstable = with_d(frozenset({ad, bd}), frozenset({ad, cd}))
print(repr([validate_topology(J) for J in (junk, unclosed, unstable)]))
"""


def test_validate_topology_findings_ignore_hash_seed():
    """Malformed covers are sets of hashed ids; the findings must not follow
    their iteration order, which changes with the hash seed."""
    src = str(Path(finstack.__file__).resolve().parents[1])
    outs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", _MALFORMED], env=env,
                             capture_output=True, text=True, timeout=60,
                             check=True)
        outs.append(run.stdout)
    assert outs[0] == outs[1]
    junk, unclosed, unstable = eval(outs[0])
    assert junk == [
        "cover on d is not a sieve: member (le,a,b) does not end at d",
        "cover on d is not a sieve: member junk1 is not a morphism",
    ]
    assert unclosed == [
        "cover on d is not a sieve: not closed: (le,b,d) ∘ (le,a,b) escapes "
        "the sieve"
    ]
    assert unstable == [
        "stability fails: pullback of a cover on d along (le,b,d) is not "
        "covering",
        "stability fails: pullback of a cover on d along (le,c,d) is not "
        "covering",
        "transitivity fails: a sieve on d is locally covering but missing",
    ]


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


def ref_slice_site(J, x):
    """The induced topology by its definition: enumerate every sieve on each
    slice object f and keep those whose projection covers dom f."""
    c = J.base
    sl, proj = slice_cat(c, x)
    covers = {
        f: frozenset(s for s in sieves_on(sl, f)
                     if frozenset(h for _, h in s) in J.covers[c.dom(f)])
        for f in sl.objects
    }
    return sl, Topology(sl, covers), proj


def test_slice_site_matches_the_enumerated_reference():
    rng = random.Random(31)
    sites = [corpus.terminal_site(), corpus.arrow_site(), corpus.span_site(),
             corpus.patches_site(), corpus.multicover_site()]
    sites += [sitegen.rand_site(rng) for _ in range(300)]
    slices = 0
    for c, J in sites:
        for x in c.objects:
            sl, JX, proj = slice_site(J, x)
            rsl, RX, rproj = ref_slice_site(J, x)
            assert sl == rsl and proj == rproj
            assert list(JX.covers) == list(RX.covers)
            assert JX.covers == RX.covers
            slices += 1
    assert slices > 800


def test_slice_site_arrow():
    c, J = corpus.arrow_site()
    sl, JX, proj = slice_site(J, "b")
    assert set(sl.objects) == {"idb", "i"}
    assert validate_topology(JX) == []
    # Over the slice object i (whose domain is a), only the maximal sieve covers.
    covers_i = JX.covers["i"]
    assert covers_i == frozenset({frozenset({("i", "ida")})})
