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
    FinCat,
    Functor,
    compose_functors,
    discrete_cat,
    identity_functor,
    is_equivalence,
    is_essentially_surjective,
    is_fully_faithful,
    iso_classes,
    poset_cat,
    product_cat,
    terminal_cat,
    validate_fincat,
)
from finstack.fincat import all_nat_isos
from finstack.indexed import path_composite
from finstack.util import fmt, stable_sorted

import corpus
import sitegen
from oracles import nat_trans_findings, ref_validate_fincat


ALL_CATS = [
    terminal_cat(),
    discrete_cat(("0", "1", "2")),
    corpus.arrow_cat(),
    corpus.span_cat(),
    corpus.patches_cat(),
    corpus.walking_iso_cat(),
    corpus.z2_cat(),
    corpus.parallel_pair_cat(),
]


@pytest.mark.parametrize("c", ALL_CATS, ids=lambda c: c.name)
def test_corpus_categories_valid(c):
    assert validate_fincat(c) == []


def test_validate_catches_broken_identity():
    c = corpus.arrow_cat()
    c.table[("i", "ida")] = "idb"  # breaks dom/cod typing of the composite
    assert any("wrong dom/cod" in e for e in validate_fincat(c))


def test_validate_catches_missing_composite():
    c = corpus.span_cat()
    del c.table[("jp", "idp")]
    assert any("missing composite" in e for e in validate_fincat(c))


def _listed_against_stable_order(c):
    """The ids of `c`, stored in stable order, listed in reverse."""
    return tuple(reversed(c.objects)), dict(reversed(c.mor.items()))


def test_from_homs_stores_a_listing_exactly_as_given():
    c = corpus.patches_cat()
    objects, mor = _listed_against_stable_order(c)
    built = FinCat.from_homs(objects, mor, c.ident, c.compose, name=c.name)
    assert built.objects == objects != tuple(stable_sorted(objects))
    assert list(built.mor) == list(mor) != stable_sorted(mor)
    assert built == c


def test_constructor_sorts_a_reversed_listing_into_ckey_order():
    """Ids of mixed types, so `ckey` order is not the order of any one
    type's comparison."""
    c = poset_cat(["b", 3, ("t", 0), "a", 10],
                  [("b", 3), (3, 10), ("a", ("t", 0))])
    objects, mor = _listed_against_stable_order(c)
    given = FinCat(objects, mor, c.ident, c.table, name=c.name)
    assert list(given.objects) == stable_sorted(objects) == list(c.objects)
    assert list(given.mor) == stable_sorted(mor) == list(c.mor)
    assert given == c


def _missing_composites_by_pairs(c):
    """The missing-composite check as a walk over every pair of morphisms."""
    return [f"missing composite for {fmt(g)} after {fmt(f)}"
            for f in c.mor for g in c.mor
            if c.cod(f) == c.dom(g) and (g, f) not in c.table]


def _without(c, pairs):
    table = {k: v for k, v in c.table.items() if k not in pairs}
    return FinCat(c.objects, c.mor, c.ident, table, name=c.name)


def test_missing_composites_found_as_by_every_pair():
    """validate_fincat walks the morphisms out of cod f; it reports the
    missing composites of the walk over every pair, in the same order."""
    rng = random.Random(20261018)
    cats = ALL_CATS + [sitegen.rand_poset(rng) for _ in range(20)]
    cats += [sitegen.rand_small_cat(rng) for _ in range(20)]
    for c in cats:
        assert validate_fincat(c) == _missing_composites_by_pairs(c) == []
        pairs = list(c.table)
        n = len(pairs)
        for k in sorted({1, min(2, n), max(1, n // 2), n}):
            broken = _without(c, set(rng.sample(pairs, k)))
            errs = validate_fincat(broken)
            assert errs == _missing_composites_by_pairs(broken) != [], c.name
    span = corpus.span_cat()
    broken = _without(span, {("jp", "idp"), (("id", "X"), "jq"), ("jq", "idq")})
    assert validate_fincat(broken) == _missing_composites_by_pairs(broken)


def _broken(c, rng):
    """Copies of c, each broken in one way that `validate_fincat` reports."""
    ms, obs = list(c.mor), list(c.objects)
    m, x, y = rng.choice(ms), rng.choice(obs), rng.choice(obs)
    pair = rng.choice(list(c.table))
    other = rng.choice(ms)

    def cat(objects=c.objects, mor=c.mor, ident=c.ident, table=c.table):
        return FinCat(objects, mor, ident, table, name=c.name)

    return [
        cat(objects=(*obs, x)),
        cat(mor={**c.mor, m: ("?", c.cod(m))}),
        cat(mor={**c.mor, m: (c.dom(m), ("?", 1))}),
        cat(ident={k: v for k, v in c.ident.items() if k != x}),
        cat(ident={**c.ident, x: ("?", x)}),
        cat(ident={**c.ident, x: m}),
        cat(table={**c.table, (m, ("?",)): m}),
        cat(table={**c.table, (other, m): m}),
        cat(table={**c.table, pair: ("?", True)}),
        cat(table={**c.table, pair: other}),
        cat(table={k: v for k, v in c.table.items() if k != pair}),
        cat(mor={**c.mor, ("extra", y, x): (y, x)}),
    ]


def test_validate_fincat_matches_the_id_keyed_reference():
    """Numbering the ids changes no finding, no order and no cap trip."""
    rng = random.Random(20261019)
    cats = ALL_CATS + [sitegen.rand_poset(rng) for _ in range(15)]
    cats += [sitegen.rand_small_cat(rng) for _ in range(15)]
    tried = 0
    for c in cats:
        for broken in [c, *_broken(c, rng)]:
            for caps in (Caps(), Caps(max_homset=1), Caps(max_homset=2)):
                try:
                    want = ref_validate_fincat(broken, caps)
                except CapExceeded as e:
                    with pytest.raises(CapExceeded) as got:
                        validate_fincat(broken, caps)
                    assert str(got.value) == str(e)
                    continue
                assert validate_fincat(broken, caps) == want, c.name
                tried += bool(want)
    assert tried > 500


def test_validate_catches_broken_associativity():
    # Z3 with the square of s2 redirected: identity laws survive but
    # (s2∘s2)∘s ≠ s2∘(s2∘s).
    mor = {"e": ("*", "*"), "s": ("*", "*"), "s2": ("*", "*")}
    table = {
        ("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s",
        ("e", "s2"): "s2", ("s2", "e"): "s2",
        ("s", "s"): "s2", ("s", "s2"): "e", ("s2", "s"): "e",
        ("s2", "s2"): "s2",
    }
    c = FinCat(("*",), mor, {"*": "e"}, table)
    errs = validate_fincat(c)
    assert any("associativity" in e for e in errs)


def test_hom_and_into():
    c = corpus.span_cat()
    assert c.hom("p", "X") == ("jp",)
    assert c.hom("p", "q") == ()
    assert set(c.into("X")) == {"idX", "jp", "jq"}


def test_inverse_and_iso():
    w = corpus.walking_iso_cat()
    assert w.inverse("f") == "g"
    assert w.inverse("idx") == "idx"
    assert w.iso_between("x", "y") in ("f",)
    c = corpus.arrow_cat()
    assert c.inverse("i") is None
    assert c.iso_between("a", "b") is None


def test_path_composite():
    c = corpus.patches_cat()
    got = path_composite(c, "X", [corpus.le("p", "X"), corpus.le("r", "p")])
    assert got == corpus.le("r", "X")
    assert path_composite(c, "X", []) == c.ident["X"]


def test_poset_cat_closure():
    c = poset_cat("abc", [("a", "b"), ("b", "c")])
    assert validate_fincat(c) == []
    assert ("le", "a", "c") in c.mor


_MOR_ORDER = """
import sys
from pathlib import Path
from finstack import embed_discrete, grothendieck, load_input, poset_cat
c = poset_cat("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
env, _ = load_input(Path(sys.argv[1]).read_text(encoding="utf-8"))
G = grothendieck(embed_discrete(env.presheaves["S"]))
print(repr([list(c.mor), list(G.total.mor)]))
"""


def test_mor_order_ignores_hash_seed():
    site = Path(__file__).parent / "data" / "patches.site"
    src = str(Path(finstack.__file__).resolve().parents[1])
    outs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", _MOR_ORDER, str(site)],
                             env=env, capture_output=True, text=True,
                             timeout=60, check=True)
        outs.append(run.stdout)
    assert outs[0] == outs[1]


def test_hom_cap_enforced():
    c = corpus.parallel_pair_cat()
    with pytest.raises(CapExceeded):
        validate_fincat(c, Caps(max_homset=1))


def test_product_cat():
    p = product_cat([corpus.arrow_cat(), corpus.walking_iso_cat()])
    assert validate_fincat(p.cat) == []
    assert len(p.cat.objects) == 4
    for pr in p.projections:
        assert pr.validate() == []


def test_functor_validation():
    c = corpus.walking_iso_cat()
    assert identity_functor(c).validate() == []
    bad = Functor(c, c, {"x": "x", "y": "y"}, {"idx": "idx", "idy": "idy", "f": "f", "g": "f"})
    assert bad.validate() != []


def test_compose_functors():
    c = corpus.z2_cat()
    f = identity_functor(c)
    assert compose_functors(f, f).validate() == []


def test_nat_trans_validation():
    w = corpus.walking_iso_cat()
    one = identity_functor(w)
    assert nat_trans_findings(one, one, {"x": "idx", "y": "idy"}) == []
    assert nat_trans_findings(one, one, {"x": "idx", "y": "f"}) != []


def test_all_nat_isos_count():
    # Id => Id on Z2 has components commuting with everything: both e and s do.
    z = corpus.z2_cat()
    ts = list(all_nat_isos(identity_functor(z), identity_functor(z)))
    assert len(ts) == 2


def test_all_nat_isos_to_swap():
    w = corpus.walking_iso_cat()
    swap = Functor(w, w, {"x": "y", "y": "x"}, {"idx": "idy", "idy": "idx", "f": "g", "g": "f"})
    assert swap.validate() == []
    iso = next(all_nat_isos(identity_functor(w), swap))
    assert nat_trans_findings(identity_functor(w), swap, iso) == []
    assert all(w.is_iso(a) for a in iso.values())


def test_equivalence_predicates():
    w = corpus.walking_iso_cat()
    t = terminal_cat()
    collapse = Functor(
        w, t, {"x": "*", "y": "*"}, {m: ("id", "*") for m in w.mor}
    )
    assert collapse.validate() == []
    assert is_fully_faithful(collapse)
    assert is_essentially_surjective(collapse)
    assert is_equivalence(collapse)

    two = discrete_cat(("0", "1"))
    merge = Functor(two, t, {"0": "*", "1": "*"}, {("id", "0"): ("id", "*"), ("id", "1"): ("id", "*")})
    assert merge.validate() == []
    ff = is_fully_faithful(merge)
    assert not ff and "not full" in ff.reason

    point = Functor(t, w, {"*": "x"}, {("id", "*"): "idx"})
    assert point.validate() == []
    assert is_equivalence(point)  # walking iso is equivalent to the point

    a = corpus.arrow_cat()
    inc = Functor(t, a, {"*": "a"}, {("id", "*"): "ida"})
    es = is_essentially_surjective(inc)
    assert not es and es.witness == "b"
    assert not is_equivalence(inc)


def test_iso_classes():
    w = corpus.walking_iso_cat()
    assert iso_classes(w) == [["x", "y"]]
    assert iso_classes(discrete_cat(("0", "1"))) == [["0"], ["1"]]
