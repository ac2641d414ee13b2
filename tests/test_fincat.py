import os
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
    NatTrans,
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
from finstack.fincat import all_nat_trans, find_natiso

import corpus


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


def test_compose_path():
    c = corpus.patches_cat()
    got = c.compose_path([corpus.le("r", "p"), corpus.le("p", "X")])
    assert got == corpus.le("r", "X")


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
    t = NatTrans(identity_functor(w), identity_functor(w), {"x": "idx", "y": "idy"})
    assert t.validate() == []
    bad = NatTrans(identity_functor(w), identity_functor(w), {"x": "idx", "y": "f"})
    assert bad.validate() != []


def test_all_nat_trans_count():
    # Id => Id on Z2 has components commuting with everything: both e and s do.
    z = corpus.z2_cat()
    ts = list(all_nat_trans(identity_functor(z), identity_functor(z)))
    assert len(ts) == 2


def test_find_natiso():
    w = corpus.walking_iso_cat()
    swap = Functor(w, w, {"x": "y", "y": "x"}, {"idx": "idy", "idy": "idx", "f": "g", "g": "f"})
    assert swap.validate() == []
    iso = find_natiso(identity_functor(w), swap)
    assert iso is not None and iso.validate() == []


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
