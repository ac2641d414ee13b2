"""The bounded search kernel, the category builder, and the searches that
run through them."""

from itertools import product

import pytest

from finstack import (
    CapExceeded,
    Caps,
    FinCat,
    InternalError,
    NatTrans,
    all_functors,
    all_indexed_funs,
    all_nat_trans,
    desc_hom,
    enumerate_data,
    matching_families,
    minimal_cover,
    validate_fincat,
)
from finstack.caps import Budget, search

import corpus


def test_search_order_and_pruning():
    got = [
        tuple(a)
        for a in search(3, lambda i, a: "ab", lambda i, a: a[:2] != ["a", "b"],
                        Budget())
    ]
    want = [t for t in product("ab", repeat=3) if t[:2] != ("a", "b")]
    assert got == want


def test_search_spends_one_node_per_position_entered():
    # root + 2 + 4 + 8 positions entered for three free binary choices
    list(search(3, lambda i, a: (0, 1), lambda i, a: True, Budget(Caps(max_descent=15))))
    with pytest.raises(CapExceeded, match="raise --max-descent"):
        list(search(3, lambda i, a: (0, 1), lambda i, a: True,
                    Budget(Caps(max_descent=14))))


def test_search_with_no_positions_yields_once():
    assert [list(a) for a in search(0, None, None, Budget())] == [[]]


def test_from_homs_matches_hand_table():
    c = corpus.walking_iso_cat()
    again = FinCat.from_homs(c.objects, c.mor, c.ident,
                             lambda g, f: c.table[(g, f)], name="again")
    assert again == c and validate_fincat(again) == []


def test_from_homs_rejects_escaping_composite():
    c = corpus.arrow_cat()
    with pytest.raises(InternalError, match="after ida is not a morphism of bad"):
        FinCat.from_homs(c.objects, c.mor, c.ident,
                         lambda g, f: "nope" if f == "ida" else c.table[(g, f)],
                         name="bad")


# The least max_descent each search needs on one corpus input, as measured
# before the searches shared a kernel.  One node less must trip the cap.


def _enumerate_data(caps):
    c, J = corpus.patches_site()
    enumerate_data(corpus.const_walking_iso(c), minimal_cover(J, "X"), caps)


def _desc_hom(caps):
    c, J = corpus.patches_site()
    D, R = corpus.const_walking_iso(c), minimal_cover(J, "X")
    data = enumerate_data(D, R)
    desc_hom(D, R, data[0], data[-1], caps)


def _matching_families(caps):
    c, J = corpus.patches_site()
    matching_families(corpus.patches_sheaf(), minimal_cover(J, "X"), caps)


def _all_functors(caps):
    w = corpus.walking_iso_cat()
    list(all_functors(w, w, caps))


def _all_indexed_funs(caps):
    t = corpus.twisted_z2_indexed()
    list(all_indexed_funs(t, t, caps))


@pytest.mark.parametrize("run, least", [
    (_enumerate_data, 48),
    (_desc_hom, 4),
    (_matching_families, 7),
    (_all_functors, 12),
    (_all_indexed_funs, 6),
])
def test_search_cap_trips_where_it_did(run, least):
    run(Caps(max_descent=least))
    with pytest.raises(CapExceeded):
        run(Caps(max_descent=least - 1))


def _brute_nat_trans(F, G, iso_only):
    dst = F.dst
    objects = list(F.src.objects)
    pools = [
        [a for a in dst.hom(F.omap[x], G.omap[x]) if not iso_only or dst.is_iso(a)]
        for x in objects
    ]
    out = []
    for combo in product(*pools):
        t = NatTrans(F, G, dict(zip(objects, combo)))
        if not t.validate():
            out.append(t.comp)
    return out


@pytest.mark.parametrize("src, dst", [
    (corpus.walking_iso_cat, corpus.walking_iso_cat),
    (corpus.z2_cat, corpus.z2_cat),
    (corpus.arrow_cat, corpus.patches_cat),
    (corpus.parallel_pair_cat, corpus.arrow_cat),
    (corpus.span_cat, corpus.walking_iso_cat),
])
def test_all_nat_trans_matches_brute_force(src, dst):
    c, k = src(), dst()
    functors = list(all_functors(c, k))
    assert functors
    for F, G in product(functors, repeat=2):
        for iso_only in (False, True):
            got = [t.comp for t in all_nat_trans(F, G, iso_only)]
            assert got == _brute_nat_trans(F, G, iso_only)
