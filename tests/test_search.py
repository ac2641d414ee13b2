"""The bounded search kernel, the category builder, and the searches that
run through them.

`enumerate_data` and `all_functors` are checked against the loops they used
before their outer products were forward-checked: every member-object
choice (every object map) of the full product in turn, each searched for
coherences (morphism maps).  Same results, same order, never more nodes."""

import random
from itertools import product

import pytest

import finstack.descent
from finstack import (
    CapExceeded,
    Caps,
    DescentDatum,
    FinCat,
    Functor,
    InternalError,
    NatTrans,
    Sieve,
    all_functors,
    all_indexed_funs,
    all_nat_trans,
    const_indexed,
    desc_hom,
    discrete_cat,
    embed_discrete,
    enumerate_data,
    is_sheaf_presheaf,
    is_stack,
    least_cover_pullbacks,
    matching_families,
    minimal_cover,
    sieves_on,
    terminal_cat,
    validate_fincat,
)
from finstack.caps import Budget, pruned_product, search
from finstack.descent import coh_pairs

import corpus
import sitegen


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


def test_pruned_product_order_and_nodes():
    # Position 1 rejects "b" after "a": one node per rejected candidate,
    # none for the survivors.
    budget = Budget(Caps(max_descent=2))
    got = [tuple(a) for a in pruned_product(
        ["ab", "ab", "ab"], lambda i, a: a[:2] != ["a", "b"], budget)]
    assert got == [t for t in product("ab", repeat=3) if t[:2] != ("a", "b")]
    assert budget.left == 1
    # Rejections at the last position count too.
    with pytest.raises(CapExceeded, match="raise --max-descent"):
        list(pruned_product(["ab", "ab"], lambda i, a: i == 0,
                            Budget(Caps(max_descent=3))))


def test_pruned_product_of_nothing():
    budget = Budget(Caps(max_descent=0))
    assert [list(a) for a in pruned_product([], None, budget)] == [[]]
    assert list(pruned_product(["ab", "", "ab"], lambda i, a: False, budget)) == []


def test_from_homs_matches_hand_table():
    c = corpus.walking_iso_cat()
    again = FinCat.from_homs(c.objects, c.mor, c.ident,
                             lambda g, f: c.table[(g, f)], name="again")
    assert again == c and validate_fincat(again) == []
    with pytest.raises(CapExceeded) as e:
        validate_fincat(again, Caps(max_homset=0))
    assert str(e.value) == "hom(x,x): 1 exceeds cap 0; raise --max-homset"


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


# ---------------------------------------------------------------------------
# forward-checked products against the full products they replace


def ref_enumerate_data(D, R, caps=Caps()):
    """Every member-object choice of the full product, each searched for
    coherence isos."""
    base = D.base
    members = R.members()
    pairs = coh_pairs(D, R)
    at = {p: i for i, p in enumerate(pairs)}
    closing = {}
    for f in members:
        for g in base.into(base.dom(f)):
            fg = base.compose(f, g)
            for h in base.into(base.dom(g)):
                gh = base.compose(g, h)
                keys = (at[(f, gh)], at[(fg, h)], at[(f, g)])
                closing.setdefault(max(keys), []).append((f, g, h, *keys))

    def cands(i, coh):
        f, g = pairs[i]
        y = base.dom(g)
        fib = D.fib[y]
        src = D.res[g].ob(obj[f])
        dst = obj[base.compose(f, g)]
        if base.is_id(g):
            m = fib.inverse(D.unit(y, obj[f]))
            return [m] if m is not None and fib.mor[m] == (src, dst) else []
        return [m for m in fib.hom(src, dst) if fib.is_iso(m)]

    def fits(i, coh):
        for f, g, h, fgh, fg_h, f_g in closing.get(i, ()):
            fib = D.fib[base.dom(h)]
            lhs = fib.compose(coh[fgh], D.gamma(g, h, obj[f]))
            rhs = fib.compose(coh[fg_h], D.res[h].mo(coh[f_g]))
            if lhs != rhs:
                return False
        return True

    out = []
    budget = Budget(caps)
    for combo in product(*(D.fib[base.dom(f)].objects for f in members)):
        obj = dict(zip(members, combo))
        for coh in search(len(pairs), cands, fits, budget):
            out.append(DescentDatum(obj, zip(pairs, coh)))
    return out


def ref_all_functors(src, dst, caps=Caps()):
    """Every object map of the full product, each searched for morphism
    maps."""
    objs = src.stable_objects()
    non_id = [m for m in src.ordered(src.mor) if not src.is_id(m)]
    at = {m: i for i, m in enumerate(non_id)}
    closing = {}
    for (g, f), h in src.table.items():
        i = max(at.get(g, -1), at.get(f, -1), at.get(h, -1))
        if i >= 0:
            closing.setdefault(i, []).append((g, f, h))
    budget = Budget(caps)
    for combo in product(*(dst.stable_objects() for _ in objs)):
        omap = dict(zip(objs, combo))
        mmap = {src.ident[x]: dst.ident[omap[x]] for x in objs}

        def cands(i, a):
            d, c = src.mor[non_id[i]]
            return dst.hom(omap[d], omap[c])

        def fits(i, a):
            mmap[non_id[i]] = a[i]
            return all(
                dst.table[(mmap[g], mmap[f])] == mmap[h]
                for g, f, h in closing.get(i, ())
            )

        for a in search(len(non_id), cands, fits, budget):
            yield Functor(src, dst, dict(omap), dict(mmap))


@pytest.fixture
def spent(monkeypatch):
    """`spent(f, *args)`: the results of f as a list, and the search nodes
    spent making them."""
    count = [0]
    spend = Budget.spend

    def counting(self):
        count[0] += 1
        spend(self)

    monkeypatch.setattr(Budget, "spend", counting)

    def run(f, *args):
        before = count[0]
        out = list(f(*args))
        return out, count[0] - before

    return run


def descent_inputs():
    """(indexed category, sieve): every sieve on every object of seeded
    `sitegen` sites under random indexed categories and constant walking
    isos, the corpus discrete embeddings on their sites, the twisted Z/2
    family, and the covers and least-cover pullbacks of small open
    lattices under discrete embeddings."""
    out = []
    rng = random.Random(41)
    for _ in range(30):
        c, J = sitegen.rand_site(rng)
        for D in (sitegen.rand_indexed(rng, c), corpus.const_walking_iso(c)):
            out += [(D, Sieve(x, s, c)) for x in c.objects for s in sieves_on(c, x)]
    c, J = corpus.patches_site()
    for P in (corpus.patches_sheaf(), corpus.patches_nonsheaf(),
              corpus.patches_nonseparated(), corpus.const_presheaf(c)):
        out += [(embed_discrete(P), R) for R in least_cover_pullbacks(J)]
        out += [(embed_discrete(P), Sieve("X", s, c)) for s in J.covers["X"]]
    _, J = corpus.span_site()
    for P in (corpus.span_presheaf(1), corpus.span_presheaf_free()):
        out += [(embed_discrete(P), Sieve("X", s, J.base)) for s in J.covers["X"]]
    t = corpus.twisted_z2_indexed()
    out += [(t, Sieve("*", s, t.base)) for s in sieves_on(t.base, "*")]
    for n in range(5, 11):
        c, J, opens = sitegen.open_cover_site(rng, n)
        D = embed_discrete(sitegen.restriction_presheaf(rng, c, opens, 3))
        out += [(D, R) for R in least_cover_pullbacks(J)]
        out += [(D, Sieve(x, s, c)) for x in c.objects for s in J.covers[x]]
    return out


def test_enumerate_data_matches_full_product(spent):
    pruned = 0
    inputs = descent_inputs()
    assert len(inputs) > 400
    for D, R in inputs:
        got, nodes = spent(enumerate_data, D, R)
        want, ref_nodes = spent(ref_enumerate_data, D, R)
        assert got == want, (D.name, R)
        assert nodes <= ref_nodes, (D.name, R)
        pruned += nodes < ref_nodes
    assert pruned > 50


FUNCTOR_CATS = (
    terminal_cat,
    corpus.arrow_cat,
    corpus.span_cat,
    corpus.patches_cat,
    corpus.walking_iso_cat,
    corpus.z2_cat,
    corpus.parallel_pair_cat,
    corpus.discrete_two,
)


def test_all_functors_matches_full_product(spent):
    pruned = 0
    for src, dst in product(FUNCTOR_CATS, repeat=2):
        src, dst = src(), dst()
        got, nodes = spent(all_functors, src, dst)
        want, ref_nodes = spent(ref_all_functors, src, dst)
        assert got == want, (src.name, dst.name)
        assert nodes <= ref_nodes, (src.name, dst.name)
        pruned += nodes < ref_nodes
    assert pruned > 10


def test_empty_fibres_and_empty_sieve(spent):
    # A member over b has an empty fibre: no data, no node.
    D = embed_discrete(corpus.arrow_presheaf(nb=0))
    c = D.base
    for s in sieves_on(c, "b"):
        if "idb" in s:
            assert spent(enumerate_data, D, Sieve("b", s, c)) == ([], 0)
    c, J = corpus.patches_site()
    empty = const_indexed(c, discrete_cat((), name="empty"))
    assert spent(enumerate_data, empty, minimal_cover(J, "X")) == ([], 0)
    # The empty sieve has one datum, the empty one, for one node.
    assert spent(enumerate_data, empty, Sieve("X", frozenset(), c)) == (
        [DescentDatum({}, {})], 1)
    # No object of the target: no functor, no node; from the empty
    # category: one functor, for one node.
    none = discrete_cat((), name="empty")
    assert spent(all_functors, corpus.arrow_cat(), none) == ([], 0)
    got, nodes = spent(all_functors, none, corpus.arrow_cat())
    assert [(F.omap, F.mmap) for F in got] == [({}, {})] and nodes == 1


@pytest.mark.parametrize("seed, n_opens", [(0, 13), (0, 14), (0, 15)])
def test_budget_bound_open_lattices_decide(seed, n_opens, monkeypatch):
    """Three sections per open on 13 to 15 opens: the full product of
    member objects exhausts the default budget; the forward-checked one
    decides, and agrees with the set-level sheaf condition."""
    rng = random.Random(f"{seed}:{n_opens}")
    c, J, opens = sitegen.open_cover_site(rng, n_opens)
    P = sitegen.restriction_presheaf(rng, c, opens, 3)
    D = embed_discrete(P)
    assert is_stack(D, J).ok == is_sheaf_presheaf(P, J).ok
    monkeypatch.setattr(finstack.descent, "enumerate_data", ref_enumerate_data)
    with pytest.raises(CapExceeded, match="raise --max-descent"):
        is_stack(D, J)
