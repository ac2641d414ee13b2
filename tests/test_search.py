"""The bounded search kernel, the category builder, and the searches that
run through them.

`enumerate_data` is checked against the loop it used before its outer
product was forward-checked: every member-object choice of the full product
in turn, each searched for coherences.  Same results, same order, never more
nodes.  `desc_hom`, `all_nat_isos`, `find_indexed_natiso` and
`matching_families` are checked against the schedules they filed themselves
before the kernel kept it: same results, same order, same nodes.  Every
reference runs on `oracles.ref_search`, a copy of the kernel of that time,
and the functors and indexed functors they are run on come from the
`oracles` enumerators."""

import random
from itertools import product

import pytest

from finstack import (
    CapExceeded,
    Caps,
    DescentDatum,
    FinCat,
    InternalError,
    Plan,
    Sieve,
    all_nat_isos,
    const_indexed,
    desc_hom,
    discrete_cat,
    embed_discrete,
    enumerate_data,
    find_indexed_natiso,
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
from finstack.util import stable_sorted

import corpus
import sitegen
from oracles import (
    desc_cat_parity,
    nat_trans_findings,
    ref_all_functors,
    ref_all_indexed_funs,
    ref_all_nat_isos,
    ref_coh_pairs,
    ref_search,
)


def test_search_order_and_pruning():
    got = [
        tuple(a)
        for a in search(["ab"] * 3, [((0, 1), None)],
                        lambda c, a: a[:2] != ["a", "b"], Budget())
    ]
    want = [t for t in product("ab", repeat=3) if t[:2] != ("a", "b")]
    assert got == want


def test_checks_run_where_their_scope_closes_in_the_order_given():
    calls = []

    def holds(c, a):
        calls.append((c, len(a)))
        return True

    checks = [((2, 0), "x"), ((1,), "y"), ((0, 2), "z"), ((0,), "w")]
    list(search(["a", "b", "c"], checks, holds, Budget()))
    assert calls == [("w", 1), ("y", 2), ("x", 3), ("z", 3)]


def test_search_spends_one_node_per_position_entered():
    # root + 2 + 4 + 8 positions entered for three free binary choices
    list(search([(0, 1)] * 3, [], None, Budget(Caps(max_descent=15))))
    with pytest.raises(CapExceeded, match="raise --max-descent"):
        list(search([(0, 1)] * 3, [], None, Budget(Caps(max_descent=14))))


def test_search_with_no_positions_yields_once():
    assert [list(a) for a in search([], [], None, Budget())] == [[]]


def test_pruned_product_order_and_nodes():
    # Position 1 rejects "b" after "a": one node per rejected candidate,
    # none for the survivors.
    budget = Budget(Caps(max_descent=2))
    got = [tuple(a) for a in pruned_product(
        ["ab", "ab", "ab"], [((0, 1), None)],
        lambda c, a: a[:2] != ["a", "b"], budget)]
    assert got == [t for t in product("ab", repeat=3) if t[:2] != ("a", "b")]
    assert budget.left == 1
    # Rejections at the last position count too.
    with pytest.raises(CapExceeded, match="raise --max-descent"):
        list(pruned_product(["ab", "ab"], [((1,), None)], lambda c, a: False,
                            Budget(Caps(max_descent=3))))


def test_pruned_product_of_nothing():
    budget = Budget(Caps(max_descent=0))
    assert [list(a) for a in pruned_product([], [], None, budget)] == [[]]
    assert list(pruned_product(["ab", "", "ab"], [((0,), None)],
                               lambda c, a: False, budget)) == []


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
    enumerate_data(Plan(corpus.const_walking_iso(c), minimal_cover(J, "X")),
                   caps)


def _desc_hom(caps):
    c, J = corpus.patches_site()
    plan = Plan(corpus.const_walking_iso(c), minimal_cover(J, "X"))
    data = enumerate_data(plan)
    desc_hom(plan, data[0], data[-1], caps)


def _matching_families(caps):
    c, J = corpus.patches_site()
    matching_families(corpus.patches_sheaf(), minimal_cover(J, "X"), caps)


@pytest.mark.parametrize("run, least", [
    (_enumerate_data, 48),
    (_desc_hom, 4),
    (_matching_families, 7),
])
def test_search_cap_trips_where_it_did(run, least):
    run(Caps(max_descent=least))
    with pytest.raises(CapExceeded):
        run(Caps(max_descent=least - 1))


def _brute_nat_isos(F, G):
    dst = F.dst
    objects = list(F.src.objects)
    pools = [[a for a in dst.hom(F.omap[x], G.omap[x]) if dst.is_iso(a)]
             for x in objects]
    out = []
    for combo in product(*pools):
        comp = dict(zip(objects, combo))
        if not nat_trans_findings(F, G, comp):
            out.append(comp)
    return out


@pytest.mark.parametrize("src, dst", [
    (corpus.walking_iso_cat, corpus.walking_iso_cat),
    (corpus.z2_cat, corpus.z2_cat),
    (corpus.arrow_cat, corpus.patches_cat),
    (corpus.parallel_pair_cat, corpus.arrow_cat),
    (corpus.span_cat, corpus.walking_iso_cat),
])
def test_all_nat_isos_matches_brute_force(src, dst):
    c, k = src(), dst()
    functors = list(ref_all_functors(c, k))
    assert functors
    for F, G in product(functors, repeat=2):
        assert list(all_nat_isos(F, G)) == _brute_nat_isos(F, G)


# ---------------------------------------------------------------------------
# The searches against the loops they replace, on the kernel copy
# `ref_search`: `cands(i, a)` gives position i's candidates each time it is
# entered, and `fits(i, a)` tests the checks each site filed under position
# i itself.


def ref_enumerate_data(D, R, caps=Caps()):
    """Every member-object choice of the full product, each searched for
    coherence isos."""
    base = D.base
    members = R.members()
    pairs = ref_coh_pairs(D, R)
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
        for coh in ref_search(len(pairs), cands, fits, budget):
            out.append(DescentDatum(obj, zip(pairs, coh)))
    return out


SPEND = Budget.spend


@pytest.fixture
def spent(monkeypatch):
    """`spent(f, *args)`: the results of f as a list, and the search nodes
    spent making them."""
    count = [0]

    def counting(self):
        count[0] += 1
        SPEND(self)

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
        got, nodes = spent(enumerate_data, Plan(D, R))
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


def test_empty_fibres_and_empty_sieve(spent):
    # A member over b has an empty fibre: no data, no node.
    D = embed_discrete(corpus.arrow_presheaf(nb=0))
    c = D.base
    for s in sieves_on(c, "b"):
        if "idb" in s:
            assert spent(enumerate_data, Plan(D, Sieve("b", s, c))) == ([], 0)
    c, J = corpus.patches_site()
    empty = const_indexed(c, discrete_cat((), name="empty"))
    assert spent(enumerate_data, Plan(empty, minimal_cover(J, "X"))) == ([], 0)
    # The empty sieve has one datum, the empty one, for one node.
    assert spent(enumerate_data, Plan(empty, Sieve("X", frozenset(), c))) == (
        [DescentDatum({}, {})], 1)
    # No object of the target: no functor, no node; from the empty
    # category: one functor, for one node.
    none = discrete_cat((), name="empty")
    assert spent(ref_all_functors, corpus.arrow_cat(), none) == ([], 0)
    got, nodes = spent(ref_all_functors, none, corpus.arrow_cat())
    assert [(F.omap, F.mmap) for F in got] == [({}, {})] and nodes == 1


def _exhausts(D, R):
    try:
        ref_enumerate_data(D, R)
    except CapExceeded as e:
        assert "raise --max-descent" in str(e)
        return True
    return False


@pytest.mark.parametrize("seed, n_opens", [(0, 13), (0, 14), (0, 15)])
def test_budget_bound_open_lattices_decide(seed, n_opens):
    """Three sections per open on 13 to 15 opens: on the first cover, in
    stable order, where the full product of member objects exhausts the
    default budget, the forward-checked enumeration decides.  `is_stack`
    agrees with the set-level sheaf condition."""
    rng = random.Random(f"{seed}:{n_opens}")
    c, J, opens = sitegen.open_cover_site(rng, n_opens)
    P = sitegen.restriction_presheaf(rng, c, opens, 3)
    D = embed_discrete(P)
    assert is_stack(D, J).ok == is_sheaf_presheaf(P, J).ok
    R = next(R for x in c.objects for R in J.covers_of(x) if _exhausts(D, R))
    assert isinstance(enumerate_data(Plan(D, R)), list)


# ---------------------------------------------------------------------------
# The sites that searched one product from the start, against their own
# schedules on the kernel copy: same results, same order, same nodes.


def ref_desc_hom(D, R, a, b, caps=Caps()):
    base = D.base
    members = R.members()
    at = {f: i for i, f in enumerate(members)}
    closing = {}
    for (f, g) in ref_coh_pairs(D, R):
        fg = base.compose(f, g)
        closing.setdefault(max(at[f], at[fg]), []).append((f, g, at[f], at[fg]))

    def cands(j, comp):
        f = members[j]
        return D.fib[base.dom(f)].hom(a.obj[f], b.obj[f])

    def fits(j, comp):
        for f, g, jf, jfg in closing.get(j, ()):
            fib = D.fib[base.dom(g)]
            lhs = fib.compose(b.coh[(f, g)], D.res[g].mo(comp[jf]))
            rhs = fib.compose(comp[jfg], a.coh[(f, g)])
            if lhs != rhs:
                return False
        return True

    return [tuple(comp)
            for comp in ref_search(len(members), cands, fits, Budget(caps))]


def ref_find_indexed_natiso(F, G, caps=Caps()):
    """The components of the transformation found, or None."""
    D, E = F.D, F.E
    base = D.base
    objs = stable_sorted(base.objects)
    cand = []
    for X in objs:
        cand.append(list(ref_all_nat_isos(F.comp[X], G.comp[X], caps)))
        if not cand[-1]:
            return None
    at = {X: i for i, X in enumerate(objs)}
    closing = {}
    for y, (Y, X) in base.mor.items():
        closing.setdefault(max(at[Y], at[X]), []).append((y, at[Y], at[X]))

    def coherent(y, tY, tX):
        Y, X = base.mor[y]
        fy = E.fib[Y]
        return all(
            fy.compose(G.cell[y][V], tY[D.res[y].ob(V)])
            == fy.compose(E.res[y].mo(tX[V]), F.cell[y][V])
            for V in D.fib[X].objects
        )

    def fits(i, a):
        return all(coherent(y, a[jY], a[jX]) for y, jY, jX in closing.get(i, ()))

    found = ref_search(len(objs), lambda i, a: cand[i], fits, Budget(caps))
    a = next(found, None)
    return None if a is None else dict(zip(objs, a))


def ref_matching_families(P, R, caps=Caps()):
    base = P.base
    members = R.members()
    at = {f: i for i, f in enumerate(members)}
    closing = {}
    for f in members:
        for g in base.into(base.dom(f)):
            fg = base.compose(f, g)
            closing.setdefault(max(at[f], at[fg]), []).append((g, at[f], at[fg]))

    def fits(i, fam):
        return all(P.act[g][fam[jf]] == fam[jfg] for g, jf, jfg in closing.get(i, ()))

    out = ref_search(
        len(members),
        lambda i, fam: P.els[base.dom(members[i])],
        fits,
        Budget(caps),
    )
    return [("mf", tuple(zip(members, vals))) for vals in sorted(map(tuple, out))]


def test_desc_hom_matches_its_schedule(spent):
    compared = nonempty = 0
    for D, R in descent_inputs():
        plan = Plan(D, R)
        data = enumerate_data(plan)
        for a, b in product(data, repeat=2):
            got, nodes = spent(desc_hom, plan, a, b)
            want, ref_nodes = spent(ref_desc_hom, D, R, a, b)
            assert (got, nodes) == (want, ref_nodes), (D.name, R)
            compared += 1
            nonempty += bool(got)
    assert compared > 3500 and nonempty > 2000


def test_desc_cat_matches_the_pairwise_loop():
    """`desc_cat` joins its pairs of data on member objects and names
    morphisms in member order: the same category, in the same orders, as
    `desc_hom` on every pair with ids from sorted members, at every budget
    (`oracles.desc_cat_parity`)."""
    tally = {}
    for D, R in descent_inputs():
        desc_cat_parity(D, R, tally)
    # 3,169 finish on both sides and 1,592 trip on both; none trips on the
    # reference side alone.
    assert tally["both finish"] > 3000 and tally["both trip"] > 1000


def test_all_nat_isos_matches_its_schedule(spent):
    compared = nonempty = 0
    for src, dst in product(FUNCTOR_CATS, repeat=2):
        functors = list(ref_all_functors(src(), dst()))[:6]
        for F, G in product(functors, repeat=2):
            got, nodes = spent(all_nat_isos, F, G)
            want, ref_nodes = spent(ref_all_nat_isos, F, G)
            assert got == want
            assert nodes == ref_nodes, (F.src.name, F.dst.name)
            compared += 1
            nonempty += bool(got)
    assert compared > 900 and nonempty > 350


def _presheaves_and_sieves():
    """Every sieve of the corpus patches presheaves, of seeded `sitegen`
    presheaves on random sites, and of restriction presheaves on small
    open lattices."""
    rng = random.Random(7)
    c, _ = corpus.patches_site()
    presheaves = [corpus.patches_sheaf(), corpus.patches_nonsheaf(),
                  corpus.patches_nonseparated(), corpus.const_presheaf(c)]
    for _ in range(40):
        c, _ = sitegen.rand_site(rng)
        presheaves.append(sitegen.rand_presheaf(rng, c))
    for n in range(5, 11):
        c, _, opens = sitegen.open_cover_site(rng, n)
        presheaves.append(sitegen.restriction_presheaf(rng, c, opens, 3))
    return [(P, Sieve(x, s, P.base))
            for P in presheaves for x in P.base.objects
            for s in sieves_on(P.base, x)]


def test_matching_families_matches_its_schedule(spent):
    inputs = _presheaves_and_sieves()
    assert len(inputs) > 600
    for P, R in inputs:
        got, nodes = spent(matching_families, P, R)
        want, ref_nodes = spent(ref_matching_families, P, R)
        assert (got, nodes) == (want, ref_nodes), (P.name, R)


def _indexed_cats():
    """The twisted Z/2 family, seeded `sitegen` indexed categories over
    small fibre categories, and two families over the patches site."""
    rng = random.Random(7)
    c, _ = corpus.patches_site()
    out = [corpus.twisted_z2_indexed(), embed_discrete(corpus.patches_sheaf()),
           const_indexed(c, corpus.walking_iso_cat())]
    out += [sitegen.rand_indexed(rng, sitegen.rand_small_cat(rng)) for _ in range(10)]
    return out


def test_find_indexed_natiso_matches_its_schedule(spent):
    compared = found = 0
    for D in _indexed_cats():
        funs = list(ref_all_indexed_funs(D, D))[:5]
        for F, G in product(funs, repeat=2):
            [t], nodes = spent(lambda: [find_indexed_natiso(F, G)])
            [want], ref_nodes = spent(lambda: [ref_find_indexed_natiso(F, G)])
            got = None if t is None else t.comp
            assert (got, nodes) == (want, ref_nodes), D.name
            compared += 1
            found += got is not None
    assert compared > 200 and 50 < found < compared
