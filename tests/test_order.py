"""The canonical order of constructed ids against the formula that computed
it before descent data cached their keys and categories kept their stored
order: sort by `ckey`, with a datum keyed by its sorted item pairs.
Every category the library builds is stored in the order its builder
lists: descent categories, iso-commas, total categories, slices and
products list their ids in stable order from their parts, essential fibres
sort their morphisms once by the positions of their parts, and a poset
sorts its objects once and lists a morphism by its ends.  So each is
checked against `ckey` sorts of the same ids, every category the
benchmark's stackify and fibred-corpus ops build is checked to store
`ckey` order, and guards pin that no datum's key is computed by those ops.
The fibred categories are built from the corpus fibrations of `test_reuse`
and from `sitegen.rand_fibration`.  A sieve lists its members in `into`
order and the sieves on an object come in the order of their masks; both
are checked against `ckey` sorts on every kind of site the tests generate.

Runs on the corpus sites, `sitegen` sites and the indexed blocks of
`tests/data`, and both plus stages of `stackify` on them.  There the
descent categories are also checked against `oracles.ref_desc_cat`, which
names each morphism by its source's sorted members, and a second guard pins
that no datum's sorted form is computed at all."""

import gc
import json
import random
import sys
import weakref
from pathlib import Path

import pytest

from finstack import (
    DescentDatum,
    FinCat,
    L_D,
    Plan,
    R_D,
    as_fibration,
    desc_cat,
    embed_discrete,
    giraud_topology,
    grothendieck,
    is_indexed_equivalence,
    is_stack,
    load_input,
    poset_cat,
    product_cat,
    saturate,
    stackify,
)
from finstack.descent import restrict_datum
from finstack.dsl import _dec, _text
from finstack.fibadj import _iso_comma_fibration, _localize
from finstack.groth import essential_fibre_cat
from finstack.site import (
    Sieve, least_cover_pullbacks, minimal_cover, sieves_on, slice_cat)
from finstack.util import ckey, stable_sorted

import corpus
import oracles
import sitegen
from oracles import desc_cat_parity, generate_sieve
from test_reuse import CORPUS as FIBRATIONS, SLOW_4_2_II, _one_op

DATA = Path(__file__).parent / "data"


def ref_pairs(a):
    return (
        tuple((f, a.obj[f]) for f in sorted(a.obj, key=ckey)),
        tuple((p, a.coh[p]) for p in sorted(a.coh, key=ckey)),
    )


def ref_ckey(x):
    """`ckey`, recomputing every nested datum's key from its sorted pairs."""
    if isinstance(x, DescentDatum):
        return ("o", "DescentDatum", ref_ckey(ref_pairs(x)))
    if isinstance(x, tuple):
        return ("t", tuple(ref_ckey(v) for v in x))
    if isinstance(x, frozenset):
        return ("f", tuple(sorted(ref_ckey(v) for v in x)))
    return ckey(x)


def ref_sorted(xs):
    return sorted(xs, key=ref_ckey)


def ref_enc(x):
    if isinstance(x, DescentDatum):
        obj, coh = ref_pairs(x)
        return {"dd": [ref_enc(obj), ref_enc(coh)]}
    if isinstance(x, tuple):
        return [ref_enc(v) for v in x]
    return oracles.ref_enc(x)


def _z2_site():
    c = corpus.z2_cat()
    return c, saturate(c, {})


# name -> (site, indexed category over it)
CORPUS = {
    "patches-sheaf": (corpus.patches_site,
                      lambda: embed_discrete(corpus.patches_sheaf())),
    "patches-nonsheaf": (corpus.patches_site,
                         lambda: embed_discrete(corpus.patches_nonsheaf())),
    "multicover": (corpus.multicover_site,
                   lambda: embed_discrete(corpus.patches_nonseparated())),
    "span": (corpus.span_site, lambda: embed_discrete(corpus.span_presheaf_free())),
    "arrow": (corpus.arrow_site, lambda: embed_discrete(corpus.arrow_presheaf())),
    "twisted": (_z2_site, corpus.twisted_z2_indexed),
    "arrow-iso": (corpus.arrow_site,
                  lambda: corpus.const_walking_iso(corpus.arrow_cat())),
}


def _sitegen_case(i):
    def make():
        rng = random.Random(1000 + i)
        c, J = sitegen.rand_site(rng)
        return c, J, sitegen.rand_indexed(rng, c)
    return make


def _data_case(file, name):
    """An indexed block of `tests/data`, over the file's topology on its
    base or, when there is none, the trivial one."""
    def make():
        env, _ = load_input((DATA / file).read_text(encoding="utf-8"))
        D = env.indexed[name]
        Js = [J for J in env.topologies.values() if J.base is D.base]
        return D.base, Js[0] if Js else saturate(D.base, {}), D
    return make


def _data_cases():
    out = {}
    for path in sorted(DATA.glob("*.site")):
        env, _ = load_input(path.read_text(encoding="utf-8"))
        for name in sorted(env.indexed if env is not None else ()):
            out[f"data-{path.stem}-{name}"] = _data_case(path.name, name)
    return out


CASES = {
    **{name: (lambda s=site, d=indexed: (*s(), d())) for name, (site, indexed)
       in CORPUS.items()},
    **{f"sitegen-{i}": _sitegen_case(i) for i in range(6)},
    **_data_cases(),
}


def test_data_cases_cover_every_indexed_block():
    assert sorted(n for n in CASES if n.startswith("data-")) == [
        "data-factor-D", "data-factor-T", "data-twisted-TW"]


@pytest.fixture(scope="module", params=sorted(CASES))
def stages(request):
    c, J, D = CASES[request.param]()
    s = stackify(D, J)
    return c, J, (s.once, s.twice)


def _giraud_case(name):
    """The corpus total category of case `name`, with the topology
    `giraud_topology` transfers to it; its ids are tuples."""
    def make():
        c, J, D = CASES[name]()
        G = grothendieck(D)
        return G.total, giraud_topology(G, J)
    return make


# name -> site (category, topology): every stage case, seeded `sitegen`
# sites, multi-cover sites and open-cover sites, and the total categories
# of the corpus cases
SIEVE_SITES = {
    **{name: (lambda make=make: make()[:2]) for name, make in CASES.items()},
    **{f"rand-site-{i}": (lambda i=i: sitegen.rand_site(random.Random(3000 + i)))
       for i in range(4)},
    **{f"multi-cover-{i}":
       (lambda i=i: sitegen.multi_cover_site(random.Random(3100 + i))[:2])
       for i in range(4)},
    **{f"open-cover-{n}":
       (lambda n=n: sitegen.open_cover_site(random.Random(3200 + n), n)[:2])
       for n in (5, 8, 11)},
    **{f"giraud-{name}": _giraud_case(name) for name in CORPUS},
}


@pytest.mark.parametrize("name", sorted(SIEVE_SITES))
def test_sieve_members_match_ckey_sort(name):
    """A sieve lists its members as `ckey` sorts them, and an object's
    covers and sieve universe come in `ckey` order of the sieves: the
    covers and least cover of every object, the least-cover pullbacks
    (which `stackify` and `is_stack` run on) and every sieve on every
    object."""
    c, J = SIEVE_SITES[name]()
    sieves = list(least_cover_pullbacks(J))
    for X in c.objects:
        covers = J.covers_of(X)
        assert [R.mors for R in covers] == ref_sorted(J.covers.get(X, ()))
        sieves += covers
        if J.covers.get(X):
            sieves.append(minimal_cover(J, X))
        universe = sieves_on(c, X)
        assert universe == ref_sorted(universe)
        sieves += [Sieve(X, S, c) for S in universe]
    for R in sieves:
        assert R.members() == ref_sorted(R.mors)


def test_datum_keys_and_encoding(stages):
    c, J, plus_stages = stages
    for p in plus_stages:
        for X in c.objects:
            fib = p.output.fib[X]
            assert len(set(fib.objects)) == len(fib.objects)
            for a in fib.objects:
                assert a._ckey() == ref_ckey(ref_pairs(a))
                assert a._key == ref_pairs(a)
                text = _text(a, {})
                assert json.loads(text) == ref_enc(a)
                assert _dec(json.loads(text)) is a
                obj = dict(reversed(list(a.obj.items())))
                coh = dict(reversed(list(a.coh.items())))
                assert list(obj) != list(a.obj) or len(a.obj) < 2
                b = DescentDatum(obj, coh)
                assert b is a
                assert b._ckey() == a._ckey()


def test_descent_morphism_ids_list_components_in_member_order(stages):
    c, J, plus_stages = stages
    for p in plus_stages:
        for X in c.objects:
            for a, b, comp in p.output.fib[X].mor:
                assert [f for f, _ in comp] == ref_sorted(a.obj)


def _by_ckey(c):
    """The same category given whole: the constructor sorts it by `ckey`."""
    return FinCat(c.objects, c.mor, c.ident, c.table, name=c.name)


def _check_supplied_order(c):
    ref = _by_ckey(c)
    assert list(c.objects) == stable_sorted(c.objects)
    assert list(c.mor) == stable_sorted(c.mor)
    for x in c.objects:
        assert c.into(x) == ref.into(x)
        for y in c.objects:
            assert c.hom(x, y) == ref.hom(x, y)
        for m in c.into(x):
            S = generate_sieve(c, x, [m])
            assert S.members() == generate_sieve(ref, x, [m]).members()


def test_descent_categories_order_as_ckey_sorts(stages):
    c, J, plus_stages = stages
    D = plus_stages[0].input
    for X in c.objects:
        for R in J.covers_of(X):
            _check_supplied_order(desc_cat(Plan(D, R)))
    for p in plus_stages:
        for X in c.objects:
            _check_supplied_order(p.output.fib[X])


def _benchmark_op(name):
    """The benchmark's stackify op on a corpus case: stackify, `is_stack`
    of the result, stackify again and `is_indexed_equivalence`."""
    site, indexed = CORPUS[name]
    (c, J), D = site(), indexed()
    s = stackify(D, J)
    assert is_stack(s.stack, J)
    if name != "twisted":  # stackifying its stack exhausts the default budget
        again = stackify(s.stack, J)
        assert is_indexed_equivalence(again.unit)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_stackify_computes_no_datum_key(name, monkeypatch):
    """Ordering the fibres of D⁺ and D⁺⁺ reads stored orders, never a
    datum's key: the benchmark's stackify op makes no `_ckey` call, nested
    or not."""
    calls = []
    key = DescentDatum._ckey

    def counted(self):
        calls.append(self)
        return key(self)

    monkeypatch.setattr(DescentDatum, "_ckey", counted)
    _benchmark_op(name)
    assert calls == []


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_stackify_sorts_no_datum(name, monkeypatch):
    """Morphism ids take their member order from the sieve, so the
    benchmark's stackify op never reads `DescentDatum._key`: only
    serialization and `repr` do."""
    calls = []
    key = DescentDatum._key

    def counted(self):
        calls.append(self)
        return key.fget(self)

    monkeypatch.setattr(DescentDatum, "_key", property(counted))
    _benchmark_op(name)
    assert calls == []


def test_plus_stages_match_the_pairwise_loop(stages):
    """Each fibre of D⁺ and D⁺⁺ is the category `ref_desc_cat` builds, at
    every budget (`oracles.desc_cat_parity`)."""
    c, J, plus_stages = stages
    tally = {}
    for p in plus_stages:
        for X in c.objects:
            desc_cat_parity(p.input, p.minimal[X], tally)
    assert tally["both finish"] >= 2 * len(c.objects)


def test_plus_restricts_along_identities_as_restrict_datum_does(stages):
    """D⁺ restricts along id_X by the identity functor on its fibre, which
    is what `restrict_datum` and the plan's ids build there: M_X is the least
    cover on both ends and id∘g = g, so every datum and id comes back."""
    c, _, plus_stages = stages
    for p in plus_stages:
        D = p.input
        for X in c.objects:
            y = c.ident[X]
            plan = Plan(D, p.minimal[X])
            fib = p.output.fib[X]
            omap = {a: restrict_datum(plan, a, y) for a in fib.objects}
            along = plan.along(y, plan)
            mmap = {}
            for mid, (a, b) in fib.mor.items():
                comps = plan.components(mid)
                mmap[mid] = plan.mor_id(omap[a], omap[b],
                                        [comps[i] for i in along])
            res = p.output.res[y]
            assert res.src is fib and res.dst is fib
            assert res.omap == omap and res.mmap == mmap
            assert all(res.omap[a] is omap[a] for a in fib.objects)


def _sitegen_fibration(i):
    def make():
        p, J = sitegen.rand_fibration(random.Random(2000 + i))
        return as_fibration(p), J
    return make


FIBRED = {**FIBRATIONS, **{f"sitegen-{i}": _sitegen_fibration(i) for i in range(8)}}


def _built_categories(fib, J, comma):
    """The categories the adjunction builds for one fibration, by kind:
    the total category G and each slice of the base, the essential fibres
    of R_D and of G's projection, each `L_D` slice total and, when
    `comma`, the fibres of the iso-comma of Thm 4.2(ii)."""
    c = fib.p.E.base
    G = grothendieck(fib.p.E)
    r = R_D(fib, G)
    out = [("total", G.total)]
    out += [("slice", slice_cat(c, X)[0]) for X in c.objects]
    out += [("essential", e) for e in r.fib.values()]
    out += [("essential", essential_fibre_cat(G.proj, X)) for X in c.objects]
    out += [("L_D slice", GX.total) for _, GX, _ in L_D(r, G).per_x.values()]
    if comma:
        sd, _, sp = _localize(fib, J)
        q = _iso_comma_fibration(sp, sd.unit)
        out += [("iso-comma", q.D.fib[X]) for X in c.objects]
    return out


@pytest.mark.parametrize("name", sorted(FIBRED))
def test_built_categories_order_as_ckey_sorts(name):
    """Thm 4.2(ii) localizes for 20 s to 2 minutes on the slow corpus
    fibrations, so their iso-commas are left out."""
    fib, J = FIBRED[name]()
    built = _built_categories(fib, J, comma=name not in SLOW_4_2_II)
    assert {kind for kind, _ in built} >= {
        "total", "slice", "essential", "L_D slice"}
    for kind, c in built:
        _check_supplied_order(c)


def _record_built(monkeypatch):
    """The (category, path) of every category stored from now on, until
    `monkeypatch` is undone: the path is the constructor that stored it,
    `from_homs`, which keeps the listed order, or `__init__`, which sorts
    by `ckey`."""
    built, store = [], FinCat._store

    def recorded(self, *args):
        store(self, *args)
        built.append((self, sys._getframe(1).f_code.co_name))

    monkeypatch.setattr(FinCat, "_store", recorded)
    return built


@pytest.mark.parametrize(
    "name", [n for n in sorted(FIBRATIONS) if n not in SLOW_4_2_II])
def test_fibred_op_orders_every_built_category_from_its_parts(name, monkeypatch):
    """The benchmark's fibred-corpus op computes no datum's key, though the
    iso-comma of Thm 4.2(ii) nests D⁺⁺ data in its ids, and no category it
    builds went through the sorting constructor."""
    fib, J = FIBRATIONS[name]()
    calls, key = [], DescentDatum._ckey

    def counted(self):
        calls.append(self)
        return key(self)

    monkeypatch.setattr(DescentDatum, "_ckey", counted)
    built = _record_built(monkeypatch)
    _one_op(fib, J)
    assert calls == []
    assert {c.name.partition("(")[0] for c, _ in built} >= {
        "groth", "ess", "L", "comma", "Desc"}
    assert [c.name for c, path in built if path != "from_homs"] == []


def _assert_stored_in_ckey_order(built):
    for c, _ in built:
        assert list(c.objects) == stable_sorted(c.objects), c.name
        assert list(c.mor) == stable_sorted(c.mor), c.name


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_stackify_op_stores_every_category_in_ckey_order(name, monkeypatch):
    """Every category the benchmark's stackify op builds, the descent
    categories of D⁺ and D⁺⁺ included, stores `ckey` order, whichever
    constructor stored it."""
    built = _record_built(monkeypatch)
    _benchmark_op(name)
    monkeypatch.undo()
    assert any(c.name.startswith("Desc(") for c, _ in built)
    _assert_stored_in_ckey_order(built)


@pytest.mark.parametrize(
    "name", [n for n in sorted(FIBRATIONS) if n not in SLOW_4_2_II])
def test_fibred_op_stores_every_category_in_ckey_order(name, monkeypatch):
    """Every category the benchmark's fibred-corpus op builds stores `ckey`
    order: totals, slices, iso-commas and descent categories, which keep
    the order their builders list them in, as well as the rest."""
    fib, J = FIBRATIONS[name]()
    built = _record_built(monkeypatch)
    _one_op(fib, J)
    monkeypatch.undo()
    assert {c.name.partition("(")[0] for c, _ in built} >= {
        "groth", "ess", "L", "comma", "Desc"}
    _assert_stored_in_ckey_order(built)


@pytest.mark.parametrize("name", ["const-z2-terminal", "const-z2-arrow"])
def test_comma_fibres_have_arrows_differing_in_v_and_b(name):
    """Some iso-comma fibre of these corpus fibrations has two morphisms
    between the same ends that differ in both v and b, so the order tests
    on built categories see whether the iso-comma lists v before b."""
    fib, J = FIBRATIONS[name]()
    sd, _, sp = _localize(fib, J)
    q = _iso_comma_fibration(sp, sd.unit)
    pairs = []
    for X in fib.p.E.base.objects:
        by_ends = {}
        for o1, o2, v, b in q.D.fib[X].mor:
            by_ends.setdefault((o1, o2), []).append((v, b))
        pairs += [(m, n) for ms in by_ends.values() for m in ms for n in ms
                  if m[0] != n[0] and m[1] != n[1]]
    assert pairs


def test_posets_order_as_ckey_sorts():
    """Posets on ids of mixed types, listed in no particular order."""
    rng = random.Random(7)
    names = ["b", "a", 3, 10, ("t", 1), ("t", 0), "B", 2]
    for _ in range(20):
        objs = rng.sample(names, rng.randint(2, len(names)))
        leq = [(a, b) for i, a in enumerate(objs) for b in objs[i + 1:]
               if rng.random() < 0.4]
        _check_supplied_order(poset_cat(objs, leq))


class _Weak(FinCat):
    __slots__ = ("__weakref__",)


def test_products_order_from_their_factors_and_keep_none_alive():
    """A product lists its tuple ids in its factors' stable orders, which
    is `ckey` order, and keeps no factor alive: a factor dropped with the
    projections dies while the product lives."""
    factors = [_Weak(c.objects, c.mor, c.ident, c.table, name=c.name)
               for c in (corpus.span_cat(), corpus.walking_iso_cat())]
    prod = product_cat(factors).cat
    _check_supplied_order(prod)
    gone = weakref.ref(factors.pop())
    gc.collect()
    assert gone() is None
