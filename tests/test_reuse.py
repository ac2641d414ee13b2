"""R_D, L_D, the unit, the counit, the localization and the Giraud topology
keep their result on the structure they are built from (`util.reused`).  A
reused result must be exactly what a fresh build makes, a call under other
caps or to another builder must not see it, a nested build's entry must
survive the outer one, and nothing kept may outlive the structures it was
built from.  The other parts of the adjunction read R_D and L_D, so they
too must equal fresh builds, and the transposes must refuse a part that is
not the kept one."""

import dataclasses
import gc
import weakref

import pytest

from finstack import (
    DEFAULT,
    CapExceeded,
    Caps,
    IndexedCat,
    IndexedFun,
    IndexedNat,
    L_D,
    LResult,
    R_D,
    as_fibration,
    check_lemma_3_1,
    check_thm_4_2_i,
    check_thm_4_2_ii,
    const_indexed,
    counit_eps,
    embed_discrete,
    find_indexed_natiso,
    flat,
    giraud_topology,
    grothendieck,
    identity_indexed_fun,
    is_indexed_equivalence,
    l_d_mor,
    r_d_mor,
    saturate,
    sharp,
    terminal_cat,
    unit_eta,
)
from finstack.fibadj import _localize

from corpus import (
    arrow_cat,
    arrow_presheaf,
    arrow_site,
    const_walking_iso,
    groupoid_fibration,
    patches_cat,
    patches_sheaf,
    patches_site,
    projection_fibration,
    terminal_site,
    twisted_z2_indexed,
    z2_cat,
)


def _embedded(psh):
    return as_fibration(identity_indexed_fun(embed_discrete(psh)))


def _twisted():
    fib = as_fibration(identity_indexed_fun(twisted_z2_indexed()))
    return fib, saturate(fib.p.E.base, {})


def _const_z2(site):
    """The identity fibration of the constant Z2 over a site: its iso-comma
    fibres have morphisms between the same ends that differ in both v and b."""
    c, J = site()
    return as_fibration(identity_indexed_fun(const_indexed(c, z2_cat()))), J


# Every indexed fibration of the corpus, with a topology on its base.
CORPUS = {
    "patches": lambda: (_embedded(patches_sheaf()), patches_site()[1]),
    "arrow": lambda: (_embedded(arrow_presheaf()), arrow_site()[1]),
    "groupoid-arrow": lambda: (
        as_fibration(groupoid_fibration(arrow_cat())), arrow_site()[1]),
    "groupoid-patches": lambda: (
        as_fibration(groupoid_fibration(patches_cat())), patches_site()[1]),
    "twisted": _twisted,
    "projection": lambda: (
        as_fibration(projection_fibration(
            embed_discrete(patches_sheaf()), const_walking_iso(patches_cat()))),
        patches_site()[1]),
    "const-z2-terminal": lambda: _const_z2(terminal_site),
    "const-z2-arrow": lambda: _const_z2(arrow_site),
}
# Thm 4.2(ii) takes about 2 s (twisted), 4 s (groupoid-patches) and 8 s
# (projection) of CPU time on these, and 4.2(i) 1.5 s on the projection, on
# a 2-vCPU VM, so those checks are left out there; the localization that
# both read is still compared.
SLOW_4_2_II = {"groupoid-patches", "twisted", "projection"}
SLOW_4_2_I = {"projection"}


def forget(*owners):
    for owner in owners:
        owner._memo = None


def same(a, b, seen=None):
    """Equality of built values.  Indexed categories, functors and
    transformations compare by identity, so their fields are compared here
    instead, and dataclasses field by field; dicts must agree in order.
    A pair of objects already compared is not compared again."""
    seen = set() if seen is None else seen
    if type(a) is not type(b):
        return False
    if isinstance(a, (dict, tuple, list)) or type(a).__module__ == "builtins":
        if isinstance(a, dict):
            return list(a) == list(b) and all(same(a[k], b[k], seen) for k in a)
        if isinstance(a, (tuple, list)):
            return len(a) == len(b) and all(map(same, a, b, [seen] * len(a)))
        return a == b
    if (id(a), id(b)) in seen:
        return True
    seen.add((id(a), id(b)))
    if dataclasses.is_dataclass(a):
        names = [f.name for f in dataclasses.fields(a) if f.compare]
    elif isinstance(a, (IndexedCat, IndexedFun, IndexedNat)):
        names = [s for s in type(a).__slots__ if s != "_memo"]
    else:
        return a == b
    return all(same(getattr(a, n), getattr(b, n), seen) for n in names)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_reused_results_equal_fresh_builds(name):
    fib, J = CORPUS[name]()
    G = grothendieck(fib.p.E)
    JD = giraud_topology(G, J)
    r = R_D(fib, G)
    la = L_D(r, G)
    rl = R_D(la.fib, G)
    eta = unit_eta(r, G)
    eps = counit_eps(fib, G)
    loc = _localize(fib, J)

    assert giraud_topology(G, J) is JD
    assert R_D(fib, G) is r
    again = L_D(r, G)
    assert again.source is r
    assert again.fib is la.fib and again.per_x is la.per_x
    assert R_D(la.fib, G) is rl
    eta2 = unit_eta(r, G)
    assert eta2 is not eta and eta2.D is r and eta2.E is eta.E is rl
    assert list(eta2.comp) == list(eta.comp)
    assert all(eta2.comp[X] is F for X, F in eta.comp.items())
    assert eta2.cell == eta.cell
    assert counit_eps(fib, G) is eps
    assert _localize(fib, J) is loc

    forget(fib, G, r, la.fib)
    fresh = [giraud_topology(G, J), R_D(fib, G), L_D(r, G), _localize(fib, J),
             unit_eta(r, G), counit_eps(fib, G)]
    assert fresh[0] is not JD and same(fresh[0], JD)
    assert fresh[1] is not r and same(fresh[1], r)
    assert fresh[2].fib is not la.fib and same(fresh[2], la)
    assert same(R_D(fresh[2].fib, G), rl)
    assert fresh[3] is not loc and same(fresh[3], loc)
    assert fresh[4].E is not eta.E and same(fresh[4], eta)
    assert fresh[5] is not eps and same(fresh[5], eps)

    # In the benchmark's order: 4.2(ii) reuses the localization of 4.2(i),
    # and Lemma 3.1 the Giraud topology of 4.2(ii).
    checks = [lambda: check_lemma_3_1(const_indexed(G.total, terminal_cat()), G, J)]
    if name not in SLOW_4_2_II:
        checks.insert(0, lambda: check_thm_4_2_ii(fib, J, G))
    if name not in SLOW_4_2_I:
        checks.insert(0, lambda: check_thm_4_2_i(fib, J))
    reused = [check() for check in checks]
    for check, before in zip(checks, reused):
        forget(fib, G)
        assert same(check(), before)


def _adjunction_parts(fib, G):
    """Every part of the adjunction that reads R_D and L_D, built as the
    fibred-corpus benchmark op builds them."""
    r = R_D(fib, G)
    la = L_D(r, G)
    h = identity_indexed_fun(r)
    fm = flat(h, fib, G, LA=la, LR=la)
    return {
        "unit_eta": unit_eta(r, G),
        "counit_eps": counit_eps(fib, G),
        "r_d_mor": r_d_mor(fm, G),
        "l_d_mor": l_d_mor(h, G),
        "sharp": sharp(fm, la, G, R_dst=r),
        "flat": fm,
    }


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_adjunction_parts_equal_fresh_builds(name):
    fib, _ = CORPUS[name]()
    G = grothendieck(fib.p.E)
    kept = _adjunction_parts(fib, G)
    # R_D of fib is the root every other part is read from.
    forget(fib, G)
    fresh = _adjunction_parts(fib, G)
    for part in kept:
        assert fresh[part] is not kept[part]
        assert same(fresh[part], kept[part]), part


@pytest.mark.parametrize("foreign", ["caps", "groth"])
def test_transposes_refuse_foreign_parts(foreign):
    fib = as_fibration(groupoid_fibration(arrow_cat()))
    G = grothendieck(fib.p.E)
    r = R_D(fib, G)
    la = L_D(r, G)
    h = identity_indexed_fun(r)
    fm = flat(h, fib, G, LA=la, LR=la)
    # The same parts, built under other caps or over a second total category
    # of the same value.
    if foreign == "caps":
        G2, caps2 = G, Caps(max_descent=DEFAULT.max_descent + 1)
    else:
        G2, caps2 = grothendieck(fib.p.E), DEFAULT
    r2 = R_D(fib, G2, caps2)
    la2 = L_D(r2, G2, caps2)
    h2 = identity_indexed_fun(r2)
    fm2 = flat(h2, fib, G2, caps2, LA=la2, LR=la2)
    assert r2 is not r and la2.fib is not la.fib

    with pytest.raises(ValueError, match="^LA "):
        flat(h, fib, G, LA=L_D(r, G2, caps2), LR=la)
    with pytest.raises(ValueError, match="^LR "):
        flat(h, fib, G, LA=la, LR=L_D(r, G2, caps2))
    with pytest.raises(ValueError, match="^H.E "):
        flat(h2, fib, G, LA=L_D(r2, G), LR=L_D(r2, G))
    with pytest.raises(ValueError, match="^LA "):
        sharp(fm2, la2, G, R_dst=r)
    with pytest.raises(ValueError, match="^R_dst "):
        sharp(fm, la, G, R_dst=r2)


def _small_cases():
    fib = as_fibration(groupoid_fibration(arrow_cat()))
    J = arrow_site()[1]
    G = grothendieck(fib.p.E)
    r = R_D(fib, G)
    tight = Caps(max_descent=1)
    return {
        "R_D": (R_D, fib, G, tight),
        "L_D": (L_D, r, G, tight),
        "unit_eta": (unit_eta, r, G, tight),
        "counit_eps": (counit_eps, fib, G, tight),
        "_localize": (_localize, fib, J, tight),
        "giraud_topology": (giraud_topology, G, J, Caps(max_sieves_per_object=1)),
    }


@pytest.mark.parametrize("name", ["R_D", "L_D", "unit_eta", "counit_eps",
                                  "_localize", "giraud_topology"])
def test_caps_are_part_of_the_key(name):
    build, owner, other, small = _small_cases()[name]
    build(owner, other)
    entries = len(owner._memo)
    assert same(build(owner, other, Caps()), build(owner, other, DEFAULT))
    assert len(owner._memo) == entries
    with pytest.raises(CapExceeded) as reused:
        build(owner, other, small)
    assert len(owner._memo) == entries
    forget(owner)
    with pytest.raises(CapExceeded) as fresh:
        build(owner, other, small)
    assert str(reused.value) == str(fresh.value)
    assert owner._memo is None


@pytest.mark.parametrize("owner", ["fib", "R"])
def test_the_key_names_the_builder(owner):
    """R_D and counit_eps keep their results on the fibration, and L_D and
    unit_eta on R_D's result, each pair under the same caps and total
    category: every call gets its own builder's result, whichever of the
    pair ran first."""
    for order in ((0, 1), (1, 0)):
        fib = as_fibration(groupoid_fibration(arrow_cat()))
        G = grothendieck(fib.p.E)
        r = R_D(fib, G)
        forget(fib)
        if owner == "fib":
            builders, on = (R_D, counit_eps), fib
        else:
            builders, on = (L_D, unit_eta), r
        for i in order + order:
            builders[i](on, G)
        assert len(on._memo) == 2
        if owner == "fib":
            assert isinstance(R_D(fib, G), IndexedCat)
            eps = counit_eps(fib, G)
            assert isinstance(eps, IndexedFun) and eps.E is fib.p.D
        else:
            assert isinstance(L_D(r, G), LResult)
            eta = unit_eta(r, G)
            assert isinstance(eta, IndexedFun) and eta.D is r


def test_nested_entries_survive_the_outer_entry():
    """`counit_eps` builds R_D on the owner it keeps its result on, and
    `unit_eta` builds L_D.  The outer call finds no memo slot there, and
    the nested entry must survive its own: the counit and the unit must be
    built from the R_D and L_D that later calls get, and the transposes
    refuse or fail to compose any other."""
    fib = as_fibration(groupoid_fibration(arrow_cat()))
    G = grothendieck(fib.p.E)
    eps = counit_eps(fib, G)
    assert len(fib._memo) == 2
    assert eps.D is L_D(R_D(fib, G), G).fib.p.D

    fib = as_fibration(groupoid_fibration(arrow_cat()))
    G = grothendieck(fib.p.E)
    r = R_D(fib, G)
    assert getattr(r, "_memo", None) is None
    eta = unit_eta(r, G)
    assert len(r._memo) == 2
    la = L_D(r, G)
    assert eta.E is R_D(la.fib, G)
    fm = flat(identity_indexed_fun(r), fib, G, LA=la, LR=la)
    assert sharp(fm, la, G, R_dst=r).D is r


def _one_op(fib, J):
    """The fibred-corpus benchmark op, through the library.  Returns weak
    references to the structures it built and then dropped."""
    G = grothendieck(fib.p.E)
    giraud_topology(G, J)
    r = R_D(fib, G)
    assert is_indexed_equivalence(unit_eta(r, G)).ok
    assert is_indexed_equivalence(counit_eps(fib, G)).ok
    la = L_D(r, G)
    h = identity_indexed_fun(r)
    fm = flat(h, fib, G, LA=la, LR=la)
    h2 = sharp(fm, la, G, R_dst=r)
    assert find_indexed_natiso(h2, h) is not None
    fm2 = flat(h2, fib, G, LA=la, LR=la)
    assert find_indexed_natiso(fm2.F, fm.F) is not None
    assert check_thm_4_2_i(fib, J).ok
    assert check_thm_4_2_ii(fib, J, G).ok
    assert check_lemma_3_1(const_indexed(G.total, terminal_cat()), G, J).agree
    kept = [fib, G, la, la.fib] + [GX for _, GX, _ in la.per_x.values()]
    return [weakref.ref(x) for x in kept]


def test_nothing_outlives_its_op_without_the_cyclic_collector():
    fast = [n for n in sorted(CORPUS) if n not in SLOW_4_2_II]
    gc.collect()
    gc.disable()
    try:
        refs = []
        for name in fast:
            refs += _one_op(*CORPUS[name]())
        assert [r() for r in refs] == [None] * len(refs)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = [o for o in gc.garbage
                  if type(o).__module__.startswith("finstack")]
        assert cyclic == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
