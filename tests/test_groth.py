import random

import pytest

from finstack import (
    Caps,
    CapExceeded,
    InternalError,
    canonical_lift,
    cartesian_arrows,
    check_lemma_3_1,
    compose_functors,
    const_indexed,
    embed_discrete,
    essential_fibre_cat,
    fiber_transport,
    fibre_inclusion,
    giraud_topology,
    grothendieck,
    is_equivalence,
    is_stack,
    iso_classes,
    precompose_indexed,
    saturate,
    slice_cat,
    slice_site,
    terminal_cat,
    validate_topology,
)

import corpus
import sitegen
from oracles import generate_sieve
from test_reuse import CORPUS as FIBRATIONS


def test_const_terminal_total_is_base():
    c = corpus.patches_cat()
    G = grothendieck(const_indexed(c, terminal_cat()))
    assert len(G.total.objects) == len(c.objects)
    assert len(G.total.mor) == len(c.mor)
    assert is_equivalence(G.proj)


def test_elements_category_oracle():
    P = corpus.patches_sheaf()
    G = grothendieck(embed_discrete(P))
    base = P.base
    want = {(X, e) for X in base.objects for e in P.els[X]}
    assert set(G.total.objects) == want
    for (X, e) in want:
        for (Y, e2) in want:
            n = len(G.total.hom((X, e), (Y, e2)))
            expect = sum(1 for y in base.hom(X, Y) if P.act[y][e2] == e)
            assert n == expect


def test_total_over_point_is_fibre():
    K = corpus.walking_iso_cat()
    G = grothendieck(const_indexed(terminal_cat(), K))
    assert len(G.total.objects) == len(K.objects)
    assert len(G.total.mor) == len(K.mor)
    assert is_equivalence(fibre_inclusion(G, "*"))


def test_twisted_total_is_cyclic_of_order_four():
    # The nontrivial compositor turns the flip into an order-4 element.
    G = grothendieck(corpus.twisted_z2_indexed())
    t = G.total
    assert len(t.objects) == 1
    assert len(t.mor) == 4
    m = ("s", "1", "*")
    sq = t.compose(m, m)
    assert sq == ("e", "t", "*")
    assert not t.is_id(sq)
    assert t.compose(sq, sq) == t.ident[("*", "*")]


def test_grothendieck_cap():
    with pytest.raises(CapExceeded):
        grothendieck(embed_discrete(corpus.patches_sheaf()), caps=Caps(max_descent=2))


def _invertible_component(G):
    """The arrows of G's total category whose fibre component is invertible."""
    fib = G.source.fib
    return {m for m in G.total.mor if fib[G.total.dom(m)[0]].is_iso(m[1])}


def _corpus_indexed():
    """Every corpus indexed category, among them constant families of the
    arrow category, whose vertical arrows are not all invertible."""
    patches, arrow = corpus.patches_cat(), corpus.arrow_cat()
    presheaves = (corpus.patches_sheaf(), corpus.patches_nonsheaf(),
                  corpus.patches_nonseparated(), corpus.arrow_presheaf(),
                  corpus.span_presheaf(1), corpus.span_presheaf_free(),
                  corpus.const_presheaf(patches), corpus.hom_presheaf(patches, "X"))
    out = [embed_discrete(P) for P in presheaves]
    out += [corpus.twisted_z2_indexed(), corpus.const_walking_iso(patches),
            const_indexed(arrow, corpus.arrow_cat()),
            const_indexed(patches, corpus.arrow_cat()),
            const_indexed(terminal_cat(), corpus.parallel_pair_cat())]
    return out


def test_cartesian_arrows_are_those_with_invertible_component():
    """The claim `canonical_lift` rests on, against the universal property:
    an arrow of a total category is cartesian over the base exactly when
    its fibre component is invertible."""
    rng = random.Random(13)
    cats = _corpus_indexed()
    for _ in range(20):
        c, _ = sitegen.rand_site(rng)
        cats.append(sitegen.rand_indexed(rng, c))
    not_cartesian = 0
    for D in cats:
        G = grothendieck(D)
        cart = cartesian_arrows(G.proj)
        assert cart == _invertible_component(G), D.name
        not_cartesian += len(G.total.mor) - len(cart)
    assert not_cartesian > 10
    base = corpus.arrow_cat()
    G = grothendieck(const_indexed(base, corpus.arrow_cat()))
    vert = (base.ident["a"], "i", "b")
    assert vert in G.total.mor and vert not in cartesian_arrows(G.proj)


def test_canonical_cleavage():
    for D in (embed_discrete(corpus.patches_sheaf()), corpus.twisted_z2_indexed()):
        G = grothendieck(D)
        cart = cartesian_arrows(G.proj)
        for y, (_, Yc) in D.base.mor.items():
            for U in D.fib[Yc].objects:
                m = canonical_lift(G, y, U)
                assert m == canonical_lift(G, y, U)
                assert m[0] == y and m[2] == U
                assert m in cart
                # identity-structured component
                fib = D.fib[G.total.dom(m)[0]]
                assert fib.is_id(m[1])


def test_canonical_lift_missing_from_total_is_internal_error():
    D = embed_discrete(corpus.patches_sheaf())
    G = grothendieck(D)
    y, (_, Yc) = next(iter(D.base.mor.items()))
    U = D.fib[Yc].objects[0]
    del G.total.mor[canonical_lift(G, y, U)]
    with pytest.raises(InternalError, match="no cartesian lift"):
        canonical_lift(G, y, U)


def test_cleavage_commutes_with_vertical_inclusion():
    for D in (embed_discrete(corpus.patches_sheaf()), corpus.twisted_z2_indexed()):
        G = grothendieck(D)
        base = D.base
        incl = {X: fibre_inclusion(G, X) for X in base.objects}
        for y, (Y, X) in base.mor.items():
            for m, (U, W) in D.fib[X].mor.items():
                lhs = G.total.compose(
                    canonical_lift(G, y, W), incl[Y].mo(D.res[y].mo(m))
                )
                rhs = G.total.compose(incl[X].mo(m), canonical_lift(G, y, U))
                assert lhs == rhs


def test_giraud_of_trivial_is_trivial():
    for D in (embed_discrete(corpus.patches_sheaf()), corpus.twisted_z2_indexed()):
        G = grothendieck(D)
        assert giraud_topology(G, saturate(D.base, {})) == saturate(G.total, {})


def test_giraud_arrow_lift_generates_cover():
    c, J = corpus.arrow_site()
    G = grothendieck(embed_discrete(corpus.arrow_presheaf(2, 1)))
    JD = giraud_topology(G, J)
    assert validate_topology(JD) == []
    for u in ("s0", "s1"):
        S = generate_sieve(G.total, ("b", u), [canonical_lift(G, "i", u)])
        assert S.mors in JD.covers[S.target]
    # frozen: exactly the generated sieve and the maximal one cover (b, s0)
    assert len(JD.covers[("b", "s0")]) == 2


def test_giraud_const_terminal_transports_topology():
    c, J = corpus.patches_site()
    G = grothendieck(const_indexed(c, terminal_cat()))
    JD = giraud_topology(G, J)
    assert validate_topology(JD) == []
    for X in c.objects:
        got = {frozenset(m[0] for m in mors) for mors in JD.covers[(X, "*")]}
        assert got == set(J.covers[X])


def test_giraud_validates_on_corpus():
    for build, P in (
        (corpus.span_site, corpus.span_presheaf_free(1, 1, 1)),
        (corpus.multicover_site, corpus.patches_sheaf()),
    ):
        c, J = build()
        G = grothendieck(embed_discrete(P))
        assert validate_topology(giraud_topology(G, J)) == []


def _giraud_per_cover(G, J):
    """The transfer generated from one lift family per cover of X."""
    return saturate(G.total, {
        (X, U): [[canonical_lift(G, f, U) for f in R.members()]
                 for R in J.covers_of(X)]
        for (X, U) in G.total.objects})


def _corpus_case(make):
    def case():
        fib, J = make()
        return fib.p.E, J
    return case


def _multi_cover_case(i):
    def make():
        rng = random.Random(3000 + i)
        c, J, _ = sitegen.multi_cover_site(rng)
        return sitegen.rand_indexed(rng, c), J
    return make


def _fibration_case(i):
    def make():
        p, J = sitegen.rand_fibration(random.Random(2000 + i))
        return p.E, J
    return make


GIRAUD_CASES = {
    **{name: _corpus_case(make) for name, make in FIBRATIONS.items()},
    **{f"multi-cover-{i}": _multi_cover_case(i) for i in range(6)},
    **{f"sitegen-{i}": _fibration_case(i) for i in range(6)},
}


@pytest.mark.parametrize("name", sorted(GIRAUD_CASES))
def test_giraud_from_least_covers_matches_one_family_per_cover(name):
    """Generating from the lifts of the least cover of X gives the topology
    that one family per cover of X gives: a sieve generated by lifts is
    the preimage of a base sieve, and preimages meet as their sieves do."""
    D, J = GIRAUD_CASES[name]()
    G = grothendieck(D)
    assert giraud_topology(G, J).covers == _giraud_per_cover(G, J).covers


def test_essential_fibre():
    D = const_indexed(corpus.walking_iso_cat(), corpus.discrete_two())
    G = grothendieck(D)
    ess = essential_fibre_cat(G.proj, "x").objects
    # every total object over x appears with the identity
    for A in G.total.objects:
        if A[0] == "x":
            assert (A, "idx") in ess
    # objects over y enter through the iso g : x -> y... alpha : x -> proj(A)
    assert ((("y", "0"), "f")) in ess
    classes = iso_classes(essential_fibre_cat(G.proj, "x"))
    assert len(classes) == 2  # one per fibre point, x- and y-copies merged


def test_fiber_transport_projects_to_dom():
    c, J = corpus.patches_site()
    D = embed_discrete(corpus.patches_sheaf())
    G = grothendieck(D)
    for X in c.objects:
        sl, slproj = slice_cat(c, X)
        for (A, alpha) in essential_fibre_cat(G.proj, X).objects:
            F = fiber_transport(G, (A, alpha))
            assert compose_functors(G.proj, F) == slproj
            assert G.total.iso_between(F.ob(c.ident[X]), A) is not None


def test_fiber_transport_nonstrict():
    D = corpus.twisted_z2_indexed()
    G = grothendieck(D)
    sl, slproj = slice_cat(D.base, "*")
    for (A, alpha) in essential_fibre_cat(G.proj, "*").objects:
        F = fiber_transport(G, (A, alpha))
        assert compose_functors(G.proj, F) == slproj


def test_criterion_terminal_fibres_agree_true():
    c, J = corpus.arrow_site()
    G = grothendieck(embed_discrete(corpus.arrow_presheaf(2, 1)))
    rep = check_lemma_3_1(const_indexed(G.total, terminal_cat()), G, J)
    assert rep.agree and rep.total_side and rep.fiber_side


def test_criterion_constant_two_over_arrow():
    c, J = corpus.arrow_site()
    G = grothendieck(embed_discrete(corpus.arrow_presheaf(2, 1)))
    rep = check_lemma_3_1(const_indexed(G.total, corpus.discrete_two()), G, J)
    assert rep.agree and rep.total_side and rep.fiber_side


def test_criterion_representable():
    c, J = corpus.patches_site()
    G = grothendieck(embed_discrete(corpus.patches_sheaf()))
    E = embed_discrete(corpus.hom_presheaf(G.total, ("X", "x1")))
    rep = check_lemma_3_1(E, G, J)
    assert rep.agree


def test_criterion_disconnected_cover_fails_both_sides():
    c, J = corpus.span_site()
    G = grothendieck(embed_discrete(corpus.span_presheaf_free(1, 1, 1)))
    rep = check_lemma_3_1(const_indexed(G.total, corpus.discrete_two()), G, J)
    assert rep.agree
    assert not rep.total_side
    assert not rep.fiber_side


def test_criterion_twisted_trivial_topology():
    D = corpus.twisted_z2_indexed()
    G = grothendieck(D)
    J = saturate(D.base, {})
    rep = check_lemma_3_1(const_indexed(G.total, corpus.walking_iso_cat()), G, J)
    assert rep.agree and rep.total_side and rep.fiber_side


def test_criterion_iso_class_reduction_consistent():
    """The criterion checks one essential-fibre object per isomorphism
    class; checking every object gives the same fiberwise side."""
    c, J = corpus.arrow_site()
    G = grothendieck(embed_discrete(corpus.arrow_presheaf(1, 1)))
    E = const_indexed(G.total, corpus.discrete_two())
    every = []
    for X in c.objects:
        _, JX, _ = slice_site(J, X)
        for (A, alpha) in essential_fibre_cat(G.proj, X).objects:
            F = fiber_transport(G, (A, alpha))
            every.append(bool(is_stack(precompose_indexed(E, F), JX)))
    rep = check_lemma_3_1(E, G, J)
    assert rep.agree
    assert all(every) == bool(rep.fiber_side) == bool(rep.total_side)
    assert len(every) >= len(rep.instances)
