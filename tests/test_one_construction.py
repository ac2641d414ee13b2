"""Constructions computed in one place, against the formulas that computed
them before they were shared: `is_stack` recomputing a comparison datum for
every (datum, fibre object) pair, the gluing search of the factorization
through the stackification unit, and the pairwise partition of an essential
fibre into isomorphism classes.

Runs on the corpus sites, seeded `sitegen` sites and both plus stages of
`stackify` on them."""

import random

import pytest

from finstack import (
    DEFAULT,
    Check,
    InternalError,
    comparison_datum,
    desc_hom,
    embed_discrete,
    enumerate_data,
    essential_fibre,
    essential_fibre_classes,
    grothendieck,
    is_stack,
    minimal_cover,
    restrict_datum,
    saturate,
    stackify,
)
from finstack.descent import glue
from finstack.util import fmt, stable_sorted

import corpus
import sitegen


# ---------------------------------------------------------------------------
# the formulas as they were written before


def ref_comparison_ff_at(D, X, R, caps):
    fx = D.fib[X]
    members = R.members()
    for V in fx.objects:
        a = comparison_datum(D, R, V)
        for W in fx.objects:
            b = comparison_datum(D, R, W)
            image = {}
            for m in fx.hom(V, W):
                comp = tuple((f, D.res[f].mo(m)) for f in members)
                if comp in image:
                    return Check(
                        False,
                        f"comparison not faithful on hom({fmt(V)},{fmt(W)}) "
                        f"over {fmt(X)}",
                        witness=(X, R, image[comp], m),
                    )
                image[comp] = m
            for dm in desc_hom(D, R, a, b, caps):
                key = tuple((f, dm[f]) for f in members)
                if key not in image:
                    return Check(
                        False,
                        f"comparison not full on hom({fmt(V)},{fmt(W)}) over "
                        f"{fmt(X)}: a descent morphism has no preimage",
                        witness=(X, R, dm),
                    )
    return Check(True, "comparison fully faithful")


def ref_iso_matching(D, R, a, b, caps):
    for dm in desc_hom(D, R, a, b, caps):
        if all(D.fib[D.base.dom(f)].is_iso(m) for f, m in dm.items()):
            return True
    return False


def ref_is_stack(D, J, caps):
    for X in stable_sorted(D.base.objects):
        for R in J.covers_of(X):
            c = ref_comparison_ff_at(D, X, R, caps)
            if not c:
                return c
    for X in stable_sorted(D.base.objects):
        fx = D.fib[X]
        for R in J.covers_of(X):
            for a in enumerate_data(D, R, caps):
                if not any(
                    ref_iso_matching(D, R, comparison_datum(D, R, V), a, caps)
                    for V in fx.objects
                ):
                    return Check(
                        False,
                        f"a descent datum over {fmt(X)} does not glue",
                        witness=(X, R, a),
                    )
    return Check(True, "stack")


def ref_glue(F, M, b, caps):
    X = M.target
    for V in stable_sorted(F.fib[X].objects):
        cv = comparison_datum(F, M, V)
        for dm in desc_hom(F, M, cv, b, caps):
            if all(F.fib[F.base.dom(f)].is_iso(m) for f, m in dm.items()):
                return V, dm
    raise InternalError(f"descent datum over {fmt(X)} does not glue")


def ref_essential_fibre(G, X):
    base = G.source.base
    return [
        (A, alpha)
        for A in stable_sorted(G.total.objects)
        for alpha in base.hom(X, G.proj.ob(A))
        if base.is_iso(alpha)
    ]


def ref_ess_iso(G, one, two):
    (A, alpha), (B, beta) = one, two
    total, base = G.total, G.source.base
    return any(
        total.is_iso(m) and base.compose(G.proj.mo(m), alpha) == beta
        for m in total.hom(A, B)
    )


def ref_essential_fibre_classes(G, X):
    classes = []
    for item in ref_essential_fibre(G, X):
        for cls in classes:
            if ref_ess_iso(G, cls[0], item):
                cls.append(item)
                break
        else:
            classes.append([item])
    return classes


# ---------------------------------------------------------------------------
# inputs


def _z2_site():
    c = corpus.z2_cat()
    return c, saturate(c, {})


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


CASES = {
    **{name: (lambda s=site, d=indexed: (*s(), d())) for name, (site, indexed)
       in CORPUS.items()},
    **{f"sitegen-{i}": _sitegen_case(i) for i in range(8)},
}


@pytest.fixture(scope="module", params=sorted(CASES))
def stages(request):
    """(base, topology, [D, D⁺, D⁺⁺], stackify result)."""
    c, J, D = CASES[request.param]()
    s = stackify(D, J)
    return c, J, [D, s.once.output, s.stack], s


# ---------------------------------------------------------------------------
# tests


def test_is_stack_matches_the_per_datum_comparison_loop(stages):
    c, J, cats, _ = stages
    for D in cats:
        new, ref = is_stack(D, J), ref_is_stack(D, J, DEFAULT)
        assert (new.ok, new.reason) == (ref.ok, ref.reason)
        assert new.witness == ref.witness


def test_glue_matches_the_stable_order_search(stages):
    c, J, cats, _ = stages
    for F in cats:
        for X in c.objects:
            M = minimal_cover(J, X)
            cmp = [(V, comparison_datum(F, M, V))
                   for V in stable_sorted(F.fib[X].objects)]
            for b in enumerate_data(F, M):
                try:
                    want = ref_glue(F, M, b, DEFAULT)
                except InternalError:
                    want = None
                assert glue(F, M, cmp, b) == want


def test_plus_unit_cells_are_the_recomputed_data(stages):
    c, J, _, s = stages
    for p in (s.once, s.twice):
        D = p.input
        for y, (Y, X) in c.mor.items():
            MX, MY = p.minimal[X], p.minimal[Y]
            for V in D.fib[X].objects:
                src, dst, _ = p.unit.cell[y][V]
                assert src is comparison_datum(D, MY, D.res[y].ob(V))
                assert dst is restrict_datum(D, comparison_datum(D, MX, V), y, MY)


def _groths():
    out = [("twisted", grothendieck(corpus.twisted_z2_indexed()))]
    for name in ("arrow-iso", "patches-nonsheaf", "span"):
        _, _, D = CASES[name]()
        out.append((name, grothendieck(D)))
    rng = random.Random(3)
    for i in range(12):
        p, _ = sitegen.rand_fibration(rng)
        out.append((f"fibration-{i}", grothendieck(p.E)))
    return out


def test_essential_fibres_match_the_pairwise_partition():
    fibres = 0
    for name, G in _groths():
        for X in G.source.base.objects:
            fibres += 1
            assert essential_fibre(G, X) == ref_essential_fibre(G, X), name
            assert (essential_fibre_classes(G, X)
                    == ref_essential_fibre_classes(G, X)), name
    assert fibres > 30
