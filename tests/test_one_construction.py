"""Constructions computed in one place, against the formulas that computed
them before they were shared: `is_stack` and `is_prestack` deciding descent
on every covering sieve, the gluing search of the factorization through the
stackification unit, the pairwise partition of an essential fibre into
isomorphism classes, and the cleavages of indexed fibrations, which are
read off one set of cartesian arrows per component.

`is_stack` and `is_prestack` decide on the pullbacks of least covers
alone.  That is exact because, for a fixed D, the sieves on whose every
pullback D satisfies descent form a topology;
`test_descent_sieves_form_a_topology` checks this on every sieve of every
input.  So their verdicts and reasons are the canonical loop's over every
cover, while a failure names the first failing pullback of a least cover
(`ref_least_failure`), which is itself a cover when J is a topology.  A J
that is not a topology is decided as the topology its least covers
generate.

Runs on the corpus sites, seeded `sitegen` sites, presheaves and
fibrations, and both plus stages of `stackify` on them."""

import random

import pytest

from finstack import (
    DEFAULT,
    CapExceeded,
    Caps,
    Check,
    Functor,
    InternalError,
    L_D,
    Plan,
    Sieve,
    Topology,
    canonical_lift,
    comparison_datum,
    const_indexed,
    desc_hom,
    embed_discrete,
    enumerate_data,
    essential_fibre_cat,
    grothendieck,
    identity_functor,
    identity_indexed_fun,
    is_cartesian_over,
    is_indexed_fibration,
    is_prestack,
    is_stack,
    iso_classes,
    least_cover_pullbacks,
    minimal_cover,
    restrict_datum,
    saturate,
    sieves_on,
    stackify,
    strict_indexed,
    strict_indexed_fun,
    terminal_cat,
    validate_topology,
)
from finstack.descent import glue
from finstack.fibadj import _localize
from finstack.util import fmt, stable_sorted

import corpus
import sitegen
from oracles import generate_sieve, pullback_sieve


# ---------------------------------------------------------------------------
# the formulas as they were written before


def ref_comparison_ff_at(D, X, R, caps):
    fx = D.fib[X]
    members = R.members()
    plan = Plan(D, R)
    for V in fx.objects:
        a = comparison_datum(plan, V)
        for W in fx.objects:
            b = comparison_datum(plan, W)
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
            for dm in desc_hom(plan, a, b, caps):
                key = tuple(zip(members, dm))
                if key not in image:
                    return Check(
                        False,
                        f"comparison not full on hom({fmt(V)},{fmt(W)}) over "
                        f"{fmt(X)}: a descent morphism has no preimage",
                        witness=(X, R, dict(key)),
                    )
    return Check(True, "comparison fully faithful")


def ref_iso_matching(D, R, a, b, caps):
    for dm in desc_hom(Plan(D, R), a, b, caps):
        if all(D.fib[D.base.dom(f)].is_iso(m)
               for f, m in zip(R.members(), dm)):
            return True
    return False


def ref_is_prestack(D, J, caps):
    for X in stable_sorted(D.base.objects):
        for R in J.covers_of(X):
            c = ref_comparison_ff_at(D, X, R, caps)
            if not c:
                return c
    return Check(True, "prestack")


def ref_glues_at(D, X, R, caps):
    plan = Plan(D, R)
    for a in enumerate_data(plan, caps):
        if not any(
            ref_iso_matching(D, R, comparison_datum(plan, V), a, caps)
            for V in D.fib[X].objects
        ):
            return Check(
                False,
                f"a descent datum over {fmt(X)} does not glue",
                witness=(X, R, a),
            )
    return Check(True, "glues")


def ref_is_stack(D, J, caps):
    pre = ref_is_prestack(D, J, caps)
    if not pre:
        return pre
    for X in stable_sorted(D.base.objects):
        for R in J.covers_of(X):
            c = ref_glues_at(D, X, R, caps)
            if not c:
                return c
    return Check(True, "stack")


def ref_least_failure(D, J, gluing, caps):
    """The first sieve of `least_cover_pullbacks(J)` that fails the
    canonical full-faithfulness check or, with `gluing`, when none does,
    the first that fails the canonical gluing check: that check's Check, or
    None when every sieve passes."""
    sieves = least_cover_pullbacks(J)
    for R in sieves:
        c = ref_comparison_ff_at(D, R.target, R, caps)
        if not c:
            return c
    if gluing:
        for R in sieves:
            c = ref_glues_at(D, R.target, R, caps)
            if not c:
                return c
    return None


def ref_glue(F, M, b, caps):
    X = M.target
    plan = Plan(F, M)
    for V in stable_sorted(F.fib[X].objects):
        cv = comparison_datum(plan, V)
        for dm in desc_hom(plan, cv, b, caps):
            if all(F.fib[F.base.dom(f)].is_iso(m)
                   for f, m in zip(M.members(), dm)):
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


def ref_indexed_fibration(p):
    """The two passes that found the cartesian arrows before: per component
    and (u, A), the stable-least arrow into A over u that passes the
    universal property; then every arrow tested again for preservation.
    Returns the cleavages, or the failure witness."""
    cleav = {}
    for X in stable_sorted(p.D.base.objects):
        F = p.comp[X]
        cleav[X] = {}
        for A in stable_sorted(F.src.objects):
            for u in F.dst.into(F.ob(A)):
                lift = next((m for m in F.src.into(A)
                             if F.mo(m) == u and is_cartesian_over(F, m)), None)
                if lift is None:
                    return (X, (u, A))
                cleav[X][(u, A)] = lift
    for y, (Y, X) in p.D.base.mor.items():
        for m in p.D.fib[X].mor:
            if is_cartesian_over(p.comp[X], m) and not is_cartesian_over(
                p.comp[Y], p.D.res[y].mo(m)
            ):
                return (y, m)
    return cleav


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


def _sitegen_presheaf_case(i):
    def make():
        rng = random.Random(2000 + i)
        c, J = sitegen.rand_site(rng)
        return c, J, embed_discrete(sitegen.rand_presheaf(rng, c))
    return make


CASES = {
    **{name: (lambda s=site, d=indexed: (*s(), d())) for name, (site, indexed)
       in CORPUS.items()},
    **{f"sitegen-{i}": _sitegen_case(i) for i in range(8)},
    **{f"sitegen-presheaf-{i}": _sitegen_presheaf_case(i) for i in range(4)},
}


@pytest.fixture(scope="module", params=sorted(CASES))
def stages(request):
    """(base, topology, [D, D⁺, D⁺⁺], stackify result)."""
    c, J, D = CASES[request.param]()
    s = stackify(D, J)
    return c, J, [D, s.once.output, s.stack], s


# ---------------------------------------------------------------------------
# tests


def _assert_least_witness(new, D, J, gluing, topology=None):
    """A failure names the first failing least-cover pullback of J, a cover
    of the topology J generates (J itself when J is one)."""
    want = ref_least_failure(D, J, gluing, DEFAULT)
    assert (new.reason, new.witness) == (want.reason, want.witness)
    R = new.witness[1]
    assert R.mors in (topology or J).covers[R.target]


def test_is_stack_matches_the_per_datum_comparison_loop(stages):
    c, J, cats, _ = stages
    for D in cats:
        new, ref = is_stack(D, J), ref_is_stack(D, J, DEFAULT)
        assert (new.ok, new.reason) == (ref.ok, ref.reason)
        if not new:
            _assert_least_witness(new, D, J, True)


def test_is_prestack_matches_the_canonical_loop(stages):
    c, J, cats, _ = stages
    for D in cats:
        new, ref = is_prestack(D, J), ref_is_prestack(D, J, DEFAULT)
        assert (new.ok, new.reason) == (ref.ok, ref.reason)
        if not new:
            _assert_least_witness(new, D, J, False)


def test_decisions_match_the_canonical_loop_on_listed_principal_sieves(stages):
    """A listed J that is not a topology (every principal sieve covers) is
    decided as the topology its least covers generate."""
    c, _, cats, _ = stages
    J = Topology(c, {x: frozenset(generate_sieve(c, x, [f]).mors
                                  for f in c.into(x))
                     for x in c.objects})
    generated = saturate(c, {x: [frozenset.intersection(*J.covers[x])]
                             for x in c.objects})
    for D in cats:
        for gluing, decide, ref in ((False, is_prestack, ref_is_prestack),
                                    (True, is_stack, ref_is_stack)):
            new, old = decide(D, J), ref(D, generated, DEFAULT)
            assert new.ok == old.ok
            if not new:
                _assert_least_witness(new, D, J, gluing, generated)


def test_least_cover_pullbacks_are_the_nonmaximal_pullbacks_of_least_covers(stages):
    c, J, _, _ = stages
    want = set()
    for x in c.objects:
        M = minimal_cover(J, x)
        for h in c.into(x):
            p = pullback_sieve(M, h)
            if p.mors != frozenset(c.into(p.target)):
                want.add((p.target, p.mors))
    got = [(R.target, R.mors) for R in least_cover_pullbacks(J)]
    assert len(got) == len(set(got))
    assert set(got) == want
    assert all(R.mors in J.covers[R.target] for R in least_cover_pullbacks(J))


def _descends_on(D, R, gluing):
    """The canonical checks at the one sieve R."""
    X = R.target
    if not ref_comparison_ff_at(D, X, R, DEFAULT):
        return False
    return not gluing or bool(ref_glues_at(D, X, R, DEFAULT))


def test_descent_sieves_form_a_topology(stages):
    """For fixed D, {R : D satisfies descent on every pullback of R} is a
    topology, for full faithfulness alone and with gluing; D is a J-stack
    (J-prestack) exactly when it holds every cover of J."""
    c, J, cats, _ = stages
    universe = {x: sieves_on(c, x) for x in c.objects}
    for D in cats:
        for gluing, decide in ((False, is_prestack), (True, is_stack)):
            holds = {(x, s): _descends_on(D, Sieve(x, s, c), gluing)
                     for x in c.objects for s in universe[x]}
            family = {
                x: frozenset(
                    s for s in universe[x]
                    if all(holds[(c.dom(h), pullback_sieve(Sieve(x, s, c), h).mors)]
                           for h in c.into(x)))
                for x in c.objects
            }
            assert validate_topology(Topology(c, family)) == []
            in_family = all(s in family[x] for x in c.objects for s in J.covers[x])
            assert decide(D, J).ok == in_family


def _outcome(decide, D, J, caps):
    try:
        c = decide(D, J, caps)
    except CapExceeded as e:
        return ("cap", str(e))
    return ("check", c.ok, c.reason, c.witness)


DESCENT_CAPS = (1, 2, 3, 4, 8, 16, 48, 64, DEFAULT.max_descent)


def test_caps_trip_as_in_the_canonical_loop(stages):
    """The same Check or the same cap message as the canonical loop at every
    `max_descent`, except that (a) an input may be decided, either way,
    where the canonical loop runs out of budget on a sieve the least-cover
    pullbacks skip, and (b) a failure names the first failing least-cover
    pullback.  Never does a cap trip where the canonical loop decides."""
    c, J, cats, _ = stages
    for D in cats:
        for gluing, decide, ref in ((False, is_prestack, ref_is_prestack),
                                    (True, is_stack, ref_is_stack)):
            for n in DESCENT_CAPS:
                caps = Caps(max_descent=n)
                new, old = _outcome(decide, D, J, caps), _outcome(ref, D, J, caps)
                if new == old or (old[0] == "cap" and new[0] == "check"):
                    continue
                assert new[0] == old[0] == "check" and new[1:3] == old[1:3]
                want = ref_least_failure(D, J, gluing, DEFAULT)
                assert new[3] == want.witness


def test_glue_matches_the_stable_order_search(stages):
    c, J, cats, _ = stages
    for F in cats:
        for X in c.objects:
            M = minimal_cover(J, X)
            plan = Plan(F, M)
            cmp = [(V, comparison_datum(plan, V))
                   for V in stable_sorted(F.fib[X].objects)]
            for b in enumerate_data(plan):
                try:
                    want = ref_glue(F, M, b, DEFAULT)
                except InternalError:
                    want = None
                assert list(glue(plan, cmp, [b])) == [want]


def test_plus_unit_cells_are_the_recomputed_data(stages):
    c, J, _, s = stages
    for p in (s.once, s.twice):
        D = p.input
        for y, (Y, X) in c.mor.items():
            PX, PY = Plan(D, p.minimal[X]), Plan(D, p.minimal[Y])
            for V in D.fib[X].objects:
                src, dst, _ = p.unit.cell[y][V]
                assert src is comparison_datum(PY, D.res[y].ob(V))
                assert dst is restrict_datum(PY, comparison_datum(PX, V), y)


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
            ess = essential_fibre_cat(G.proj, X)
            assert list(ess.objects) == ref_essential_fibre(G, X), name
            assert iso_classes(ess) == ref_essential_fibre_classes(G, X), name
    assert fibres > 30


def _no_lift_over_iso():
    """Two discrete points over the walking isomorphism: x -> y has no lift."""
    base = terminal_cat()
    ee = const_indexed(base, corpus.discrete_two())
    dd = const_indexed(base, corpus.walking_iso_cat())
    f0 = Functor(ee.fib["*"], dd.fib["*"], {"0": "x", "1": "y"},
                 {("id", "0"): "idx", ("id", "1"): "idy"}, name="embed")
    return strict_indexed_fun(ee, dd, {"*": f0})


def _unpreserved():
    """Componentwise fibrations over the arrow a -> b whose restriction
    sends the arrow of the fibre over b, cartesian over the identity, to the
    arrow of the fibre over a, which is not cartesian over the point."""
    base, arrow, one = corpus.arrow_cat(), corpus.arrow_cat(), terminal_cat()
    ida = identity_functor(arrow)
    bang = Functor(arrow, one, {o: "*" for o in arrow.objects},
                   {m: ("id", "*") for m in arrow.mor}, name="!")
    ee = strict_indexed(base, {"a": arrow, "b": arrow},
                        {"ida": ida, "idb": ida, "i": ida})
    dd = strict_indexed(base, {"a": one, "b": arrow},
                        {"ida": identity_functor(one), "idb": ida, "i": bang})
    return strict_indexed_fun(ee, dd, {"a": bang, "b": ida})


def _fibrations():
    patches = corpus.patches_cat()
    arrow_total = grothendieck(embed_discrete(corpus.arrow_presheaf()))
    twisted_total = grothendieck(corpus.twisted_z2_indexed())
    out = [
        ("twisted", identity_indexed_fun(corpus.twisted_z2_indexed())),
        ("groupoid", corpus.groupoid_fibration(corpus.arrow_cat())),
        ("projection-iso", corpus.projection_fibration(
            embed_discrete(corpus.patches_sheaf()),
            corpus.const_walking_iso(patches))),
        ("projection-arrow", corpus.projection_fibration(
            embed_discrete(corpus.patches_sheaf()),
            const_indexed(patches, corpus.arrow_cat()))),
        ("L-arrow", L_D(const_indexed(arrow_total.total, corpus.arrow_cat()),
                        arrow_total).fib.p),
        ("L-twisted", L_D(const_indexed(twisted_total.total,
                                        corpus.walking_iso_cat()),
                          twisted_total).fib.p),
        ("no-lift", _no_lift_over_iso()),
        ("unpreserved", _unpreserved()),
    ]
    for name in ("patches-sheaf", "arrow-iso"):
        c, J, D = CASES[name]()
        p = identity_indexed_fun(D)
        fib = is_indexed_fibration(p).witness
        _, p1, p2 = _localize(fib, J, DEFAULT)
        out += [(name, p), (f"{name}-plus", p1), (f"{name}-plus-plus", p2)]
    rng = random.Random(5)
    for i in range(16):
        p, _ = sitegen.rand_fibration(rng)
        out.append((f"fibration-{i}", p))
    return out


def test_cleavages_are_the_stable_least_cartesian_lifts():
    failed = 0
    for name, p in _fibrations():
        c = is_indexed_fibration(p)
        ref = ref_indexed_fibration(p)
        if c:
            assert c.witness.cleavages == ref, name
        else:
            failed += 1
            assert c.witness == ref, name
    assert failed == 2


def test_canonical_lifts_are_cartesian_morphisms_of_the_total_category():
    lifts = 0
    for name, p in _fibrations():
        G = grothendieck(p.E)
        D = G.source
        for y, (Yd, Yc) in D.base.mor.items():
            for U in D.fib[Yc].objects:
                m = canonical_lift(G, y, U)
                assert G.total.mor[m] == ((Yd, D.res[y].ob(U)), (Yc, U)), name
                assert G.proj.mo(m) == y and is_cartesian_over(G.proj, m), name
                lifts += 1
    assert lifts > 200
