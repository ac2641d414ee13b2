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
    Plan,
    Sieve,
    comparison,
    comparison_datum,
    desc_cat,
    desc_hom,
    embed_discrete,
    embed_mor,
    enumerate_data,
    is_equivalence,
    is_prestack,
    is_stack,
    least_covers,
    minimal_cover,
    plus,
    push_datum,
    reflect_through_unit,
    restrict_datum,
    saturate,
    stackify,
    validate_fincat,
)

import corpus
import sitegen
from oracles import (
    least_cover_pullbacks,
    pullback_sieve,
    ref_coh_pairs,
    ref_comparison_datum,
    ref_mor_components,
    ref_mor_id,
    ref_push_datum,
    ref_push_mor,
    ref_restrict_datum,
    validate_datum,
)


def test_enumerate_data_span_counts_matching_pairs():
    # Over the span cover {jp, jq} a discrete datum is a free pair of local
    # sections: no overlap constrains them.
    c, J = corpus.span_site()
    D = embed_discrete(corpus.span_presheaf(0))
    R = minimal_cover(J, "X")
    data = enumerate_data(Plan(D, R))
    assert len(data) == 2  # |F(p)| * |F(q)| = 2 * 1
    for a in data:
        assert validate_datum(D, R, a) == []


def test_enumerate_data_patches_respects_overlap():
    c, J = corpus.patches_site()
    D = embed_discrete(corpus.patches_sheaf())
    R = minimal_cover(J, "X")
    data = enumerate_data(Plan(D, R))
    # Matched pairs only: (a1,b1) and (a2,b1), each with the forced r-value.
    assert len(data) == 2


def test_desc_cat_is_a_category():
    c, J = corpus.patches_site()
    D = embed_discrete(corpus.patches_sheaf())
    R = minimal_cover(J, "X")
    cat = desc_cat(Plan(D, R))
    assert validate_fincat(cat) == []
    assert len(cat.objects) == 2


def test_comparison_functor_validates():
    c, J = corpus.patches_site()
    D = embed_discrete(corpus.patches_sheaf())
    plan = Plan(D, minimal_cover(J, "X"))
    cat = desc_cat(plan)
    F = comparison(plan, cat)
    assert F.validate() == []
    assert is_equivalence(F)


def test_comparison_over_maximal_sieve_is_equivalence():
    # Desc over the maximal sieve recovers the fibre, non-strict case included.
    D = corpus.twisted_z2_indexed()
    plan = Plan(D, Sieve("*", frozenset(D.base.into("*")), D.base))
    cat = desc_cat(plan)
    assert validate_fincat(cat) == []
    F = comparison(plan, cat)
    assert F.validate() == []
    assert is_equivalence(F)


def test_stack_predicates_on_patches():
    c, J = corpus.patches_site()
    glued = embed_discrete(corpus.patches_sheaf())
    assert is_prestack(glued, J)
    assert is_stack(glued, J)

    torn = embed_discrete(corpus.patches_nonsheaf())
    assert is_prestack(torn, J)  # separated
    st = is_stack(torn, J)
    assert not st and "glue" in st.reason

    doubled = embed_discrete(corpus.patches_nonseparated())
    pre = is_prestack(doubled, J)
    assert not pre and "full" in pre.reason
    assert not is_stack(doubled, J)


def test_stack_predicates_on_span():
    c, J = corpus.span_site()
    empty_top = embed_discrete(corpus.span_presheaf(0))
    assert is_prestack(empty_top, J)
    assert not is_stack(empty_top, J)


def test_twisted_is_stack_for_trivial_topology():
    D = corpus.twisted_z2_indexed()
    J = saturate(D.base, {})
    assert is_prestack(D, J)
    assert is_stack(D, J)


def test_empty_sieve_descent_is_terminal():
    # Over the empty sieve there is exactly one datum and one morphism.
    c = corpus.arrow_cat()
    J = saturate(c, {"b": [[]]})
    D = embed_discrete(corpus.arrow_presheaf())
    R = minimal_cover(J, "b")
    assert R.mors == frozenset()
    cat = desc_cat(Plan(D, R))
    assert len(cat.objects) == 1
    assert len(cat.mor) == 1
    # F(b) has two elements mapping to the point: not fully faithful.
    assert not is_stack(D, J)


def test_restrict_datum():
    c, J = corpus.patches_site()
    D = embed_discrete(corpus.patches_sheaf())
    R = minimal_cover(J, "X")
    a = comparison_datum(Plan(D, R), "x2")
    y = corpus.le("p", "X")
    S = minimal_cover(J, "p")
    b = restrict_datum(Plan(D, S), a, y)
    assert validate_datum(D, S, b) == []
    assert b.obj[corpus.le("p", "p")] == "a2"


def test_push_datum():
    P = corpus.patches_sheaf()
    ident = {X: {e: e for e in P.els[X]} for X in P.base.objects}
    F = embed_mor(P, P, ident)
    c, J = corpus.patches_site()
    R = minimal_cover(J, "X")
    plan = Plan(F.D, R)
    a = comparison_datum(plan, "x1")
    b = push_datum(F, plan, a)
    assert validate_datum(F.E, R, b) == []
    assert b == a


def test_desc_hom_identity_present():
    c, J = corpus.patches_site()
    D = embed_discrete(corpus.patches_sheaf())
    plan = Plan(D, minimal_cover(J, "X"))
    a = comparison_datum(plan, "x1")
    homs = desc_hom(plan, a, a)
    assert len(homs) == 1  # discrete fibres: only the identity


def test_descent_cap():
    c, J = corpus.span_site()
    D = embed_discrete(corpus.span_presheaf(0))
    R = minimal_cover(J, "X")
    with pytest.raises(CapExceeded):
        enumerate_data(Plan(D, R), Caps(max_descent=1))


_BROKEN_DATA = """
from finstack import DescentDatum, Plan, const_indexed, embed_discrete
from finstack import enumerate_data, minimal_cover
from oracles import validate_datum
import corpus

c, J = corpus.patches_site()
R = minimal_cover(J, "X")
D = embed_discrete(corpus.patches_sheaf())
a = enumerate_data(Plan(D, R))[0]
members = R.members()
dropped = DescentDatum({f: a.obj[f] for f in members[2:]}, a.coh)
K = const_indexed(c, corpus.z2_cat())
b = enumerate_data(Plan(K, R))[0]
flipped = dict(b.coh)
for f in members:
    flipped[(f, c.ident[c.dom(f)])] = "s"
print(repr([validate_datum(D, R, dropped),
            validate_datum(K, R, DescentDatum(b.obj, flipped))]))
"""


def test_validate_datum_findings_ignore_hash_seed():
    """A sieve's members are a set of hashed ids; the first missing member
    and the normalization findings must not follow its iteration order."""
    src = str(Path(finstack.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, str(Path(__file__).parent)])}
    outs = set()
    for seed in ("1", "2", "3", "4", "5", "6"):
        run = subprocess.run([sys.executable, "-c", _BROKEN_DATA],
                             env={**env, "PYTHONHASHSEED": seed},
                             capture_output=True, text=True, timeout=60,
                             check=True)
        outs.add(run.stdout)
    assert len(outs) == 1
    missing, normalization = eval(outs.pop())
    assert missing == ["no object assigned at (le,p,X)"]
    assert normalization[:3] == [
        "normalization fails at (le,p,X)",
        "normalization fails at (le,q,X)",
        "normalization fails at (le,r,X)",
    ]


# ---------------------------------------------------------------------------
# The plan against the shape of descent as each construction worked it out
# for itself (`oracles.ref_coh_pairs` and the references built on it).


def _sieves(J):
    """The least covers of J, then its least-cover pullbacks."""
    c = J.base
    return [minimal_cover(J, x) for x in c.objects] + least_cover_pullbacks(J)


def _plan_inputs():
    """(indexed category, topology): seeded `sitegen` sites under random
    indexed categories, and the D⁺ of each."""
    rng = random.Random(53)
    out = []
    for _ in range(40):
        c, J = sitegen.rand_site(rng)
        D = sitegen.rand_indexed(rng, c)
        out += [(D, J), (plus(D, J).output, J)]
    return out


def test_plan_matches_the_reference_shape():
    """Coherence pairs, comparison data and morphism ids, and restrictions
    of data and morphism ids to every pullback, are the references'; data
    are the very same objects."""
    sieves = restricted = 0
    for D, J in _plan_inputs():
        base = D.base
        for R in _sieves(J):
            X, members = R.target, R.members()
            plan = Plan(D, R)
            assert plan.pairs == ref_coh_pairs(D, R)
            fx = D.fib[X]
            for V in fx.objects:
                assert comparison_datum(plan, V) is ref_comparison_datum(D, R, V)
            for m, (V, W) in fx.mor.items():
                v, w = comparison_datum(plan, V), comparison_datum(plan, W)
                want = {f: D.res[f].mo(m) for f in members}
                assert (plan.mor_id(v, w, plan.comparison_mor(m))
                        == ref_mor_id(v, w, want, members))
            desc = desc_cat(plan)
            for mid in desc.mor:
                assert plan.components(mid) == [
                    ref_mor_components(mid)[f] for f in members]
            for y in base.into(X):
                S = pullback_sieve(R, y)
                pulled = Plan(D, S)
                along = pulled.along(y, plan)
                omap = {}
                for a in desc.objects:
                    omap[a] = restrict_datum(pulled, a, y)
                    assert omap[a] is ref_restrict_datum(D, a, y, S)
                for mid, (a, b) in desc.mor.items():
                    comp = plan.components(mid)
                    ref = ref_mor_components(mid)
                    got = pulled.mor_id(omap[a], omap[b],
                                        [comp[i] for i in along])
                    want = {g: ref[base.compose(y, g)] for g in S.members()}
                    assert got == ref_mor_id(omap[a], omap[b], want,
                                             S.members())
                    restricted += 1
            sieves += 1
    assert sieves > 250 and restricted > 1000


FIBRATIONS = {
    "groupoid-arrow": lambda: (corpus.groupoid_fibration(corpus.arrow_cat()),
                               corpus.arrow_site()[1]),
    "groupoid-patches": lambda: (
        corpus.groupoid_fibration(corpus.patches_cat()),
        corpus.patches_site()[1]),
    "projection": lambda: (
        corpus.projection_fibration(
            embed_discrete(corpus.patches_sheaf()),
            corpus.const_walking_iso(corpus.patches_cat())),
        corpus.patches_site()[1]),
}


@pytest.mark.parametrize("name", sorted(FIBRATIONS))
def test_plan_pushes_as_the_reference_does(name):
    """Pushed data and pushed morphism ids along the corpus fibrations are
    the references'."""
    F, J = FIBRATIONS[name]()
    pushed = 0
    for R in _sieves(J):
        members = R.members()
        plan = Plan(F.D, R)
        desc = desc_cat(plan)
        omap = {}
        for a in desc.objects:
            omap[a] = push_datum(F, plan, a)
            assert omap[a] is ref_push_datum(F, R, a)
        for mid, (a, b) in desc.mor.items():
            got = plan.mor_id(omap[a], omap[b],
                              plan.pushed(F, plan.components(mid)))
            want = ref_push_mor(F, ref_mor_components(mid))
            assert got == ref_mor_id(omap[a], omap[b], want, members)
            pushed += 1
    assert pushed > 10


# ---------------------------------------------------------------------------
# The layers the benchmark's tracer reports stay on the call path.

TRACED = ("desc_cat", "enumerate_data", "comparison_datum")


def _count_calls(monkeypatch, run):
    """The calls to each function of `TRACED` while `run()` runs, each name
    rebound in every finstack module that holds it, as the benchmark's
    tracer (`perfbench/spans.py`) rebinds it."""
    calls = dict.fromkeys(TRACED, 0)
    mods = [m for n, m in sys.modules.items()
            if m is not None and (n == "finstack" or n.startswith("finstack."))]
    for name in TRACED:
        orig = getattr(finstack.descent, name)

        def counted(*args, _name=name, _orig=orig, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        for mod in mods:
            if getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, counted)
    out = run()
    monkeypatch.undo()
    return out, calls


def _sizes(D):
    return {X: len(D.fib[X].objects) for X in D.base.objects}


def test_traced_descent_layers_stay_on_the_call_path(monkeypatch):
    """`desc_cat` runs once per base object per plus, `enumerate_data` once
    per `desc_cat` and once per gluing sieve, and `comparison_datum` once
    per fibre object of each comparison, each fullness check and each
    object of a factorization through the unit."""
    c, J = corpus.patches_site()
    P, Q = corpus.patches_nonsheaf(), corpus.patches_sheaf()
    D, S = embed_discrete(P), embed_discrete(Q)
    phi = embed_mor(P, Q, {"X": {"x1": "x1"}, "p": {"a1": "a1", "a2": "a2"},
                           "q": {"b1": "b1"}, "r": {"c1": "c1"}})
    n = len(c.objects)
    sieves = least_covers(J)
    fullness = sum(_sizes(S)[R.target] for R in sieves)

    s, calls = _count_calls(monkeypatch, lambda: stackify(D, J))
    compared = sum(_sizes(D).values()) + sum(_sizes(s.once.output).values())
    assert calls == {"desc_cat": 2 * n, "enumerate_data": 2 * n,
                     "comparison_datum": compared}

    st, calls = _count_calls(monkeypatch, lambda: is_stack(S, J))
    assert st
    assert calls == {"desc_cat": 0, "enumerate_data": len(sieves),
                     "comparison_datum": fullness}

    r, calls = _count_calls(monkeypatch,
                            lambda: reflect_through_unit(phi, J))
    once = r.stackified.once.output
    compared = sum(_sizes(D).values()) + sum(_sizes(once).values())
    assert calls == {
        "desc_cat": 2 * n,
        "enumerate_data": 2 * n + len(sieves),
        "comparison_datum": fullness + compared + 2 * sum(_sizes(S).values()),
    }
