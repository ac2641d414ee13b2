import importlib
import random

import pytest

from finstack import (
    DEFAULT,
    InternalError,
    embed_discrete,
    embed_mor,
    identity_indexed_fun,
    is_indexed_equivalence,
    is_fully_faithful,
    is_prestack,
    is_sheaf_presheaf,
    is_stack,
    least_cover_pullbacks,
    matching_families,
    minimal_cover,
    plus,
    plus_fun,
    plus_presheaf,
    reflect_through_unit,
    saturate,
    sheafify_with_unit,
    stackify,
    strict_indexed_fun,
    terminal_cat,
    validate_indexed,
    validate_indexed_fun,
    validate_indexed_nat,
    validate_presheaf,
)
from finstack.indexed import const_indexed
from finstack.fincat import Functor
from finstack.stackify import _sheaf_over

import corpus
import sitegen
from oracles import discrete_stackify_witness


def test_plus_arrow_counts():
    c, J = corpus.arrow_site()
    D = embed_discrete(corpus.arrow_presheaf(2, 1))
    res = plus(D, J)
    assert validate_indexed(res.output) == []
    assert validate_indexed_fun(res.unit) == []
    # Desc over {i} is a single free choice from F(a).
    assert len(res.output.fib["b"].objects) == 1
    assert len(res.output.fib["a"].objects) == 1


def test_plus_span_counts():
    c, J = corpus.span_site()
    D = embed_discrete(corpus.span_presheaf_free(2, 2, 1))
    res = plus(D, J)
    assert validate_indexed(res.output) == []
    assert len(res.output.fib["X"].objects) == 4  # F(p) x F(q)


@pytest.mark.parametrize(
    "site,P",
    [
        ("patches", corpus.patches_sheaf()),
        ("patches", corpus.patches_nonsheaf()),
        ("patches", corpus.patches_nonseparated()),
        ("span", corpus.span_presheaf(0)),
        ("span", corpus.span_presheaf_free()),
        ("arrow", corpus.arrow_presheaf()),
    ],
)
def test_plus_yields_prestack(site, P):
    c, J = {
        "patches": corpus.patches_site,
        "span": corpus.span_site,
        "arrow": corpus.arrow_site,
    }[site]()
    D = embed_discrete(P)
    res = plus(D, J)
    assert validate_indexed(res.output) == []
    assert validate_indexed_fun(res.unit) == []
    assert is_prestack(res.output, J)


def test_plus_on_twisted():
    D = corpus.twisted_z2_indexed()
    J = saturate(D.base, {})
    res = plus(D, J)
    assert validate_indexed(res.output) == []
    assert validate_indexed_fun(res.unit) == []
    assert is_indexed_equivalence(res.unit)  # trivial topology


def test_stackify_yields_stack():
    c, J = corpus.patches_site()
    for P in (corpus.patches_sheaf(), corpus.patches_nonsheaf(), corpus.patches_nonseparated()):
        res = stackify(embed_discrete(P), J)
        assert validate_indexed(res.stack) == []
        assert validate_indexed_fun(res.unit) == []
        assert is_stack(res.stack, J)


def test_stackify_multicover():
    c, J = corpus.multicover_site()
    res = stackify(embed_discrete(corpus.patches_sheaf()), J)
    assert is_stack(res.stack, J)


def test_unit_equivalence_iff_stack():
    c, J = corpus.patches_site()
    glued = stackify(embed_discrete(corpus.patches_sheaf()), J)
    assert is_indexed_equivalence(glued.unit)
    torn = stackify(embed_discrete(corpus.patches_nonsheaf()), J)
    assert not is_indexed_equivalence(torn.unit)


def test_prestack_shortcut():
    # Separated: one plus already glues everything.
    c, J = corpus.patches_site()
    D = embed_discrete(corpus.patches_nonsheaf())
    assert is_prestack(D, J)
    res = plus(D, J)
    assert is_stack(res.output, J)
    for X in c.objects:
        assert is_fully_faithful(res.unit.comp[X])


def test_stackify_idempotent_up_to_equivalence():
    c, J = corpus.patches_site()
    for P in (corpus.patches_sheaf(), corpus.patches_nonseparated()):
        res = stackify(embed_discrete(P), J)
        again = stackify(res.stack, J)
        assert is_indexed_equivalence(again.unit)


def test_matching_families():
    c, J = corpus.patches_site()
    P = corpus.patches_sheaf()
    R = minimal_cover(J, "X")
    fams = matching_families(P, R)
    assert len(fams) == 2
    P0 = corpus.patches_nonsheaf()
    assert len(matching_families(P0, R)) == 2  # families exist, sections don't


def test_is_sheaf_presheaf():
    c, J = corpus.patches_site()
    assert is_sheaf_presheaf(corpus.patches_sheaf(), J)
    t = is_sheaf_presheaf(corpus.patches_nonsheaf(), J)
    assert not t and "no section" in t.reason
    s = is_sheaf_presheaf(corpus.patches_nonseparated(), J)
    assert not s and "separated" in s.reason


def test_sheafify_oracle_counts():
    c, J = corpus.arrow_site()
    out, _ = sheafify_with_unit(corpus.arrow_presheaf(2, 1), J)
    assert validate_presheaf(out) == []
    assert len(out.els["b"]) == 1

    c, J = corpus.span_site()
    out, _ = sheafify_with_unit(corpus.span_presheaf_free(2, 2, 1), J)
    assert len(out.els["X"]) == 4


def test_sheafify_unit_iso_on_sheaf():
    c, J = corpus.patches_site()
    P = corpus.patches_sheaf()
    sheaf, unit = sheafify_with_unit(P, J)
    for X in c.objects:
        vals = [unit[X][e] for e in P.els[X]]
        assert len(set(vals)) == len(vals)
        assert len(vals) == len(sheaf.els[X])


def _sheaf_inputs():
    """(presheaf, topology): random presheaves on seeded `sitegen` sites,
    multi-cover sites and open lattices, on saturated random coverages of
    the non-poset corpus categories, and on the patches whose overlap is
    covered, where P⁺ need not be a sheaf."""
    rng = random.Random(32)
    out = []
    for _ in range(100):
        c, J = sitegen.rand_site(rng)
        out.append((sitegen.rand_presheaf(rng, c), J))
    for _ in range(50):
        c, J, _ = sitegen.multi_cover_site(rng)
        out.append((sitegen.rand_presheaf(rng, c), J))
    for n in range(4, 13):
        c, J, opens = sitegen.open_cover_site(rng, n)
        out.append((sitegen.restriction_presheaf(rng, c, opens, 2), J))
    for make in (corpus.z2_cat, corpus.parallel_pair_cat,
                 corpus.walking_iso_cat, corpus.span_cat, corpus.arrow_cat,
                 corpus.patches_cat):
        c = make()
        for _ in range(20):
            J = sitegen.rand_topology(rng, c, second=0.9)
            out.append((sitegen.rand_presheaf(rng, c), J))
    c, J = corpus.overlap_site()
    out += [(sitegen.rand_presheaf(rng, c), J) for _ in range(50)]
    out.append((corpus.overlap_nonseparated(), J))
    return out


def test_sheaf_condition_on_least_cover_pullbacks_matches_every_cover():
    """The check `sheafify_with_unit` makes of its output, on
    `least_cover_pullbacks(J)` alone, gives the verdict of the all-covers
    oracle on P, P⁺ and P⁺⁺, and both verdicts occur on P and on P⁺."""
    verdicts = [set(), set(), set()]
    for P, J in _sheaf_inputs():
        P1, _ = plus_presheaf(P, J)
        P2, _ = plus_presheaf(P1, J)
        for stage, Q in enumerate((P, P1, P2)):
            want = is_sheaf_presheaf(Q, J).ok
            assert _sheaf_over(Q, least_cover_pullbacks(J), DEFAULT).ok == want
            verdicts[stage].add(want)
    assert verdicts == [{True, False}, {True, False}, {True}]


def test_sheafify_guard_fires_when_the_second_plus_is_skipped(monkeypatch):
    """With the second plus returning its input, the output is P⁺, which
    is not a sheaf for the overlap presheaf, and the reduced check says so."""
    module = importlib.import_module("finstack.stackify")
    once = module.plus_presheaf
    calls = []

    def first_only(Q, J, caps=DEFAULT):
        calls.append(Q)
        if len(calls) == 1:
            return once(Q, J, caps)
        return Q, {X: {e: e for e in Q.els[X]} for X in Q.base.objects}

    _, J = corpus.overlap_site()
    P = corpus.overlap_nonseparated()
    assert not is_sheaf_presheaf(plus_presheaf(P, J)[0], J)
    monkeypatch.setattr(module, "plus_presheaf", first_only)
    with pytest.raises(InternalError,
                       match="double plus did not produce a sheaf: matching "
                             "family over X has no section"):
        sheafify_with_unit(P, J)
    assert len(calls) == 2


def test_plus_presheaf_unit():
    c, J = corpus.patches_site()
    P = corpus.patches_nonsheaf()
    Pp, unit = plus_presheaf(P, J)
    assert validate_presheaf(Pp) == []
    assert len(Pp.els["X"]) == 2  # the two matching families


@pytest.mark.parametrize(
    "build,P",
    [
        (corpus.patches_site, corpus.patches_sheaf()),
        (corpus.patches_site, corpus.patches_nonsheaf()),
        (corpus.patches_site, corpus.patches_nonseparated()),
        (corpus.span_site, corpus.span_presheaf_free()),
        (corpus.arrow_site, corpus.arrow_presheaf(3, 2)),
        (corpus.multicover_site, corpus.patches_sheaf()),
    ],
)
def test_discrete_oracle_compatibility(build, P):
    c, J = build()
    W, intertwine, sres, sheaf, unit = discrete_stackify_witness(P, J)
    assert validate_indexed_fun(W) == []
    assert is_indexed_equivalence(W)
    assert validate_indexed_nat(intertwine) == []


def test_plus_fun():
    c, J = corpus.patches_site()
    P = corpus.patches_sheaf()
    ident = {X: {e: e for e in P.els[X]} for X in c.objects}
    F = embed_mor(P, P, ident)
    Fp = plus_fun(F, plus(F.D, J), plus(F.E, J))
    assert validate_indexed_fun(Fp) == []
    assert is_indexed_equivalence(Fp)


def test_reflect_identity_on_stack():
    c, J = corpus.patches_site()
    D = embed_discrete(corpus.patches_sheaf())
    ok = is_stack(D, J)
    assert ok
    r = reflect_through_unit(identity_indexed_fun(D), J)
    assert validate_indexed_fun(r.psi) == []
    assert validate_indexed_nat(r.witness) == []
    assert is_indexed_equivalence(r.psi)


def test_reflect_nonsheaf_into_sheaf():
    c, J = corpus.patches_site()
    P, Q = corpus.patches_nonsheaf(), corpus.patches_sheaf()
    t = {
        "X": {"x1": "x1"},
        "p": {"a1": "a1", "a2": "a2"},
        "q": {"b1": "b1"},
        "r": {"c1": "c1"},
    }
    phi = embed_mor(P, Q, t)
    r = reflect_through_unit(phi, J)
    assert validate_indexed_fun(r.psi) == []
    assert validate_indexed_nat(r.witness) == []


def test_reflect_into_terminal():
    c, J = corpus.patches_site()
    D = embed_discrete(corpus.patches_nonseparated())
    T = const_indexed(c, terminal_cat())
    comp = {
        X: Functor(D.fib[X], T.fib[X], {V: "*" for V in D.fib[X].objects},
                   {m: ("id", "*") for m in D.fib[X].mor})
        for X in c.objects
    }
    phi = strict_indexed_fun(D, T, comp)
    ok = is_stack(T, J)
    assert ok
    r = reflect_through_unit(phi, J)
    assert validate_indexed_fun(r.psi) == []


def test_reflect_requires_stack_evidence():
    c, J = corpus.patches_site()
    D = embed_discrete(corpus.patches_nonsheaf())
    with pytest.raises(ValueError) as err:
        reflect_through_unit(identity_indexed_fun(D), J)
    assert str(err.value) == is_stack(D, J).reason
