"""Acceptance gate: eleven checkable claims, one test and one line each.

Run with `python3 -m pytest tests/test_acceptance.py -v` to get a pass/fail
line per criterion.  All corpora are seeded, every zero-failure criterion
iterates its full corpus, and the whole file stays well under five minutes.
"""

import json
from pathlib import Path
import random

import pytest

import corpus
import sitegen
from oracles import discrete_stackify_witness, is_indexed_iso, ref_all_indexed_funs
from finstack import (
    Caps,
    Presheaf,
    Sieve,
    check_lemma_3_1,
    check_thm_4_2_i,
    check_thm_4_2_ii,
    compose_functors,
    compose_indexed_funs,
    const_indexed,
    counit_eps,
    embed_discrete,
    embed_mor,
    find_indexed_natiso,
    flat,
    grothendieck,
    identity_functor,
    identity_indexed_fun,
    is_indexed_equivalence,
    is_prestack,
    is_stack,
    L_D,
    minimal_cover,
    plus,
    R_D,
    reflect_through_unit,
    saturate,
    sharp,
    sheafify_with_unit,
    stackify,
    unit_eta,
    validate_fib_mor,
    validate_indexed_fun,
    validate_indexed_nat,
    validate_presheaf_mor,
    validate_topology,
    as_fibration,
    Functor,
)
from finstack.cli import main
from finstack.descent import Plan, desc_cat, restrict_datum
from finstack.util import stable_sorted

CAPS = Caps()
DATA = Path(__file__).parent / "data"

CORPUS_SITES = (
    corpus.terminal_site,
    corpus.arrow_site,
    corpus.span_site,
    corpus.patches_site,
)


@pytest.fixture(scope="module")
def random_corpus():
    """200 seeded (site, topology, indexed category) instances."""
    rng = random.Random(7)
    out = []
    for _ in range(200):
        c, J = sitegen.rand_site(rng, CAPS)
        out.append((c, J, sitegen.rand_indexed(rng, c, CAPS)))
    return out


@pytest.fixture(scope="module")
def stack_cache():
    """StackifyResults keyed by corpus index, filled by criterion 3."""
    return {}


@pytest.fixture(scope="module")
def fibration_corpus():
    """50 seeded indexed fibrations with their topologies."""
    rng = random.Random(11)
    return [sitegen.rand_fibration(rng, CAPS) for _ in range(50)]


def test_criterion_01_topology_validity():
    for make in CORPUS_SITES:
        c, J = make()
        assert validate_topology(J, CAPS) == [], c.name
        again = saturate(
            c, {x: [list(s) for s in J.covers[x]] for x in c.objects}, CAPS
        )
        assert again == J, c.name
    print("criterion 1 PASS: saturation valid and idempotent on 4 sites")


def test_criterion_02_plus_yields_prestacks(random_corpus):
    for i, (c, J, D) in enumerate(random_corpus):
        pr = plus(D, J, CAPS)
        chk = is_prestack(pr.output, J, CAPS)
        assert chk.ok, (i, chk.reason)
    print(f"criterion 2 PASS: plus output is a prestack on "
          f"{len(random_corpus)} instances")


def test_criterion_03_double_plus_yields_stacks(random_corpus, stack_cache):
    for i, (c, J, D) in enumerate(random_corpus):
        s = stackify(D, J, CAPS)
        stack_cache[i] = s
        chk = is_stack(s.stack, J, CAPS)
        assert chk.ok, (i, chk.reason)
    print(f"criterion 3 PASS: double plus is a stack on "
          f"{len(random_corpus)} instances")


def _psh_map_case(P, Q, t, J):
    assert validate_presheaf_mor(P, Q, t) == [], (P.name, Q.name)
    return embed_mor(P, Q, t), J


def _reflection_cases():
    cases = []
    cp, Jp = corpus.patches_site()
    torn = corpus.patches_nonsheaf()
    glued = corpus.patches_sheaf()
    doubled = corpus.patches_nonseparated()

    cases.append(_psh_map_case(
        torn, glued,
        {"X": {"x1": "x1"}, "p": {"a1": "a1", "a2": "a2"},
         "q": {"b1": "b1"}, "r": {"c1": "c1"}}, Jp))
    sh, un = sheafify_with_unit(torn, Jp, CAPS)
    cases.append((embed_mor(torn, sh, un), Jp))
    pt = sitegen.singleton_presheaf(cp)
    cases.append(_psh_map_case(
        doubled, pt,
        {x: {e: "*" for e in doubled.els[x]} for x in cp.objects}, Jp))
    cases.append((identity_indexed_fun(embed_discrete(glued)), Jp))
    cases.append(_psh_map_case(
        glued, glued,
        {"X": {"x1": "x2", "x2": "x1"}, "p": {"a1": "a2", "a2": "a1"},
         "q": {"b1": "b1"}, "r": {"c1": "c1"}}, Jp))

    ca, Ja = corpus.arrow_site()
    cases.append(_psh_map_case(
        corpus.arrow_presheaf(2, 1), corpus.arrow_presheaf(1, 1),
        {"b": {"s0": "s0", "s1": "s0"}, "a": {"t0": "t0"}}, Ja))

    cs, Js = corpus.span_site()
    pairs = Presheaf(
        cs,
        {"X": ("g0", "g1"), "p": ("u0", "u1"), "q": ("w0",)},
        {"idX": {"g0": "g0", "g1": "g1"},
         "idp": {"u0": "u0", "u1": "u1"}, "idq": {"w0": "w0"},
         "jp": {"g0": "u0", "g1": "u1"}, "jq": {"g0": "w0", "g1": "w0"}},
        name="pairs")
    cases.append(_psh_map_case(
        corpus.span_presheaf_free(2, 1, 1), pairs,
        {"X": {"x0": "g0"}, "p": {"u0": "u0", "u1": "u1"},
         "q": {"w0": "w0"}}, Js))

    cm, Jm = corpus.multicover_site()
    c2 = corpus.const_presheaf(cm, ("e1", "e2"))
    cases.append(_psh_map_case(
        c2, sitegen.singleton_presheaf(cm),
        {x: {e: "*" for e in c2.els[x]} for x in cm.objects}, Jm))

    ct, Jt = corpus.terminal_site()
    two = Presheaf(ct, {"*": ("a", "b")},
                   {ct.ident["*"]: {"a": "a", "b": "b"}}, name="two")
    three = Presheaf(ct, {"*": ("u", "v", "w")},
                     {ct.ident["*"]: {e: e for e in ("u", "v", "w")}},
                     name="three")
    cases.append(_psh_map_case(two, three, {"*": {"a": "v", "b": "v"}}, Jt))

    cases.append(_psh_map_case(
        torn, sitegen.singleton_presheaf(cp),
        {x: {e: "*" for e in torn.els[x]} for x in cp.objects}, Jp))
    cases.append((corpus.groupoid_fibration(corpus.patches_cat()), Jp))
    return cases


def test_criterion_04_reflection_behavior():
    cases = _reflection_cases()
    assert len(cases) >= 10
    searched = 0
    for k, (phi, J) in enumerate(cases, 1):
        assert validate_indexed_fun(phi) == [], k
        st = is_stack(phi.E, J, CAPS)
        assert st.ok, (k, st.reason)
        ref = reflect_through_unit(phi, J, CAPS)
        assert validate_indexed_nat(ref.witness) == [], k
        assert is_indexed_iso(ref.witness), k
        eta = ref.stackified.unit
        assert find_indexed_natiso(
            compose_indexed_funs(ref.psi, eta), phi, CAPS) is not None, k
        small = all(
            len(ref.stackified.stack.fib[x].objects) <= 3
            and len(phi.E.fib[x].objects) <= 3
            for x in phi.D.base.objects
        )
        if small:
            searched += 1
            found = 0
            for psi2 in ref_all_indexed_funs(ref.stackified.stack, phi.E, CAPS):
                if find_indexed_natiso(
                        compose_indexed_funs(psi2, eta), phi, CAPS):
                    found += 1
                    assert find_indexed_natiso(psi2, ref.psi, CAPS), k
            assert found >= 1, k
    assert searched >= 10
    print(f"criterion 4 PASS: {len(cases)} reflections, uniqueness searched "
          f"exhaustively on {searched}")


def test_criterion_05_discrete_oracle_equivalence():
    rng = random.Random(31)
    n = 0
    for i in range(50):
        c, J = CORPUS_SITES[i % 4]()
        P = sitegen.rand_presheaf(rng, c)
        W, intertwine, sres, sheaf, unit = discrete_stackify_witness(
            P, J, CAPS)
        chk = is_indexed_equivalence(W)
        assert chk.ok, (i, chk.reason)
        assert validate_indexed_nat(intertwine) == [], i
        assert is_indexed_iso(intertwine), i
        n += 1
    print(f"criterion 5 PASS: categorical and set-level sheafification agree "
          f"on {n} presheaves")


def _restriction_functor(D, descS, descR, S, R):
    """Desc(S) -> Desc(R) for a subsieve R of S on the same object."""
    idx = D.base.ident[R.target]
    plan = Plan(D, R)
    along = plan.along(idx, Plan(D, S))
    omap = {a: restrict_datum(plan, a, idx) for a in descS.objects}
    mmap = {}
    for mid, (a, b) in descS.mor.items():
        comp = plan.components(mid)
        mmap[mid] = plan.mor_id(omap[a], omap[b], [comp[i] for i in along])
    return Functor(descS, descR, omap, mmap, name="restr")


def test_criterion_06_pseudocolimit_collapse():
    """Desc over the refinement poset collapses onto the least cover.

    The op-indexed diagram has a terminal object (the least covering
    sieve), so its pseudocolimit is the value there; the instance content
    is that the least cover exists below every cover, that Desc with the
    subsieve restrictions really is a strict functor on the refinement
    poset, and that the shipped plus fibre is Desc at exactly that sieve.
    """
    rng = random.Random(23)
    sites = [sitegen.multi_cover_site(rng, CAPS) for _ in range(20)]
    cm, Jm = corpus.multicover_site()
    sites.append((cm, Jm, "X"))
    for i, (c, J, x) in enumerate(sites):
        D = sitegen.rand_indexed(rng, c, CAPS)
        mc = minimal_cover(J, x)
        covers = [Sieve(x, s, c) for s in stable_sorted(J.covers[x])]
        assert sum(len(s.mors) != len(list(c.into(x)))
                   for s in covers) >= 2, i
        assert any(S.mors == mc.mors for S in covers), i
        assert all(mc.mors <= S.mors for S in covers), i
        desc = {S.mors: desc_cat(Plan(D, S), CAPS) for S in covers}
        for S in covers:
            for R in covers:
                if not R.mors <= S.mors:
                    continue
                F = _restriction_functor(D, desc[S.mors], desc[R.mors], S, R)
                assert F.validate() == [], (i, F.validate()[:2])
                if R.mors == S.mors:
                    assert F == identity_functor(desc[S.mors]), i
                for Q in covers:
                    if not Q.mors <= R.mors:
                        continue
                    G = _restriction_functor(
                        D, desc[R.mors], desc[Q.mors], R, Q)
                    H = _restriction_functor(
                        D, desc[S.mors], desc[Q.mors], S, Q)
                    assert compose_functors(G, F) == H, i
        pr = plus(D, J, CAPS)
        assert pr.minimal[x].mors == mc.mors, i
        assert set(pr.output.fib[x].objects) == set(
            desc[mc.mors].objects), i
    print(f"criterion 6 PASS: refinement diagram strict and collapsed on "
          f"{len(sites)} multi-cover sites")


def test_criterion_07_lemma_3_1_conformance():
    rng = random.Random(13)
    for i in range(50):
        c, J = sitegen.rand_site(rng, CAPS)
        D = sitegen.rand_indexed(rng, c, CAPS)
        G = grothendieck(D, CAPS)
        if rng.random() < 0.5:
            E = const_indexed(G.total, sitegen.rand_small_cat(rng))
        else:
            E = embed_discrete(sitegen.rand_presheaf(rng, G.total, max_el=2))
        rep = check_lemma_3_1(E, G, J, CAPS)
        assert rep.agree, (i, rep.total_side.reason, rep.fiber_side.reason)
    print("criterion 7 PASS: total and fiberwise descent agree on "
          "50 instances")


def test_criterion_08_theorem_4_1_conformance(fibration_corpus):
    for i, (p, J) in enumerate(fibration_corpus):
        fib = as_fibration(p)
        G = grothendieck(fib.p.E, CAPS)
        r = R_D(fib, G, CAPS)
        unit_c = is_indexed_equivalence(unit_eta(r, G, CAPS))
        assert unit_c.ok, (i, unit_c.reason)
        counit_c = is_indexed_equivalence(counit_eps(fib, G, CAPS))
        assert counit_c.ok, (i, counit_c.reason)
        la = L_D(r, G, CAPS)
        h = identity_indexed_fun(r)
        fm = flat(h, fib, G, CAPS, LA=la, LR=la)
        assert validate_fib_mor(fm) == [], i
        h2 = sharp(fm, la, G, CAPS, R_dst=r)
        assert find_indexed_natiso(h2, h, CAPS) is not None, i
        fm2 = flat(h2, fib, G, CAPS, LA=la, LR=la)
        assert find_indexed_natiso(fm2.F, fm.F, CAPS) is not None, i
    print(f"criterion 8 PASS: unit, counit, and transposes verified on "
          f"{len(fibration_corpus)} fibrations")


def test_criterion_09_theorem_4_2_conformance(fibration_corpus):
    for i, (p, J) in enumerate(fibration_corpus):
        fib = as_fibration(p)
        G = grothendieck(fib.p.E, CAPS)
        t1 = check_thm_4_2_i(fib, J, CAPS)
        assert t1.ok, (i, t1.reason)
        t2 = check_thm_4_2_ii(fib, J, G, CAPS)
        assert t2.ok, (i, t2.reason)
    print(f"criterion 9 PASS: both halves verified on "
          f"{len(fibration_corpus)} fibrations")


def test_criterion_10_idempotence(random_corpus, stack_cache):
    for i, (c, J, D) in enumerate(random_corpus):
        s = stack_cache.get(i) or stackify(D, J, CAPS)
        s2 = stackify(s.stack, J, CAPS)
        chk = is_indexed_equivalence(s2.unit)
        assert chk.ok, (i, chk.reason)
        Jt = saturate(c, {}, CAPS)
        st = stackify(D, Jt, CAPS)
        triv = is_indexed_equivalence(st.unit)
        assert triv.ok, (i, triv.reason)
    print(f"criterion 10 PASS: stackification idempotent and trivially "
          f"fixed on {len(random_corpus)} instances")


def test_criterion_11_cli_contract(tmp_path, capsys, monkeypatch):
    from finstack import InternalError, elaborate, parse, serialize_env
    from finstack.dsl import load_interchange

    # golden round trips: fresh elaboration matches the frozen bytes and
    # reloading the interchange is the identity on the canonical form
    for name in ("patches", "span", "twisted", "factor"):
        text = (DATA / f"{name}.site").read_text()
        doc, diags = parse(text)
        assert not diags, name
        env, diags = elaborate(doc, CAPS)
        assert env is not None and not diags, name
        blob = serialize_env(env)
        assert blob == (DATA / f"{name}.golden.json").read_text(), name
        env2, diags2 = load_interchange(blob, CAPS)
        assert not diags2 and serialize_env(env2) == blob, name

    patches = str(DATA / "patches.site")

    def run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr()

    # exit 0 and the emit/re-ingest flow
    out = tmp_path / "stacked.json"
    code, _ = run("stackify", patches, "--emit", str(out))
    assert code == 0
    code, cap = run("check", str(out), "--stack", "--json")
    assert code == 0
    rep = json.loads(cap.out)
    assert rep["ok"] is True and rep["results"]["indexed"] == "S.st"

    # exit 1: a stack check that honestly fails
    code, _ = run("check", patches, "--stack")
    assert code == 1

    # exit 2: unparseable input
    code, cap = run("validate", str(DATA / "bad_syntax.site"))
    assert code == 2 and "line 1" in cap.err

    # exit 3: a declared resource cap trips
    code, cap = run("saturate", patches, "--max-sieves-per-object", "4")
    assert code == 3 and "exceeds cap" in cap.err

    # exit 4: a broken internal invariant surfaces as such
    def boom(*a, **k):
        raise InternalError("invariant broken")

    monkeypatch.setattr("finstack.cli.stackify", boom)
    code, cap = run("stackify", patches)
    assert code == 4 and "invariant" in cap.err
    print("criterion 11 PASS: golden round trips, exit codes 0-4, "
          "re-ingestion flow")
