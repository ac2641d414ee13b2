"""The site layer against the formulas it used before sieve universes were
built from principal sieves and sieves became bitmasks: the sieve universe
as the closed subsets among all 2^n subsets of the arrows into an object,
sorted by `ckey`; saturation and validation as round-robin fixpoints that
pull back every (sieve, morphism) on every round; pullbacks as the
frozenset {g : h∘g ∈ S}; least covers as intersections of
frozensets; covers ordered by `stable_sorted`.  The least covers a
topology keeps are checked against the fixpoint worked out again from its
listed covers, as they stand and as the interchange format reads them
back.

Runs on the corpus categories (the non-posets included), seeded random
posets and their slices, the `sitegen` site corpora, small open lattices and
16-open lattices, the largest the benchmark saturates."""

import json
import random

import pytest

from finstack import (
    CapExceeded,
    Caps,
    FinCat,
    Sieve,
    SiteError,
    Topology,
    poset_cat,
    saturate,
    sieves_on,
    least_covers,
    serialize_blocks,
    terminal_cat,
    validate_topology,
)
from finstack.cli import main
from finstack.dsl import load_interchange
from finstack.site import _Bits, _pull, minimal_cover, slice_cat
from finstack.util import fmt, stable_sorted

import corpus
import sitegen
from oracles import generate_sieve, least_cover_pullbacks, validate_sieve
from test_fuzz import DATA, _document


def ref_sieves_on(c, x):
    arrows = list(c.into(x))
    out = []
    for bits in range(2 ** len(arrows)):
        mors = frozenset(a for i, a in enumerate(arrows) if bits >> i & 1)
        if all(c.compose(f, g) in mors for f in mors for g in c.into(c.dom(f))):
            out.append(mors)
    return stable_sorted(out)


def ref_saturate(c, coverage):
    covers = {x: {frozenset(c.into(x))} for x in c.objects}
    for x, fams in coverage.items():
        for fam in fams:
            covers[x].add(generate_sieve(c, x, fam).mors)
    universe = {x: ref_sieves_on(c, x) for x in c.objects}
    changed = True
    while changed:
        changed = False
        for x in c.objects:
            for mors in list(covers[x]):
                for h in c.into(x):
                    p = ref_pullback(c, mors, h)
                    if p not in covers[c.dom(h)]:
                        covers[c.dom(h)].add(p)
                        changed = True
        for x in c.objects:
            for cand in universe[x]:
                if cand in covers[x]:
                    continue
                for mors in covers[x]:
                    if all(ref_pullback(c, cand, f) in covers[c.dom(f)]
                           for f in mors):
                        covers[x].add(cand)
                        changed = True
                        break
    return Topology(c, {x: frozenset(v) for x, v in covers.items()})


def ref_validate_topology(J):
    """The axiom checks after the typing checks, which are unchanged."""
    c = J.base
    errs = []
    for x in c.objects:
        if frozenset(c.into(x)) not in J.covers[x]:
            errs.append(f"maximal sieve on {fmt(x)} is not covering")
    for x in c.objects:
        unstable = []  # sorted per object, as covers are sets
        for mors in J.covers[x]:
            for h in c.into(x):
                if ref_pullback(c, mors, h) not in J.covers[c.dom(h)]:
                    unstable.append(
                        f"stability fails: pullback of a cover on {fmt(x)} "
                        f"along {fmt(h)} is not covering"
                    )
                    break
        errs += sorted(unstable)
    for x in c.objects:
        for cand in ref_sieves_on(c, x):
            if cand in J.covers[x]:
                continue
            if any(all(ref_pullback(c, cand, f) in J.covers[c.dom(f)]
                       for f in mors) for mors in J.covers[x]):
                errs.append(
                    f"transitivity fails: a sieve on {fmt(x)} is locally "
                    f"covering but missing"
                )
                break
    return errs


def ref_pullback(c, mors, h):
    return frozenset(g for g in c.into(c.dom(h)) if c.compose(h, g) in mors)


def ref_least_covers(J):
    """(x, the intersection of the covers of x) for every x on which it
    is not the maximal sieve, objects in stable order."""
    c = J.base
    out = []
    for x in stable_sorted(c.objects):
        least = frozenset.intersection(*J.covers[x])
        if least != frozenset(c.into(x)):
            out.append((x, least))
    return out


def ref_least_cover_pullbacks(J):
    c = J.base
    seen, out = set(), []
    for x in stable_sorted(c.objects):
        if not J.covers.get(x):
            continue
        least = frozenset.intersection(*J.covers[x])
        for h in c.into(x):
            y = c.dom(h)
            p = ref_pullback(c, least, h)
            if c.ident[y] not in p and (y, p) not in seen:
                seen.add((y, p))
                out.append((y, p))
    return out


def open_lattice(rng, points=4, most=10):
    """The opens of a random T0 space on `points` points (the up-sets of a
    random order), ordered by inclusion, with at most `most` opens, and a
    coverage by genuine open covers."""
    while True:
        below = {p: {p} for p in range(points)}
        for q in range(points):
            for p in range(q):
                if rng.random() < 0.4:
                    below[q] |= below[p]
        opens = []
        for bits in range(2 ** points):
            u = frozenset(p for p in range(points) if bits >> p & 1)
            if all(below[q] <= u for q in u):
                opens.append(u)
        if len(opens) <= most:
            break
    name = {u: "U" + "".join(map(str, sorted(u))) for u in opens}
    c = poset_cat([name[u] for u in opens],
                  [(name[u], name[v]) for u in opens for v in opens if u < v],
                  name="opens")
    coverage = {}
    for v in opens:
        # one proper sub-open around each point, where every point has one
        around = [[u for u in opens if u < v and p in u] for p in sorted(v)]
        if v and all(around):
            fam = {rng.choice(us) for us in around}
            coverage[name[v]] = [[("le", name[u], name[v]) for u in fam]]
    return c, coverage


def corpus_cats():
    return [
        terminal_cat(),
        corpus.arrow_cat(),
        corpus.span_cat(),
        corpus.patches_cat(),
        corpus.multicover_site()[0],
        corpus.walking_iso_cat(),
        corpus.z2_cat(),
        corpus.parallel_pair_cat(),
    ]


def with_slices(cats):
    out = []
    for c in cats:
        out.append(c)
        out.extend(slice_cat(c, x)[0] for x in c.objects)
    return out


def test_sieves_on_matches_subset_filter():
    rng = random.Random(4)
    cats = corpus_cats() + [sitegen.rand_poset(rng) for _ in range(30)]
    cats += [open_lattice(rng, points=5, most=14)[0] for _ in range(4)]
    pairs = 0
    for c in with_slices(cats):
        for x in c.objects:
            assert sieves_on(c, x) == ref_sieves_on(c, x), (c.name, x)
            pairs += 1
    assert pairs > 250


@pytest.fixture(scope="module")
def sites():
    """(category, coverage, topology) for every `saturate` call the `sitegen`
    site corpora make, and for a few open lattices."""
    calls = []

    def recording(c, coverage, caps=Caps()):
        J = saturate(c, coverage, caps)
        calls.append((c, coverage, J))
        return J

    mp = pytest.MonkeyPatch()
    mp.setattr(sitegen, "saturate", recording)
    try:
        rng = random.Random(17)
        for _ in range(40):
            sitegen.rand_site(rng)
        for _ in range(10):
            sitegen.multi_cover_site(rng)
    finally:
        mp.undo()
    rng = random.Random(23)
    for _ in range(4):
        c, coverage = open_lattice(rng)
        calls.append((c, coverage, saturate(c, coverage)))
    for _ in range(4):
        c, coverage = open_lattice(rng, points=5, most=14)
        calls.append((c, coverage, saturate(c, coverage)))
    return calls


def test_saturate_matches_round_robin(sites):
    assert len(sites) >= 54
    for c, coverage, J in sites:
        assert J == ref_saturate(c, coverage), (c.name, coverage)


def test_saturate_needs_no_rounds_cap(sites):
    """The fixpoint shrinks one least cover per object, so it ends without a
    bound on its rounds: `--max-closure` bounds only the DSL closure."""
    for c, coverage, J in sites:
        assert saturate(c, coverage, Caps(max_closure=1)) == J, (c.name, coverage)


def test_covers_of_matches_stable_sorted(sites):
    for c, _, J in sites:
        for x in c.objects:
            assert [s.mors for s in J.covers_of(x)] == stable_sorted(J.covers[x])


def _mutants(rng, J):
    """J with a non-maximal cover dropped, a non-covering sieve added, or a
    maximal sieve removed, at a random object."""
    c = J.base
    x = rng.choice(c.objects)
    top = frozenset(c.into(x))
    others = [s for s in stable_sorted(J.covers[x]) if s != top]
    missing = [s for s in ref_sieves_on(c, x) if s not in J.covers[x]]
    out = [J.covers[x] - {top}]
    if others:
        out.append(J.covers[x] - {rng.choice(others)})
    if missing:
        out.append(J.covers[x] | {rng.choice(missing)})
    return [Topology(c, {**J.covers, x: v}) for v in out]


def test_validate_topology_matches_reference(sites):
    rng = random.Random(29)
    failing = 0
    for _, _, J in sites:
        assert validate_topology(J) == [] == ref_validate_topology(J)
        for M in _mutants(rng, J):
            errs = validate_topology(M)
            assert errs == ref_validate_topology(M)
            failing += bool(errs)
    assert failing > 100


def test_sieve_cap_trips_before_enumeration():
    """Seventeen arrows into the top pass the default cap of 2^16 sieves;
    the cap trips before a single composite is looked up."""

    class NoCompose(FinCat):
        __slots__ = ()

        def compose(self, g, f):
            raise AssertionError("sieve universe enumerated past its cap")

    c = poset_cat(["T"] + [f"a{i}" for i in range(16)],
                  [(f"a{i}", "T") for i in range(16)])
    guarded = NoCompose(c.objects, c.mor, c.ident, c.table)
    with pytest.raises(CapExceeded) as e:
        sieves_on(guarded, "T")
    assert str(e.value) == (
        "sieve universe on T: 131072 exceeds cap 65536; "
        "raise --max-sieves-per-object"
    )


def test_cli_saturate_on_wide_site_exits_3(tmp_path, capsys):
    text = "poset P {\n" + "".join(f"  a{i} <= T;\n" for i in range(16)) + "}\n"
    text += "coverage J on P { T: [a0 <= T, a1 <= T]; }\n"
    path = tmp_path / "wide.site"
    path.write_text(text, encoding="utf-8")
    assert main(["saturate", str(path)]) == 3
    err = capsys.readouterr().err
    assert "sieve universe on T" in err and "--max-sieves-per-object" in err


def test_unvalidated_topology_never_reaches_ordering(tmp_path, capsys):
    """A topology whose cover names an unknown morphism is a finding, so the
    commands that order covers stop with exit 2 before ordering them."""
    doc = json.loads((DATA / "patches.golden.json").read_text(encoding="utf-8"))
    blocks = doc["blocks"]
    top = next(b for b in blocks if b["kind"] == "topology")
    top["covers"][0][1][0].append("nowhere")
    path = tmp_path / "hostile.json"
    path.write_text(_document(doc, blocks), encoding="utf-8")
    x = top["covers"][0][0]
    for argv in (["saturate", str(path)],
                 ["desc", str(path), "--at", x, "--family", "0"]):
        assert main(argv) == 2, argv
        assert "Traceback" not in capsys.readouterr().err


def _least(J):
    return [(s.target, s.mors) for s in least_covers(J)]


def test_least_covers_match_frozenset_intersections(sites):
    for c, _, J in sites:
        assert _least(J) == ref_least_covers(J), c.name
        got = [(s.target, s.mors) for s in least_cover_pullbacks(J)]
        assert got == ref_least_cover_pullbacks(J), c.name
        for x in c.objects:
            least = frozenset.intersection(*J.covers[x])
            assert minimal_cover(J, x).mors == least
            assert all(least <= s for s in J.covers[x])


def test_kept_least_covers_are_the_recomputed_fixpoint(sites):
    """The least covers `saturate` keeps on its topology are those the
    fixpoint gives again from the listed covers, whether the topology is
    rebuilt from them or read back through the interchange format."""
    for c, _, J in sites:
        want = _least(J)
        listed = Topology(c, J.covers)
        text = serialize_blocks([("category", "C", c), ("topology", "J", J)])
        env, diags = load_interchange(text)
        assert not diags, c.name
        read = env.topologies["J"]
        for K in (listed, read):
            assert K._least is None
            assert [(s.target, s.mors) for s in least_covers(K)] == want, c.name
            assert K._least == J._least


def test_listed_non_topology_has_the_generated_least_covers(sites):
    """When every principal sieve is listed as a cover, the least covers
    are those of the topology the intersections generate, which can be
    smaller than the intersections themselves."""
    shrunk = 0
    for c, _, _ in sites:
        listed = Topology(c, {x: frozenset(generate_sieve(c, x, [f]).mors
                                           for f in c.into(x))
                              for x in c.objects})
        generated = saturate(c, {x: [frozenset.intersection(*listed.covers[x])]
                                 for x in c.objects})
        assert _least(listed) == _least(generated), c.name
        shrunk += _least(listed) != ref_least_covers(listed)
    assert shrunk


def test_mask_pullback_matches_frozenset_formula(sites):
    for c, _, J in sites:
        bits = _Bits(c)
        for x in c.objects:
            for s in J.covers_of(x):
                for h, (y, _, table, _) in bits.arrows(x).items():
                    p = _pull(table, bits.mask(x, s.mors))
                    assert bits.members(y, p) == ref_pullback(c, s.mors, h)


def test_masks_round_trip(sites):
    """Every cover and every sieve of the universe is the set of arrows its
    mask selects, and its mask is the one `_Bits` numbers it by."""
    for c, _, J in sites:
        bits = _Bits(c)
        for x in c.objects:
            for s in list(J.covers[x]) + sieves_on(c, x):
                m = bits.mask(x, s)
                assert bits.members(x, m) == s
                assert m == sum(1 << j for j, f in enumerate(c.into(x))
                                if f in s)


@pytest.fixture(scope="module")
def lattice16():
    """A 16-open lattice, the largest size the benchmark saturates, with
    its coverage and topology."""
    rng = random.Random(31)
    while True:
        c, coverage = open_lattice(rng, points=5, most=16)
        if len(c.objects) == 16:
            return c, coverage, saturate(c, coverage)


def test_sixteen_opens_match_the_references(lattice16):
    c, coverage, J = lattice16
    assert max(len(c.into(x)) for x in c.objects) == 16
    assert J == ref_saturate(c, coverage)
    assert validate_topology(J) == [] == ref_validate_topology(J)
    failing = 0
    for M in _mutants(random.Random(37), J)[:2]:
        errs = validate_topology(M)
        assert errs == ref_validate_topology(M)
        failing += bool(errs)
    assert failing
    assert _least(J) == ref_least_covers(J)


def test_validate_topology_reports_hostile_covers():
    """A cover with an unknown morphism or a member into another object is
    a finding of the typing phase, and one that misses a composite is a
    finding of the closure check on its mask; each is reported as the cover
    is not a sieve, and nothing is raised."""
    c, J = corpus.patches_site()
    bad = {
        frozenset({("le", "p", "X"), ("le", "q", "X"), ("le", "r", "X"),
                   "nowhere"}):
            "member nowhere is not a morphism",
        frozenset({("le", "p", "X")}):
            "not closed: (le,p,X) ∘ (le,r,p) escapes the sieve",
        frozenset({("le", "p", "X"), ("le", "r", "p"), ("le", "r", "X")}):
            "member (le,r,p) does not end at X",
    }
    for cover, finding in bad.items():
        M = Topology(c, {**J.covers, "X": J.covers["X"] | {cover}})
        assert validate_topology(M) == [f"cover on X is not a sieve: {finding}"]


def test_validate_topology_matches_reference_without_maximal_sieves(sites):
    """The maximal sieve dropped at both ends of an arrow: the local sieve
    of a candidate holding that arrow must then read the covers of its
    domain, not assume the maximal sieve covers there."""
    rng = random.Random(41)
    failing = 0
    for _, _, J in sites:
        c = J.base
        arrows = [f for f in c.mor if c.dom(f) != c.cod(f)]
        for f in rng.sample(arrows, min(len(arrows), 2)):
            y, x = c.dom(f), c.cod(f)
            M = Topology(c, {**J.covers,
                             y: J.covers[y] - {frozenset(c.into(y))},
                             x: J.covers[x] - {frozenset(c.into(x))}})
            errs = validate_topology(M)
            assert errs == ref_validate_topology(M)
            failing += any(e.startswith("transitivity") for e in errs)
    assert failing > 10


def ref_sieve_findings(J):
    """`validate_topology` as it was before it checked closure on masks:
    each cover by `oracles.validate_sieve`, then the axioms."""
    c = J.base
    errs = []
    for x in c.objects:
        bad = [validate_sieve(Sieve(x, mors, c)) for mors in J.covers[x]]
        errs += sorted(f"cover on {fmt(x)} is not a sieve: {b[0]}" for b in bad if b)
    return errs or ref_validate_topology(J)


def _random_covers(rng, c, x, sieves_only):
    """One to three sets of arrows into x: sieves of x, or, unless
    `sieves_only`, random subsets, some with one or two members that may
    not be arrows into x."""
    arrows = list(c.into(x))
    out = {frozenset(arrows)} if rng.random() < 0.8 else set()
    for _ in range(rng.randint(1, 3)):
        if sieves_only or rng.random() < 0.4:
            out.add(rng.choice(ref_sieves_on(c, x)))
            continue
        cover = {a for a in arrows if rng.random() < 0.5}
        if rng.random() < 0.3:
            cover.update(rng.choices([*c.mor, "nowhere", "elsewhere"],
                                     k=rng.randint(1, 2)))
        out.add(frozenset(cover))
    return frozenset(out)


def _random_coverage(rng, c):
    """Families of arrows into random objects, one in eight generators
    anywhere in c or unknown."""
    coverage = {}
    for x in rng.sample(c.objects, rng.randint(1, len(c.objects))):
        arrows = list(c.into(x))
        coverage[x] = [
            [rng.choice(arrows) if rng.random() < 0.875
             else rng.choice([*c.mor, "nowhere"])
             for _ in range(rng.randint(0, 3))]
            for _ in range(rng.randint(1, 2))]
    return coverage


def test_covers_and_coverages_match_the_frozenset_references():
    """`validate_topology` on random cover sets and `saturate` on random
    coverages, over the corpus categories, random posets and open lattices
    of 4 to 8 opens: the same findings, covers and `SiteError` texts as
    the frozenset references `oracles.validate_sieve` and
    `oracles.generate_sieve` give."""
    rng = random.Random(43)
    cats = corpus_cats() + [sitegen.rand_poset(rng) for _ in range(10)]
    cats += [sitegen.open_cover_site(rng, n)[0] for n in range(4, 9)]
    tally = dict.fromkeys(("member", "not closed", "axiom", "valid",
                           "error", "saturated"), 0)
    for c in cats:
        for k in range(30):
            J = Topology(c, {x: _random_covers(rng, c, x, k % 3 == 0)
                             for x in c.objects})
            errs = validate_topology(J)
            assert errs == ref_sieve_findings(J), c.name
            first = errs[0] if errs else "valid"
            tally[next((kind for kind in ("member", "not closed", "valid")
                        if kind in first), "axiom")] += 1
            coverage = _random_coverage(rng, c)
            try:
                want = ref_saturate(c, coverage)
            except SiteError as e:
                with pytest.raises(SiteError) as got:
                    saturate(c, coverage)
                assert str(got.value) == str(e), c.name
                tally["error"] += 1
            else:
                assert saturate(c, coverage) == want, c.name
                tally["saturated"] += 1
    # 227 typing and 116 closure findings, 241 axiom findings and 106
    # valid sets; 230 errors and 460 topologies.
    assert min(tally.values()) > 100
