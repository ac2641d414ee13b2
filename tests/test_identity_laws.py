"""The category and pseudofunctor laws decided without their identity cases.

Once the unit laws hold, `validate_fincat` checks associativity on the
triples of non-identity arrows only, and `validate_indexed` decides validity
by `indexed._laws_hold`, which leaves out every check that involves an
identity arrow of the base or of a fibre; the full phases run only when it
fails.  Both are compared here with the references in `oracles` that check
every case (`ref_validate_fincat`, `ref_validate_indexed`): on the corpus
constant Z2 and walking-iso categories over four sites, `twisted_z2_indexed`,
seeded `sitegen` inputs, the plus stages of all of these, and `R_D` and
`L_D` of groupoid fibrations and seeded `rand_fibration` draws, each with
mutants that swap one unitor or compositor component, or change one
restriction's object or morphism image."""

import random

import pytest

from finstack import (
    FinCat,
    Functor,
    IndexedCat,
    L_D,
    R_D,
    as_fibration,
    const_indexed,
    grothendieck,
    identity_functor,
    plus,
    poset_cat,
    terminal_cat,
    validate_fincat,
    validate_indexed,
)
from finstack.indexed import _laws_hold

import corpus
import sitegen
from oracles import ref_validate_fincat, ref_validate_indexed

SITES = (corpus.terminal_site, corpus.arrow_site, corpus.span_site,
         corpus.patches_site)


def _indexed_inputs():
    """(label, indexed category), every one valid."""
    out = []
    for site in SITES:
        c, J = site()
        for D in (const_indexed(c, corpus.z2_cat(), name="ΔZ2"),
                  corpus.const_walking_iso(c)):
            out += [(f"{D.name}/{site.__name__}", D),
                    (f"{D.name}+/{site.__name__}", plus(D, J).output)]
    out.append(("twisted", corpus.twisted_z2_indexed()))
    rng = random.Random(20261022)
    for i in range(6):
        c, J = sitegen.rand_site(rng)
        D = sitegen.rand_indexed(rng, c)
        out += [(f"sitegen{i}", D), (f"sitegen{i}+", plus(D, J).output)]
    fibs = [corpus.groupoid_fibration(corpus.arrow_cat()),
            corpus.groupoid_fibration(corpus.span_cat())]
    fibs += [sitegen.rand_fibration(rng)[0] for _ in range(4)]
    for i, p in enumerate(fibs):
        G = grothendieck(p.E)
        R = R_D(as_fibration(p), G)
        out += [(f"R{i}", R), (f"L{i}", L_D(R, G).fib.p.D)]
    return out


INPUTS = _indexed_inputs()


def _other(rng, pool, m):
    """A member of `pool` other than m, or None."""
    rest = [n for n in pool if n != m]
    return rng.choice(rest) if rest else None


def _cells_mutant(D, rng, kind):
    """D with one unitor or compositor component swapped, for an arrow
    with the same ends in four draws of five and for any other arrow in
    the fifth; the compositor at a pair with an identity in half the draws.
    None when there is nothing to swap in."""
    base = D.base
    if kind == "unitor":
        X = rng.choice(base.objects)
        key, fib, family = X, D.fib[X], D.unitor
    else:
        ids = set(base.ident.values())
        with_id = [p for p in base.table if ids & set(p)]
        without = [p for p in base.table if not ids & set(p)]
        key = rng.choice(with_id if not without or rng.random() < 0.5
                         else without)
        fib, family = D.fib[base.dom(key[1])], D.compositor
    V = rng.choice(sorted(family[key], key=repr))
    m = family[key][V]
    parallel = rng.random() < 0.8
    n = _other(rng, fib.hom(*fib.mor[m]) if parallel else list(fib.mor), m)
    if n is None:
        return None
    M = IndexedCat(base, D.fib, D.res, D.compositor, D.unitor, name=D.name)
    (M.unitor if kind == "unitor" else M.compositor)[key][V] = n
    return M


def _restriction_mutant(D, rng, kind):
    """D with one restriction's image of one object or one morphism
    changed; a morphism goes to one with the same ends in half the draws."""
    y = rng.choice(list(D.base.mor))
    F = D.res[y]
    omap, mmap = dict(F.omap), dict(F.mmap)
    if kind == "object":
        V = rng.choice(F.src.objects)
        n = _other(rng, F.dst.objects, omap[V])
        omap[V] = n
    else:
        m = rng.choice(list(F.src.mor))
        pool = (F.dst.hom(*F.dst.mor[mmap[m]]) if rng.random() < 0.5
                else list(F.dst.mor))
        n = _other(rng, pool, mmap[m])
        mmap[m] = n
    if n is None:
        return None
    res = {**D.res, y: Functor(F.src, F.dst, omap, mmap, name=F.name)}
    return IndexedCat(D.base, D.fib, res, D.compositor, D.unitor, name=D.name)


KINDS = (("unitor", _cells_mutant), ("compositor", _cells_mutant),
         ("object", _restriction_mutant), ("morphism", _restriction_mutant))


def test_valid_inputs_hold_without_their_identity_cases():
    for label, D in INPUTS:
        assert ref_validate_indexed(D) == [], label
        assert _laws_hold(D), label
        assert validate_indexed(D) == [], label


def test_reduced_verdict_and_findings_match_the_full_phases():
    rng = random.Random(20261023)
    tally = {"mutants": 0, "valid": 0, "identity pair swaps": 0}
    for label, D in INPUTS:
        ids = set(D.base.ident.values())
        for _ in range(80):
            kind, make = rng.choice(KINDS)
            M = make(D, rng, kind)
            if M is None:
                continue
            want = ref_validate_indexed(M)
            assert _laws_hold(M) == (want == []), (label, kind)
            assert validate_indexed(M) == want, (label, kind)
            tally["mutants"] += 1
            tally["valid"] += want == []
            tally["identity pair swaps"] += kind == "compositor" and any(
                M.compositor[p] != D.compositor[p]
                for p in D.compositor if ids & set(p))
    assert tally["mutants"] > 1400, tally
    assert tally["identity pair swaps"] > 200, tally
    assert tally["valid"] > 20, tally


def _table_mutants(c, rng, k):
    """Copies of c with one table entry swapped for another arrow with
    the same ends, at an entry with an identity in it about half the
    time."""
    ids = set(c.ident.values())
    with_id = [p for p in c.table if ids & set(p)]
    without = [p for p in c.table if not ids & set(p)]
    out = []
    for _ in range(k):
        pool = with_id if not without or rng.random() < 0.5 else without
        pair = rng.choice(pool)
        h = c.table[pair]
        n = _other(rng, c.hom(*c.mor[h]), h)
        if n is not None:
            out.append(FinCat(c.objects, c.mor, c.ident,
                              {**c.table, pair: n}, name=c.name))
    return out


def test_associativity_without_identities_matches_every_triple():
    rng = random.Random(20261024)
    cats, seen = [], set()
    for _, D in INPUTS:
        for c in D.fib.values():
            if id(c) not in seen:
                seen.add(id(c))
                cats.append(c)
    cats += [corpus.z2_cat(), corpus.walking_iso_cat(), corpus.span_cat()]
    cats += [sitegen.rand_small_cat(rng) for _ in range(10)]
    tried = assoc = 0
    for c in cats:
        assert validate_fincat(c) == ref_validate_fincat(c) == []
        for M in _table_mutants(c, rng, 40):
            want = ref_validate_fincat(M)
            assert validate_fincat(M) == want, c.name
            tried += 1
            assoc += any(e.startswith("associativity") for e in want)
    assert tried > 600 and assoc > 300, (tried, assoc)


# Malformed coherence at an identity: the full phases report it as they
# always did, and nothing raises.


def _twisted_with(cells):
    """`twisted_z2_indexed` with its compositor at (s, e) replaced by
    `cells`, or taken away when `cells` is None."""
    D = corpus.twisted_z2_indexed()
    M = IndexedCat(D.base, D.fib, D.res, D.compositor, D.unitor, name=D.name)
    if cells is None:
        del M.compositor[("s", "e")]
    else:
        M.compositor[("s", "e")] = cells
    return M


@pytest.mark.parametrize("cells,findings", [
    (None, ["no compositor for (s,e)"]),
    ({}, ["compositor (s,e) malformed at *"]),
    ({"*": "?"}, ["compositor (s,e) malformed at *"]),
], ids=["missing", "entry missing", "mistyped"])
def test_malformed_compositor_at_an_identity_pair(cells, findings):
    D = _twisted_with(cells)
    assert ref_validate_indexed(D) == findings
    assert not _laws_hold(D)
    assert validate_indexed(D) == findings


def test_non_invertible_unitor_component():
    mor = {a: ("*", "*") for a in ("1", "z")}
    table = {(a, b): "z" if "z" in (a, b) else "1" for a in mor for b in mor}
    M = FinCat(("*",), mor, {"*": "1"}, table, name="M")
    D = const_indexed(corpus.arrow_cat(), M)
    bad = IndexedCat(D.base, D.fib, D.res, D.compositor, D.unitor)
    bad.unitor["a"]["*"] = "z"
    findings = ["unitor at a not invertible at *"]
    assert ref_validate_indexed(bad) == findings
    assert not _laws_hold(bad)
    assert validate_indexed(bad) == findings


# Four indexed categories, each with one fault that only one of the checks
# `_laws_hold` keeps can see.


def _over_arrow(fa, fb, res_i, gamma=None):
    """Over the arrow i : a -> b, fibres fa and fb, identity restrictions
    along the identities, `res_i` along i, identity unitors, and identity
    compositors except `gamma`."""
    base = corpus.arrow_cat()
    fib = {"a": fa, "b": fb}
    res = {"ida": identity_functor(fa), "idb": identity_functor(fb), "i": res_i}
    compositor = {
        (g, f): {V: fib[base.dom(f)].ident[res[h].omap[V]]
                 for V in fib[base.cod(g)].objects}
        for (g, f), h in base.table.items()}
    for key, cells in (gamma or {}).items():
        compositor[key].update(cells)
    unitor = {X: {V: fib[X].ident[V] for V in fib[X].objects} for X in fib}
    return IndexedCat(base, fib, res, compositor, unitor)


def _moves_an_identity():
    """D(i) sends the identity of the one object of D(b) to the flip of
    Z2; the unit laws hold with the compositor at (idb, i) the flip."""
    point, z2 = terminal_cat("V"), corpus.z2_cat()
    res_i = Functor(point, z2, {"V": "*"}, {("id", "V"): "s"})
    return _over_arrow(z2, point, res_i, {("idb", "i"): {"V": "s"}})


def _breaks_the_one_composite():
    """D(i) sends the composite g∘f = h to the other arrow k parallel to h,
    in a fibre whose one pair of non-identity arrows is (g, f)."""
    mor = {"f": ("p", "q"), "g": ("q", "r"), "h": ("p", "r"), "k": ("p", "r")}
    c = FinCat.from_homs(
        ("p", "q", "r"), {**mor, **{f"id{x}": (x, x) for x in "pqr"}},
        {x: f"id{x}" for x in "pqr"},
        lambda g, f: "h" if (g, f) == ("g", "f") else (
            f if g.startswith("id") else g), name="C")
    res_i = Functor(c, c, {x: x for x in c.objects},
                    {**{m: m for m in c.mor}, "h": "k"})
    return _over_arrow(c, c, res_i)


def _not_a_cocycle():
    """Over Z3, the fibre Z2 with identity restrictions and the compositor
    t at (1, 1) only: normalized, natural, not associative."""
    n = ("0", "1", "2")
    z3 = FinCat(("*",), {g: ("*", "*") for g in n}, {"*": "0"},
                {(g, h): str((int(g) + int(h)) % 3) for g in n for h in n},
                name="Z3")
    D = corpus.twisted_z2_indexed()
    fz, one = D.fib["*"], D.res["s"]
    compositor = {(g, h): {"*": "t" if (g, h) == ("1", "1") else "1"}
                  for (g, h) in z3.table}
    return IndexedCat(z3, {"*": fz}, {g: one for g in n}, compositor,
                      {"*": {"*": "1"}})


def _reflects_onto_the_top():
    """Over the point, the fibre 0 < 1 restricted along the identity by
    the constant functor at 1, with the reflection's unit 0 <= 1 as the
    unitor: natural and unital, but not invertible at 0."""
    base = terminal_cat()
    c = poset_cat(("0", "1"), [("0", "1")], name="2")
    top = ("le", "1", "1")
    res = {("id", "*"): Functor(c, c, {"0": "1", "1": "1"},
                                {m: top for m in c.mor})}
    return IndexedCat(base, {"*": c}, res,
                      {(("id", "*"),) * 2: {"0": top, "1": top}},
                      {"*": {"0": ("le", "0", "1"), "1": top}})


@pytest.mark.parametrize("make,finding", [
    (_moves_an_identity,
     "restriction along i not a functor: composition not preserved on "
     "((id,V),(id,V))"),
    (_breaks_the_one_composite,
     "restriction along i not a functor: composition not preserved on (g,f)"),
    (_not_a_cocycle, "associativity fails for (1,1,2) at *"),
    (_reflects_onto_the_top, "unitor at * not invertible at 0"),
], ids=["identity", "composite", "associativity", "unitor inverse"])
def test_a_fault_only_one_kept_check_sees(make, finding):
    D = make()
    want = ref_validate_indexed(D)
    assert finding in want
    assert not _laws_hold(D)
    assert validate_indexed(D) == want
