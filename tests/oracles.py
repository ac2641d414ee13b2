"""Test oracles: exhaustive searches and comparisons that the library does
not need and so does not ship.

`ref_search` is a copy of the bounded backtracking kernel as it was before
`caps.search` kept the constraint schedule: `cands(i, a)` gives position
i's candidates each time the position is entered, and `fits(i, a)` tests the
checks the caller filed under position i itself.  The enumerators below run
on it, so an oracle shares no search code with the library it checks:

- `ref_all_functors`: every functor, each object map of the full product
  searched for morphism maps;
- `ref_all_nat_isos`: the components of every natural isomorphism
  F => G, and `nat_trans_findings`, the law check it is compared with by
  brute force;
- `ref_all_indexed_funs`: every indexed functor D -> E, for the bounded
  uniqueness checks.

`ref_desc_cat` is the descent category as it was built before its pairs of
data were joined on member objects: `desc_hom` on every ordered pair, each
morphism named by its source's sorted members (`DescentDatum._key`), and
the category ordered by `ckey`.  `desc_cat_parts` lists what the two must
share, and `desc_cat_outcome` runs either under given caps.

`ref_coh_pairs`, `ref_comparison_datum`, `ref_restrict_datum`,
`ref_push_datum`, `ref_push_mor`, `ref_mor_id` and `ref_mor_components`
are the shape of descent over a sieve as each construction worked it out
for itself before `descent.Plan` held it: coherence pairs listed from the
sieve's members, and data and morphism ids built from (D, R), with nothing
from the library but `DescentDatum`.

`is_indexed_iso` and `discrete_stackify_witness` compare the categorical
pipeline with the set-level sheafification on discrete embeddings.

`pullback_sieve`, `generate_sieve`, `validate_sieve`, `validate_datum`
and `least_cover_pullbacks` are the library's as they were before it
stopped shipping them: the pullback of a sieve by its formula, the sieve
generated by a family and the findings of a set of arrows that should be a
sieve, all on frozensets of ids, the findings of a descent datum, and the
non-maximal pullbacks of the least covers, on which descent and the
sheafification's guard were decided before the least covers alone were.

`ref_validate_fincat` is `validate_fincat` as it was before it numbered the
ids: every check looks ids up by value, and associativity is checked on
every composable triple.  `ref_validate_indexed` is `validate_indexed` as
it was before it left out the checks that involve an identity: its phases
check every restriction with `Functor.validate`, every unitor and
compositor family at every object and arrow, every unit law and every
composable triple of the base.

`ref_serialize_blocks` is the interchange writer as it was before it wrote
text: `ref_enc` builds a JSON structure of every id (memoizing each datum's
structure by the datum), and the C JSON encoder writes the whole document
with sorted keys, table and compositor rows sorted by the encoded text of
their keys.

`in_emitted_form` splices a digest into a body's text as the writer does.
`load_outcome` is what loading an interchange text gives, and with
`full_parse` what it gives when `json.loads` parses every copy of every
descent datum's text, as the reader did before `dsl._parse` shared them."""

import contextlib
import hashlib
import json
import weakref
from itertools import product
from unittest import mock

from finstack import (
    CapExceeded,
    Caps,
    DescentDatum,
    FinCat,
    Functor,
    IndexedFun,
    IndexedNat,
    InternalError,
    Plan,
    Sieve,
    SiteError,
    compose_functors,
    compose_indexed_funs,
    desc_cat,
    desc_hom,
    embed_discrete,
    embed_mor,
    enumerate_data,
    sheafify_with_unit,
    stackify,
    strict_indexed_fun,
    validate_indexed_nat,
)
from finstack import dsl
from finstack.caps import Budget
from finstack.indexed import _fibre_arrows
from finstack.util import fmt, stable_sorted


def ref_search(n, cands, fits, budget):
    a = []
    budget.spend()
    if n == 0:
        yield a
        return
    stack = [iter(cands(0, a))]
    while stack:
        i = len(a)
        for v in stack[-1]:
            a.append(v)
            if fits(i, a):
                budget.spend()
                if i + 1 == n:
                    yield a
                else:
                    stack.append(iter(cands(i + 1, a)))
                    break
            a.pop()
        else:
            stack.pop()
            if a:
                a.pop()


def ref_all_functors(src, dst, caps=Caps()):
    """Every object map of the full product, each searched for morphism
    maps."""
    objs = src.objects
    non_id = [m for m in src.mor if not src.is_id(m)]
    at = {m: i for i, m in enumerate(non_id)}
    closing = {}
    for (g, f), h in src.table.items():
        i = max(at.get(g, -1), at.get(f, -1), at.get(h, -1))
        if i >= 0:
            closing.setdefault(i, []).append((g, f, h))
    budget = Budget(caps)
    for combo in product(*(dst.objects for _ in objs)):
        omap = dict(zip(objs, combo))
        mmap = {src.ident[x]: dst.ident[omap[x]] for x in objs}

        def cands(i, a):
            d, c = src.mor[non_id[i]]
            return dst.hom(omap[d], omap[c])

        def fits(i, a):
            mmap[non_id[i]] = a[i]
            return all(
                dst.table[(mmap[g], mmap[f])] == mmap[h]
                for g, f, h in closing.get(i, ())
            )

        for a in ref_search(len(non_id), cands, fits, budget):
            yield Functor(src, dst, dict(omap), dict(mmap))


def nat_trans_findings(F, G, comp):
    """Violations of naturality for the components `comp` of F => G, as
    strings: first the typing of the components, then, if that holds, each
    naturality square."""
    errs = []
    dst = F.dst
    if F.src != G.src:
        return ["source functors disagree on domain"]
    for x in F.src.objects:
        a = comp.get(x)
        if a is None:
            errs.append(f"no component at {fmt(x)}")
        elif a not in dst.mor or dst.mor[a] != (F.omap[x], G.omap[x]):
            errs.append(f"component at {fmt(x)} is not F({fmt(x)}) -> G({fmt(x)})")
    if errs:
        return errs
    for m, (d, c) in F.src.mor.items():
        lhs = dst.compose(comp[c], F.mmap[m])
        rhs = dst.compose(G.mmap[m], comp[d])
        if lhs != rhs:
            errs.append(f"naturality fails at {fmt(m)}")
    return errs


def ref_all_nat_isos(F, G, caps=Caps()):
    if F.src is not G.src and F.src != G.src:
        return
    src, dst = F.src, F.dst
    objects = list(src.objects)
    pools = []
    for x in objects:
        pool = [a for a in dst.hom(F.omap[x], G.omap[x]) if dst.is_iso(a)]
        if not pool:
            return
        pools.append(pool)
    at = {x: i for i, x in enumerate(objects)}
    closing = {}
    for m, (d, c) in src.mor.items():
        closing.setdefault(max(at[d], at[c]), []).append((m, at[d], at[c]))

    def fits(i, a):
        return all(
            dst.compose(a[c], F.mmap[m]) == dst.compose(G.mmap[m], a[d])
            for m, d, c in closing.get(i, ())
        )

    for a in ref_search(len(objects), lambda i, a: pools[i], fits, Budget(caps)):
        yield dict(zip(objects, a))


def ref_all_indexed_funs(D, E, caps=Caps()):
    """Every indexed functor D -> E: every choice of components, each
    searched for cells, a position's cells drawn anew each time it is
    entered."""
    base = D.base
    objs = stable_sorted(base.objects)
    mors = stable_sorted(base.mor)
    at = {y: i for i, y in enumerate(mors)}
    closing = {}
    for (g, f), h in base.table.items():
        closing.setdefault(max(at[g], at[f], at[h]), []).append((g, f, h))

    def cands(i, cell):
        y = mors[i]
        Y, X = base.mor[y]
        left = compose_functors(comp[Y], D.res[y])
        right = compose_functors(E.res[y], comp[X])
        return ref_all_nat_isos(left, right, caps)

    def unit_ok(X, c):
        fx = E.fib[X]
        return all(
            fx.compose(c[V], comp[X].mo(D.unit(X, V))) == E.unit(X, comp[X].ob(V))
            for V in D.fib[X].objects
        )

    def composite_ok(g, f, cg, cf, ch):
        Xc = base.cod(g)
        Z = base.dom(f)
        fz = E.fib[Z]
        for V in D.fib[Xc].objects:
            one = fz.compose(ch[V], comp[Z].mo(D.gamma(g, f, V)))
            two = fz.compose(
                E.gamma(g, f, comp[Xc].ob(V)),
                fz.compose(E.res[f].mo(cg[V]), cf[D.res[g].ob(V)]),
            )
            if one != two:
                return False
        return True

    def fits(i, cell):
        y = mors[i]
        if base.is_id(y) and not unit_ok(base.dom(y), cell[i]):
            return False
        return all(
            composite_ok(g, f, cell[at[g]], cell[at[f]], cell[at[h]])
            for g, f, h in closing.get(i, ())
        )

    budget = Budget(caps)
    pools = [list(ref_all_functors(D.fib[X], E.fib[X], caps)) for X in objs]
    for combo in product(*pools):
        comp = dict(zip(objs, combo))
        for cell in ref_search(len(mors), cands, fits, budget):
            yield IndexedFun(D, E, dict(comp), {y: dict(c) for y, c in zip(mors, cell)})


def ref_desc_cat(D, R, caps=Caps(), skip_empty=False):
    """Desc(R, D) by `desc_hom` on every ordered pair of data; with
    `skip_empty`, a pair with an empty member hom-set is not searched."""
    base = D.base
    plan = Plan(D, R)
    data = enumerate_data(plan, caps)
    members = R.members()

    def mor_id(a, b, comp):
        return (a, b, tuple((f, comp[f]) for f, _ in a._key[0]))

    def empty(a, b):
        return not all(D.fib[base.dom(f)].hom(a.obj[f], b.obj[f])
                       for f in members)

    mor = {}
    for a in data:
        for b in data:
            if skip_empty and empty(a, b):
                continue
            for comp in desc_hom(plan, a, b, caps):
                mor[mor_id(a, b, dict(zip(members, comp)))] = (a, b)
    ident = {
        a: mor_id(a, a, {f: D.fib[base.dom(f)].ident[a.obj[f]] for f in members})
        for a in data
    }

    def compose(m2, m1):
        c2, c1 = dict(m2[2]), dict(m1[2])
        return mor_id(m1[0], m2[1], {
            f: D.fib[base.dom(f)].compose(c2[f], c1[f]) for f in members})

    return FinCat.from_homs(tuple(data), mor, ident, compose,
                            name=f"Desc({fmt(R.target)})")


def desc_cat_parts(c):
    """What a descent category built two ways must share, orders included."""
    return (c.objects, list(c.mor.items()), list(c.ident.items()),
            list(c.table.items()), c.objects)


def desc_cat_outcome(build, D, R, caps, **kw):
    """(`desc_cat_parts` of `build(D, R, caps)`, None), or (None, the cap
    message) when a cap trips."""
    try:
        return desc_cat_parts(build(D, R, caps, **kw)), None
    except CapExceeded as e:
        return None, str(e)


# The search budgets `desc_cat` is compared at: each tripping somewhere on
# the test inputs, and the default.
DESC_CAT_BUDGETS = (1, 2, 3, 4, 8, 16, 48, 64, 100_000)


def desc_cat_parity(D, R, tally):
    """Check `desc_cat` against `ref_desc_cat` on (D, R) at every budget of
    `DESC_CAT_BUDGETS`, counting each outcome in `tally`.  Where the
    reference finishes, the two agree; where `desc_cat` trips a cap, the
    reference trips the same one.  `desc_cat` may finish where the reference
    trips only by not searching pairs with an empty member hom-set."""
    def library(D, R, caps):
        return desc_cat(Plan(D, R), caps)

    for n in DESC_CAT_BUDGETS:
        caps = Caps(max_descent=n)
        got = desc_cat_outcome(library, D, R, caps)
        want = desc_cat_outcome(ref_desc_cat, D, R, caps)
        if want[1] is None:
            assert got == want, (D.name, R, n)
            kind = "both finish"
        elif got[1] is not None:
            assert got[1] == want[1], (D.name, R, n)
            kind = "both trip"
        else:
            skipping = desc_cat_outcome(ref_desc_cat, D, R, caps, skip_empty=True)
            assert skipping == got, (D.name, R, n)
            kind = "only the reference trips"
        tally[kind] = tally.get(kind, 0) + 1


def is_indexed_iso(t):
    E = t.F.E
    return all(
        E.fib[X].is_iso(m) for X, cx in t.comp.items() for m in cx.values()
    )


def _is_discrete(cat):
    return all(cat.is_id(m) for m in cat.mor)


def _translate_datum(a, depth):
    members = stable_sorted(a.obj)
    if depth == 1:
        return ("mf", tuple((f, a.obj[f]) for f in members))
    return ("mf", tuple((f, _translate_datum(a.obj[f], depth - 1)) for f in members))


def discrete_stackify_witness(P, J, caps=Caps()):
    """Build the comparison between stackify∘embed_discrete and
    embed_discrete∘sheafify_with_unit.

    Returns (W, intertwine, sres, sheaf, unit) where W is a strict indexed
    functor stackify(embed(P)).stack -> embed(sheafify(P)) translating nested
    descent data to nested matching families, and `intertwine` is the
    invertible modification W ∘ stackify-unit => embed(oracle unit)."""
    sheaf, unit = sheafify_with_unit(P, J, caps)
    oracle_unit = embed_mor(P, sheaf, unit, name="η_oracle")
    D, E = oracle_unit.D, oracle_unit.E
    sres = stackify(D, J, caps)
    base = P.base

    if not all(_is_discrete(sres.stack.fib[X]) for X in base.objects):
        raise InternalError("double plus of a discrete embedding is not discrete")

    comp = {}
    for X in base.objects:
        omap = {}
        sheaf_x = set(sheaf.els[X])
        for a in sres.stack.fib[X].objects:
            omap[a] = _translate_datum(a, 2)
            if omap[a] not in sheaf_x:
                raise InternalError(
                    "nested descent datum translates outside the oracle sheaf"
                )
        mmap = {
            mid: ("id", omap[ab[0]]) for mid, ab in sres.stack.fib[X].mor.items()
        }
        comp[X] = Functor(sres.stack.fib[X], E.fib[X], omap, mmap, name="W")
    W = strict_indexed_fun(sres.stack, E, comp, name="W")

    left = compose_indexed_funs(W, sres.unit)
    wit = {
        X: {
            V: E.fib[X].ident[left.comp[X].ob(V)]
            for V in D.fib[X].objects
        }
        for X in base.objects
    }
    intertwine = IndexedNat(left, oracle_unit, wit)
    assert validate_indexed_nat(intertwine) == [], "oracle units not intertwined"
    return W, intertwine, sres, sheaf, unit


# -- sieves and descent data as the library had them ---------------------------


def pullback_sieve(s, h):
    """h*(s), by the formula {g into dom(h) : h∘g in s}."""
    c = s.base
    y = c.dom(h)
    return Sieve(y, frozenset(g for g in c.into(y) if c.compose(h, g) in s.mors), c)


def least_cover_pullbacks(J):
    """The sieves `is_stack`, `is_prestack` and the sheafification's guard
    ran on before they ran on the least covers alone: the pullbacks
    h*(M_x) along every h : y -> x, M_x the intersection of the covers of
    x, for every x that has covers.  Objects come in stable order and
    arrows in `into` order; a sieve repeated on the same y is kept once,
    and sieves containing id_y are left out."""
    c = J.base
    seen, out = set(), []
    for x in c.objects:
        sieves = J.covers.get(x)
        if not sieves:
            continue
        least = Sieve(x, frozenset.intersection(*sieves), c)
        for h in c.into(x):
            p = pullback_sieve(least, h)
            if c.ident[p.target] not in p.mors and (p.target, p.mors) not in seen:
                seen.add((p.target, p.mors))
                out.append(p)
    return out


def generate_sieve(c, x, gens):
    """Smallest sieve on x containing the given morphisms into x."""
    gens = list(gens)
    for f in gens:
        if f not in c.mor or c.cod(f) != x:
            raise SiteError(f"generator {fmt(f)} is not a morphism into {fmt(x)}")
    mors = set()
    for f in gens:
        for g in c.into(c.dom(f)):
            mors.add(c.compose(f, g))
    return Sieve(x, frozenset(mors), c)


def validate_sieve(s):
    """Violations of sieve-hood: membership typing and precomposition closure.

    Members are scanned in set order, and sorted only when one is bad, so
    the findings do not depend on the hash seed."""
    c = s.base
    errs = []
    if s.target not in set(c.objects):
        return [f"target {fmt(s.target)} not an object"]
    for m in s.mors:
        if m not in c.mor:
            errs.append(f"member {fmt(m)} is not a morphism")
        elif c.cod(m) != s.target:
            errs.append(f"member {fmt(m)} does not end at {fmt(s.target)}")
    if errs:
        return sorted(errs)
    for f in s.mors:
        for g in c.into(c.dom(f)):
            if c.compose(f, g) not in s.mors:
                return [_first_escape(c, s.mors)]
    return errs


def _first_escape(c, mors):
    """The finding for the first member f, in stable order, and arrow g with
    f∘g outside `mors`, a set of morphisms of c that is not a sieve."""
    for f in [m for m in c.mor if m in mors]:
        for g in c.into(c.dom(f)):
            if c.compose(f, g) not in mors:
                return f"not closed: {fmt(f)} ∘ {fmt(g)} escapes the sieve"


def validate_datum(D, R, a):
    """The findings of descent datum a over sieve R of D: members and
    coherences where they belong, then normalization and the cocycle."""
    base = D.base
    errs = []
    fib_obs = {}
    for f in R.members():
        if f not in a.obj:
            return [f"no object assigned at {fmt(f)}"]
        y = base.dom(f)
        if y not in fib_obs:
            fib_obs[y] = set(D.fib[y].objects)
        if a.obj[f] not in fib_obs[y]:
            return [f"object at {fmt(f)} not in its fibre"]
    pairs = ref_coh_pairs(D, R)
    for f in stable_sorted(a.obj.keys() - R.mors):
        errs.append(f"object assigned at non-member {fmt(f)}")
    for p in stable_sorted(a.coh.keys() - set(pairs)):
        errs.append(f"coherence at non-pair {fmt(p)}")
    for (f, g) in pairs:
        y = base.dom(g)
        fg = base.compose(f, g)
        fib = D.fib[y]
        m = a.coh.get((f, g))
        want = (D.res[g].ob(a.obj[f]), a.obj[fg])
        if m is None or m not in fib.mor or fib.mor[m] != want:
            errs.append(f"coherence at ({fmt(f)},{fmt(g)}) malformed")
        elif not fib.is_iso(m):
            errs.append(f"coherence at ({fmt(f)},{fmt(g)}) not invertible")
    if errs:
        return errs

    # Normalization: coh at an identity inverts the unitor.
    for f in R.members():
        y = base.dom(f)
        u = D.unit(y, a.obj[f])
        if a.coh[(f, base.ident[y])] != D.fib[y].inverse(u):
            errs.append(f"normalization fails at {fmt(f)}")

    # Cocycle: restricting a coherence and composing agrees with coherence
    # along the composite, mediated by the compositor.
    for f in R.members():
        for g in base.into(base.dom(f)):
            fg = base.compose(f, g)
            for h in base.into(base.dom(g)):
                fib = D.fib[base.dom(h)]
                gh = base.compose(g, h)
                lhs = fib.compose(a.coh[(f, gh)], D.gamma(g, h, a.obj[f]))
                rhs = fib.compose(a.coh[(fg, h)], D.res[h].mo(a.coh[(f, g)]))
                if lhs != rhs:
                    errs.append(
                        f"cocycle fails at ({fmt(f)},{fmt(g)},{fmt(h)})"
                    )
    return errs


# -- the shape of descent as each construction worked it out before the plan


def ref_coh_pairs(D, R):
    """All (f, g) with f a member and g into dom f, in stable order."""
    base = D.base
    out = []
    for f in R.members():
        for g in base.into(base.dom(f)):
            out.append((f, g))
    return out


def ref_comparison_datum(D, R, V):
    obj = {f: D.res[f].ob(V) for f in R.mors}
    coh = {}
    for (f, g) in ref_coh_pairs(D, R):
        coh[(f, g)] = D.gamma(f, g, V)
    return DescentDatum(obj, coh)


def ref_restrict_datum(D, a, y, S):
    base = D.base
    obj = {}
    coh = {}
    for g in S.mors:
        yg = base.compose(y, g)
        if yg not in a.obj:
            raise InternalError(
                f"restriction escapes the datum: {fmt(y)}∘{fmt(g)} not a member"
            )
        obj[g] = a.obj[yg]
    for (g, h) in ref_coh_pairs(D, S):
        coh[(g, h)] = a.coh[(base.compose(y, g), h)]
    return DescentDatum(obj, coh)


def ref_push_datum(F, R, a):
    D, E = F.D, F.E
    base = D.base
    obj = {f: F.comp[base.dom(f)].ob(a.obj[f]) for f in a.obj}
    coh = {}
    for (f, g) in ref_coh_pairs(D, R):
        y = base.dom(g)
        fib = E.fib[y]
        cell = F.cell[g][a.obj[f]]
        coh[(f, g)] = fib.compose(
            F.comp[y].mo(a.coh[(f, g)]), fib.inverse(cell)
        )
    return DescentDatum(obj, coh)


def ref_push_mor(F, comp):
    base = F.D.base
    return {f: F.comp[base.dom(f)].mo(m) for f, m in comp.items()}


def ref_mor_id(a, b, comp, members):
    """Id of the descent morphism a -> b with components `comp`, a dict
    member -> fibre morphism, listed in `members`."""
    return (a, b, tuple((f, comp[f]) for f in members))


def ref_mor_components(mid):
    return dict(mid[2])


# -- the category and pseudofunctor validators, every case checked ---------


def ref_validate_fincat(c, caps=Caps()):
    errs = []
    obset = set(c.objects)
    if len(obset) != len(c.objects):
        errs.append("duplicate object ids")
    for m, (d, co) in c.mor.items():
        if d not in obset:
            errs.append(f"morphism {fmt(m)} has unknown dom {fmt(d)}")
        if co not in obset:
            errs.append(f"morphism {fmt(m)} has unknown cod {fmt(co)}")
    for x in c.objects:
        i = c.ident.get(x)
        if i is None:
            errs.append(f"no identity for object {fmt(x)}")
        elif i not in c.mor:
            errs.append(f"identity of {fmt(x)} is not a morphism")
        elif c.mor[i] != (x, x):
            errs.append(f"identity of {fmt(x)} is not an endomorphism of it")
    if errs:
        return errs

    for x in c.objects:
        for y in c.objects:
            n = len(c.hom(x, y))
            if n > caps.max_homset:
                raise CapExceeded(f"hom({fmt(x)},{fmt(y)}): {n} exceeds cap "
                                  f"{caps.max_homset}; raise --max-homset")

    mids = set(c.mor)
    for (g, f), h in c.table.items():
        if g not in mids or f not in mids:
            errs.append(f"table entry ({fmt(g)},{fmt(f)}) names unknown morphisms")
            continue
        if c.cod(f) != c.dom(g):
            errs.append(f"table entry ({fmt(g)},{fmt(f)}) is not composable")
            continue
        if h not in mids:
            errs.append(f"composite of ({fmt(g)},{fmt(f)}) is unknown morphism {fmt(h)}")
        elif c.mor[h] != (c.dom(f), c.cod(g)):
            errs.append(f"composite {fmt(h)} of ({fmt(g)},{fmt(f)}) has wrong dom/cod")
    if errs:
        return errs

    by_dom = {}
    for m, (d, _) in c.mor.items():
        by_dom.setdefault(d, []).append(m)
    for f in c.mor:
        for g in by_dom.get(c.cod(f), ()):
            if (g, f) not in c.table:
                errs.append(f"missing composite for {fmt(g)} after {fmt(f)}")
    if errs:
        return errs

    for m in c.mor:
        d, co = c.mor[m]
        if c.table[(m, c.ident[d])] != m:
            errs.append(f"{fmt(m)} ∘ id ≠ {fmt(m)}")
        if c.table[(c.ident[co], m)] != m:
            errs.append(f"id ∘ {fmt(m)} ≠ {fmt(m)}")

    for f in c.mor:
        for g in by_dom.get(c.cod(f), ()):
            gf = c.table[(g, f)]
            for h in by_dom.get(c.cod(g), ()):
                if c.table[(h, gf)] != c.table[(c.table[(h, g)], f)]:
                    errs.append(
                        f"associativity fails on ({fmt(h)},{fmt(g)},{fmt(f)})"
                    )
    return errs


def ref_validate_indexed(D, caps=Caps()):
    base = D.base
    for X in base.objects:
        if X not in D.fib:
            return [f"no fibre over {fmt(X)}"]
        bad = ref_validate_fincat(D.fib[X], caps)
        if bad:
            return [f"fibre over {fmt(X)} invalid: {bad[0]}"]
    for y, (Y, X) in base.mor.items():
        F = D.res.get(y)
        if F is None:
            return [f"no restriction along {fmt(y)}"]
        if F.src != D.fib[X]:
            return [f"restriction along {fmt(y)} has wrong source"]
        if F.dst != D.fib[Y]:
            return [f"restriction along {fmt(y)} has wrong target"]
        bad = F.validate()
        if bad:
            return [f"restriction along {fmt(y)} not a functor: {bad[0]}"]

    errs = _fibre_arrows("unitor at {}", "no unitor at {}", (
        ((X,), D.fib[X], D.fib[X], D.unitor.get(X), (), (D.res[base.ident[X]],))
        for X in base.objects), invertible=True)
    if errs:
        return errs
    errs = _fibre_arrows("compositor ({},{})", "no compositor for ({},{})", (
        ((g, f), D.fib[base.cod(g)], D.fib[base.dom(f)], D.compositor.get((g, f)),
         (D.res[g], D.res[f]), (D.res[h],))
        for (g, f), h in base.table.items()), invertible=True)
    if errs:
        return errs

    for (y, z) in base.table:
        for w in base.into(base.dom(z)):
            yz = base.table[(y, z)]
            zw = base.table[(z, w)]
            fw = D.fib[base.dom(w)]
            bad = [
                fmt(V) for V in D.fib[base.cod(y)].objects
                if fw.compose(D.gamma(yz, w, V), D.res[w].mo(D.gamma(y, z, V)))
                != fw.compose(D.gamma(y, zw, V), D.gamma(z, w, D.res[y].ob(V)))
            ]
            if bad:
                errs.append(
                    f"associativity fails for ({fmt(y)},{fmt(z)},{fmt(w)}) at {min(bad)}"
                )
    for y, (Y, X) in base.mor.items():
        fy = D.fib[Y]
        for V in D.fib[X].objects:
            ry_V = D.res[y].ob(V)
            right = fy.compose(D.gamma(y, base.ident[Y], V), D.unit(Y, ry_V))
            if right != fy.ident[ry_V]:
                errs.append(f"right unit fails for {fmt(y)} at {fmt(V)}")
            left = fy.compose(D.gamma(base.ident[X], y, V), D.res[y].mo(D.unit(X, V)))
            if left != fy.ident[ry_V]:
                errs.append(f"left unit fails for {fmt(y)} at {fmt(V)}")
    return sorted(errs)


# -- the interchange writer before it wrote text -----------------------------


_cjson = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False).encode

_datum_enc = weakref.WeakKeyDictionary()


def ref_enc(v):
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return {"b": v}
    if isinstance(v, int):
        return {"i": v}
    if v is None:
        return {"n": 0}
    if isinstance(v, tuple):
        return [ref_enc(x) for x in v]
    if isinstance(v, frozenset):
        return {"fs": sorted((ref_enc(x) for x in v), key=_cjson)}
    if isinstance(v, DescentDatum):
        e = _datum_enc.get(v)
        if e is None:
            e = _datum_enc[v] = {"dd": [ref_enc(v._key[0]), ref_enc(v._key[1])]}
        return e
    raise InternalError(f"value of type {type(v).__name__} has no "
                        f"interchange encoding: {v!r}")


def _kv(d):
    return [[ref_enc(k), ref_enc(d[k])] for k in stable_sorted(d)]


def _pair_key(g, f):
    return _cjson([ref_enc(g), ref_enc(f)])


def _cat_json(c):
    return {
        "name": c.name,
        "objects": [ref_enc(x) for x in stable_sorted(c.objects)],
        "morphisms": [[ref_enc(m), ref_enc(c.dom(m)), ref_enc(c.cod(m))]
                      for m in stable_sorted(c.mor)],
        "identities": _kv(c.ident),
        "table": [[[ref_enc(g), ref_enc(f)], ref_enc(h)]
                  for (g, f), h in sorted(c.table.items(),
                                          key=lambda it: _pair_key(*it[0]))],
    }


def _fun_json(f):
    return {"omap": _kv(f.omap), "mmap": _kv(f.mmap)}


def _top_json(j, basename):
    covers = []
    for x in stable_sorted(j.covers):
        fams = sorted(
            (sorted((ref_enc(m) for m in mors), key=_cjson)
             for mors in j.covers[x]),
            key=_cjson,
        )
        covers.append([ref_enc(x), fams])
    return {"base": basename, "covers": covers}


def _psh_json(p, basename):
    return {
        "base": basename,
        "name": p.name,
        "els": [[ref_enc(x), [ref_enc(e) for e in p.els[x]]]
                for x in stable_sorted(p.els)],
        "act": [[ref_enc(m), _kv(p.act[m])] for m in stable_sorted(p.act)],
    }


def _idx_json(dd, basename):
    return {
        "base": basename,
        "name": dd.name,
        "fib": [[ref_enc(x), _cat_json(dd.fib[x])] for x in stable_sorted(dd.fib)],
        "res": [[ref_enc(y), _fun_json(dd.res[y])] for y in stable_sorted(dd.res)],
        "compositor": [[[ref_enc(g), ref_enc(f)], _kv(dd.compositor[(g, f)])]
                       for (g, f) in sorted(dd.compositor,
                                            key=lambda p: _pair_key(*p))],
        "unitor": [[ref_enc(x), _kv(dd.unitor[x])]
                   for x in stable_sorted(dd.unitor)],
    }


def _ifun_json(p, srcname, dstname):
    return {
        "src": srcname,
        "dst": dstname,
        "name": p.name,
        "comp": [[ref_enc(x), _fun_json(p.comp[x])] for x in stable_sorted(p.comp)],
        "cell": [[ref_enc(y), _kv(p.cell[y])] for y in stable_sorted(p.cell)],
    }


_TAIL = ',"format":' + _cjson("finstack/1") + "}"


def ref_serialize_blocks(blocks):
    """`serialize_blocks` by the structure writer: the same arguments, the
    same text, or the same `InternalError`."""
    cats = []
    idxnames = {}

    def catname(c, owner):
        for nm, c2 in cats:
            if c2 is c:
                return nm
        for nm, c2 in cats:
            if c2 == c:
                return nm
        raise InternalError(f"{owner!r} serialized without its base category")

    out = []
    for kind, name, v in blocks:
        if kind == "category":
            cats.append((name, v))
            out.append({"kind": "category", **_cat_json(v), "name": name})
        elif kind == "topology":
            out.append({"kind": "topology",
                        **_top_json(v, catname(v.base, name)), "name": name})
        elif kind == "functor":
            out.append({"kind": "functor", "src": catname(v.src, name),
                        "dst": catname(v.dst, name), **_fun_json(v),
                        "name": name})
        elif kind == "presheaf":
            out.append({"kind": "presheaf",
                        **_psh_json(v, catname(v.base, name)), "name": name})
        elif kind == "indexed":
            idxnames[id(v)] = name
            out.append({"kind": "indexed",
                        **_idx_json(v, catname(v.base, name)), "name": name})
        elif kind == "fibration":
            sn, dn = idxnames.get(id(v.D)), idxnames.get(id(v.E))
            if sn is None or dn is None:
                raise InternalError(f"fibration {name!r} serialized without "
                                    "its endpoint indexed categories")
            out.append({"kind": "fibration", **_ifun_json(v, sn, dn),
                        "name": name})
        else:
            raise InternalError(f"unknown block kind {kind!r}")
    return in_emitted_form(_cjson({"format": "finstack/1", "blocks": out}))


def in_emitted_form(body):
    """A document as `serialize_blocks` writes it, from `body`, the compact
    sorted text of its blocks and format: the digest member goes in before
    the tail."""
    digest = "sha256:" + hashlib.sha256(body.encode("utf-8")).hexdigest()
    return f'{body[:-len(_TAIL)]},"digest":"{digest}"{_TAIL}\n'


def load_outcome(text, full_parse=False):
    """The diagnostics, findings and written-back bytes of loading `text`,
    or the writer's `ValueError` in place of the bytes; any other error of
    the writer, `RecursionError` included, propagates.  Both ways call
    `load_interchange` from this frame, so they meet the same stack depth."""
    with (mock.patch.object(dsl, "_parse", json.loads) if full_parse
          else contextlib.nullcontext()):
        env, diags = dsl.load_interchange(text)
    if env is None:
        return diags, None, None
    try:
        return diags, env.findings, dsl.serialize_env(env)
    except ValueError as e:
        return diags, env.findings, repr(e)
