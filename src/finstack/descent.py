"""Descent data over a sieve and the stack/prestack predicates.

A descent datum over a sieve R on X in an indexed category D picks an object
U_f of D(dom f) for every member f, together with coherence isos
coh[(f, g)] : D(g)(U_f) -> U_{f∘g} for every member f and every g into dom f,
subject to a cocycle identity and a normalization identity tying coh at
identities to the unitor.  Descent morphisms are member-wise fibre morphisms
compatible with the coherences.

`enumerate_data` lists the data over R in fibre order.  It chooses the
member objects by forward checking: a choice is dropped as soon as some
pair (f, g) has both ends chosen and no iso D(g)(U_f) -> U_{f∘g} exists.
Only the surviving choices are searched for coherences, so the cost
follows the choices that pass every pairwise check, not the whole product
of the member fibres.

The search for descent morphisms over one (D, R) is planned once (`_Plan`):
the members in stable order with their fibres, the coherence pairs, and one
square check per pair (f, g) carrying its fibre and D(g).  `desc_hom` asks
a plan once.  `desc_cat` builds one and joins its data on member objects:
the member hom-sets hom(a.obj[f], b.obj[f]) depend only on the member
objects, so they are found once per pair of member-object tuples, and a
pair of data with an empty one is not searched.  Every other pair is
searched on a budget of its own, in data × data order, so skipping a pair
can only keep a cap from tripping, never make one trip earlier.  The
data come in fibre order and the morphisms by a, then b, then their
components in hom order, which is the category's stable order, so it keeps
the order they are listed in.  A morphism's id lists its components in
the sieve's member order, which every caller of `mor_id` holds, so no
datum's sorted form or `ckey` is computed: not for D⁺, and not for D⁺⁺,
whose fibres are themselves descent categories built the same way.
`comparison` is the canonical functor D(X) -> Desc(R, D).  A prestack is an
indexed category whose comparison functors are all fully faithful, a stack
one whose comparison functors are all equivalences.

`glue` is the one search for an object whose comparison datum is
isomorphic to a given datum.  `is_stack` asks it of every datum, in fibre
order, on one plan per sieve, which its fullness check shares; the
factorization through the stackification unit (`stackify`) asks it of
every pushed datum over an object, in stable order, on one plan per object
and cover.  Callers compute the comparison data once per object and cover
and hand them in.

`is_prestack` and `is_stack` take J to be a Grothendieck topology and
decide on G = `least_cover_pullbacks(J)`: the pullbacks h*(M_x) of the
intersection M_x of the covers of x along every h : y -> x, sieves
containing id_y left out (they hold trivially).  This is exact.  For a
fixed D, the sieves R such that D satisfies descent on every pullback of R
form a Grothendieck topology, the largest for which D is a stack (Giraud,
*Cohomologie non abélienne*, 1971, ch. II; Vistoli, "Grothendieck
topologies, fibered categories and descent theory", 2005, §4.1; the same
holds for full faithfulness alone, and for the sheaf condition of a
set-valued presheaf, on which `stackify.sheafify_with_unit` checks its
output).  Passing on G puts every M_x in that
topology, and every cover of x contains M_x, so it is covered too.  Since J
is a topology, every sieve of G is a cover of J, so a failure on G is a
failing cover: the witness is the first failing sieve of G, and a cap
message is that of the search on G that tripped.  For a J that is not a
topology, the same decision is D's over the topology its least covers
generate.
"""

import weakref

from . import caps as _caps
from .fincat import Check, FinCat, Functor, InternalError
from .indexed import IndexedCat, IndexedFun
from .site import Sieve, Topology, least_cover_pullbacks
from .util import ckey, fmt, stable_sorted


# Hash-consing table: (obj items, coh items) -> the one live datum with them.
# Weak, so an entry lives only while something else holds its datum.
_interned = weakref.WeakValueDictionary()


class DescentDatum:
    """Member objects `obj` and coherence isos `coh` of one descent datum.

    Data are hash-consed: constructing a datum equal to a live one (same
    items, in any insertion order) returns that object, so equality is
    identity and ids nesting data hash and compare without calling back into
    Python.  The sorted form `_key` and the canonical key `_ckey()` are
    computed on first use and kept, so once per distinct datum; only
    serialization and `repr` read them, since construction takes member
    order from the sieve.  `obj` and `coh` must not be mutated."""

    __slots__ = ("obj", "coh", "_sorted", "_ck", "__weakref__")

    def __new__(cls, obj, coh):
        obj, coh = dict(obj), dict(coh)
        key = (frozenset(obj.items()), frozenset(coh.items()))
        self = _interned.get(key)
        if self is None:
            self = super().__new__(cls)
            self.obj, self.coh = obj, coh
            self._sorted = self._ck = None
            _interned[key] = self
        return self

    def __reduce__(self):
        # Copies and unpickled data are interned like any other.
        return (DescentDatum, (self.obj, self.coh))

    @property
    def _key(self):
        """(obj pairs, coh pairs), each in `ckey` order of its keys."""
        if self._sorted is None:
            self._sorted = (
                tuple((f, self.obj[f]) for f in stable_sorted(self.obj)),
                tuple((p, self.coh[p]) for p in stable_sorted(self.coh)),
            )
        return self._sorted

    def _ckey(self):
        if self._ck is None:
            self._ck = ckey(self._key)
        return self._ck

    def __repr__(self):
        parts = ", ".join(f"{fmt(f)}↦{fmt(o)}" for f, o in self._key[0][:4])
        more = "…" if len(self._key[0]) > 4 else ""
        return f"<DescentDatum {parts}{more}>"


def coh_pairs(D: IndexedCat, R: Sieve):
    """All (f, g) with f a member and g into dom f, in stable order."""
    base = D.base
    out = []
    for f in R.members():
        for g in base.into(base.dom(f)):
            out.append((f, g))
    return out


def enumerate_data(D: IndexedCat, R: Sieve, caps: _caps.Caps = _caps.DEFAULT):
    """All descent data over R, in fibre order.  Member objects are chosen
    by forward checking (`caps.pruned_product`): pair (f, g) reads obj[f]
    and obj[f∘g], and a choice is dropped when no iso D(g)(obj[f]) ->
    obj[f∘g] exists.  Coherence isos are then found for each surviving
    choice by `caps.search`: normalization fixes the pool at each identity
    pair, and each cocycle triple reads its three coherences.  One caps
    budget covers both phases: a node per dropped choice and per coherence
    position entered, never more than searching every choice in the full
    product would spend."""
    base = D.base
    members = R.members()
    pairs = coh_pairs(D, R)
    at = {p: i for i, p in enumerate(pairs)}
    pos = {f: i for i, f in enumerate(members)}

    # At an identity the unitor is an iso, so those pairs link nothing.
    links = []
    for f, g in pairs:
        if not base.is_id(g):
            jf, jfg = pos[f], pos[base.compose(f, g)]
            links.append(((jf, jfg), (g, jf, jfg)))

    def linked(link, a):
        g, jf, jfg = link
        fib = D.fib[base.dom(g)]
        return fib.iso_between(D.res[g].ob(a[jf]), a[jfg]) is not None

    cocycles = []
    for f in members:
        for g in base.into(base.dom(f)):
            fg = base.compose(f, g)
            for h in base.into(base.dom(g)):
                gh = base.compose(g, h)
                keys = (at[(f, gh)], at[(fg, h)], at[(f, g)])
                cocycles.append((keys, (f, g, h, *keys)))

    def isos(f, g):
        y = base.dom(g)
        fib = D.fib[y]
        src = D.res[g].ob(obj[f])
        dst = obj[base.compose(f, g)]
        if base.is_id(g):
            m = fib.inverse(D.unit(y, obj[f]))
            return [m] if m is not None and fib.mor[m] == (src, dst) else []
        return [m for m in fib.hom(src, dst) if fib.is_iso(m)]

    def cocycle(c, coh):
        f, g, h, fgh, fg_h, f_g = c
        fib = D.fib[base.dom(h)]
        lhs = fib.compose(coh[fgh], D.gamma(g, h, obj[f]))
        return lhs == fib.compose(coh[fg_h], D.res[h].mo(coh[f_g]))

    out = []
    budget = _caps.Budget(caps)
    objects = [D.fib[base.dom(f)].objects for f in members]
    for choice in _caps.pruned_product(objects, links, linked, budget):
        obj = dict(zip(members, choice))
        pools = [isos(f, g) for f, g in pairs]
        for coh in _caps.search(pools, cocycles, cocycle, budget):
            out.append(DescentDatum(obj, zip(pairs, coh)))
    _caps.check(len(out), caps, "max_descent", "descent data count")
    return out


class _Plan:
    """What the descent-morphism search over one (D, R) shares across pairs
    of data: the members in stable order with their fibres, the coherence
    pairs, and one square check per pair (f, g), which carries its fibre
    D(dom g) and restriction D(g) and reads the components at f and f∘g.
    A morphism found is the tuple of its components in member order."""

    __slots__ = ("members", "fibs", "pairs", "squares")

    def __init__(self, D: IndexedCat, R: Sieve):
        base = D.base
        self.members = R.members()
        self.fibs = [D.fib[base.dom(f)] for f in self.members]
        self.pairs = coh_pairs(D, R)
        at = {f: i for i, f in enumerate(self.members)}
        self.squares = []
        for p in self.pairs:
            f, g = p
            jf, jfg = at[f], at[base.compose(f, g)]
            check = (D.fib[base.dom(g)], D.res[g], p, jf, jfg)
            self.squares.append(((jf, jfg), check))

    def objects(self, a):
        """The member objects of datum `a`, in member order."""
        return tuple(a.obj[f] for f in self.members)

    def pools(self, xs, ys):
        """The member hom-sets hom(xs[i], ys[i]) between two tuples of
        member objects."""
        return [fib.hom(x, y) for fib, x, y in zip(self.fibs, xs, ys)]

    def search(self, a, b, pools, caps):
        """Every descent morphism a -> b with components drawn from `pools`,
        by one `caps.search` on a budget of its own."""

        def commutes(c, comp):
            fib, res, p, jf, jfg = c
            return (fib.compose(b.coh[p], res.mo(comp[jf]))
                    == fib.compose(comp[jfg], a.coh[p]))

        found = _caps.search(pools, self.squares, commutes, _caps.Budget(caps))
        return [tuple(comp) for comp in found]

    def homs(self, a, b, caps):
        """`search` over the member hom-sets; [] at once, with no node
        spent, when one of them is empty."""
        pools = self.pools(self.objects(a), self.objects(b))
        return self.search(a, b, pools, caps) if all(pools) else []


def desc_hom(D: IndexedCat, R: Sieve, a: DescentDatum, b: DescentDatum,
             caps: _caps.Caps = _caps.DEFAULT):
    """All descent morphisms a -> b, as dicts member -> fibre morphism, by
    `caps.search` over the fibre homs: the square of pair (f, g) reads the
    components at f and f∘g.  An empty member hom-set is searched like any
    other, so the nodes spent are the schedule's."""
    plan = _Plan(D, R)
    pools = plan.pools(plan.objects(a), plan.objects(b))
    return [dict(zip(plan.members, comp))
            for comp in plan.search(a, b, pools, caps)]


def mor_id(a: DescentDatum, b: DescentDatum, comp, members):
    """Id of the descent morphism a -> b with components `comp` (a dict
    member -> fibre morphism), listed in `members`, the sieve's members in
    stable order (`Sieve.members()`)."""
    return (a, b, tuple((f, comp[f]) for f in members))


def mor_components(mid):
    return dict(mid[2])


def desc_cat(D: IndexedCat, R: Sieve, caps: _caps.Caps = _caps.DEFAULT) -> FinCat:
    """The descent category Desc(R, D), enumerated in full and validated by
    construction: composition is member-wise in the fibres.

    The pairs of data are joined on member objects: the member hom-sets of
    (a, b) depend only on the member objects of a and b, so they are found
    once per pair of member-object tuples, and a pair with an empty one is
    not searched.  Every other pair is searched as `desc_hom` would, on a
    budget of its own, in data × data order.  The ids come in stable order:
    the data in fibre order, and `mor` by a, then b, then components in hom
    order."""
    data = enumerate_data(D, R, caps)
    plan = _Plan(D, R)
    members, fibs = plan.members, plan.fibs

    # `enumerate_data` lists the data of one member-object choice together,
    # so walking the groups in order walks the data in order.
    groups = {}
    for a in data:
        groups.setdefault(plan.objects(a), []).append(a)
    mor = {}
    for oa, ga in groups.items():
        row = []
        for ob, gb in groups.items():
            pools = plan.pools(oa, ob)
            if all(pools):
                row.append((gb, pools))
        for a in ga:
            for gb, pools in row:
                for b in gb:
                    for comp in plan.search(a, b, pools, caps):
                        mor[(a, b, tuple(zip(members, comp)))] = (a, b)
    ident = {}
    for a in data:
        comp = {f: fib.ident[a.obj[f]] for f, fib in zip(members, fibs)}
        mid = mor_id(a, a, comp, members)
        if mid not in mor:
            raise InternalError("identity descent morphism not enumerated")
        ident[a] = mid

    def compose(m2, m1):
        return (m1[0], m2[1], tuple(
            (f, fib.compose(g, h))
            for fib, (f, g), (_, h) in zip(fibs, m2[2], m1[2])
        ))

    return FinCat.from_homs(
        data, mor, ident, compose, name=f"Desc({fmt(R.target)})")


def comparison_datum(D: IndexedCat, R: Sieve, V) -> DescentDatum:
    """Image of V ∈ D(X) under the comparison: restrict along every member,
    with coherence given by the compositors."""
    obj = {f: D.res[f].ob(V) for f in R.mors}
    coh = {}
    for (f, g) in coh_pairs(D, R):
        coh[(f, g)] = D.gamma(f, g, V)
    return DescentDatum(obj, coh)


def comparison(D: IndexedCat, R: Sieve, desc: FinCat) -> Functor:
    """Canonical functor D(X) -> Desc(R, D) into an already-built descent
    category."""
    X = R.target
    fx = D.fib[X]
    omap = {V: comparison_datum(D, R, V) for V in fx.objects}
    members = R.members()
    mmap = {}
    for m, (V, W) in fx.mor.items():
        comp = {f: D.res[f].mo(m) for f in members}
        mid = mor_id(omap[V], omap[W], comp, members)
        if mid not in desc.mor:
            raise InternalError("comparison image is not a descent morphism")
        mmap[m] = mid
    return Functor(fx, desc, omap, mmap, name=f"cmp({fmt(X)})")


def restrict_datum(D: IndexedCat, a: DescentDatum, y, S: Sieve) -> DescentDatum:
    """Pull a datum over R on X back to one over S ⊆ y*(R) on Y = dom y."""
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
    for (g, h) in coh_pairs(D, S):
        coh[(g, h)] = a.coh[(base.compose(y, g), h)]
    return DescentDatum(obj, coh)


def push_datum(F: IndexedFun, R: Sieve, a: DescentDatum) -> DescentDatum:
    """Image of a datum under an indexed functor; coherences are corrected by
    the (inverted) pseudonaturality cells."""
    D, E = F.D, F.E
    base = D.base
    obj = {f: F.comp[base.dom(f)].ob(a.obj[f]) for f in a.obj}
    coh = {}
    for (f, g) in coh_pairs(D, R):
        y = base.dom(g)
        fib = E.fib[y]
        cell = F.cell[g][a.obj[f]]
        coh[(f, g)] = fib.compose(
            F.comp[y].mo(a.coh[(f, g)]), fib.inverse(cell)
        )
    return DescentDatum(obj, coh)


def push_mor(F: IndexedFun, comp):
    """Member-wise image of a descent morphism's components."""
    base = F.D.base
    return {f: F.comp[base.dom(f)].mo(m) for f, m in comp.items()}


def glue(D: IndexedCat, R: Sieve, cmp, data, caps: _caps.Caps = _caps.DEFAULT):
    """For each descent datum `a` of `data` in turn, the first (V, dm) among
    the (V, comparison datum of V) pairs `cmp`, in the caller's order, with
    dm an invertible descent morphism from V's comparison datum to `a`;
    None when `a` glues to none of them.  One plan of (D, R) serves every
    datum."""
    plan = _Plan(D, R)
    for a in data:
        yield _glue(plan, cmp, a, caps)


def _glue(plan, cmp, a, caps):
    """`glue` on the plan of its (D, R)."""
    for V, cv in cmp:
        for comp in plan.homs(cv, a, caps):
            if all(fib.is_iso(m) for fib, m in zip(plan.fibs, comp)):
                return V, dict(zip(plan.members, comp))
    return None


def _ff_at(D, R, plan, caps):
    """(Full faithfulness of the comparison over R, as a Check; the
    comparison datum of every V in D(X), as a dict V -> datum), X the
    target of R and `plan` that of (D, R)."""
    X = R.target
    fx = D.fib[X]
    cmp = {V: comparison_datum(D, R, V) for V in fx.objects}
    members = plan.members
    for V in fx.objects:
        for W in fx.objects:
            image = {}
            for m in fx.hom(V, W):
                comp = tuple((f, D.res[f].mo(m)) for f in members)
                if comp in image:
                    return Check(
                        False,
                        f"comparison not faithful on hom({fmt(V)},{fmt(W)}) "
                        f"over {fmt(X)}",
                        witness=(X, R, image[comp], m),
                    ), cmp
                image[comp] = m
            for comp in plan.homs(cmp[V], cmp[W], caps):
                key = tuple(zip(members, comp))
                if key not in image:
                    return Check(
                        False,
                        f"comparison not full on hom({fmt(V)},{fmt(W)}) over "
                        f"{fmt(X)}: a descent morphism has no preimage",
                        witness=(X, R, dict(key)),
                    ), cmp
    return Check(True, "comparison fully faithful"), cmp


def _glues_at(D, R, plan, cmp, caps) -> Check:
    """Whether every descent datum over R glues to an object of D(X), given
    the plan of (D, R) and the comparison datum `cmp[V]` of every V in
    D(X), X the target of R."""
    for a in enumerate_data(D, R, caps):
        if _glue(plan, cmp.items(), a, caps) is None:
            return Check(
                False,
                f"a descent datum over {fmt(R.target)} does not glue",
                witness=(R.target, R, a),
            )
    return Check(True, "glues")


def _descent(D: IndexedCat, J: Topology, caps, gluing: bool) -> Check:
    """Whether the comparison is fully faithful (and, with `gluing`,
    essentially surjective) over every sieve of `least_cover_pullbacks(J)`;
    if not, the first failure.

    Full faithfulness runs on every sieve first, in that order; gluing then
    runs on the same sieves in the same order, on each sieve's plan and
    comparison data.  A cap on any of them propagates."""
    done = []
    for R in least_cover_pullbacks(J):
        plan = _Plan(D, R)
        c, cmp = _ff_at(D, R, plan, caps)
        if not c:
            return c
        done.append((R, plan, cmp))
    if gluing:
        for R, plan, cmp in done:
            c = _glues_at(D, R, plan, cmp, caps)
            if not c:
                return c
    return Check(True, "stack" if gluing else "prestack")


def is_prestack(D: IndexedCat, J: Topology, caps: _caps.Caps = _caps.DEFAULT) -> Check:
    """Comparison fully faithful for every covering sieve of J, a
    Grothendieck topology.  For any other listed J, this decides D over the
    topology generated by the least covers, `saturate(c, {x: [∩
    J.covers[x]]})`.  A failure names the first sieve of
    `least_cover_pullbacks(J)` on which it fails."""
    return _descent(D, J, caps, False)


def is_stack(D: IndexedCat, J: Topology, caps: _caps.Caps = _caps.DEFAULT) -> Check:
    """Comparison an equivalence for every covering sieve of J, a
    Grothendieck topology: fully faithful and every descent datum isomorphic
    to a restriction.  For any other listed J, this decides D over the
    topology generated by the least covers, `saturate(c, {x: [∩
    J.covers[x]]})`.  A failure names the first sieve of
    `least_cover_pullbacks(J)` on which full faithfulness fails or, if it
    holds on all of them, the first on which gluing fails."""
    return _descent(D, J, caps, True)
