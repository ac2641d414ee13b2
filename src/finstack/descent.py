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

The shape of descent over one (D, R) is worked out once, in its `Plan`:
the members in stable order with their fibres, the coherence pairs and
their positions, one square check per pair (f, g) carrying its fibre and
D(g), and the id of a descent morphism, whose components are a tuple in
member order from the search that finds them to the id.  Every descent
construction takes the plan in place of (D, R); `restrict_datum` and
`push_datum` take the plan they land on.  `desc_cat` joins its data on
member objects: the member hom-sets hom(a.obj[f], b.obj[f]) depend only
on the member objects, so they are found once per pair of member-object
tuples, and a pair of data with an empty one is not searched.  Every other
pair is searched on a budget of its own, in data × data order, so
skipping a pair can only keep a cap from tripping, never make one trip
earlier.  The data come in fibre order and the morphisms by a, then b,
then their components in hom order, which is the category's stable order,
so it keeps the order they are listed in.  Since member order comes from
the sieve, no datum's sorted form or `ckey` is computed: not for D⁺, and
not for D⁺⁺, whose fibres are themselves descent categories built the same
way.  `comparison` is the canonical functor D(X) -> Desc(R, D).  A
prestack is an indexed category whose comparison functors are all fully
faithful, a stack one whose comparison functors are all equivalences.

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


class Plan:
    """The shape of descent over one (D, R), worked out once: the members
    of R in stable order with their domains and fibres, the coherence pairs
    (f, g), f a member and g into dom f, in stable order with their
    positions, and one square check per pair, which carries its fibre
    D(dom g) and restriction D(g) and reads the member positions of f and
    f∘g.  Every descent construction over (D, R) takes the plan.

    The components of a descent morphism are a tuple in member order, from
    the search that finds them to the id that names them, `(a, b, ((f,
    component at f), …))`.  Only `mor_id` and `compose` build an id and only
    `components` reads one."""

    __slots__ = ("D", "R", "members", "doms", "fibs", "at", "pairs",
                 "pair_at", "squares")

    def __init__(self, D: IndexedCat, R: Sieve):
        base = D.base
        self.D, self.R = D, R
        self.members = R.members()
        self.doms = [base.dom(f) for f in self.members]
        self.fibs = [D.fib[y] for y in self.doms]
        self.at = {f: i for i, f in enumerate(self.members)}
        self.pairs, self.squares = [], []
        for jf, (f, y) in enumerate(zip(self.members, self.doms)):
            for g in base.into(y):
                p, jfg = (f, g), self.at[base.compose(f, g)]
                self.pairs.append(p)
                check = (D.fib[base.dom(g)], D.res[g], p, jf, jfg)
                self.squares.append(((jf, jfg), check))
        self.pair_at = {p: i for i, p in enumerate(self.pairs)}

    def along(self, y, src):
        """The position in `src`'s members of y∘g for each member g of this
        plan, or None when some y∘g is not a member of `src`'s sieve."""
        base = self.D.base
        out = [src.at.get(base.compose(y, g)) for g in self.members]
        return None if None in out else out

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

    def mor_id(self, a, b, comp):
        """Id of the descent morphism a -> b with components `comp`."""
        return (a, b, tuple(zip(self.members, comp)))

    @staticmethod
    def components(mid):
        """The components of the descent morphism with id `mid`."""
        return [m for _, m in mid[2]]

    def compose(self, m2, m1):
        """Id of the composite m2 ∘ m1: member-wise in the fibres."""
        return (m1[0], m2[1], tuple(
            (f, fib.compose(g, h))
            for fib, (f, g), (_, h) in zip(self.fibs, m2[2], m1[2])
        ))

    def comparison_mor(self, m):
        """The components of the comparison image of m, a morphism of D(X),
        X the target: m restricted along every member."""
        res = self.D.res
        return tuple(res[f].mo(m) for f in self.members)

    def pushed(self, F: IndexedFun, comp):
        """The components of the image under F, an indexed functor out of
        D, of a descent morphism with components `comp`."""
        return [F.comp[y].mo(m) for y, m in zip(self.doms, comp)]


def enumerate_data(plan: Plan, caps: _caps.Caps = _caps.DEFAULT):
    """All descent data over the plan's (D, R), in fibre order.  Member
    objects are chosen by forward checking (`caps.pruned_product`): the
    square of pair (f, g) reads obj[f] and obj[f∘g], and a choice is
    dropped when no iso D(g)(obj[f]) -> obj[f∘g] exists.  Coherence isos
    are then found for each surviving choice by `caps.search`:
    normalization fixes the pool at each identity pair, and each cocycle
    reads its three coherences.  One caps budget covers both phases: a
    node per dropped choice and per coherence position entered, never more
    than searching every choice in the full product would spend."""
    D = plan.D
    base = D.base
    members, pairs = plan.members, plan.pairs

    # At an identity the unitor is an iso, so those pairs link nothing.
    links = [sq for sq, (_, g) in zip(plan.squares, pairs)
             if not base.is_id(g)]

    def linked(check, a):
        fib, res, _, jf, jfg = check
        return fib.iso_between(res.ob(a[jf]), a[jfg]) is not None

    def isos(check):
        fib, res, (f, g), _, _ = check
        src = res.ob(obj[f])
        dst = obj[base.compose(f, g)]
        if base.is_id(g):
            m = fib.inverse(D.unit(base.dom(g), obj[f]))
            return [m] if m is not None and fib.mor[m] == (src, dst) else []
        return [m for m in fib.hom(src, dst) if fib.is_iso(m)]

    def cocycle(c, coh):
        f, g, h, fgh, fg_h, f_g = c
        fib = D.fib[base.dom(h)]
        lhs = fib.compose(coh[fgh], D.gamma(g, h, obj[f]))
        return lhs == fib.compose(coh[fg_h], D.res[h].mo(coh[f_g]))

    at = plan.pair_at
    cocycles = []
    for f, g in pairs:
        fg = base.compose(f, g)
        for h in base.into(base.dom(g)):
            keys = (at[(f, base.compose(g, h))], at[(fg, h)], at[(f, g)])
            cocycles.append((keys, (f, g, h, *keys)))

    out = []
    budget = _caps.Budget(caps)
    objects = [fib.objects for fib in plan.fibs]
    for choice in _caps.pruned_product(objects, links, linked, budget):
        obj = dict(zip(members, choice))
        pools = [isos(check) for _, check in plan.squares]
        for coh in _caps.search(pools, cocycles, cocycle, budget):
            out.append(DescentDatum(obj, zip(pairs, coh)))
    _caps.check(len(out), caps, "max_descent", "descent data count")
    return out


def desc_hom(plan: Plan, a: DescentDatum, b: DescentDatum,
             caps: _caps.Caps = _caps.DEFAULT):
    """All descent morphisms a -> b, each the tuple of its components in
    member order, by `caps.search` over the fibre homs: the square of pair
    (f, g) reads the components at f and f∘g.  An empty member hom-set is
    searched like any other, so the nodes spent are the schedule's."""
    pools = plan.pools(plan.objects(a), plan.objects(b))
    return plan.search(a, b, pools, caps)


def desc_cat(plan: Plan, caps: _caps.Caps = _caps.DEFAULT) -> FinCat:
    """The descent category Desc(R, D) of the plan's (D, R), enumerated in
    full and validated by construction: composition is member-wise in the
    fibres.

    The pairs of data are joined on member objects: the member hom-sets of
    (a, b) depend only on the member objects of a and b, so they are found
    once per pair of member-object tuples, and a pair with an empty one is
    not searched.  Every other pair is searched as `desc_hom` would, on a
    budget of its own, in data × data order.  The ids come in stable order:
    the data in fibre order, and `mor` by a, then b, then components in hom
    order."""
    data = enumerate_data(plan, caps)

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
                        mor[plan.mor_id(a, b, comp)] = (a, b)
    ident = {}
    for a in data:
        mid = plan.mor_id(a, a, [fib.ident[x] for fib, x
                                 in zip(plan.fibs, plan.objects(a))])
        if mid not in mor:
            raise InternalError("identity descent morphism not enumerated")
        ident[a] = mid
    return FinCat.from_homs(data, mor, ident, plan.compose,
                            name=f"Desc({fmt(plan.R.target)})")


def comparison_datum(plan: Plan, V) -> DescentDatum:
    """Image of V ∈ D(X) under the comparison: restrict along every member,
    with coherence given by the compositors."""
    D = plan.D
    obj = {f: D.res[f].ob(V) for f in plan.members}
    coh = {(f, g): D.gamma(f, g, V) for f, g in plan.pairs}
    return DescentDatum(obj, coh)


def comparison(plan: Plan, desc: FinCat) -> Functor:
    """Canonical functor D(X) -> Desc(R, D) into an already-built descent
    category, (D, R) the plan's."""
    X = plan.R.target
    fx = plan.D.fib[X]
    omap = {V: comparison_datum(plan, V) for V in fx.objects}
    mmap = {}
    for m, (V, W) in fx.mor.items():
        mid = plan.mor_id(omap[V], omap[W], plan.comparison_mor(m))
        if mid not in desc.mor:
            raise InternalError("comparison image is not a descent morphism")
        mmap[m] = mid
    return Functor(fx, desc, omap, mmap, name=f"cmp({fmt(X)})")


def restrict_datum(plan: Plan, a: DescentDatum, y) -> DescentDatum:
    """Pull a datum over R on X back along y : Y -> X to one over the plan's
    sieve S ⊆ y*(R) on Y."""
    base = plan.D.base
    obj = {}
    for g in plan.members:
        yg = base.compose(y, g)
        if yg not in a.obj:
            raise InternalError(
                f"restriction escapes the datum: {fmt(y)}∘{fmt(g)} not a member"
            )
        obj[g] = a.obj[yg]
    coh = {(g, h): a.coh[(base.compose(y, g), h)] for g, h in plan.pairs}
    return DescentDatum(obj, coh)


def push_datum(F: IndexedFun, plan: Plan, a: DescentDatum) -> DescentDatum:
    """Image of a datum over the plan's (F.D, R) under the indexed functor F;
    coherences are corrected by the (inverted) pseudonaturality cells."""
    base = plan.D.base
    obj = {f: F.comp[y].ob(a.obj[f]) for f, y in zip(plan.members, plan.doms)}
    coh = {}
    for p in plan.pairs:
        f, g = p
        y = base.dom(g)
        fib = F.E.fib[y]
        coh[p] = fib.compose(
            F.comp[y].mo(a.coh[p]), fib.inverse(F.cell[g][a.obj[f]])
        )
    return DescentDatum(obj, coh)


def glue(plan: Plan, cmp, data, caps: _caps.Caps = _caps.DEFAULT):
    """For each descent datum `a` of `data` in turn, the first (V, dm) among
    the (V, comparison datum of V) pairs `cmp`, in the caller's order, with
    dm an invertible descent morphism from V's comparison datum to `a`, as
    its components; None when `a` glues to none of them."""
    fibs = plan.fibs
    for a in data:
        yield next(((V, comp) for V, cv in cmp
                    for comp in plan.homs(cv, a, caps)
                    if all(fib.is_iso(m) for fib, m in zip(fibs, comp))),
                   None)


def _ff_at(plan, caps):
    """(Full faithfulness of the comparison over the plan's sieve R, as a
    Check; the comparison datum of every V in D(X), as a dict V -> datum),
    X the target of R."""
    R = plan.R
    X = R.target
    fx = plan.D.fib[X]
    cmp = {V: comparison_datum(plan, V) for V in fx.objects}
    for V in fx.objects:
        for W in fx.objects:
            image = {}
            for m in fx.hom(V, W):
                comp = plan.comparison_mor(m)
                if comp in image:
                    return Check(
                        False,
                        f"comparison not faithful on hom({fmt(V)},{fmt(W)}) "
                        f"over {fmt(X)}",
                        witness=(X, R, image[comp], m),
                    ), cmp
                image[comp] = m
            for comp in plan.homs(cmp[V], cmp[W], caps):
                if comp not in image:
                    return Check(
                        False,
                        f"comparison not full on hom({fmt(V)},{fmt(W)}) over "
                        f"{fmt(X)}: a descent morphism has no preimage",
                        witness=(X, R, dict(zip(plan.members, comp))),
                    ), cmp
    return Check(True, "comparison fully faithful"), cmp


def _glues_at(plan, cmp, caps) -> Check:
    """Whether every descent datum over the plan's sieve R glues to an
    object of D(X), given the comparison datum `cmp[V]` of every V in D(X),
    X the target of R."""
    data = enumerate_data(plan, caps)
    for a, hit in zip(data, glue(plan, cmp.items(), data, caps)):
        if hit is None:
            X = plan.R.target
            return Check(
                False,
                f"a descent datum over {fmt(X)} does not glue",
                witness=(X, plan.R, a),
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
        plan = Plan(D, R)
        c, cmp = _ff_at(plan, caps)
        if not c:
            return c
        done.append((plan, cmp))
    if gluing:
        for plan, cmp in done:
            c = _glues_at(plan, cmp, caps)
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
