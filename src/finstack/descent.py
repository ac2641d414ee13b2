"""Descent data over a sieve and the stack/prestack predicates.

A descent datum over a sieve R on X in an indexed category D picks an object
U_f of D(dom f) for every member f, together with coherence isos
coh[(f, g)] : D(g)(U_f) -> U_{f∘g} for every member f and every g into dom f,
subject to a cocycle identity and a normalization identity tying coh at
identities to the unitor.  Descent morphisms are member-wise fibre morphisms
compatible with the coherences.

`desc_cat` enumerates the whole descent category by backtracking;
`comparison` is the canonical functor D(X) -> Desc(R, D).  A prestack is an
indexed category whose comparison functors are all fully faithful, a stack
one whose comparison functors are all equivalences.
"""

from itertools import product as iproduct

from . import caps as _caps
from .fincat import Check, FinCat, Functor, InternalError
from .indexed import IndexedCat, IndexedFun
from .site import Sieve, Topology
from .util import ckey, fmt, stable_sorted


class DescentDatum:
    """Member objects `obj` and coherence isos `coh` of one descent datum.

    Equality and hash ignore insertion order.  The sorted form `_key` and the
    canonical key `_ckey()` are computed on first use and then kept."""

    __slots__ = ("obj", "coh", "_hash", "_sorted", "_ck")

    def __init__(self, obj, coh):
        self.obj = dict(obj)
        self.coh = dict(coh)
        self._hash = hash(
            (frozenset(self.obj.items()), frozenset(self.coh.items()))
        )
        self._sorted = self._ck = None

    def __eq__(self, other):
        if not isinstance(other, DescentDatum):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.obj == other.obj
            and self.coh == other.coh
        )

    def __hash__(self):
        return self._hash

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


def validate_datum(D: IndexedCat, R: Sieve, a: DescentDatum) -> list:
    base = D.base
    errs = []
    for f in R.mors:
        if f not in a.obj:
            return [f"no object assigned at {fmt(f)}"]
        if a.obj[f] not in set(D.fib[base.dom(f)].objects):
            return [f"object at {fmt(f)} not in its fibre"]
    for (f, g) in coh_pairs(D, R):
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
    for f in R.mors:
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


def enumerate_data(D: IndexedCat, R: Sieve, caps: _caps.Caps = _caps.DEFAULT):
    """All descent data over R: each choice of member objects in turn, then
    coherence isos by backtracking, pruning with normalization and the
    cocycle.  One caps budget covers all member choices."""
    base = D.base
    members = R.members()
    pairs = coh_pairs(D, R)
    at = {p: i for i, p in enumerate(pairs)}

    # Cocycle triples with the positions of their three coherence keys,
    # filed under the last of them to be assigned.
    closing = {}
    for f in members:
        for g in base.into(base.dom(f)):
            fg = base.compose(f, g)
            for h in base.into(base.dom(g)):
                gh = base.compose(g, h)
                keys = (at[(f, gh)], at[(fg, h)], at[(f, g)])
                closing.setdefault(max(keys), []).append((f, g, h, *keys))

    def cands(i, coh):
        f, g = pairs[i]
        y = base.dom(g)
        fib = D.fib[y]
        src = D.res[g].ob(obj[f])
        dst = obj[base.compose(f, g)]
        if base.is_id(g):
            m = fib.inverse(D.unit(y, obj[f]))
            return [m] if m is not None and fib.mor[m] == (src, dst) else []
        return [m for m in fib.hom(src, dst) if fib.is_iso(m)]

    def fits(i, coh):
        for f, g, h, fgh, fg_h, f_g in closing.get(i, ()):
            fib = D.fib[base.dom(h)]
            lhs = fib.compose(coh[fgh], D.gamma(g, h, obj[f]))
            rhs = fib.compose(coh[fg_h], D.res[h].mo(coh[f_g]))
            if lhs != rhs:
                return False
        return True

    out = []
    budget = _caps.Budget(caps)
    for combo in iproduct(*(D.fib[base.dom(f)].objects for f in members)):
        obj = dict(zip(members, combo))
        for coh in _caps.search(len(pairs), cands, fits, budget):
            out.append(DescentDatum(obj, zip(pairs, coh)))
    _caps.check(len(out), caps, "max_descent", "descent data count")
    return out


def desc_hom(D: IndexedCat, R: Sieve, a: DescentDatum, b: DescentDatum,
             caps: _caps.Caps = _caps.DEFAULT):
    """All descent morphisms a -> b, as dicts member -> fibre morphism."""
    base = D.base
    members = R.members()
    at = {f: i for i, f in enumerate(members)}
    # Constraint (f, g) closes once comp[f] and comp[f∘g] are both known.
    closing = {}
    for (f, g) in coh_pairs(D, R):
        fg = base.compose(f, g)
        closing.setdefault(max(at[f], at[fg]), []).append((f, g, at[f], at[fg]))

    def cands(j, comp):
        f = members[j]
        return D.fib[base.dom(f)].hom(a.obj[f], b.obj[f])

    def fits(j, comp):
        for f, g, jf, jfg in closing.get(j, ()):
            fib = D.fib[base.dom(g)]
            lhs = fib.compose(b.coh[(f, g)], D.res[g].mo(comp[jf]))
            rhs = fib.compose(comp[jfg], a.coh[(f, g)])
            if lhs != rhs:
                return False
        return True

    return [
        dict(zip(members, comp))
        for comp in _caps.search(len(members), cands, fits, _caps.Budget(caps))
    ]


def mor_id(a: DescentDatum, b: DescentDatum, comp):
    """Id of the descent morphism a -> b with components `comp`, whose keys
    are the members of `a`, listed in `a`'s member order."""
    return (a, b, tuple((f, comp[f]) for f, _ in a._key[0]))


def mor_components(mid):
    return dict(mid[2])


def desc_cat(D: IndexedCat, R: Sieve, caps: _caps.Caps = _caps.DEFAULT) -> FinCat:
    """The descent category Desc(R, D), enumerated in full and validated by
    construction: composition is member-wise in the fibres."""
    base = D.base
    data = enumerate_data(D, R, caps)
    members = R.members()
    mor = {}
    for a in data:
        for b in data:
            for comp in desc_hom(D, R, a, b, caps):
                mor[mor_id(a, b, comp)] = (a, b)
    ident = {}
    for a in data:
        comp = {f: D.fib[base.dom(f)].ident[a.obj[f]] for f in members}
        mid = mor_id(a, a, comp)
        if mid not in mor:
            raise InternalError("identity descent morphism not enumerated")
        ident[a] = mid
    parts = {mid: mor_components(mid) for mid in mor}

    def compose(m2, m1):
        c2, c1 = parts[m2], parts[m1]
        comp = {f: D.fib[base.dom(f)].compose(c2[f], c1[f]) for f in members}
        return mor_id(m1[0], m2[1], comp)

    return FinCat.from_homs(
        tuple(data), mor, ident, compose, name=f"Desc({fmt(R.target)})"
    )


def comparison_datum(D: IndexedCat, R: Sieve, V) -> DescentDatum:
    """Image of V ∈ D(X) under the comparison: restrict along every member,
    with coherence given by the compositors."""
    base = D.base
    obj = {f: D.res[f].ob(V) for f in R.mors}
    coh = {}
    for (f, g) in coh_pairs(D, R):
        coh[(f, g)] = D.gamma(f, g, V)
    return DescentDatum(obj, coh)


def comparison(D: IndexedCat, R: Sieve, desc: FinCat,
               caps: _caps.Caps = _caps.DEFAULT) -> Functor:
    """Canonical functor D(X) -> Desc(R, D) into an already-built descent
    category."""
    base = D.base
    X = R.target
    fx = D.fib[X]
    omap = {V: comparison_datum(D, R, V) for V in fx.objects}
    mmap = {}
    for m, (V, W) in fx.mor.items():
        comp = {f: D.res[f].mo(m) for f in R.mors}
        mid = mor_id(omap[V], omap[W], comp)
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


def _comparison_ff_at(D, J, X, R, caps) -> Check:
    base = D.base
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


def is_prestack(D: IndexedCat, J: Topology, caps: _caps.Caps = _caps.DEFAULT) -> Check:
    """Comparison fully faithful for every covering sieve."""
    for X in stable_sorted(D.base.objects):
        for R in J.covers_of(X):
            c = _comparison_ff_at(D, J, X, R, caps)
            if not c:
                return c
    return Check(True, "prestack")


def _iso_matching(D, R, a, b, caps) -> bool:
    base = D.base
    for dm in desc_hom(D, R, a, b, caps):
        if all(D.fib[base.dom(f)].is_iso(m) for f, m in dm.items()):
            return True
    return False


def is_stack(D: IndexedCat, J: Topology, caps: _caps.Caps = _caps.DEFAULT) -> Check:
    """Comparison an equivalence for every covering sieve: fully faithful and
    every descent datum isomorphic to a restriction."""
    pre = is_prestack(D, J, caps)
    if not pre:
        return pre
    for X in stable_sorted(D.base.objects):
        fx = D.fib[X]
        for R in J.covers_of(X):
            for a in enumerate_data(D, R, caps):
                hit = False
                for V in fx.objects:
                    if _iso_matching(D, R, comparison_datum(D, R, V), a, caps):
                        hit = True
                        break
                if not hit:
                    return Check(
                        False,
                        f"a descent datum over {fmt(X)} does not glue",
                        witness=(X, R, a),
                    )
    return Check(True, "stack")
