"""Indexed categories: contravariant pseudofunctors into categories.

An `IndexedCat` D over a base C assigns a finite category D(X) to each object,
a restriction functor D(y) : D(X) -> D(Y) to each y : Y -> X, and carries the
coherence data explicitly: a compositor iso for every composable pair and a
unitor iso per object.  Nothing is assumed strict; strictness is just the
special case where all coherence components are identities.  One rule
gives them: a cell is the identity wherever the two sides it compares agree
on the object, and open elsewhere (`identity_coherence` for compositors and
unitors, `identity_cells` for an indexed functor's cells).  `strict_indexed`,
`strict_indexed_fun` and the site language build on it.

Conventions, fixed once and used everywhere:

  - compositor keys mirror composition-table keys: for a table entry (g, f)
    (meaning g∘f), compositor[(g, f)][V] : D(f)(D(g)(V)) -> D(g∘f)(V).
  - unitor[X][V] : V -> D(id_X)(V).
  - an indexed functor F : D -> E over the same base has a component functor
    per object and, for y : Y -> X, a cell
    cell[y][V] : F_Y(D(y)(V)) -> E(y)(F_X(V)).
  - unitors, compositors, cells and a transformation's components are each
    a family of fibre arrows c_V : P(V) -> Q(V), P and Q composites of
    fibre functors, and one check (`_fibre_arrows`) decides for every
    family that each arrow is there with those ends, invertible where the
    kind asks it, and natural in V.

`nu` folds compositors along a composable path, giving the canonical iso from
an iterated restriction to the restriction along the composite.  Every
structural isomorphism in the later modules is built from it rather than by
hand.
"""

from collections import Counter

from . import caps as _caps
from .fincat import (
    Check,
    FinCat,
    Functor,
    InternalError,
    all_nat_isos,
    compose_functors,
    discrete_cat,
    identity_functor,
    is_equivalence,
    product_cat,
    validate_fincat,
)
from .util import fmt, stable_sorted


class IndexedCat:
    # `_memo` is set only once a builder keeps a result here (`util.reused`).
    __slots__ = ("name", "base", "fib", "res", "compositor", "unitor", "_memo")

    def __init__(self, base, fib, res, compositor, unitor, name=""):
        self.name = name
        self.base = base
        self.fib = dict(fib)
        self.res = dict(res)
        self.compositor = {k: dict(v) for k, v in compositor.items()}
        self.unitor = {k: dict(v) for k, v in unitor.items()}

    def __repr__(self):
        return f"<IndexedCat {self.name or '?'} over {self.base!r}>"

    def gamma(self, g, f, V):
        """Component D(f)(D(g)(V)) -> D(g∘f)(V)."""
        return self.compositor[(g, f)][V]

    def unit(self, X, V):
        """Component V -> D(id_X)(V)."""
        return self.unitor[X][V]


def _identity_if_equal(fibre, W, W2):
    """The coherence rule: a cell W -> W2 is id_W if W2 is W, else None."""
    return fibre.ident[W] if W == W2 else None


def identity_coherence(base, fib, res):
    """The compositor and unitor of restrictions `res` by the coherence rule."""
    compositor = {
        (g, f): {V: _identity_if_equal(fib[base.dom(f)], res[f].ob(res[g].ob(V)),
                                       res[h].ob(V))
                 for V in fib[base.cod(g)].objects}
        for (g, f), h in base.table.items()
    }
    unitor = {
        X: {V: _identity_if_equal(fib[X], V, res[base.ident[X]].ob(V))
            for V in fib[X].objects}
        for X in base.objects
    }
    return compositor, unitor


def strict_indexed(base, fib, res, name="") -> IndexedCat:
    """Wrap strictly functorial data with identity coherence.

    Requires res[id] to be the identity functor and iterated restriction to
    agree with restriction along composites on the nose; checked here so a
    bad caller fails at construction, not during some later validation.
    """
    compositor, unitor = identity_coherence(base, fib, res)
    for X in base.objects:
        for V, m in unitor[X].items():
            if m is None:
                raise InternalError(f"res[id_{fmt(X)}] moves object {fmt(V)}")
        rid = res[base.ident[X]]
        for m in fib[X].mor:
            if rid.mo(m) != m:
                raise InternalError(f"res[id_{fmt(X)}] moves morphism {fmt(m)}")
    for (g, f), h in base.table.items():
        for V, m in compositor[(g, f)].items():
            if m is None:
                raise InternalError(
                    f"restriction not strict on ({fmt(g)},{fmt(f)}) at {fmt(V)}"
                )
        for m in fib[base.cod(g)].mor:
            if res[f].mo(res[g].mo(m)) != res[h].mo(m):
                raise InternalError(
                    f"restriction not strict on ({fmt(g)},{fmt(f)}) at morphism"
                )
    return IndexedCat(base, fib, res, compositor, unitor, name=name)


def _fibre_arrows(name, absent, families, invertible=False) -> list:
    """Findings on families of fibre arrows of one kind: unitors,
    compositors, an indexed functor's cells or a transformation's components.

    A family is (ids, src, dst, cells, P, Q): `cells[V] : P(V) -> Q(V)` in
    the fibre `dst` for each object V of the fibre `src`, natural in V, where
    P and Q are tuples of functors applied in order (`()` is the identity).
    `name` and `absent` are format strings over the `fmt` of `ids`, formatted
    only when there is a finding.  A family whose cells are None ends the
    check with `absent`.  Otherwise the typing findings (an arrow missing or
    with other ends, or, with `invertible`, not invertible) come sorted, and
    only when there are none, the sorted naturality findings."""
    seen, errs = [], []
    for fam in families:
        ids, src, dst, cells, P, Q = fam
        if cells is None:
            return [absent.format(*map(fmt, ids))]
        ends = dst.mor
        for V in src.objects:
            a = b = V
            for F in P:
                a = F.omap[a]
            for F in Q:
                b = F.omap[b]
            m = cells.get(V)
            if ends.get(m) != (a, b):
                errs.append(f"{name.format(*map(fmt, ids))} malformed at {fmt(V)}")
            elif invertible and not dst.is_iso(m):
                errs.append(f"{name.format(*map(fmt, ids))} not invertible at {fmt(V)}")
        seen.append(fam)
    if errs:
        return sorted(errs)
    for ids, src, dst, cells, P, Q in seen:
        compose = dst.compose
        for m, (V, W) in src.mor.items():
            a = b = m
            for F in P:
                a = F.mmap[a]
            for F in Q:
                b = F.mmap[b]
            if compose(cells[W], a) != compose(b, cells[V]):
                errs.append(f"{name.format(*map(fmt, ids))} not natural at {fmt(m)}")
    return sorted(errs)


def validate_indexed(D: IndexedCat, caps: _caps.Caps = _caps.DEFAULT) -> list:
    """All pseudofunctor-axiom violations, as strings.  The checks run in
    phases, and a phase with findings ends the validation.  Past the
    structural checks, which stop at the first gap, each phase checks every
    element and sorts its findings, so they do not follow the order the
    dicts were filled in."""
    base = D.base
    for X in base.objects:
        if X not in D.fib:
            return [f"no fibre over {fmt(X)}"]
        bad = validate_fincat(D.fib[X], caps)
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

    # Associativity: for composable y∘z∘w the two ways of collapsing agree;
    # a failing triple is reported at its least fibre object by text.
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
    # Unit: composing with an identity is absorbed by the unitor.
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


def path_composite(base: FinCat, X, path):
    """Composite in the base of a left-to-right composable path out of X."""
    if not path:
        return base.ident[X]
    c = path[0]
    for z in path[1:]:
        c = base.compose(c, z)
    return c


def nu(D: IndexedCat, X, path, V):
    """Canonical iso (D(p_n)∘...∘D(p_1))(V) -> D(p_1∘...∘p_n)(V).

    `path` is composable left to right starting at X: cod(path[0]) == X and
    cod(path[i+1]) == dom(path[i]).  Empty path gives the unitor at X.
    """
    if not path:
        return D.unitor[X][V]
    comp = path[0]
    m = D.fib[D.base.dom(comp)].ident[D.res[comp].ob(V)]
    for z in path[1:]:
        fz = D.fib[D.base.dom(z)]
        m = fz.compose(D.gamma(comp, z, V), D.res[z].mo(m))
        comp = D.base.compose(comp, z)
    return m


def path_cell(D: IndexedCat, X, p, q, V):
    """Canonical iso between two iterated restrictions with equal composite."""
    cp = path_composite(D.base, X, p)
    cq = path_composite(D.base, X, q)
    if cp != cq:
        raise InternalError(f"paths compose to {fmt(cp)} vs {fmt(cq)}")
    fib = D.fib[D.base.dom(cp)]
    return fib.compose(fib.inverse(nu(D, X, q, V)), nu(D, X, p, V))


class IndexedFun:
    """Pseudonatural functor between indexed categories over one base."""

    __slots__ = ("name", "D", "E", "comp", "cell")

    def __init__(self, D, E, comp, cell, name=""):
        self.name = name
        self.D = D
        self.E = E
        self.comp = dict(comp)
        self.cell = {y: dict(c) for y, c in cell.items()}

    def __repr__(self):
        return f"<IndexedFun {self.name or '?'}>"


def validate_indexed_fun(F: IndexedFun) -> list:
    """Pseudonaturality violations, as strings, in phases as in
    `validate_indexed`: past the structural checks, each phase checks every
    element and sorts its findings."""
    D, E = F.D, F.E
    base = D.base
    if E.base != base:
        return ["indexed functor endpoints live over different bases"]
    for X in base.objects:
        G = F.comp.get(X)
        if G is None:
            return [f"no component at {fmt(X)}"]
        src, dst = D.fib[X], E.fib[X]
        if G.src != src or G.dst != dst:
            return [f"component at {fmt(X)} has wrong endpoints"]
        bad = G.validate()
        if bad:
            return [f"component at {fmt(X)} not a functor: {bad[0]}"]

    errs = _fibre_arrows("cell along {}", "no cell along {}", (
        ((y,), D.fib[X], E.fib[Y], F.cell.get(y),
         (D.res[y], F.comp[Y]), (F.comp[X], E.res[y]))
        for y, (Y, X) in base.mor.items()), invertible=True)
    if errs:
        return errs

    for X in base.objects:
        fy = E.fib[X]
        for V in D.fib[X].objects:
            lhs = fy.compose(F.cell[base.ident[X]][V], F.comp[X].mo(D.unit(X, V)))
            if lhs != E.unit(X, F.comp[X].ob(V)):
                errs.append(f"unit coherence fails at {fmt(X)}, {fmt(V)}")

    for (g, f) in base.table:
        X = base.cod(g)
        Z = base.dom(f)
        fz = E.fib[Z]
        for V in D.fib[X].objects:
            one = fz.compose(
                F.cell[base.table[(g, f)]][V], F.comp[Z].mo(D.gamma(g, f, V))
            )
            two = fz.compose(
                E.gamma(g, f, F.comp[X].ob(V)),
                fz.compose(
                    E.res[f].mo(F.cell[g][V]),
                    F.cell[f][D.res[g].ob(V)],
                ),
            )
            if one != two:
                errs.append(
                    f"composition coherence fails for ({fmt(g)},{fmt(f)}) at {fmt(V)}"
                )
    return sorted(errs)


def identity_cells(D, E, comp):
    """The cells of components `comp` from D to E by the coherence rule."""
    return {
        y: {V: _identity_if_equal(E.fib[Y], comp[Y].ob(D.res[y].ob(V)),
                                  E.res[y].ob(comp[X].ob(V)))
            for V in D.fib[X].objects}
        for y, (Y, X) in D.base.mor.items()
    }


def strict_indexed_fun(D, E, comp, name="") -> IndexedFun:
    """Indexed functor with identity cells; components must commute with
    restriction on the nose."""
    cell = identity_cells(D, E, comp)
    for y, cy in cell.items():
        for V, m in cy.items():
            if m is None:
                raise InternalError(f"components not strict along {fmt(y)} at {fmt(V)}")
    return IndexedFun(D, E, comp, cell, name=name)


def identity_indexed_fun(D: IndexedCat) -> IndexedFun:
    return strict_indexed_fun(
        D, D, {X: identity_functor(D.fib[X]) for X in D.base.objects}, name="Id"
    )


def compose_indexed_funs(G: IndexedFun, F: IndexedFun) -> IndexedFun:
    """G after F; cells paste in the usual way."""
    if F.E is not G.D:
        raise InternalError("indexed functors not composable")
    comp = {
        X: compose_functors(G.comp[X], F.comp[X]) for X in F.D.base.objects
    }
    cell = {}
    for y, (Y, X) in F.D.base.mor.items():
        cy = {}
        for V in F.D.fib[X].objects:
            cy[V] = G.E.fib[Y].compose(
                G.cell[y][F.comp[X].ob(V)],
                G.comp[Y].mo(F.cell[y][V]),
            )
        cell[y] = cy
    return IndexedFun(F.D, G.E, comp, cell, name=f"{G.name}∘{F.name}" if G.name and F.name else "")


class IndexedNat:
    """Transformation between parallel indexed functors: a natural
    transformation per object, coherent with the cells."""

    __slots__ = ("F", "G", "comp")

    def __init__(self, F, G, comp):
        self.F = F
        self.G = G
        self.comp = {X: dict(c) for X, c in comp.items()}


def _incoherent(F, G, y, tY, tX):
    """The objects V over cod(y) at which the components tY, tX of a
    transformation F => G do not commute with the cells along y."""
    D, E = F.D, F.E
    Y, X = D.base.mor[y]
    fy, ry, Fy, Gy, ty = E.fib[Y], D.res[y], F.cell[y], G.cell[y], E.res[y]
    for V in D.fib[X].objects:
        if (fy.compose(Gy[V], tY[ry.omap[V]])
                != fy.compose(ty.mmap[tX[V]], Fy[V])):
            yield V


def _components(t: IndexedNat, invertible=False) -> list:
    """`_fibre_arrows` on the components of t."""
    F, G = t.F, t.G
    return _fibre_arrows("component at {}", "no component at {}", (
        ((X,), F.D.fib[X], F.E.fib[X], t.comp.get(X), (F.comp[X],), (G.comp[X],))
        for X in F.D.base.objects), invertible)


def validate_indexed_nat(t: IndexedNat) -> list:
    """Violations of the transformation laws, as strings, in phases as in
    `validate_indexed_fun`: the first missing component; else every
    component's typing findings; else its naturality findings; else the
    findings where components and cells do not commute.  Each phase checks
    every element and sorts its findings."""
    errs = _components(t)
    if errs:
        return errs
    comp = t.comp
    return sorted(
        f"cell coherence fails along {fmt(y)} at {fmt(V)}"
        for y, (Y, X) in t.F.D.base.mor.items()
        for V in _incoherent(t.F, t.G, y, comp[Y], comp[X])
    )


def find_indexed_natiso(F: IndexedFun, G: IndexedFun, caps: _caps.Caps = _caps.DEFAULT):
    """Invertible transformation F => G, by `caps.search`; None if none.

    Per-object candidates are the natural isos between the components; the
    cell-coherence condition along a base morphism reads the components at
    both of its endpoints.
    """
    base = F.D.base
    objs = base.objects
    cand = []
    for X in objs:
        cand.append(list(all_nat_isos(F.comp[X], G.comp[X], caps)))
        if not cand[-1]:
            return None
    at = {X: i for i, X in enumerate(objs)}
    cells = [((at[Y], at[X]), y) for y, (Y, X) in base.mor.items()]

    def coherent(y, a):
        Y, X = base.mor[y]
        return not any(True for _ in _incoherent(F, G, y, a[at[Y]], a[at[X]]))

    found = _caps.search(cand, cells, coherent, _caps.Budget(caps))
    a = next(found, None)
    return None if a is None else IndexedNat(F, G, dict(zip(objs, a)))


def is_indexed_equivalence(F: IndexedFun) -> Check:
    """Componentwise test: each fibre component must be an equivalence."""
    bad = validate_indexed_fun(F)
    if bad:
        return Check(False, f"not an indexed functor: {bad[0]}")
    for X in F.D.base.objects:
        c = is_equivalence(F.comp[X])
        if not c:
            return Check(False, f"component at {fmt(X)}: {c.reason}", witness=(X, c.witness))
    return Check(True, "componentwise equivalence")


def const_indexed(base: FinCat, K: FinCat, name="") -> IndexedCat:
    ident = identity_functor(K)
    return strict_indexed(
        base,
        {X: K for X in base.objects},
        {y: ident for y in base.mor},
        name=name or f"Δ{K.name}",
    )


def precompose_indexed(E: IndexedCat, F: Functor, name="") -> IndexedCat:
    """E∘F for a strict functor F between bases: fibre over k is E(F(k)).

    Because F preserves identities and composites on the nose, the coherence
    data of E transports verbatim.
    """
    base = F.src
    fib = {k: E.fib[F.ob(k)] for k in base.objects}
    res = {m: E.res[F.mo(m)] for m in base.mor}
    compositor = {
        (g, f): dict(E.compositor[(F.mo(g), F.mo(f))]) for (g, f) in base.table
    }
    unitor = {k: dict(E.unitor[F.ob(k)]) for k in base.objects}
    return IndexedCat(base, fib, res, compositor, unitor, name=name)


def precompose_indexed_fun(H, F: Functor, DF, EF, name=""):
    """H∘F on an indexed functor: components and cells transport along the
    strict base functor F, between the endpoints DF and EF, which are
    `precompose_indexed` of H's ends along F."""
    comp = {k: H.comp[F.ob(k)] for k in F.src.objects}
    cell = {m: dict(H.cell[F.mo(m)]) for m in F.src.mor}
    return IndexedFun(DF, EF, comp, cell, name=name)


def product_indexed(D: IndexedCat, E: IndexedCat, name=""):
    """Fibrewise product with componentwise coherence, plus the two
    projections (both strict).  Returns (product, pr1, pr2)."""
    base = D.base
    if E.base != base:
        raise InternalError("product factors live over different bases")
    prods = {X: product_cat([D.fib[X], E.fib[X]]) for X in base.objects}
    fib = {X: prods[X].cat for X in base.objects}
    res = {}
    for y, (Y, X) in base.mor.items():
        res[y] = Functor(
            fib[X],
            fib[Y],
            {(V, W): (D.res[y].ob(V), E.res[y].ob(W)) for (V, W) in fib[X].objects},
            {(m, n): (D.res[y].mo(m), E.res[y].mo(n)) for (m, n) in fib[X].mor},
        )
    compositor = {
        (g, f): {
            (V, W): (D.gamma(g, f, V), E.gamma(g, f, W))
            for (V, W) in fib[base.cod(g)].objects
        }
        for (g, f) in base.table
    }
    unitor = {
        X: {(V, W): (D.unit(X, V), E.unit(X, W)) for (V, W) in fib[X].objects}
        for X in base.objects
    }
    P = IndexedCat(base, fib, res, compositor, unitor, name=name or "prod")
    pr1, pr2 = (
        strict_indexed_fun(
            P, F, {X: prods[X].projections[i] for X in base.objects},
            name=f"pr{i + 1}",
        )
        for i, F in enumerate((D, E))
    )
    return P, pr1, pr2


class Presheaf:
    """Set-valued contravariant functor: elements per object, restriction
    maps per morphism (act[y] : els[cod y] -> els[dom y])."""

    __slots__ = ("name", "base", "els", "act")

    def __init__(self, base, els, act, name=""):
        self.name = name
        self.base = base
        self.els = {X: tuple(v) for X, v in els.items()}
        self.act = {y: dict(a) for y, a in act.items()}

    def __repr__(self):
        return f"<Presheaf {self.name or '?'}>"


def validate_presheaf(P: Presheaf) -> list:
    """All presheaf-law violations, as strings.  They come in the stable
    order of the base's objects and morphisms, so a presheaf read from the
    DSL and the same one read from interchange JSON, whose dicts were
    filled in different orders, report the same findings."""
    errs = []
    base = P.base
    objects = base.objects
    for X in objects:
        if X not in P.els:
            return [f"no elements over {fmt(X)}"]
    elsets = {X: set(els) for X, els in P.els.items()}
    for X in objects:
        twice = [e for e, n in Counter(P.els[X]).items() if n > 1]
        errs += [f"duplicate element {fmt(e)} over {fmt(X)}"
                 for e in stable_sorted(twice)]
    if errs:
        return errs
    for y in base.mor:
        Y, X = base.mor[y]
        a = P.act.get(y)
        if a is None:
            return [f"no action for {fmt(y)}"]
        for e in P.els[X]:
            if e not in a:
                errs.append(f"action of {fmt(y)} undefined on {fmt(e)}")
            elif a[e] not in elsets[Y]:
                errs.append(f"action of {fmt(y)} leaves the presheaf on {fmt(e)}")
    if errs:
        return errs
    for X in objects:
        for e in P.els[X]:
            if P.act[base.ident[X]][e] != e:
                errs.append(f"identity action moves {fmt(e)} over {fmt(X)}")
    for g in base.mor:
        for f in base.into(base.dom(g)):
            h = base.table[(g, f)]
            for e in P.els[base.cod(g)]:
                if P.act[f][P.act[g][e]] != P.act[h][e]:
                    errs.append(f"action not functorial on ({fmt(g)},{fmt(f)})")
    return errs


def embed_discrete(P: Presheaf, name="") -> IndexedCat:
    """Indexed category with discrete fibres P(X); strict by presheaf laws."""
    fib = {X: discrete_cat(P.els[X], name=f"{P.name}({fmt(X)})") for X in P.base.objects}
    res = {}
    for y, (Y, X) in P.base.mor.items():
        res[y] = Functor(
            fib[X],
            fib[Y],
            dict(P.act[y]),
            {("id", e): ("id", P.act[y][e]) for e in P.els[X]},
        )
    return strict_indexed(P.base, fib, res, name=name or f"disc({P.name})")


def validate_presheaf_mor(P: Presheaf, Q: Presheaf, t) -> list:
    """t : X -> (els[X] -> els'[X]) natural in X."""
    errs = []
    q_els = {X: set(els) for X, els in Q.els.items()}
    for X in P.base.objects:
        tx = t.get(X)
        if tx is None:
            return [f"no component at {fmt(X)}"]
        for e in P.els[X]:
            if e not in tx or tx[e] not in q_els[X]:
                errs.append(f"component at {fmt(X)} malformed on {fmt(e)}")
    if errs:
        return errs
    for y, (Y, X) in P.base.mor.items():
        for e in P.els[X]:
            if t[Y][P.act[y][e]] != Q.act[y][t[X][e]]:
                errs.append(f"not natural along {fmt(y)} at {fmt(e)}")
    return errs


def embed_mor(P: Presheaf, Q: Presheaf, t, name="") -> IndexedFun:
    """Discrete embedding of a presheaf morphism; strict by naturality.

    Its ends, read as `.D` and `.E`, are fresh embeddings of P and Q."""
    DP, DQ = embed_discrete(P), embed_discrete(Q)
    comp = {}
    for X in P.base.objects:
        comp[X] = Functor(
            DP.fib[X],
            DQ.fib[X],
            dict(t[X]),
            {("id", e): ("id", t[X][e]) for e in P.els[X]},
        )
    return strict_indexed_fun(DP, DQ, comp, name=name)
