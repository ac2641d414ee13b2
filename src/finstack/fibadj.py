"""Cloven fibrations over the fibres of an indexed category, and the
round-trip between indexed categories over a flattened total category and
indexed fibrations over the original base.

The cartesian structure of a functor F is found once: `cartesian_arrows`
tests every arrow of F's source against the universal property
(`fincat.is_cartesian_over`), and the cleavage is read off that set, the
lift of u at A being the stable-least arrow into A in it over u.
`is_fibration_functor` and `is_indexed_fibration` both build their
cleavages that way, and `is_indexed_fibration` checks that restrictions
preserve cartesian arrows against the same sets.

The two directions:

  - `R_D` turns an indexed fibration p : E -> D (componentwise cloven
    fibrations, restrictions preserving cartesian arrows) into an indexed
    category over the total category of D.  Its fibre at (X, U) is the
    essential fibre of p at U (`groth.essential_fibre_cat`): pairs
    (A, alpha) with alpha : U -> p_X(A) invertible, with triangle-compatible
    morphisms.  Reindexing picks a cartesian lift through the cleavage
    (`_lift`, which the counit and the induced functors use too);
    compositors and unitors fall out of the uniqueness part of the lifting
    property, as the unique factorizations of `fincat.factorizations`.
  - `L_D` turns an indexed category A over the total category into an
    indexed fibration: the fibre over X is the flattening of A restricted to
    the vertical slice at X, with the evident projection.  Its restrictions,
    its cleavage, `unit_eta` and `l_d_mor` all reindex along
    `groth.canonical_lift`.

`unit_eta` and `counit_eps` compare the round trips and are componentwise
equivalences on valid input; `sharp` and `flat` transpose morphisms across
the two directions and are mutually quasi-inverse up to invertible
transformation.  `check_thm_4_2_i` and `check_thm_4_2_ii` run the two
localization conformance checks on the fibration localized by `_localize`:
local-to-global lifting survives the plus construction, and the localized
fibration satisfies descent over the transferred topology.

Each part of the adjunction L_D ⊣ R_D is built once per structure it is
built from.  These keep their result on their first argument, keyed by
the builder, `caps` and the identity of the second (`util.reused`), like
`groth.giraud_topology(G, J, caps)`:

  - `R_D(fib, G, caps)` keeps its indexed category;
  - `L_D(A, G, caps)` keeps its fibration and slices, not its `LResult`,
    which holds A;
  - `unit_eta(A, G, caps)` keeps its target, components and cells, not the
    `IndexedFun`, which holds A;
  - `counit_eps(fib, G, caps)` keeps its indexed functor;
  - `_localize(fib, J, caps)` keeps its stackification and p⁺, p⁺⁺.

A repeat call returns the result of the first, already validated.  So
every other part has one source: `unit_eta`, `counit_eps`, `r_d_mor` and
`l_d_mor` take only the structure they start from, G and caps, and call
`R_D` and `L_D` for the round trips and the ends they map between, which
are then the ones already built; `sharp` and `flat` read the kept unit and
counit, and the two Thm 4.2 checks share one localization.  `sharp` and
`flat` still take the parts their callers hold (`LA`, `LR`, `R_dst`), but
only to check them: each must be the part `L_D` or `R_D` keeps for that G
and caps, or they raise ValueError.  Nothing kept references its owner, so
reference counting frees a structure together with what it keeps.  The
reuse is exact because the library never mutates a structure once built,
which `FinCat`'s lazily built indexes assume too; a caller that mutates
one gets stale results.

Every category built here orders itself from its parts: the essential
fibres and the totals of the flattened slices through their builders in
`groth`, the iso-comma fibres by listing their ids in stable order.

Each builder validates its result once, as a whole, with `validate_indexed`
or `validate_indexed_fun`, and none validates a part of it on its own: the
essential-fibre reindexing functors and the iso-comma restrictions are
checked as restrictions of the indexed category they belong to.
"""

from dataclasses import dataclass, field

from . import caps as _caps
from .descent import is_stack
from .fincat import (
    Check,
    FinCat,
    Functor,
    InternalError,
    factorizations,
    is_cartesian_over,
    require,
)
from .groth import (
    GrothCat,
    canonical_lift,
    essential_fibre_cat,
    fibre_inclusion,
    giraud_topology,
    grothendieck,
)
from .indexed import (
    IndexedCat,
    IndexedFun,
    IndexedNat,
    _components,
    compose_indexed_funs,
    path_cell,
    precompose_indexed,
    precompose_indexed_fun,
    strict_indexed_fun,
    validate_indexed,
    validate_indexed_fun,
    validate_indexed_nat,
)
from .stackify import plus_fun, stackify
from .util import fmt, reused


# ---------------------------------------------------------------------------
# cartesian structure of a single functor


def cartesian_arrows(F: Functor) -> frozenset:
    """The F-cartesian morphisms of F's source, by the universal property."""
    return frozenset(m for m in F.src.mor if is_cartesian_over(F, m))


def _cleave(F: Functor, cart) -> Check:
    """The cleavage read off the cartesian arrows `cart` of F: the lift of u
    at A is the stable-least arrow into A in `cart` over u.  The first (u, A)
    in stable order without one is the failure witness."""
    E0, B0 = F.src, F.dst
    cleav = {}
    for A in E0.objects:
        over = {}
        for m in E0.into(A):
            if m in cart:
                over.setdefault(F.mo(m), m)
        for u in B0.into(F.ob(A)):
            if u not in over:
                return Check(
                    False,
                    f"no cartesian lift of {fmt(u)} at {fmt(A)}",
                    witness=(u, A),
                )
            cleav[(u, A)] = over[u]
    return Check(True, "fibration", witness=cleav)


def is_fibration_functor(F: Functor) -> Check:
    """Every (u, A) must admit a cartesian lift; the witness on success is
    the deterministic cleavage {(u, A): lift}."""
    return _cleave(F, cartesian_arrows(F))


# ---------------------------------------------------------------------------
# indexed fibrations


@dataclass
class IndexedFibration:
    """A componentwise-fibration indexed functor with chosen cleavages.

    cleavages[X] maps (u, A) to the chosen p_X-cartesian morphism into A
    with projection exactly u.
    """

    p: IndexedFun
    cleavages: dict
    _memo: dict = field(default=None, init=False, compare=False, repr=False)


def is_indexed_fibration(p: IndexedFun) -> Check:
    """Both invariants, exhaustively: each component is a fibration and each
    restriction of the source sends cartesian arrows to cartesian arrows.
    Witness on success: an IndexedFibration with deterministic cleavages."""
    bad = validate_indexed_fun(p)
    if bad:
        return Check(False, f"not an indexed functor: {bad[0]}")
    EE = p.D
    cart, cleav = {}, {}
    for X in EE.base.objects:
        cart[X] = cartesian_arrows(p.comp[X])
        c = _cleave(p.comp[X], cart[X])
        if not c:
            return Check(
                False, f"component at {fmt(X)}: {c.reason}", witness=(X, c.witness)
            )
        cleav[X] = c.witness
    for y, (Y, X) in EE.base.mor.items():
        ry = EE.res[y]
        for m in EE.fib[X].mor:
            if m in cart[X] and ry.mo(m) not in cart[Y]:
                return Check(
                    False,
                    f"restriction along {fmt(y)} does not preserve the "
                    f"cartesian arrow {fmt(m)}",
                    witness=(y, m),
                )
    return Check(True, "indexed fibration", witness=IndexedFibration(p, cleav))


def as_fibration(p: IndexedFun) -> IndexedFibration:
    c = is_indexed_fibration(p)
    if not c:
        raise ValueError(f"not an indexed fibration: {c.reason}")
    return c.witness


# ---------------------------------------------------------------------------
# essential fibres and their reindexing


def _cart_factor(pX: Functor, cart, h, w):
    """The unique t with pX(t) == w and cart∘t == h."""
    cands = factorizations(pX, cart, h, w)
    if len(cands) != 1:
        raise InternalError(
            f"cartesian factorization through {fmt(cart)} over {fmt(w)} "
            f"has {len(cands)} solutions"
        )
    return cands[0]


def _lift(fib: IndexedFibration, y, A, x):
    """The cleavage's cartesian lift, at the restriction of A along y, of
    inverse(p.cell[y][A]) ∘ x."""
    p = fib.p
    Y = p.E.base.dom(y)
    fd = p.E.fib[Y]
    u = fd.compose(fd.inverse(p.cell[y][A]), x)
    return fib.cleavages[Y][(u, p.D.res[y].ob(A))]


def _ess_restriction(fib: IndexedFibration, G: GrothCat, m, src: FinCat, dst: FinCat):
    """Reindexing between essential fibres along one total morphism.

    Returns the functor together with the cartesian lift chosen per source
    object; compositors and unitors later reuse those lifts.
    """
    p = fib.p
    EE, DD = p.D, p.E
    (Y, V), _ = G.total.mor[m]
    y, a, _ = m
    re, rd = EE.res[y], DD.res[y]
    fe, fd = EE.fib[Y], DD.fib[Y]
    pY = p.comp[Y]
    omap, lifts = {}, {}
    for (A, alpha) in src.objects:
        lam = _lift(fib, y, A, fd.compose(rd.mo(alpha), a))
        lifts[(A, alpha)] = lam
        omap[(A, alpha)] = (fe.dom(lam), fd.ident[V])
    mmap = {}
    for (alpha, beta, w), ((A, _), (B, _)) in src.mor.items():
        la, lb = lifts[(A, alpha)], lifts[(B, beta)]
        t = _cart_factor(pY, lb, fe.compose(re.mo(w), la), fd.ident[V])
        mmap[(alpha, beta, w)] = (fd.ident[V], fd.ident[V], t)
    return Functor(src, dst, omap, mmap, name=f"ess({fmt(m)})"), lifts


@reused()
def R_D(
    fib: IndexedFibration, G: GrothCat, caps: _caps.Caps = _caps.DEFAULT
) -> IndexedCat:
    """Indexed category over the total category of the fibration's target.

    Fibres are essential fibres; reindexing along (y, a, U') lifts the
    composite of a, the restricted comparison iso, and the inverse
    projection cell through the cleavage.  All coherence components are the
    unique cartesian comparison morphisms, and the result is validated."""
    p = fib.p
    EE, DD = p.D, p.E
    if G.source is not DD:
        raise ValueError("total category was built from a different indexed category")
    total = G.total
    fibc = {
        (X, U): essential_fibre_cat(p.comp[X], U, caps, name=f"ess({fmt(X)},{fmt(U)})")
        for (X, U) in total.objects
    }
    res, lifts = {}, {}
    for m, ((Y, V), (X, U2)) in total.mor.items():
        F, lf = _ess_restriction(fib, G, m, fibc[(X, U2)], fibc[(Y, V)])
        res[m] = F
        lifts[m] = lf
    compositor = {}
    for (m2, m1), h in total.table.items():
        (Y1, V1) = total.mor[m1][0]
        (X3, U3) = total.mor[m2][1]
        y1, y2 = m1[0], m2[0]
        fe1, fd1 = EE.fib[Y1], DD.fib[Y1]
        comp = {}
        for obj in fibc[(X3, U3)].objects:
            A = obj[0]
            ob2 = res[m2].ob(obj)
            c = fe1.compose(
                EE.gamma(y2, y1, A),
                fe1.compose(EE.res[y1].mo(lifts[m2][obj]), lifts[m1][ob2]),
            )
            t = _cart_factor(p.comp[Y1], lifts[h][obj], c, fd1.ident[V1])
            comp[obj] = (fd1.ident[V1], fd1.ident[V1], t)
        compositor[(m2, m1)] = comp
    unitor = {}
    for (X, U) in total.objects:
        idm = total.ident[(X, U)]
        fd = DD.fib[X]
        un = {}
        for obj in fibc[(X, U)].objects:
            A, alpha = obj
            t = _cart_factor(
                p.comp[X], lifts[idm][obj], EE.unit(X, A), fd.inverse(alpha)
            )
            un[obj] = (alpha, fd.ident[U], t)
        unitor[(X, U)] = un
    R = IndexedCat(
        total, fibc, res, compositor, unitor, name=f"R({p.name or '?'})"
    )
    require(validate_indexed(R, caps), "essential-fibre reindexing incoherent")
    return R


# ---------------------------------------------------------------------------
# the other direction: flattening the vertical slices


@dataclass
class LResult:
    """Fibration built from an indexed category over a total category.

    per_x[X] is the triple (vertical slice of the source at X, its
    flattening, the fibre inclusion functor into the total category)."""

    source: IndexedCat
    fib: IndexedFibration
    per_x: dict = field(repr=False)


@reused(
    keep=lambda L: (L.fib, L.per_x),
    restore=lambda A, _G, kept: LResult(A, *kept),
)
def L_D(A: IndexedCat, G: GrothCat, caps: _caps.Caps = _caps.DEFAULT) -> LResult:
    """Indexed fibration whose fibre over X flattens the vertical slice of A
    at X; restriction reindexes along the canonical cartesian lifts.

    Compositors and unitors are canonical path cells, so the construction
    needs no choices beyond the cleavage of the flattening."""
    if A.base != G.total:
        raise ValueError("source is not indexed over the given total category")
    DD = G.source
    C = DD.base
    per_x = {}
    for X in C.objects:
        incl = fibre_inclusion(G, X)
        AX = precompose_indexed(A, incl, name=f"slice({fmt(X)})")
        GX = grothendieck(AX, caps, name=f"L({fmt(X)})")
        per_x[X] = (AX, GX, incl)
    fib = {X: per_x[X][1].total for X in C.objects}

    res = {}
    for y, (Y, X) in C.mor.items():
        _, GX, inclX = per_x[X]
        _, GY, inclY = per_x[Y]
        rd = DD.res[y]
        omap, mmap = {}, {}
        for (U, x) in GX.total.objects:
            omap[(U, x)] = (rd.ob(U), A.res[canonical_lift(G, y, U)].ob(x))
        for (m, b, x2), ((U1, _), (U2, _)) in GX.total.mor.items():
            l1 = canonical_lift(G, y, U1)
            l2 = canonical_lift(G, y, U2)
            pc = path_cell(
                A, (X, U2), [inclX.mo(m), l1], [l2, inclY.mo(rd.mo(m))], x2
            )
            fa = A.fib[(Y, rd.ob(U1))]
            bp = fa.compose(pc, A.res[l1].mo(b))
            mmap[(m, b, x2)] = (rd.mo(m), bp, A.res[l2].ob(x2))
        res[y] = Functor(GX.total, GY.total, omap, mmap, name=f"L({fmt(y)})")

    compositor = {}
    for (y2, y1), y21 in C.table.items():
        X3 = C.cod(y2)
        Y1 = C.dom(y1)
        _, GX3, _ = per_x[X3]
        _, _, inclY1 = per_x[Y1]
        comp = {}
        for (U, x) in GX3.total.objects:
            l2 = canonical_lift(G, y2, U)
            l1p = canonical_lift(G, y1, DD.res[y2].ob(U))
            l21 = canonical_lift(G, y21, U)
            g = DD.gamma(y2, y1, U)
            bg = path_cell(A, (X3, U), [l2, l1p], [l21, inclY1.mo(g)], x)
            comp[(U, x)] = (g, bg, A.res[l21].ob(x))
        compositor[(y2, y1)] = comp
    unitor = {}
    for X in C.objects:
        _, GX, inclX = per_x[X]
        un = {}
        for (U, x) in GX.total.objects:
            lid = canonical_lift(G, C.ident[X], U)
            u = DD.unit(X, U)
            bu = path_cell(A, (X, U), [], [lid, inclX.mo(u)], x)
            un[(U, x)] = (u, bu, A.res[lid].ob(x))
        unitor[X] = un

    EL = IndexedCat(C, fib, res, compositor, unitor, name=f"L({A.name or '?'})")
    require(validate_indexed(EL, caps), "flattened slices incoherent")

    pL = strict_indexed_fun(
        EL, DD, {X: per_x[X][1].proj for X in C.objects}, name=f"pL({A.name or '?'})"
    )
    cleav = {}
    for X in C.objects:
        AX, GX, _ = per_x[X]
        cleav[X] = {
            (u, (U, x2)): canonical_lift(GX, u, x2)
            for u, (_, U) in DD.fib[X].mor.items()
            for x2 in AX.fib[U].objects
        }
    return LResult(A, IndexedFibration(pL, cleav), per_x)


def groth_map(Fm: IndexedFun, GA: GrothCat, GB: GrothCat) -> Functor:
    """Total functor induced between flattenings by an indexed functor."""
    omap = {(U, x): (U, Fm.comp[U].ob(x)) for (U, x) in GA.total.objects}
    mmap = {}
    for (m, b, x2), ((U1, _), (U2, _)) in GA.total.mor.items():
        fb = Fm.E.fib[U1]
        mmap[(m, b, x2)] = (
            m,
            fb.compose(Fm.cell[m][x2], Fm.comp[U1].mo(b)),
            Fm.comp[U2].ob(x2),
        )
    F = Functor(GA.total, GB.total, omap, mmap, name=f"G({Fm.name or '?'})")
    require(F.validate(), "flattened functor malformed")
    return F


# ---------------------------------------------------------------------------
# unit and counit of the round trip


@reused(
    keep=lambda eta: (eta.E, eta.comp, eta.cell),
    restore=lambda A, _G, kept: IndexedFun(A, *kept, name="eta"),
)
def unit_eta(
    A: IndexedCat, G: GrothCat, caps: _caps.Caps = _caps.DEFAULT
) -> IndexedFun:
    """A -> R_D(L_D(A)): send x to ((U, x), identity comparison).

    The returned functor's target is the round trip, available as `.E`.
    Componentwise an equivalence on valid input."""
    DD = G.source
    L = L_D(A, G, caps)
    R = R_D(L.fib, G, caps)
    comps = {}
    for (X, U) in G.total.objects:
        _, GX, _ = L.per_x[X]
        fd = DD.fib[X]
        iU = fibre_inclusion(GX, U)
        omap = {x: ((U, x), fd.ident[U]) for x in A.fib[(X, U)].objects}
        mmap = {
            f: (fd.ident[U], fd.ident[U], iU.mo(f)) for f in A.fib[(X, U)].mor
        }
        comps[(X, U)] = Functor(
            A.fib[(X, U)], R.fib[(X, U)], omap, mmap, name=f"eta({fmt(X)},{fmt(U)})"
        )
    cells = {}
    for m, ((Y, V), (X, U2)) in G.total.mor.items():
        y, a, _ = m
        _, _, inclY = L.per_x[Y]
        fdY = DD.fib[Y]
        l2 = canonical_lift(G, y, U2)
        iYa = inclY.mo(a)
        cm = {}
        for x in A.fib[(X, U2)].objects:
            tgt = A.res[iYa].ob(A.res[l2].ob(x))
            pc = path_cell(A, (X, U2), [m], [l2, iYa], x)
            fa = A.fib[(Y, V)]
            bt = fa.compose(A.unitor[(Y, V)][tgt], pc)
            t = (fdY.ident[V], bt, tgt)
            cm[x] = (fdY.ident[V], fdY.ident[V], t)
        cells[m] = cm
    eta = IndexedFun(A, R, comps, cells, name="eta")
    require(validate_indexed_fun(eta), "unit not pseudonatural")
    return eta


@reused()
def counit_eps(
    fib: IndexedFibration, G: GrothCat, caps: _caps.Caps = _caps.DEFAULT
) -> IndexedFun:
    """L_D(R_D(p)) -> source of p: project an essential-fibre point to its
    carrier, transporting morphisms along the recorded cartesian lifts.

    Also validates the comparison square against the two projections; the
    components are equivalences on valid input."""
    p = fib.p
    EE, DD = p.D, p.E
    C = DD.base
    LR = L_D(R_D(fib, G, caps), G, caps)
    comps = {}
    for X in C.objects:
        _, GX, _ = LR.per_x[X]
        fe, fd = EE.fib[X], DD.fib[X]
        idX = C.ident[X]
        omap = {(U, oA): oA[0] for (U, oA) in GX.total.objects}
        mmap = {}
        for (m, b, obj2), _ends in GX.total.mor.items():
            A2, alpha2 = obj2
            am = fd.compose(DD.unit(X, fd.cod(m)), m)
            lam = _lift(fib, idX, A2, fd.compose(DD.res[idX].mo(alpha2), am))
            mmap[(m, b, obj2)] = fe.compose(
                fe.inverse(EE.unit(X, A2)), fe.compose(lam, b[2])
            )
        comps[X] = Functor(GX.total, fe, omap, mmap, name=f"eps({fmt(X)})")
    cells = {}
    for y, (Y, X) in C.mor.items():
        rd = DD.res[y]
        cells[y] = {
            (U, (A, alpha)): _lift(fib, y, A, rd.mo(alpha))
            for (U, (A, alpha)) in LR.per_x[X][1].total.objects
        }
    eps = IndexedFun(LR.fib.p.D, EE, comps, cells, name="eps")
    require(validate_indexed_fun(eps), "counit not pseudonatural")
    square = IndexedNat(
        compose_indexed_funs(p, eps),
        LR.fib.p,
        {
            X: {
                (U, oA): DD.fib[X].inverse(oA[1])
                for (U, oA) in LR.per_x[X][1].total.objects
            }
            for X in C.objects
        },
    )
    require(validate_indexed_nat(square), "counit projection square broken")
    return eps


# ---------------------------------------------------------------------------
# morphisms of fibrations and the two transposes


@dataclass
class FibMor:
    """Morphism of indexed fibrations over one base: a functor F between the
    sources and an invertible comparison phi : dst.p ∘ F => src.p."""

    src: IndexedFibration
    dst: IndexedFibration
    F: IndexedFun
    phi: IndexedNat


def validate_fib_mor(fm: FibMor) -> list:
    errs = validate_indexed_fun(fm.F)
    if errs:
        return [f"functor part: {errs[0]}"]
    errs = validate_indexed_nat(fm.phi)
    if errs:
        return [f"comparison: {errs[0]}"]
    out = [f"comparison: {e}" for e in _components(fm.phi, invertible=True)]
    for X in fm.src.p.E.base.objects:
        cart = cartesian_arrows(fm.src.p.comp[X])
        p2 = fm.dst.p.comp[X]
        for m in fm.src.p.D.fib[X].mor:
            if m in cart and not is_cartesian_over(p2, fm.F.comp[X].mo(m)):
                out.append(
                    f"cartesian arrow {fmt(m)} at {fmt(X)} not preserved"
                )
    return out


def r_d_mor(
    fm: FibMor, G: GrothCat, caps: _caps.Caps = _caps.DEFAULT
) -> IndexedFun:
    """Functor R_D(fm.src) -> R_D(fm.dst) between the essential-fibre
    indexed categories of fm's ends, induced by the fibration morphism;
    cells are the unique cartesian comparisons."""
    p1, p2 = fm.src, fm.dst
    R_src, R_dst = R_D(p1, G, caps), R_D(p2, G, caps)
    E1, E2 = p1.p.D, p2.p.D
    DD = p1.p.E
    comps = {}
    for (X, U) in G.total.objects:
        fd = DD.fib[X]
        FX = fm.F.comp[X]
        phiX = fm.phi.comp[X]
        omap = {}
        for (B, alpha) in R_src.fib[(X, U)].objects:
            omap[(B, alpha)] = (FX.ob(B), fd.compose(fd.inverse(phiX[B]), alpha))
        mmap = {}
        for (alpha, beta, w), ((B, _), (B2, _)) in R_src.fib[(X, U)].mor.items():
            mmap[(alpha, beta, w)] = (
                omap[(B, alpha)][1],
                omap[(B2, beta)][1],
                FX.mo(w),
            )
        comps[(X, U)] = Functor(R_src.fib[(X, U)], R_dst.fib[(X, U)], omap, mmap)
    cells = {}
    for m, ((Y, V), (X, U2)) in G.total.mor.items():
        y, a, _ = m
        fdY = DD.fib[Y]
        feY = E2.fib[Y]
        rd = DD.res[y]
        cm = {}
        for (B, alpha) in R_src.fib[(X, U2)].objects:
            l1 = _lift(p1, y, B, fdY.compose(rd.mo(alpha), a))
            B1p = E1.fib[Y].dom(l1)
            FXB, alpha2 = comps[(X, U2)].ob((B, alpha))
            l2 = _lift(p2, y, FXB, fdY.compose(rd.mo(alpha2), a))
            c = feY.compose(fm.F.cell[y][B], fm.F.comp[Y].mo(l1))
            t = _cart_factor(p2.p.comp[Y], l2, c, fm.phi.comp[Y][B1p])
            cm[(B, alpha)] = (
                fdY.compose(fdY.inverse(fm.phi.comp[Y][B1p]), fdY.ident[V]),
                fdY.ident[V],
                t,
            )
        cells[m] = cm
    out = IndexedFun(R_src, R_dst, comps, cells, name=f"R({fm.F.name or '?'})")
    require(validate_indexed_fun(out), "induced essential-fibre functor")
    return out


def l_d_mor(
    H: IndexedFun, G: GrothCat, caps: _caps.Caps = _caps.DEFAULT
) -> IndexedFun:
    """Functor L_D(H.D) -> L_D(H.E) between flattened vertical slices
    induced fibrewise by H."""
    LA, LR = L_D(H.D, G, caps), L_D(H.E, G, caps)
    DD = G.source
    C = DD.base
    comps = {}
    for X in C.objects:
        AX, GAX, incl = LA.per_x[X]
        RX, GRX, _ = LR.per_x[X]
        HX = precompose_indexed_fun(H, incl, DF=AX, EF=RX)
        comps[X] = groth_map(HX, GAX, GRX)
    cells = {}
    for y, (Y, X) in C.mor.items():
        fdY = DD.fib[Y]
        rd = DD.res[y]
        cm = {}
        for (U, x) in LA.per_x[X][1].total.objects:
            l2 = canonical_lift(G, y, U)
            V2 = rd.ob(U)
            tgt = H.E.res[l2].ob(H.comp[(X, U)].ob(x))
            fr = H.E.fib[(Y, V2)]
            b0 = fr.compose(H.E.unitor[(Y, V2)][tgt], H.cell[l2][x])
            cm[(U, x)] = (fdY.ident[V2], b0, tgt)
        cells[y] = cm
    out = IndexedFun(
        LA.fib.p.D, LR.fib.p.D, comps, cells, name=f"L({H.name or '?'})"
    )
    require(validate_indexed_fun(out), "induced slice functor")
    return out


def _require_kept(given, kept, what):
    if given is not kept:
        raise ValueError(f"{what} is not the part built for this total "
                         f"category and caps")


def sharp(
    fm: FibMor,
    LA: LResult,
    G: GrothCat,
    caps: _caps.Caps = _caps.DEFAULT,
    *,
    R_dst: IndexedCat,
) -> IndexedFun:
    """Transpose a fibration morphism out of a flattened slice fibration to
    an indexed functor into R_dst, the essential-fibre indexed category of
    fm's target.  LA must be the flattening `L_D` keeps for G and caps, fm
    must start at it, and R_dst must be the `R_D` kept for fm's target."""
    if fm.src is not LA.fib:
        raise ValueError("transpose source must be the given flattening")
    _require_kept(LA.fib, L_D(LA.source, G, caps).fib, "LA")
    _require_kept(R_dst, R_D(fm.dst, G, caps), "R_dst")
    eta = unit_eta(LA.source, G, caps)
    return compose_indexed_funs(r_d_mor(fm, G, caps), eta)


def flat(
    H: IndexedFun,
    fib: IndexedFibration,
    G: GrothCat,
    caps: _caps.Caps = _caps.DEFAULT,
    *,
    LA: LResult,
    LR: LResult,
) -> FibMor:
    """Transpose an indexed functor H into the essential-fibre indexed
    category to a fibration morphism out of the flattened slices.  H.E must
    be the `R_D` kept for fib, G and caps, and LA and LR the flattenings
    `L_D` keeps for H.D and H.E."""
    _require_kept(H.E, R_D(fib, G, caps), "H.E")
    _require_kept(LA.fib, L_D(H.D, G, caps).fib, "LA")
    _require_kept(LR.fib, L_D(H.E, G, caps).fib, "LR")
    DD = G.source
    lm = l_d_mor(H, G, caps)
    F = compose_indexed_funs(counit_eps(fib, G, caps), lm)
    phi = IndexedNat(
        compose_indexed_funs(fib.p, F),
        LA.fib.p,
        {
            X: {
                (U, x): DD.fib[X].inverse(H.comp[(X, U)].ob(x)[1])
                for (U, x) in LA.per_x[X][1].total.objects
            }
            for X in DD.base.objects
        },
    )
    require(validate_indexed_nat(phi), "transpose comparison square broken")
    return FibMor(LA.fib, fib, F, phi)


# ---------------------------------------------------------------------------
# localization conformance checks


@reused()
def _localize(fib: IndexedFibration, J, caps: _caps.Caps = _caps.DEFAULT):
    """Stackify both sides of the fibration and induce p⁺ and p⁺⁺ between
    the plus stages.  Returns (stackification of the target, p⁺, p⁺⁺)."""
    p = fib.p
    se = stackify(p.D, J, caps)
    sd = stackify(p.E, J, caps)
    p1 = plus_fun(p, se.once, sd.once)
    return sd, p1, plus_fun(p1, se.twice, sd.twice)


def check_thm_4_2_i(
    fib: IndexedFibration, J, caps: _caps.Caps = _caps.DEFAULT
) -> Check:
    """The induced functor on plus (and double plus) outputs must still be an
    indexed fibration."""
    _, p1, p2 = _localize(fib, J, caps)
    c1 = is_indexed_fibration(p1)
    if not c1:
        return Check(False, f"after plus: {c1.reason}", witness=(c1, None))
    c2 = is_indexed_fibration(p2)
    if not c2:
        return Check(False, f"after double plus: {c2.reason}", witness=(c1, c2))
    return Check(
        True, "plus and double plus preserve the fibration property", witness=(c1, c2)
    )


def _iso_comma_fibration(
    sp: IndexedFun, unit: IndexedFun, caps: _caps.Caps = _caps.DEFAULT
) -> IndexedFun:
    """Fibrewise iso-comma of the localization unit against a localized
    fibration, with its strict projection to the unit's source."""
    DD = unit.D
    DDpp = unit.E
    EEpp = sp.D
    C = DD.base
    fib = {}
    for X in C.objects:
        fd, fdp, fe = DD.fib[X], DDpp.fib[X], EEpp.fib[X]
        uX, sX = unit.comp[X], sp.comp[X]
        objs = [
            (V, B, xi)
            for V in fd.objects
            for B in fe.objects
            for xi in fdp.hom(uX.ob(V), sX.ob(B))
            if fdp.is_iso(xi)
        ]
        _caps.check(len(objs), caps, "max_descent", "iso-comma size")
        mor = {}
        for o1 in objs:
            V, B, xi = o1
            for o2 in objs:
                V2, B2, xi2 = o2
                for v in fd.hom(V, V2):
                    uv = uX.mo(v)
                    for b in fe.hom(B, B2):
                        if fdp.compose(sX.mo(b), xi) == fdp.compose(xi2, uv):
                            mor[(o1, o2, v, b)] = (o1, o2)
        _caps.check(len(mor), caps, "max_descent", "iso-comma size")
        ident = {
            (V, B, xi): ((V, B, xi), (V, B, xi), fd.ident[V], fe.ident[B])
            for (V, B, xi) in objs
        }
        cat = FinCat.from_homs(
            tuple(objs),
            mor,
            ident,
            lambda m2, m1: (
                m1[0], m2[1], fd.compose(m2[2], m1[2]), fe.compose(m2[3], m1[3])
            ),
            name=f"comma({fmt(X)})",
        )
        fib[X] = cat

    res = {}
    for y, (Y, X) in C.mor.items():
        fdpY = DDpp.fib[Y]
        rd, rdp, re = DD.res[y], DDpp.res[y], EEpp.res[y]
        omap = {}
        for (V, B, xi) in fib[X].objects:
            xi_y = fdpY.compose(
                fdpY.inverse(sp.cell[y][B]),
                fdpY.compose(rdp.mo(xi), unit.cell[y][V]),
            )
            omap[(V, B, xi)] = (rd.ob(V), re.ob(B), xi_y)
        mmap = {}
        for (o1, o2, v, b) in fib[X].mor:
            mmap[(o1, o2, v, b)] = (omap[o1], omap[o2], rd.mo(v), re.mo(b))
        res[y] = Functor(fib[X], fib[Y], omap, mmap)
    compositor = {}
    for (y2, y1), y21 in C.table.items():
        X3 = C.cod(y2)
        comp = {}
        for o in fib[X3].objects:
            V, B, _ = o
            comp[o] = (
                res[y1].ob(res[y2].ob(o)),
                res[y21].ob(o),
                DD.gamma(y2, y1, V),
                EEpp.gamma(y2, y1, B),
            )
        compositor[(y2, y1)] = comp
    unitor = {}
    for X in C.objects:
        un = {}
        for o in fib[X].objects:
            V, B, _ = o
            un[o] = (o, res[C.ident[X]].ob(o), DD.unit(X, V), EEpp.unit(X, B))
        unitor[X] = un
    H = IndexedCat(C, fib, res, compositor, unitor, name="comma")
    require(validate_indexed(H, caps), "iso-comma incoherent")
    q = strict_indexed_fun(
        H,
        DD,
        {
            X: Functor(
                fib[X],
                DD.fib[X],
                {o: o[0] for o in fib[X].objects},
                {mid: mid[2] for mid in fib[X].mor},
            )
            for X in C.objects
        },
        name="q",
    )
    return q


def check_thm_4_2_ii(
    fib: IndexedFibration,
    J,
    G: GrothCat,
    caps: _caps.Caps = _caps.DEFAULT,
) -> Check:
    """Localize the fibration, pull it back along the localization unit, and
    test descent of its essential-fibre indexed category over the
    transferred topology; G is the total category of the fibration's
    target."""
    sd, _, sp = _localize(fib, J, caps)
    q = _iso_comma_fibration(sp, sd.unit, caps)
    cq = is_indexed_fibration(q)
    if not cq:
        return Check(
            False, f"pullback projection not a fibration: {cq.reason}", witness=cq
        )
    Rq = R_D(cq.witness, G, caps)
    JD = giraud_topology(G, J, caps)
    st = is_stack(Rq, JD, caps)
    if not st:
        return Check(False, f"descent fails upstairs: {st.reason}", witness=st)
    return Check(
        True,
        "localized fibration satisfies descent over the transferred topology",
        witness=st,
    )
