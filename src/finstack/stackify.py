"""Plus construction, stackification, reflection, and the set-level oracle.

The plus construction realizes each fibre D⁺(X) as the descent category over
the least covering sieve of X.  A finite saturated topology is closed under
intersections of covers, so the refinement diagram of covering sieves has a
terminal stage and the pseudocolimit over refinements collapses to that stage;
"locally equal" morphisms become equal on the nose after restriction to the
least cover.  Restriction of descent data along y is then literal reindexing
(g ↦ y∘g), which is strictly functorial, so D⁺ carries identity compositors.

`plus` builds one `descent.Plan` per object and least cover and hands it to
every descent construction it runs there; `plus_fun` and the factorization
through the unit build theirs per indexed category and least cover.  The
plans say how a morphism's components line up along y (`Plan.along`), so
no code here reads a sieve's members or a morphism id's layout.

`sheafify_with_unit` re-implements the set-level special case from scratch
(matching families, twice) so the categorical pipeline can be audited against
it on discrete embeddings; the comparison functor between the two lives with
the tests that use it.  Its guard on its own output shares one piece with
`is_stack`, the least covers of `site.least_covers`; the oracle
`is_sheaf_presheaf` shares no machinery and checks every cover.
"""

from dataclasses import dataclass

from . import caps as _caps
from .descent import (
    Plan,
    comparison,
    comparison_datum,
    desc_cat,
    glue,
    is_stack,
    push_datum,
    restrict_datum,
)
from .fincat import Check, Functor, InternalError, require
from .indexed import (
    IndexedCat,
    IndexedFun,
    IndexedNat,
    Presheaf,
    compose_indexed_funs,
    strict_indexed,
    strict_indexed_fun,
    validate_indexed_nat,
)
from .site import Sieve, Topology, least_covers, minimal_cover
from .util import ckey, fmt


@dataclass
class PlusResult:
    input: IndexedCat
    output: IndexedCat
    unit: IndexedFun
    minimal: dict  # object -> Sieve actually used


@dataclass
class StackifyResult:
    input: IndexedCat
    stack: IndexedCat
    unit: IndexedFun
    once: PlusResult
    twice: PlusResult


def plus(D: IndexedCat, J: Topology, caps: _caps.Caps = _caps.DEFAULT) -> PlusResult:
    base = D.base
    minimal = {X: minimal_cover(J, X) for X in base.objects}
    plans = {X: Plan(D, M) for X, M in minimal.items()}
    fib = {X: desc_cat(plans[X], caps) for X in base.objects}

    res = {}
    for y, (Y, X) in base.mor.items():
        if base.is_id(y):
            # M_Y = M_X and id∘g = g: restriction returns each datum and
            # each descent morphism it is given.
            res[y] = Functor(fib[X], fib[X], {a: a for a in fib[X].objects},
                             {m: m for m in fib[X].mor}, name=f"⁺({fmt(y)})")
            continue
        PX, PY = plans[X], plans[Y]
        along = PY.along(y, PX)
        if along is None:
            raise InternalError(
                f"least cover of {fmt(Y)} does not refine the pullback "
                f"of the least cover of {fmt(X)} along {fmt(y)}"
            )
        omap = {a: restrict_datum(PY, a, y) for a in fib[X].objects}
        mmap = {}
        for mid, (a, b) in fib[X].mor.items():
            comp = PX.components(mid)
            rid = PY.mor_id(omap[a], omap[b], [comp[i] for i in along])
            if rid not in fib[Y].mor:
                raise InternalError(
                    f"restricted descent morphism missing along {fmt(y)}"
                )
            mmap[mid] = rid
        res[y] = Functor(fib[X], fib[Y], omap, mmap, name=f"⁺({fmt(y)})")

    out = strict_indexed(base, fib, res, name=f"{D.name or 'D'}⁺")

    ucomp = {X: comparison(plans[X], fib[X]) for X in base.objects}
    ucell = {}
    for y, (Y, X) in base.mor.items():
        PY = plans[Y]
        cy = {}
        for V in D.fib[X].objects:
            src = ucomp[Y].ob(D.res[y].ob(V))
            dst = res[y].ob(ucomp[X].ob(V))
            mid = PY.mor_id(src, dst, [D.gamma(y, g, V) for g in PY.members])
            if mid not in fib[Y].mor:
                raise InternalError(
                    f"unit cell along {fmt(y)} is not a descent morphism"
                )
            cy[V] = mid
        ucell[y] = cy
    unit = IndexedFun(D, out, ucomp, ucell, name="η")
    return PlusResult(D, out, unit, minimal)


def stackify(D: IndexedCat, J: Topology, caps: _caps.Caps = _caps.DEFAULT) -> StackifyResult:
    once = plus(D, J, caps)
    twice = plus(once.output, J, caps)
    unit = compose_indexed_funs(twice.unit, once.unit)
    return StackifyResult(D, twice.output, unit, once, twice)


def plus_fun(F: IndexedFun, plus_src: PlusResult, plus_dst: PlusResult) -> IndexedFun:
    """Induced functor F⁺ : D⁺ -> E⁺ for F : D -> E over the same topology.

    Pushing a datum forward commutes with reindexing restriction on the nose,
    so the induced functor is strict."""
    D = plus_src.output
    E = plus_dst.output
    comp = {}
    for X in D.base.objects:
        M = plus_src.minimal[X]
        if plus_dst.minimal[X].mors != M.mors:
            raise InternalError("plus structures disagree on least covers")
        plan = Plan(F.D, M)
        omap = {a: push_datum(F, plan, a) for a in D.fib[X].objects}
        mmap = {}
        for mid, (a, b) in D.fib[X].mor.items():
            pc = plan.pushed(F, plan.components(mid))
            pid = plan.mor_id(omap[a], omap[b], pc)
            if pid not in E.fib[X].mor:
                raise InternalError("pushed descent morphism missing")
            mmap[mid] = pid
        comp[X] = Functor(D.fib[X], E.fib[X], omap, mmap, name=f"{F.name}⁺")
    return strict_indexed_fun(D, E, comp, name=f"{F.name}⁺")


def _unique_preimage(plan: Plan, V, W, delta):
    """The unique m : V -> W in F(X) whose comparison components equal
    delta, (F, R) the plan's and X the target of R; exists and is unique
    because the comparison is fully faithful."""
    fx = plan.D.fib[plan.R.target]
    found = None
    for m in fx.hom(V, W):
        if plan.comparison_mor(m) == delta:
            if found is not None:
                raise InternalError("comparison not faithful during factorization")
            found = m
    if found is None:
        raise InternalError("comparison not full during factorization")
    return found


def _factor_once(phi: IndexedFun, pres: PlusResult, caps) -> tuple:
    """psi : D⁺ -> F with an invertible modification psi ∘ unit => phi.

    Every step is canonical: glue the pushed datum, transport morphisms
    through the fully faithful comparison, and assemble cells from the
    compositors of F.  The witness modification comes out of the same
    gluing isos.  Data of D⁺ are pushed on the plan of (D, least cover)
    and glued on that of (F, least cover); glue isos are components in
    member order."""
    D = phi.D
    F = phi.E
    Dp = pres.output
    base = D.base
    plans = {X: Plan(F, M) for X, M in pres.minimal.items()}

    glue_obj = {}
    glue_iso = {}  # (X, a) -> components of comparison(V) -> push(a)
    comp = {}
    for X in base.objects:
        plan = plans[X]
        push = Plan(D, plan.R)
        fx = F.fib[X]
        cmp = [(V, comparison_datum(plan, V)) for V in fx.objects]
        omap = {}
        objs = Dp.fib[X].objects
        pushed = (push_datum(phi, push, a) for a in objs)
        for a, hit in zip(objs, glue(plan, cmp, pushed, caps)):
            if hit is None:
                raise InternalError(
                    f"descent datum over {fmt(X)} does not glue in a category "
                    f"that claimed to be a stack"
                )
            V, dm = hit
            omap[a] = V
            glue_obj[(X, a)] = V
            glue_iso[(X, a)] = dm
        mmap = {}
        for mid, (a, a2) in Dp.fib[X].mor.items():
            pc = push.pushed(phi, push.components(mid))
            delta = tuple(
                fib.compose(fib.inverse(i2), fib.compose(p, i1))
                for fib, p, i1, i2 in zip(plan.fibs, pc, glue_iso[(X, a)],
                                          glue_iso[(X, a2)])
            )
            mmap[mid] = _unique_preimage(plan, omap[a], omap[a2], delta)
        comp[X] = Functor(Dp.fib[X], fx, omap, mmap, name=f"ψ({fmt(X)})")

    cell = {}
    for y, (Y, X) in base.mor.items():
        PY = plans[Y]
        along = PY.along(y, plans[X])
        cy = {}
        for a in Dp.fib[X].objects:
            ar = Dp.res[y].ob(a)  # = restrict_datum(a, y) on the plan of Y
            W = glue_obj[(X, a)]
            ia = glue_iso[(X, a)]
            delta = tuple(
                fib.compose(fib.inverse(F.gamma(y, g, W)),
                            fib.compose(fib.inverse(ia[i]), i_g))
                for fib, g, i, i_g in zip(PY.fibs, PY.members, along,
                                          glue_iso[(Y, ar)])
            )
            cy[a] = _unique_preimage(PY, glue_obj[(Y, ar)], F.res[y].ob(W),
                                     delta)
        cell[y] = cy
    psi = IndexedFun(Dp, F, comp, cell, name=f"{phi.name}~" if phi.name else "ψ")

    # Witness: at V ∈ D(X), the glued object of push(comparison(V)) maps to
    # phi(V) by transporting the cell-corrected comparison through glue_iso.
    wit = {}
    for X in base.objects:
        plan = plans[X]
        wx = {}
        for V in D.fib[X].objects:
            a = pres.unit.comp[X].ob(V)
            delta = tuple(
                fib.compose(fib.inverse(phi.cell[f][V]), i)
                for fib, f, i in zip(plan.fibs, plan.members,
                                     glue_iso[(X, a)])
            )
            wx[V] = _unique_preimage(
                plan, glue_obj[(X, a)], phi.comp[X].ob(V), delta
            )
        wit[X] = wx
    witness = IndexedNat(compose_indexed_funs(psi, pres.unit), phi, wit)
    return psi, witness


@dataclass
class Reflection:
    psi: IndexedFun
    witness: IndexedNat
    stackified: StackifyResult


def reflect_through_unit(phi: IndexedFun, J: Topology,
                         caps: _caps.Caps = _caps.DEFAULT) -> Reflection:
    """Factor phi : D -> F through the stackification unit, F a stack.

    Returns psi : s_J(D) -> F together with the invertible modification
    psi ∘ unit => phi.  Raises ValueError, with `is_stack`'s reason, when
    F is not a stack."""
    st = is_stack(phi.E, J, caps)
    if not st:
        raise ValueError(st.reason)
    sres = stackify(phi.D, J, caps)
    psi1, w1 = _factor_once(phi, sres.once, caps)
    psi, w2 = _factor_once(psi1, sres.twice, caps)

    total = compose_indexed_funs(psi, sres.unit)
    comp = {}
    for X in phi.D.base.objects:
        cx = {}
        fx = phi.E.fib[X]
        for V in phi.D.fib[X].objects:
            u1 = sres.once.unit.comp[X].ob(V)
            cx[V] = fx.compose(w1.comp[X][V], w2.comp[X][u1])
        comp[X] = cx
    witness = IndexedNat(total, phi, comp)
    require(validate_indexed_nat(witness), "reflection witness invalid")
    return Reflection(psi, witness, sres)


# ---------------------------------------------------------------------------
# Discrete oracle: matching families on sets, implemented independently of
# the categorical machinery above.


def matching_families(P: Presheaf, R: Sieve, caps: _caps.Caps = _caps.DEFAULT):
    """All compatible assignments f ↦ s_f ∈ P(dom f) over the sieve, as
    canonical ("mf", ((f, s_f), ...)) tuples in stable order, by
    `caps.search`: the restriction along g reads s_f and s_{f∘g}."""
    base = P.base
    members = R.members()
    at = {f: i for i, f in enumerate(members)}
    restrictions = []
    for f in members:
        for g in base.into(base.dom(f)):
            jf, jfg = at[f], at[base.compose(f, g)]
            restrictions.append(((jf, jfg), (g, jf, jfg)))

    def restricts(r, fam):
        g, jf, jfg = r
        return P.act[g][fam[jf]] == fam[jfg]

    pools = [P.els[base.dom(f)] for f in members]
    closing = _caps.schedule(restrictions, len(members))
    out = list(map(tuple, _caps.search(pools, closing, restricts,
                                       _caps.Budget(caps))))
    try:
        out.sort()
    except TypeError:  # elements of several types: sort them as `ckey` does
        out.sort(key=ckey)
    return [("mf", tuple(zip(members, vals))) for vals in out]


def plus_presheaf(P: Presheaf, J: Topology, caps: _caps.Caps = _caps.DEFAULT):
    """One application of the set-level plus: sections over X become matching
    families on the least cover.  Returns (P⁺, unit components)."""
    base = P.base
    minimal = {X: minimal_cover(J, X) for X in base.objects}
    members = {X: R.members() for X, R in minimal.items()}
    els = {X: tuple(matching_families(P, minimal[X], caps)) for X in base.objects}
    values = {X: [dict(el[1]) for el in els[X]] for X in base.objects}
    act = {}
    for y, (Y, X) in base.mor.items():
        along = [(g, base.compose(y, g)) for g in members[Y]]
        act[y] = {el: ("mf", tuple((g, value[yg]) for g, yg in along))
                  for el, value in zip(els[X], values[X])}
    Pp = Presheaf(base, els, act, name=f"{P.name}⁺" if P.name else "P⁺")
    unit = {
        X: {
            e: ("mf", tuple((f, P.act[f][e]) for f in members[X]))
            for e in P.els[X]
        }
        for X in base.objects
    }
    for X in base.objects:
        els_x = set(els[X])
        for e in P.els[X]:
            if unit[X][e] not in els_x:
                raise InternalError("unit of the set-level plus escapes the image")
    return Pp, unit


def sheafify_with_unit(P: Presheaf, J: Topology, caps: _caps.Caps = _caps.DEFAULT):
    """Plus twice, with the composite unit P -> P⁺⁺.  J is taken to be a
    Grothendieck topology, as for `is_stack`.  The output is checked to be a
    J-sheaf on `least_covers(J)` alone, which is exact: a presheaf that is a
    sheaf for the least cover of every object is one for every cover, the
    discrete case of the argument in `descent`."""
    P1, u1 = plus_presheaf(P, J, caps)
    P2, u2 = plus_presheaf(P1, J, caps)
    unit = {
        X: {e: u2[X][u1[X][e]] for e in P.els[X]} for X in P.base.objects
    }
    sheaf = _sheaf_over(P2, least_covers(J), caps)
    if not sheaf:
        raise InternalError(f"double plus did not produce a sheaf: {sheaf.reason}")
    return P2, unit


def is_sheaf_presheaf(P: Presheaf, J: Topology, caps: _caps.Caps = _caps.DEFAULT) -> Check:
    """Sections are in bijection with matching families, for every cover."""
    return _sheaf_over(
        P, (R for X in P.base.objects for R in J.covers_of(X)), caps)


def _sheaf_over(P: Presheaf, sieves, caps) -> Check:
    """Sections are in bijection with matching families over each sieve in
    turn; if not, the first failure."""
    for R in sieves:
        X = R.target
        fams = matching_families(P, R, caps)
        seen = {}
        members = R.members()
        for e in P.els[X]:
            key = ("mf", tuple((f, P.act[f][e]) for f in members))
            if key in seen:
                return Check(
                    False,
                    f"not separated over {fmt(X)}: two sections restrict "
                    f"identically",
                    witness=(X, R, seen[key], e),
                )
            seen[key] = e
        for fam in fams:
            if fam not in seen:
                return Check(
                    False,
                    f"matching family over {fmt(X)} has no section",
                    witness=(X, R, fam),
                )
    return Check(True, "sheaf")
