"""The total category of an indexed category, with its fibration structure.

`grothendieck` flattens an indexed category D over C into one finite
category: objects are pairs (X, U) with U in the fibre over X, morphisms are
pairs of a base morphism y : X -> X' and a fibre morphism a : U -> D(y)(U'),
and composition corrects the nesting with D's compositors.  The projection
onto the first component is a fibration in the concrete sense used here:
every (y, U') has a cartesian lift, and `canonical_lift` is the one place
that writes the chosen one, (y, id, U').  The cartesian morphisms are exactly
those whose fibre component is invertible; `fibadj.cartesian_arrows` decides
them by the universal property.

`essential_fibre_cat` is the one essential fibre: for a functor F and an
object U of its target, the pairs (A, alpha) with alpha : U -> F(A)
invertible, and the morphisms of F's source that commute with them.
`check_lemma_3_1` takes one object per isomorphism class of it for the
projection of a total category (`fincat.iso_classes`), and `fibadj.R_D`
builds its fibres with it.

`giraud_topology` transfers a topology on the base to the total category:
a sieve covers (X, U) when it absorbs the cartesian lifts of some covering
sieve of X.  Concretely the lifts of the least cover of X generate a
sieve, which is then saturated; the result is kept on G per topology and
caps (`util.reused`).  `fiber_transport` sends each object of the slice over X
to the domain of its chosen lift, and `check_lemma_3_1` tests the
fiberwise stack criterion: an indexed category over the total category is
a stack for the transferred topology exactly when all of its transported
restrictions are stacks over the slice sites.
"""

from dataclasses import dataclass, field

from . import caps as _caps
from .descent import is_stack
from .fincat import (
    Check,
    FinCat,
    Functor,
    InternalError,
    iso_classes,
    require,
    validate_fincat,
)
from .indexed import IndexedCat, precompose_indexed
from .site import SiteError, Topology, least_covers, saturate, slice_cat, slice_site
from .util import fmt, reused


@dataclass
class GrothCat:
    total: FinCat
    proj: Functor
    source: IndexedCat
    _memo: dict = field(default=None, init=False, compare=False, repr=False)


def grothendieck(D: IndexedCat, caps: _caps.Caps = _caps.DEFAULT, name="") -> GrothCat:
    """Flatten an indexed category into its total category and projection.

    Morphism ids are triples (y, a, U') recording the base morphism, the
    fibre component a : U -> D(y)(U'), and the target fibre object (needed
    because D(y) may identify objects).  Both are listed in stable order:
    objects by X, then U; morphisms by y, then a, then U'.
    """
    base = D.base
    objects = tuple((X, U) for X in base.objects for U in D.fib[X].objects)
    mor = {}
    for y, (Xd, Xc) in base.mor.items():
        over = {}
        for U2 in D.fib[Xc].objects:
            over.setdefault(D.res[y].ob(U2), []).append(U2)
        for a, (U1, tgt) in D.fib[Xd].mor.items():
            for U2 in over.get(tgt, ()):
                mor[(y, a, U2)] = ((Xd, U1), (Xc, U2))
        _caps.check(len(mor), caps, "max_descent", "total category size")

    ident = {
        (X, U): (base.ident[X], D.unit(X, U), U)
        for X in base.objects
        for U in D.fib[X].objects
    }

    def compose(m2, m1):
        (y1, a1, _), (y2, a2, U3) = m1, m2
        fib1 = D.fib[base.dom(y1)]
        a = fib1.compose(D.gamma(y2, y1, U3), fib1.compose(D.res[y1].mo(a2), a1))
        return (base.compose(y2, y1), a, U3)

    total = FinCat.from_homs(
        objects, mor, ident, compose, name=name or f"groth({D.name or '?'})")
    require(validate_fincat(total, caps), "total category invalid")
    proj = Functor(
        total,
        base,
        {o: o[0] for o in objects},
        {m: m[0] for m in mor},
        name="proj",
    )
    require(proj.validate(), "projection invalid")
    return GrothCat(total, proj, D)


def fibre_inclusion(G: GrothCat, X) -> Functor:
    """D(X) -> total, U ↦ (X, U), with vertical morphisms over the identity."""
    D = G.source
    fx = D.fib[X]
    omap = {U: (X, U) for U in fx.objects}
    mmap = {}
    for m, (_, W) in fx.mor.items():
        mmap[m] = (D.base.ident[X], fx.compose(D.unit(X, W), m), W)
    F = Functor(fx, G.total, omap, mmap, name=f"incl({fmt(X)})")
    require(F.validate(), "fibre inclusion at {}", X)
    return F


def canonical_lift(G: GrothCat, y, U):
    """The chosen cartesian lift of y at U: the identity-component morphism
    (y, id, U), which `grothendieck` adds for every y and U."""
    D = G.source
    m = (y, D.fib[D.base.dom(y)].ident[D.res[y].ob(U)], U)
    if m not in G.total.mor:
        raise InternalError(f"no cartesian lift of {fmt(y)} at {fmt(U)}")
    return m


@reused()
def giraud_topology(G: GrothCat, J: Topology, caps: _caps.Caps = _caps.DEFAULT) -> Topology:
    """Transfer J to the total category: generate from the cartesian lifts
    of the least cover of each X (`site.least_covers`), then saturate.

    That is the topology one family per cover generates.  Lifts are
    cartesian, so the sieve that the lifts of a base sieve R generate is
    the preimage of R under the projection; `saturate` starts from the
    intersection of the generated sieves, and preimages meet as the
    covers do.  Where the least cover of X is maximal, so is every sieve
    its lifts generate, so X is left out of the coverage."""
    if J.base != G.source.base:
        raise SiteError("topology does not live on the base of the total category")
    least = {R.target: R.members() for R in least_covers(J)}
    coverage = {(X, U): [[canonical_lift(G, f, U) for f in least[X]]]
                for (X, U) in G.total.objects if X in least}
    return saturate(G.total, coverage, caps)


def essential_fibre_cat(
    F: Functor, U, caps: _caps.Caps = _caps.DEFAULT, name=""
) -> FinCat:
    """Objects (A, alpha) with alpha : U -> F(A) invertible, in stable order;
    a morphism (alpha, beta, w) is w : A -> B with F(w)∘alpha == beta."""
    E0, B0 = F.src, F.dst
    objects = []
    for A in E0.objects:
        for alpha in B0.hom(U, F.ob(A)):
            if B0.is_iso(alpha):
                objects.append((A, alpha))
    _caps.check(len(objects), caps, "max_descent", "essential fibre size")
    mor = {}
    for (A, alpha) in objects:
        for (B, beta) in objects:
            for w in E0.hom(A, B):
                if B0.compose(F.mo(w), alpha) == beta:
                    mor[(alpha, beta, w)] = ((A, alpha), (B, beta))
    _caps.check(len(mor), caps, "max_descent", "essential fibre size")
    ident = {(A, alpha): (alpha, alpha, E0.ident[A]) for (A, alpha) in objects}
    # The objects are listed in stable order; a morphism (alpha, beta, w)
    # orders by the positions of its three parts in `B0.mor` and `E0.mor`.
    b_pos = {m: i for i, m in enumerate(B0.mor)}
    e_pos = {m: i for i, m in enumerate(E0.mor)}
    mor = {m: mor[m] for m in sorted(
        mor, key=lambda m: (b_pos[m[0]], b_pos[m[1]], e_pos[m[2]]))}
    cat = FinCat.from_homs(
        objects,
        mor,
        ident,
        lambda m2, m1: (m1[0], m2[1], E0.compose(m2[2], m1[2])),
        name=name or f"ess({fmt(U)})",
    )
    require(validate_fincat(cat, caps), "essential fibre malformed")
    return cat


def fiber_transport(G: GrothCat, A_alpha) -> Functor:
    """The slice over X into the total category, through the chosen lifts.

    An object g : Y -> X goes to the domain of `canonical_lift` of alpha∘g
    at the fibre part of A; a slice morphism (f, h) goes to h with the
    inverse compositor as its fibre component, which is strictly functorial
    because the compositors satisfy the cocycle identity.
    """
    A, alpha = A_alpha
    D = G.source
    base = D.base
    total = G.total
    X = base.dom(alpha)
    UA = A[1]
    sl, _ = slice_cat(base, X)

    omap = {
        g: total.dom(canonical_lift(G, base.compose(alpha, g), UA))
        for g in sl.objects
    }
    mmap = {}
    for (f, h) in sl.mor:
        gamma = D.gamma(base.compose(alpha, f), h, UA)
        mmap[(f, h)] = (h, D.fib[base.dom(h)].inverse(gamma), omap[f][1])
    F = Functor(sl, total, omap, mmap, name=f"transport({fmt(X)})")
    require(F.validate(), "fiber transport not a functor")
    return F


@dataclass
class CriterionReport:
    """Outcome of the fiberwise stack criterion: the global side, the
    fiberwise side, and one boolean per checked essential-fibre object."""

    agree: bool
    total_side: Check
    fiber_side: Check
    instances: list  # (X, (A, alpha), bool)

    def __bool__(self):
        return self.agree


def check_lemma_3_1(
    E: IndexedCat,
    G: GrothCat,
    J: Topology,
    caps: _caps.Caps = _caps.DEFAULT,
) -> CriterionReport:
    """Test the fiberwise stack criterion on one instance.

    Computes both sides independently: is_stack of E over the transferred
    topology on the total category, and is_stack of every transported
    restriction E∘F over the slice site at every base object, one F per
    isomorphism class of essential-fibre objects (isomorphic objects give
    equivalent restrictions).
    """
    if E.base != G.total:
        raise ValueError("indexed category does not live over the total category")
    JD = giraud_topology(G, J, caps)
    total_side = is_stack(E, JD, caps)

    base = G.source.base
    fiber_side = Check(True, "all transported restrictions are stacks")
    instances = []
    for X in base.objects:
        sl, JX, _ = slice_site(J, X)
        for cls in iso_classes(essential_fibre_cat(G.proj, X, caps)):
            A, alpha = cls[0]
            F = fiber_transport(G, (A, alpha))
            c = is_stack(precompose_indexed(E, F), JX, caps)
            instances.append((X, (A, alpha), bool(c)))
            if not c and fiber_side.ok:
                fiber_side = Check(
                    False,
                    f"transported restriction at {fmt(X)} via {fmt(A)} is "
                    f"not a stack: {c.reason}",
                    witness=(X, (A, alpha), c.witness),
                )
    agree = bool(total_side) == bool(fiber_side)
    return CriterionReport(agree, total_side, fiber_side, instances)
