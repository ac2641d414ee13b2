"""Sieves and Grothendieck topologies on finite sites.

A sieve on X is a set of morphisms into X closed under precomposition.  A
topology assigns each object a set of covering sieves satisfying maximality,
stability under pullback, and transitivity; `saturate` produces the smallest
such assignment containing a user-supplied coverage.  On a finite site a
topology is fixed by the least cover of each object, so `saturate` runs its
fixpoint over one sieve per object and then lists the sieves that contain it.
The same fixpoint gives `least_covers`, the sieves on which descent and the
sheaf condition are decided; a topology keeps its least covers as masks.

Inside this module a sieve on x is an int, a bitmask: bit j stands for the
j-th arrow of `c.into(x)`, which is in stable order, so bit order is stable
order.  For h : y -> x the gather table of h holds, for each g in
`c.into(y)`, the bit of h∘g on x; the pullback h*(S) takes bit j from the
bit of h∘g_j in S, and the image {h∘g : g ∈ T} is the union of the bits
that T selects.  The numbering and the tables are built per call
(`_Bits`) and dropped with it; nothing is cached on a `FinCat`.  Public
functions take and return sieves as frozensets of morphism ids, and masks
are made as they are read: `saturate` generates the sieve of a coverage
family as the union of its generators' principal sieves, and
`validate_topology` sets the bit of each member of a cover as it types it,
then checks closure on the mask: a set S of arrows into x is a sieve when
the principal sieve of each of its members lies inside S.

The sieve universe on X is enumerated as unions of principal sieves: every
sieve is the union of the principal sieves <f> = {f∘g} of its members, and
every such union is a sieve, so the work is proportional to the number of
sieves rather than to the 2^(in-degree) subsets of the arrows into X.
Started from a sieve M instead of the empty one, the same enumeration lists
exactly the sieves that contain M, which is how `saturate` lists covers.  A
universe can still be exponential in the in-degree, so every function that
enumerates one takes a `Caps`: `--max-sieves-per-object` bounds
2^(in-degree), checked before anything is enumerated.

`validate_topology`, the independent check of the three axioms, checks
transitivity through the local sieve of each candidate S on x, L(S) = {f :
f*(S) covers dom f}: S is locally covering exactly when some cover lies
inside L(S), so each candidate costs one pullback per arrow, not one per
(cover, member).  A sieve lists its members in `into` order, and sets of
sieves are ordered by the bit positions of their masks; both orders are
the ones `ckey` gives.
"""

from dataclasses import dataclass, field

from . import caps as _caps
from .fincat import FinCat, Functor
from .util import fmt


class SiteError(Exception):
    """Input is not a sieve/topology in the way an operation requires."""


@dataclass(frozen=True)
class Sieve:
    target: object
    mors: frozenset
    base: FinCat = field(compare=False, hash=False, repr=False)

    def members(self):
        return [m for m in self.base.into(self.target) if m in self.mors]


class _Bits:
    """One call's bitmasks on the arrows of `c`: bit j of a mask on x is
    `c.into(x)[j]`.  Numberings and gather tables are built on first use
    and live as long as this object, which a caller keeps for one call."""

    __slots__ = ("c", "_bits", "_arrows")

    def __init__(self, c: FinCat):
        self.c = c
        self._bits = {}
        self._arrows = {}

    def bits(self, x) -> dict:
        """Each arrow into x, in `into` order, with its bit on x."""
        index = self._bits.get(x)
        if index is None:
            index = self._bits[x] = {
                m: 1 << j for j, m in enumerate(self.c.into(x))}
        return index

    def arrows(self, x) -> dict:
        """Each arrow f : y -> x, in `into` order, with (y, the bit of f,
        the gather table of f, the principal sieve <f> = {f∘g}).  The
        gather table holds the bit of f∘g for each g in `c.into(y)`."""
        out = self._arrows.get(x)
        if out is None:
            c = self.c
            bit = self.bits(x)
            out = self._arrows[x] = {}
            for f, b in bit.items():
                y = c.dom(f)
                t = tuple(bit[c.compose(f, g)] for g in c.into(y))
                p = 0
                for hb in t:
                    p |= hb
                out[f] = (y, b, t, p)
        return out

    def full(self, x) -> int:
        """The maximal sieve on x."""
        return (1 << len(self.c.into(x))) - 1

    def mask(self, x, mors) -> int:
        """The arrows into x that `mors` holds; anything else is ignored."""
        return sum(b for m, b in self.bits(x).items() if m in mors)

    def members(self, x, s: int) -> frozenset:
        return frozenset(m for m, b in self.bits(x).items() if s & b)

    def universe(self, x, caps: _caps.Caps, start: int = 0) -> set:
        """The sieves on x that contain the sieve `start`, as masks: the
        unions of `start` with principal sieves, adding one arrow at a
        time; the set never holds more than the final universe."""
        _caps.check(2 ** len(self.c.into(x)), caps, "max_sieves_per_object",
                    "sieve universe on {}", x)
        out = {start}
        for _, _, _, p in self.arrows(x).values():
            if p & ~start:
                out |= {s | p for s in out}
        return out


def _pull(table, s: int) -> int:
    """h*(s) from the gather table of h: bit j is set when s holds h∘g_j."""
    p = 0
    b = 1
    for hb in table:
        if s & hb:
            p |= b
        b <<= 1
    return p


def _push(table, s: int) -> int:
    """{h∘g : g in s} from the gather table of h, for a mask s on dom h."""
    p = 0
    for hb in table:
        if s & 1:
            p |= hb
        s >>= 1
    return p


def _bit_positions(s: int) -> tuple:
    return tuple(j for j in range(s.bit_length()) if s >> j & 1)


def sieves_on(c: FinCat, x, caps: _caps.Caps = _caps.DEFAULT):
    """All sieves on x, as raw frozensets, in a stable order.

    Bit order is stable order, so sorting masks by their set bits orders
    the sieves as `ckey` orders their sorted members."""
    bits = _Bits(c)
    return [bits.members(x, s)
            for s in sorted(bits.universe(x, caps), key=_bit_positions)]


@dataclass
class Topology:
    base: FinCat
    covers: dict  # object -> frozenset of frozensets of morphism ids
    # The least cover of each object of `base.objects`, in that order, as a
    # mask on `base.into(x)`: set by `saturate`, else by the first
    # `least_covers(J)`.  A tuple, since every input of a run may hold its
    # topology.  Never compared.
    _least: tuple = field(default=None, init=False, compare=False, repr=False)

    def covers_of(self, x):
        """The covers of x in stable order, as `sieves_on` lists them.
        Every member must end at x, which `validate_topology` guarantees."""
        bits = _Bits(self.base)
        return tuple(
            Sieve(x, mors, self.base)
            for mors in sorted(self.covers.get(x, ()),
                               key=lambda mors: _bit_positions(bits.mask(x, mors)))
        )


def _cover_mask(bits: _Bits, x, mors):
    """The mask of a cover on x and, when the cover is not a sieve of
    arrows into x, its finding: the least typing finding by text, else the
    first member f, in stable order, and arrow g with f∘g outside it."""
    c, bit = bits.c, bits.bits(x)
    s, typing = 0, []
    for m in mors:
        if m in bit:
            s |= bit[m]
        elif m in c.mor:
            typing.append(f"member {fmt(m)} does not end at {fmt(x)}")
        else:
            typing.append(f"member {fmt(m)} is not a morphism")
    if typing:
        return s, min(typing)
    for f, (y, b, t, p) in bits.arrows(x).items():
        if s & b and p & ~s:
            g = next(g for g, hb in zip(c.into(y), t) if not s & hb)
            return s, f"not closed: {fmt(f)} ∘ {fmt(g)} escapes the sieve"
    return s, None


def validate_topology(J: Topology, caps: _caps.Caps = _caps.DEFAULT) -> list:
    """Violations of the three covering-sieve axioms, as strings.

    Covers are sets, so the findings on the covers of one object are
    sorted, which makes them independent of the hash seed."""
    c = J.base
    errs = []
    obset = set(c.objects)
    for x in J.covers:
        if x not in obset:
            errs.append(f"covers listed for unknown object {fmt(x)}")
    for x in c.objects:
        if x not in J.covers:
            errs.append(f"no covers assigned to {fmt(x)}")
    if errs:
        return errs

    bits = _Bits(c)
    cov = {x: set() for x in c.objects}
    for x in c.objects:
        bad = []
        for mors in J.covers[x]:
            s, finding = _cover_mask(bits, x, mors)
            cov[x].add(s)
            if finding:
                bad.append(f"cover on {fmt(x)} is not a sieve: {finding}")
        errs += sorted(bad)
    if errs:
        return errs

    for x in c.objects:
        if bits.full(x) not in cov[x]:
            errs.append(f"maximal sieve on {fmt(x)} is not covering")

    for x in c.objects:
        unstable = []
        for s in cov[x]:
            for h, (y, _, t, _) in bits.arrows(x).items():
                if _pull(t, s) not in cov[y]:
                    unstable.append(
                        f"stability fails: pullback of a cover on {fmt(x)} "
                        f"along {fmt(h)} is not covering"
                    )
                    break
        errs += sorted(unstable)

    for x in c.objects:
        universe = bits.universe(x, caps)
        steps = [(b, t, cov[y]) for y, b, t, _ in bits.arrows(x).values()]
        for cand in universe:
            if cand in cov[x]:
                continue
            local = 0  # L(cand): the f along which cand pulls back to a cover
            for b, t, covers in steps:
                if _pull(t, cand) in covers:
                    local |= b
            if any(not r & ~local for r in cov[x]):
                errs.append(
                    f"transitivity fails: a sieve on {fmt(x)} is locally "
                    f"covering but missing"
                )
                break
    return errs


def saturate(c: FinCat, coverage, caps: _caps.Caps = _caps.DEFAULT) -> Topology:
    """Smallest topology whose covers include the sieves generated by `coverage`.

    `coverage` maps objects to iterables of morphism families; each family is
    closed into a sieve first.  On a finite site covers are closed under
    intersection and enlargement, so a topology is fixed by its least covers
    M_x (`_least_masks`), and the covers of x are the sieves that contain
    M_x.  The topology keeps its least covers for `least_covers`.
    """
    bits = _Bits(c)
    least = _least_masks(bits, coverage)
    J = Topology(c, {
        x: frozenset(bits.members(x, s)
                     for s in bits.universe(x, caps, least[x]))
        for x in c.objects
    })
    J._least = tuple(least.values())
    return J


def _least_masks(bits: _Bits, coverage) -> dict:
    """The least cover M_x of every object x of the smallest topology whose
    covers include the sieves generated by `coverage`, as masks.

    M_x starts as the intersection of the generated sieves on x and shrinks
    to a fixpoint under the two steps the axioms force: stability, M_y ⊆
    h*(M_x) for every h : y -> x, and local character, M_x = {f∘g : f ∈
    M_x, g ∈ M_(dom f)}.  At the fixpoint the sieves containing M_x meet all
    three axioms, and every topology containing the coverage has least
    covers inside M, so the result is exact.  Each change removes an arrow,
    so the loop ends after at most Σ|into(x)| changes."""
    c = bits.c
    obset = set(c.objects)
    least = {x: bits.full(x) for x in c.objects}
    for x, fams in coverage.items():
        if x not in obset:
            raise SiteError(f"coverage names unknown object {fmt(x)}")
        arrows = bits.arrows(x)
        for fam in fams:
            generated = 0
            for f in fam:
                if f not in arrows:
                    raise SiteError(
                        f"generator {fmt(f)} is not a morphism into {fmt(x)}")
                generated |= arrows[f][3]
            least[x] &= generated

    changed = True
    while changed:
        changed = False
        for x in c.objects:
            arrows = bits.arrows(x).values()
            for y, _, t, _ in arrows:
                p = least[y] & _pull(t, least[x])
                if p != least[y]:
                    least[y] = p
                    changed = True
            local = 0
            for y, b, t, _ in arrows:
                if least[x] & b:
                    local |= _push(t, least[y])
            if local != least[x]:
                least[x] = local
                changed = True
    return least


def least_covers(J: Topology) -> list:
    """The least cover M_x of every object x on which it is not the maximal
    sieve, in stable order.

    For a topology J, M_x is the intersection of the covers of x.  A listed
    J that is not a topology stands for the topology its least covers
    generate, `saturate(c, {x: [∩ J.covers[x]]})`, and its M_x are that
    topology's; an object with no covers listed gets the maximal sieve.
    The masks are worked out once per J, by `saturate` or on the first call
    here, and kept on J; the sieves are built on each call."""
    c = J.base
    least = J._least
    if least is None:
        least = J._least = tuple(_least_masks(_Bits(c), {
            x: [frozenset.intersection(*J.covers[x])]
            for x in c.objects if J.covers.get(x)}).values())
    out = []
    for x, s in zip(c.objects, least):
        into = c.into(x)
        if s != (1 << len(into)) - 1:
            out.append(Sieve(x, frozenset(
                m for j, m in enumerate(into) if s >> j & 1), c))
    return out


def minimal_cover(J: Topology, x) -> Sieve:
    """Intersection of all covers of x.

    In a saturated topology the intersection of covers is again a cover, so
    this is the least covering sieve.  Raises SiteError when the intersection
    is not itself listed, which means J was not saturated.
    """
    sieves = list(J.covers.get(x, ()))
    if not sieves:
        raise SiteError(f"no covers recorded on {fmt(x)}")
    acc = set(sieves[0])
    for mors in sieves[1:]:
        acc &= mors
    acc = frozenset(acc)
    if acc not in J.covers[x]:
        raise SiteError(f"topology is not saturated at {fmt(x)}")
    return Sieve(x, acc, J.base)


def slice_cat(c: FinCat, x):
    """The slice over x and its projection functor.

    Objects are morphisms into x (including the identity); a morphism from g
    to f is (f, h) with f∘h = g.  Projection sends f to dom f and (f, h) to h.
    Both are listed in stable order: by f, then h, each in `into` order.
    """
    objects = tuple(c.into(x))
    mor = {}
    for f in objects:
        for h in c.into(c.dom(f)):
            mor[(f, h)] = (c.compose(f, h), f)
    ident = {f: (f, c.ident[c.dom(f)]) for f in objects}
    sl = FinCat.from_homs(
        objects,
        mor,
        ident,
        lambda g, f: (g[0], c.compose(g[1], f[1])),
        name=f"{c.name or 'C'}/{fmt(x)}",
    )
    proj = Functor(
        sl,
        c,
        {f: c.dom(f) for f in objects},
        {(f, h): h for (f, h) in mor},
        name="dom",
    )
    return sl, proj


def slice_site(J: Topology, x):
    """(C/x, induced topology, projection): a slice sieve covers f exactly
    when its image under the projection covers dom f downstairs.  The
    arrows into f are the (f, h) with h into dom f, so the covers of f are
    read off those of dom f."""
    c = J.base
    sl, proj = slice_cat(c, x)
    covers = {
        f: frozenset(frozenset((f, h) for h in R) for R in J.covers[c.dom(f)])
        for f in sl.objects
    }
    return sl, Topology(sl, covers), proj
