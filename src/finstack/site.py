"""Sieves and Grothendieck topologies on finite sites.

A sieve on X is a set of morphisms into X closed under precomposition.  A
topology assigns each object a set of covering sieves satisfying maximality,
stability under pullback, and transitivity; `saturate` produces the smallest
such assignment containing a user-supplied coverage.  On a finite site a
topology is fixed by the least cover of each object, so `saturate` runs its
fixpoint over one sieve per object and then lists the sieves that contain it.

The sieve universe on X is enumerated as unions of principal sieves: every
sieve is the union of the principal sieves <f> = {f∘g} of its members, and
every such union is a sieve, so the work is proportional to the number of
sieves rather than to the 2^(in-degree) subsets of the arrows into X.  A
universe can still be exponential in the in-degree, so every function that
enumerates one takes a `Caps`: `--max-sieves-per-object` bounds
2^(in-degree), checked before anything is enumerated.

`validate_topology`, the independent check of the three axioms, keeps for
the length of one call a memo of the pullbacks h*(S) it has computed, with
one frozenset per distinct sieve.  Sets of sieves are ordered by
`FinCat.set_key`, which orders them as `ckey` does.
"""

from dataclasses import dataclass, field

from . import caps as _caps
from .fincat import FinCat, Functor
from .util import fmt, stable_sorted


class SiteError(Exception):
    """Input is not a sieve/topology in the way an operation requires."""


@dataclass(frozen=True)
class Sieve:
    target: object
    mors: frozenset
    base: FinCat = field(compare=False, hash=False, default=None, repr=False)

    def __contains__(self, m):
        return m in self.mors

    def members(self):
        return self.base.ordered(self.mors)

    def is_maximal(self):
        return self.mors == frozenset(self.base.into(self.target))


def validate_sieve(s: Sieve) -> list:
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


def _first_escape(c: FinCat, mors) -> str:
    """The finding for the first member f, in stable order, and arrow g with
    f∘g outside `mors`, a set of morphisms of c that is not a sieve."""
    for f in c.ordered(mors):
        for g in c.into(c.dom(f)):
            if c.compose(f, g) not in mors:
                return f"not closed: {fmt(f)} ∘ {fmt(g)} escapes the sieve"


def maximal_sieve(c: FinCat, x) -> Sieve:
    return Sieve(x, frozenset(c.into(x)), c)


def generate_sieve(c: FinCat, x, gens) -> Sieve:
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


def pullback_sieve(s: Sieve, h) -> Sieve:
    """h*(s) for h : y -> target(s): all g into y with h∘g a member."""
    c = s.base
    if c.cod(h) != s.target:
        raise SiteError(f"{fmt(h)} does not end at {fmt(s.target)}")
    return Sieve(c.dom(h), _pullback(c, s.mors, h), c)


def _pullback(c: FinCat, mors, h) -> frozenset:
    return frozenset(g for g in c.into(c.dom(h)) if c.compose(h, g) in mors)


def _pullback_memo(c: FinCat):
    """`pb(mors, h)`, the raw h*(mors), computed once per (mors, h) and kept
    as one frozenset object per distinct sieve.  Meant to live for one call."""
    memo, canon = {}, {}

    def pb(mors, h):
        p = memo.get((mors, h))
        if p is None:
            p = _pullback(c, mors, h)
            p = memo[(mors, h)] = canon.setdefault(p, p)
        return p

    return pb


def intersect_sieves(a: Sieve, b: Sieve) -> Sieve:
    if a.target != b.target:
        raise SiteError("sieves on different objects cannot intersect")
    return Sieve(a.target, a.mors & b.mors, a.base)


def sieves_on(c: FinCat, x, caps: _caps.Caps = _caps.DEFAULT):
    """All sieves on x, as raw frozensets, in a stable order.

    Built as the unions of principal sieves of arrows into x, starting from
    the empty sieve; the set never holds more than the final universe."""
    arrows = c.into(x)
    _caps.check(2 ** len(arrows), caps, "max_sieves_per_object",
                "sieve universe on {}", x)
    out = {frozenset()}
    for f in arrows:
        principal = frozenset(c.compose(f, g) for g in c.into(c.dom(f)))
        out |= {s | principal for s in out}
    return sorted(out, key=c.set_key)


@dataclass
class Topology:
    base: FinCat
    covers: dict  # object -> frozenset of frozensets of morphism ids

    def is_cover(self, s: Sieve) -> bool:
        return s.mors in self.covers.get(s.target, frozenset())

    def covers_of(self, x):
        """The covers of x in stable order.  Every member must be a morphism
        of `base`, which `validate_topology` guarantees."""
        return tuple(
            Sieve(x, mors, self.base)
            for mors in sorted(self.covers.get(x, ()), key=self.base.set_key)
        )

    def __eq__(self, other):
        if not isinstance(other, Topology):
            return NotImplemented
        return self.base == other.base and self.covers == other.covers


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

    for x in c.objects:
        bad = [validate_sieve(Sieve(x, mors, c)) for mors in J.covers[x]]
        errs += sorted(f"cover on {fmt(x)} is not a sieve: {b[0]}" for b in bad if b)
    if errs:
        return errs

    for x in c.objects:
        if frozenset(c.into(x)) not in J.covers[x]:
            errs.append(f"maximal sieve on {fmt(x)} is not covering")

    pb = _pullback_memo(c)
    for x in c.objects:
        unstable = []
        for mors in J.covers[x]:
            for h in c.into(x):
                if pb(mors, h) not in J.covers[c.dom(h)]:
                    unstable.append(
                        f"stability fails: pullback of a cover on {fmt(x)} "
                        f"along {fmt(h)} is not covering"
                    )
                    break
        errs += sorted(unstable)

    for x in c.objects:
        universe = sieves_on(c, x, caps)
        for cand in universe:
            if cand in J.covers[x]:
                continue
            for mors in J.covers[x]:
                if all(pb(cand, f) in J.covers[c.dom(f)] for f in mors):
                    errs.append(
                        f"transitivity fails: a sieve on {fmt(x)} is locally "
                        f"covering but missing"
                    )
                    break
            else:
                continue
            break
    return errs


def saturate(c: FinCat, coverage, caps: _caps.Caps = _caps.DEFAULT) -> Topology:
    """Smallest topology whose covers include the sieves generated by `coverage`.

    `coverage` maps objects to iterables of morphism families; each family is
    closed into a sieve first.  On a finite site covers are closed under
    intersection and enlargement, so a topology is fixed by its least covers
    M_x, and the covers of x are the sieves that contain M_x.  M_x starts as
    the intersection of the generated sieves on x and shrinks to a fixpoint
    under the two steps the axioms force: stability, M_y ⊆ h*(M_x) for every
    h : y -> x, and local character, M_x = {f∘g : f ∈ M_x, g ∈ M_(dom f)}.
    At the fixpoint the sieves containing M_x meet all three axioms, and
    every topology containing the coverage has least covers inside M, so the
    result is exact.  Each change removes an arrow, so the loop ends after
    at most Σ|into(x)| changes.
    """
    obset = set(c.objects)
    least = {x: frozenset(c.into(x)) for x in c.objects}
    for x, fams in coverage.items():
        if x not in obset:
            raise SiteError(f"coverage names unknown object {fmt(x)}")
        for fam in fams:
            least[x] &= generate_sieve(c, x, fam).mors

    changed = True
    while changed:
        changed = False
        for x in c.objects:
            for h in c.into(x):
                y = c.dom(h)
                p = least[y] & _pullback(c, least[x], h)
                if p != least[y]:
                    least[y] = p
                    changed = True
            local = frozenset(c.compose(f, g) for f in least[x]
                              for g in least[c.dom(f)])
            if local != least[x]:
                least[x] = local
                changed = True
    return Topology(c, {
        x: frozenset(s for s in sieves_on(c, x, caps) if least[x] <= s)
        for x in c.objects
    })


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


def least_cover_pullbacks(J: Topology):
    """The pullbacks h*(M_x) along every h : y -> x, where M_x is the
    intersection of the covers of x, for every x that has covers.

    Objects and arrows come in stable order; a sieve repeated on the same y
    is kept once, and sieves containing id_y are left out.  When the sieves
    on whose every pullback a property holds form a topology, as they do for
    descent (see `descent`), a property that holds on all of these holds on
    every cover of J, because every cover of x contains M_x."""
    c = J.base
    seen, out = set(), []
    for x in stable_sorted(c.objects):
        sieves = J.covers.get(x)
        if not sieves:
            continue
        least = frozenset.intersection(*sieves)
        for h in c.into(x):
            y = c.dom(h)
            p = _pullback(c, least, h)
            if c.ident[y] not in p and (y, p) not in seen:
                seen.add((y, p))
                out.append(Sieve(y, p, c))
    return out


def slice_cat(c: FinCat, x):
    """The slice over x and its projection functor.

    Objects are morphisms into x (including the identity); a morphism from g
    to f is (f, h) with f∘h = g.  Projection sends f to dom f and (f, h) to h.
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


def slice_site(J: Topology, x, caps: _caps.Caps = _caps.DEFAULT):
    """(C/x, induced topology, projection): a slice sieve covers f exactly
    when its image under the projection covers dom f downstairs."""
    c = J.base
    sl, proj = slice_cat(c, x)
    covers = {}
    for f in sl.objects:
        y = c.dom(f)
        good = set()
        for cand in sieves_on(sl, f, caps):
            image = frozenset(h for (_, h) in cand)
            if image in J.covers[y]:
                good.add(cand)
        covers[f] = frozenset(good)
    JX = Topology(sl, covers)
    return sl, JX, proj
