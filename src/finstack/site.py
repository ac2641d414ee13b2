"""Sieves and Grothendieck topologies on finite sites.

A sieve on X is a set of morphisms into X closed under precomposition.  A
topology assigns each object a set of covering sieves satisfying maximality,
stability under pullback, and transitivity; `saturate` produces the smallest
such assignment containing a user-supplied coverage, by fixpoint over the
enumerated sieve universe.

Sieve universes are exponential in the in-degree of an object, so every
function that enumerates them takes a `Caps` and fails loudly instead of
grinding.
"""

from dataclasses import dataclass, field

from . import caps as _caps
from .fincat import FinCat, Functor, InternalError
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
    """Violations of sieve-hood: membership typing and precomposition closure."""
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
        return errs
    for f in s.mors:
        for g in c.into(c.dom(f)):
            if c.compose(f, g) not in s.mors:
                errs.append(
                    f"not closed: {fmt(f)} ∘ {fmt(g)} escapes the sieve"
                )
                return errs
    return errs


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
    y = c.dom(h)
    return Sieve(y, frozenset(g for g in c.into(y) if c.compose(h, g) in s.mors), c)


def intersect_sieves(a: Sieve, b: Sieve) -> Sieve:
    if a.target != b.target:
        raise SiteError("sieves on different objects cannot intersect")
    return Sieve(a.target, a.mors & b.mors, a.base)


def sieves_on(c: FinCat, x, caps: _caps.Caps = _caps.DEFAULT):
    """All sieves on x, as raw frozensets, in a stable order."""
    arrows = list(c.into(x))
    _caps.check(2 ** len(arrows), caps, "max_sieves_per_object",
                "sieve universe on {}", x)
    out = []
    for bits in range(2 ** len(arrows)):
        mors = frozenset(a for i, a in enumerate(arrows) if bits >> i & 1)
        if _closed(c, mors):
            out.append(mors)
    return stable_sorted(out)


def _closed(c: FinCat, mors) -> bool:
    for f in mors:
        for g in c.into(c.dom(f)):
            if c.compose(f, g) not in mors:
                return False
    return True


@dataclass
class Topology:
    base: FinCat
    covers: dict  # object -> frozenset of frozensets of morphism ids

    def is_cover(self, s: Sieve) -> bool:
        return s.mors in self.covers.get(s.target, frozenset())

    def covers_of(self, x):
        return tuple(
            Sieve(x, mors, self.base) for mors in stable_sorted(self.covers.get(x, ()))
        )

    def __eq__(self, other):
        if not isinstance(other, Topology):
            return NotImplemented
        return self.base == other.base and self.covers == other.covers


def validate_topology(J: Topology, caps: _caps.Caps = _caps.DEFAULT) -> list:
    """Violations of the three covering-sieve axioms, as strings."""
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
        for mors in J.covers[x]:
            bad = validate_sieve(Sieve(x, mors, c))
            if bad:
                errs.append(f"cover on {fmt(x)} is not a sieve: {bad[0]}")
    if errs:
        return errs

    for x in c.objects:
        if frozenset(c.into(x)) not in J.covers[x]:
            errs.append(f"maximal sieve on {fmt(x)} is not covering")

    for x in c.objects:
        for mors in J.covers[x]:
            s = Sieve(x, mors, c)
            for h in c.into(x):
                if pullback_sieve(s, h).mors not in J.covers[c.dom(h)]:
                    errs.append(
                        f"stability fails: pullback of a cover on {fmt(x)} "
                        f"along {fmt(h)} is not covering"
                    )
                    break

    for x in c.objects:
        universe = sieves_on(c, x, caps)
        for cand in universe:
            if cand in J.covers[x]:
                continue
            s = Sieve(x, cand, c)
            for mors in J.covers[x]:
                if all(
                    pullback_sieve(s, f).mors in J.covers[c.dom(f)] for f in mors
                ):
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
    closed into a sieve first.  Saturation alternates stability and
    transitivity closure until a fixpoint, which exists because the sieve
    universe is finite and both steps are monotone.
    """
    obset = set(c.objects)
    covers = {x: {frozenset(c.into(x))} for x in c.objects}
    for x, fams in coverage.items():
        if x not in obset:
            raise SiteError(f"coverage names unknown object {fmt(x)}")
        for fam in fams:
            covers[x].add(generate_sieve(c, x, fam).mors)

    universe = {x: sieves_on(c, x, caps) for x in c.objects}
    rounds = 0
    changed = True
    while changed:
        rounds += 1
        _caps.check(rounds, caps, "max_closure", "saturation rounds")
        changed = False
        for x in c.objects:
            for mors in list(covers[x]):
                s = Sieve(x, mors, c)
                for h in c.into(x):
                    p = pullback_sieve(s, h).mors
                    if p not in covers[c.dom(h)]:
                        covers[c.dom(h)].add(p)
                        changed = True
        for x in c.objects:
            for cand in universe[x]:
                if cand in covers[x]:
                    continue
                s = Sieve(x, cand, c)
                for mors in covers[x]:
                    if all(
                        pullback_sieve(s, f).mors in covers[c.dom(f)]
                        for f in mors
                    ):
                        covers[x].add(cand)
                        changed = True
                        break
    return Topology(c, {x: frozenset(v) for x, v in covers.items()})


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
