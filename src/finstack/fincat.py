"""Finite categories presented by total composition tables.

A `FinCat` is four pieces of data: a tuple of object ids, a dict mapping each
morphism id to its (dom, cod) pair, a dict giving the identity morphism of
each object, and a dict giving the composite of every composable pair.
Object and morphism ids are arbitrary hashable values; builders in this
package use strings for hand-written input and nested tuples for constructed
artifacts.

A category stores its objects and its morphisms in stable (`ckey`) order,
and `hom` and `into` list them in that order.  Every category the library
builds is built by `FinCat.from_homs`, which fills the table from a
composition rule over the composable pairs of its morphisms and stores the
ids as its builder lists them.  Builders from other categories walk their
parts in stable order (`descent.desc_cat`, `groth.grothendieck`, the
iso-comma of `fibadj`, `site.slice_cat`, `product_cat`); the others sort
once themselves (`discrete_cat`, `poset_cat`, `groth.essential_fibre_cat`,
a DSL `category` block).  `FinCat(...)`, for categories given whole (input
readers, outside callers), sorts by `ckey`.
All predicates (`is_fully_faithful`, `is_essentially_surjective`,
`is_equivalence`) run by exhaustive search and return a `Check` carrying a
human-readable reason and a witness, never a bare bool.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import product as iproduct

from . import caps as _caps
from .caps import Budget, schedule, search
from .util import ckey, fmt, stable_sorted


class InternalError(AssertionError):
    """A constructed artifact violated an invariant the library guarantees."""


@dataclass
class Check:
    ok: bool
    reason: str = ""
    witness: object = None

    def __bool__(self):
        return self.ok


class FinCat:
    __slots__ = (
        "name", "objects", "mor", "ident", "table", "_hom", "_into", "_inv",
    )

    def __init__(self, objects, mor, ident, table, name=""):
        """A category given whole: `objects` and `mor` are stored sorted by
        `ckey`."""
        self._store(sorted(objects, key=ckey),
                    sorted(mor.items(), key=lambda it: ckey(it[0])),
                    ident, table, name)

    @classmethod
    def from_homs(cls, objects, mor, ident, compose, name=""):
        """The category whose table holds `compose(g, f)` for every
        composable pair, walking each f and each g out of cod(f) in `mor`
        order.  A composite that is not in `mor` is a construction bug.
        The builder lists `objects` and `mor` in stable order; they are
        stored as listed."""
        by_dom = {}
        for m, (d, _) in mor.items():
            by_dom.setdefault(d, []).append(m)
        table = {}
        for f, (_, c) in mor.items():
            for g in by_dom.get(c, ()):
                h = compose(g, f)
                if h not in mor:
                    raise InternalError(
                        f"composite of {fmt(g)} after {fmt(f)} is not a "
                        f"morphism of {name or 'category'}"
                    )
                table[(g, f)] = h
        cat = cls.__new__(cls)
        cat._store(objects, mor, ident, table, name)
        return cat

    def _store(self, objects, mor, ident, table, name):
        """Keep the ids in the order given, which is stable order."""
        self.name = name
        self.objects = tuple(objects)
        self.mor = dict(mor)
        self.ident = dict(ident)
        self.table = dict(table)
        self._hom = None
        self._into = None
        self._inv = {}

    def __repr__(self):
        label = self.name or "FinCat"
        return f"<{label}: {len(self.objects)} objects, {len(self.mor)} morphisms>"

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, FinCat):
            return NotImplemented
        return (
            set(self.objects) == set(other.objects)
            and self.mor == other.mor
            and self.ident == other.ident
            and self.table == other.table
        )

    __hash__ = None

    def dom(self, m):
        return self.mor[m][0]

    def cod(self, m):
        return self.mor[m][1]

    def is_id(self, m):
        d, c = self.mor[m]
        return d == c and self.ident[d] == m

    def compose(self, g, f):
        """Composite g after f.  Requires cod(f) == dom(g)."""
        try:
            return self.table[(g, f)]
        except KeyError:
            raise InternalError(
                f"no composite for {fmt(g)} after {fmt(f)} in {self.name or 'category'}"
            ) from None

    def _build_hom(self):
        """File the morphisms, in stable order, by (dom, cod) and by
        codomain."""
        h = {}
        into = {x: [] for x in self.objects}
        for m, (d, c) in self.mor.items():
            h.setdefault((d, c), []).append(m)
            into[c].append(m)
        self._hom = {k: tuple(v) for k, v in h.items()}
        self._into = {x: tuple(v) for x, v in into.items()}

    def hom(self, x, y):
        if self._hom is None:
            self._build_hom()
        return self._hom.get((x, y), ())

    def into(self, x):
        """All morphisms with codomain x, in stable order."""
        if self._into is None:
            self._build_hom()
        return self._into[x]

    def inverse(self, m):
        """Two-sided inverse of m, or None."""
        if m in self._inv:
            return self._inv[m]
        d, c = self.mor[m]
        found = None
        for n in self.hom(c, d):
            if self.table.get((n, m)) == self.ident[d] and self.table.get((m, n)) == self.ident[c]:
                found = n
                break
        self._inv[m] = found
        return found

    def is_iso(self, m):
        return self.inverse(m) is not None

    def iso_between(self, x, y):
        """Some isomorphism x -> y, or None."""
        for m in self.hom(x, y):
            if self.is_iso(m):
                return m
        return None


def validate_fincat(c: FinCat, caps: _caps.Caps = _caps.DEFAULT) -> list:
    """All category-axiom violations, as strings.  Empty list means valid.

    Hom-set sizes are checked against caps.max_homset and raise CapExceeded,
    since an oversized table would make every later search intractable.

    Ids are nested tuples, whose hash is recomputed at every lookup, so each
    object and morphism is numbered once, by its position in `c.objects` or
    `c.mor`, and the checks run on positions.  Equal ids share a position,
    so a check on positions finds what the same check on ids finds, in the
    same order."""
    errs = []
    obpos = {}
    for x in c.objects:
        obpos.setdefault(x, len(obpos))
    if len(obpos) != len(c.objects):
        errs.append("duplicate object ids")
    ms = list(c.mor)
    mpos = {m: i for i, m in enumerate(ms)}
    ends = []  # (dom, cod) positions of each morphism; None for an unknown
    for m, (d, co) in c.mor.items():
        dp, cp = obpos.get(d), obpos.get(co)
        if dp is None:
            errs.append(f"morphism {fmt(m)} has unknown dom {fmt(d)}")
        if cp is None:
            errs.append(f"morphism {fmt(m)} has unknown cod {fmt(co)}")
        ends.append((dp, cp))
    idpos = []
    for x in c.objects:
        i = c.ident.get(x)
        ip = None if i is None else mpos.get(i)
        if i is None:
            errs.append(f"no identity for object {fmt(x)}")
        elif ip is None:
            errs.append(f"identity of {fmt(x)} is not a morphism")
        elif ends[ip] != (obpos[x], obpos[x]):
            errs.append(f"identity of {fmt(x)} is not an endomorphism of it")
        idpos.append(ip)
    if errs:
        return errs

    # Counted on positions; the pairs are walked, in object order, only to
    # report the first hom-set over the cap.
    if (len(ends) > caps.max_homset
            and max(Counter(ends).values()) > caps.max_homset):
        for x in c.objects:
            for y in c.objects:
                _caps.check(len(c.hom(x, y)), caps, "max_homset",
                            "hom({},{})", x, y)

    table = {}  # (g, f) positions -> position of g after f
    for (g, f), h in c.table.items():
        gp, fp = mpos.get(g), mpos.get(f)
        if gp is None or fp is None:
            errs.append(f"table entry ({fmt(g)},{fmt(f)}) names unknown morphisms")
            continue
        if ends[fp][1] != ends[gp][0]:
            errs.append(f"table entry ({fmt(g)},{fmt(f)}) is not composable")
            continue
        hp = mpos.get(h)
        if hp is None:
            errs.append(f"composite of ({fmt(g)},{fmt(f)}) is unknown morphism {fmt(h)}")
        elif ends[hp] != (ends[fp][0], ends[gp][1]):
            errs.append(f"composite {fmt(h)} of ({fmt(g)},{fmt(f)}) has wrong dom/cod")
        table[(gp, fp)] = hp
    if errs:
        return errs

    # Morphisms by domain, each list in `c.mor` order, so walking
    # by_dom[cod f] meets the g composable after f in the order of a walk
    # over every morphism.
    by_dom = [[] for _ in obpos]
    for mp, (dp, _) in enumerate(ends):
        by_dom[dp].append(mp)
    for fp, (_, cp) in enumerate(ends):
        for gp in by_dom[cp]:
            if (gp, fp) not in table:
                errs.append(f"missing composite for {fmt(ms[gp])} after {fmt(ms[fp])}")
    if errs:
        return errs

    for mp, (dp, cp) in enumerate(ends):
        if table[(mp, idpos[dp])] != mp:
            errs.append(f"{fmt(ms[mp])} ∘ id ≠ {fmt(ms[mp])}")
        if table[(idpos[cp], mp)] != mp:
            errs.append(f"id ∘ {fmt(ms[mp])} ≠ {fmt(ms[mp])}")

    # Associativity over all composable triples.  Once the unit laws hold,
    # every triple with an identity in it associates (h∘(id∘f) = h∘f =
    # (h∘id)∘f, and likewise with the identity first or last), so only the
    # triples of non-identity arrows are walked.
    fs = range(len(ends))
    if not errs:
        ids = set(idpos)
        fs = [mp for mp in fs if mp not in ids]
        by_dom = [[mp for mp in dom if mp not in ids] for dom in by_dom]
    for fp in fs:
        cp = ends[fp][1]
        for gp in by_dom[cp]:
            gf = table[(gp, fp)]
            for hp in by_dom[ends[gp][1]]:
                if table[(hp, gf)] != table[(table[(hp, gp)], fp)]:
                    errs.append(f"associativity fails on ({fmt(ms[hp])},"
                                f"{fmt(ms[gp])},{fmt(ms[fp])})")
    return errs


def require(errs, label, *ids):
    """Raise InternalError on the first of a validator's complaints about a
    built structure.  `label` is a format string over the `fmt` of `ids`,
    formatted only on failure."""
    if errs:
        raise InternalError(f"{label.format(*map(fmt, ids))}: {errs[0]}")


class Functor:
    __slots__ = ("name", "src", "dst", "omap", "mmap")

    def __init__(self, src, dst, omap, mmap, name=""):
        self.name = name
        self.src = src
        self.dst = dst
        self.omap = dict(omap)
        self.mmap = dict(mmap)

    def __repr__(self):
        return f"<Functor {self.name or '?'}>"

    def __eq__(self, other):
        if not isinstance(other, Functor):
            return NotImplemented
        return (
            self.src == other.src
            and self.dst == other.dst
            and self.omap == other.omap
            and self.mmap == other.mmap
        )

    __hash__ = None

    def ob(self, x):
        return self.omap[x]

    def mo(self, m):
        return self.mmap[m]

    def validate(self) -> list:
        """Functor-law violations, as strings: first the typing of the
        images, then, if that holds, identities and composites.  Each phase
        sorts its findings, so they do not follow the order the maps were
        filled in."""
        errs = []
        dst_obs = set(self.dst.objects)
        for x in self.src.objects:
            if x not in self.omap:
                errs.append(f"no image for object {fmt(x)}")
            elif self.omap[x] not in dst_obs:
                errs.append(f"object image of {fmt(x)} not in target")
        for m, (d, c) in self.src.mor.items():
            if m not in self.mmap:
                errs.append(f"no image for morphism {fmt(m)}")
                continue
            n = self.mmap[m]
            if n not in self.dst.mor:
                errs.append(f"image of {fmt(m)} not in target")
            elif self.dst.mor[n] != (self.omap.get(d), self.omap.get(c)):
                errs.append(f"image of {fmt(m)} has wrong dom/cod")
        if errs:
            return sorted(errs)
        for x in self.src.objects:
            if self.mmap[self.src.ident[x]] != self.dst.ident[self.omap[x]]:
                errs.append(f"identity of {fmt(x)} not preserved")
        for (g, f), h in self.src.table.items():
            if self.dst.table[(self.mmap[g], self.mmap[f])] != self.mmap[h]:
                errs.append(f"composition not preserved on ({fmt(g)},{fmt(f)})")
        return sorted(errs)


def identity_functor(c: FinCat) -> Functor:
    return Functor(c, c, {x: x for x in c.objects}, {m: m for m in c.mor}, name="Id")


def compose_functors(g: Functor, f: Functor) -> Functor:
    """g after f."""
    return Functor(
        f.src,
        g.dst,
        {x: g.omap[f.omap[x]] for x in f.src.objects},
        {m: g.mmap[f.mmap[m]] for m in f.src.mor},
        name=f"{g.name}∘{f.name}" if (g.name and f.name) else "",
    )


def factorizations(F: Functor, m, h, w) -> list:
    """Every t : dom(h) -> dom(m) with F(t) == w and m∘t == h, in stable
    order."""
    E0 = F.src
    return [
        t
        for t in E0.hom(E0.dom(h), E0.dom(m))
        if F.mo(t) == w and E0.compose(m, t) == h
    ]


def is_cartesian_over(F: Functor, m) -> bool:
    """Universal-property test: m is F-cartesian when every h into cod(m)
    whose projection factors through F(m) factors uniquely through m over
    the given base factorization."""
    E0, B0 = F.src, F.dst
    A1, A2 = E0.mor[m]
    u = F.mo(m)
    for Z in E0.objects:
        for h in E0.hom(Z, A2):
            fh = F.mo(h)
            for w in B0.hom(F.ob(Z), F.ob(A1)):
                if B0.compose(u, w) == fh and len(factorizations(F, m, h, w)) != 1:
                    return False
    return True


def all_nat_isos(F: Functor, G: Functor, caps: _caps.Caps = _caps.DEFAULT):
    """Yield the components of every natural isomorphism F => G, choosing
    them in object order by `caps.search`: the naturality square of
    d -> c reads the components at d and c."""
    if F.src != G.src:
        return
    src, dst = F.src, F.dst
    objects = list(src.objects)
    pools = []
    for x in objects:
        pool = [a for a in dst.hom(F.omap[x], G.omap[x]) if dst.is_iso(a)]
        if not pool:
            return
        pools.append(pool)
    at = {x: i for i, x in enumerate(objects)}
    squares = [((at[d], at[c]), (m, at[d], at[c])) for m, (d, c) in src.mor.items()]

    def natural(sq, a):
        m, d, c = sq
        return dst.compose(a[c], F.mmap[m]) == dst.compose(G.mmap[m], a[d])

    closing = schedule(squares, len(objects))
    for a in search(pools, closing, natural, Budget(caps)):
        yield dict(zip(objects, a))


def is_fully_faithful(F: Functor) -> Check:
    src, dst = F.src, F.dst
    for x in src.objects:
        for y in src.objects:
            image = {}
            for m in src.hom(x, y):
                n = F.mmap[m]
                if n in image:
                    return Check(
                        False,
                        f"not faithful: {fmt(image[n])} and {fmt(m)} in "
                        f"hom({fmt(x)},{fmt(y)}) share image {fmt(n)}",
                        witness=(x, y, image[n], m),
                    )
                image[n] = m
            for n in dst.hom(F.omap[x], F.omap[y]):
                if n not in image:
                    return Check(
                        False,
                        f"not full: {fmt(n)} has no preimage in hom({fmt(x)},{fmt(y)})",
                        witness=(x, y, n),
                    )
    return Check(True, "fully faithful")


def is_essentially_surjective(F: Functor) -> Check:
    hits = {}
    for t in F.dst.objects:
        found = None
        for x in F.src.objects:
            iso = F.dst.iso_between(F.omap[x], t)
            if iso is not None:
                found = (x, iso)
                break
        if found is None:
            return Check(False, f"object {fmt(t)} is not hit up to iso", witness=t)
        hits[t] = found
    return Check(True, "essentially surjective", witness=hits)


def is_equivalence(F: Functor) -> Check:
    ff = is_fully_faithful(F)
    if not ff:
        return Check(False, ff.reason, witness=("fully_faithful", ff.witness))
    es = is_essentially_surjective(F)
    if not es:
        return Check(False, es.reason, witness=("essentially_surjective", es.witness))
    return Check(True, "equivalence", witness=es.witness)


@dataclass
class Product:
    cat: FinCat
    projections: list


def product_cat(cats) -> Product:
    """Finite product of categories; ids are tuples of component ids, listed
    lexicographically in the components' stable orders, which is `ckey`
    order."""
    cats = list(cats)
    objects = list(iproduct(*(c.objects for c in cats)))
    mor = {}
    for combo in iproduct(*(list(c.mor) for c in cats)):
        dom = tuple(c.dom(m) for c, m in zip(cats, combo))
        cod = tuple(c.cod(m) for c, m in zip(cats, combo))
        mor[combo] = (dom, cod)
    ident = {
        x: tuple(c.ident[xi] for c, xi in zip(cats, x)) for x in objects
    }
    prod = FinCat.from_homs(
        objects,
        mor,
        ident,
        lambda g, f: tuple(c.table[(gi, fi)] for c, gi, fi in zip(cats, g, f)),
        name="×".join(c.name or "?" for c in cats),
    )
    projections = [
        Functor(
            prod,
            c,
            {x: x[i] for x in objects},
            {m: m[i] for m in mor},
            name=f"pr{i}",
        )
        for i, c in enumerate(cats)
    ]
    return Product(prod, projections)


def discrete_cat(objects, name="") -> FinCat:
    """The discrete category on input ids; ("id", x) orders as x does."""
    objects = stable_sorted(objects)
    ident = {x: ("id", x) for x in objects}
    mor = {i: (x, x) for x, i in ident.items()}
    return FinCat.from_homs(objects, mor, ident, lambda g, f: g, name=name)


def terminal_cat(obj="*", name="1") -> FinCat:
    return discrete_cat((obj,), name)


def poset_cat(objects, leq, name="") -> FinCat:
    """Category of a preorder: morphism ("le", a, b) whenever a <= b.

    `leq` is any iterable of (a, b) pairs; reflexive and transitive closure is
    taken here, so generators may pass a bare covering relation.
    """
    objects = stable_sorted(objects)
    rel = {(a, a) for a in objects}
    rel.update((a, b) for a, b in leq)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (b2, c) in list(rel):
                if b2 == b and (a, c) not in rel:
                    rel.add((a, c))
                    changed = True
    # Listed by a, then b, in stable order, which is how ("le", a, b) orders.
    mor = {("le", a, b): (a, b) for a in objects for b in objects if (a, b) in rel}
    ident = {x: ("le", x, x) for x in objects}
    return FinCat.from_homs(
        objects, mor, ident, lambda g, f: ("le", f[1], g[2]), name=name)


def iso_classes(c: FinCat) -> list:
    """Partition of objects into isomorphism classes (stable order)."""
    rest = list(c.objects)
    out = []
    while rest:
        x = rest.pop(0)
        cls = [x]
        keep = []
        for y in rest:
            if c.iso_between(x, y) is not None:
                cls.append(y)
            else:
                keep.append(y)
        rest = keep
        out.append(cls)
    return out
