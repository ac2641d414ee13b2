"""Finite categories presented by total composition tables.

A `FinCat` is four pieces of data: a tuple of object ids, a dict mapping each
morphism id to its (dom, cod) pair, a dict giving the identity morphism of
each object, and a dict giving the composite of every composable pair.
Object and morphism ids are arbitrary hashable values; builders in this
package use strings for hand-written input and nested tuples for constructed
artifacts.

Every constructed category is built by `FinCat.from_homs`, which fills the
table from a composition rule over the composable pairs of its morphisms.
All predicates (`is_fully_faithful`, `is_essentially_surjective`,
`is_equivalence`) run by exhaustive search and return a `Check` carrying a
human-readable reason and a witness, never a bare bool.
"""

from dataclasses import dataclass
from itertools import product as iproduct

from . import caps as _caps
from .caps import Budget, search
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
        "name", "objects", "mor", "ident", "table", "_hom", "_into", "_rank", "_inv"
    )

    def __init__(self, objects, mor, ident, table, name=""):
        self.name = name
        self.objects = tuple(objects)
        self.mor = dict(mor)
        self.ident = dict(ident)
        self.table = dict(table)
        self._hom = None
        self._into = None
        self._rank = None
        self._inv = {}

    @classmethod
    def from_homs(cls, objects, mor, ident, compose, name=""):
        """The category whose table holds `compose(g, f)` for every
        composable pair, walking each f and each g out of cod(f) in `mor`
        order.  A composite that is not in `mor` is a construction bug."""
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
        return cls(objects, mor, ident, table, name=name)

    def __repr__(self):
        label = self.name or "FinCat"
        return f"<{label}: {len(self.objects)} objects, {len(self.mor)} morphisms>"

    def __eq__(self, other):
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

    def id_of(self, x):
        return self.ident[x]

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

    def compose_path(self, path):
        """Composite of a left-to-right composable path [f1, ..., fn]: fn∘...∘f1."""
        if not path:
            raise ValueError("empty path has no composite without an object")
        m = path[0]
        for f in path[1:]:
            m = self.compose(f, m)
        return m

    def _build_hom(self):
        h = {}
        into = {x: [] for x in self.objects}
        ms = stable_sorted(self.mor)
        for m in ms:
            d, c = self.mor[m]
            h.setdefault((d, c), []).append(m)
            into[c].append(m)
        self._hom = {k: tuple(v) for k, v in h.items()}
        self._into = {x: tuple(v) for x, v in into.items()}
        self._rank = {m: i for i, m in enumerate(ms)}

    def ordered(self, ms):
        """The given morphisms of this category, in stable order."""
        if self._rank is None:
            self._build_hom()
        return sorted(ms, key=self._rank.__getitem__)

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
    """
    errs = []
    obset = set(c.objects)
    if len(obset) != len(c.objects):
        errs.append("duplicate object ids")
    for m, (d, co) in c.mor.items():
        if d not in obset:
            errs.append(f"morphism {fmt(m)} has unknown dom {fmt(d)}")
        if co not in obset:
            errs.append(f"morphism {fmt(m)} has unknown cod {fmt(co)}")
    for x in c.objects:
        i = c.ident.get(x)
        if i is None:
            errs.append(f"no identity for object {fmt(x)}")
        elif i not in c.mor:
            errs.append(f"identity of {fmt(x)} is not a morphism")
        elif c.mor[i] != (x, x):
            errs.append(f"identity of {fmt(x)} is not an endomorphism of it")
    if errs:
        return errs

    for x in c.objects:
        for y in c.objects:
            _caps.check(len(c.hom(x, y)), caps, "max_homset", "hom({},{})", x, y)

    mids = set(c.mor)
    for (g, f), h in c.table.items():
        if g not in mids or f not in mids:
            errs.append(f"table entry ({fmt(g)},{fmt(f)}) names unknown morphisms")
            continue
        if c.cod(f) != c.dom(g):
            errs.append(f"table entry ({fmt(g)},{fmt(f)}) is not composable")
            continue
        if h not in mids:
            errs.append(f"composite of ({fmt(g)},{fmt(f)}) is unknown morphism {fmt(h)}")
        elif c.mor[h] != (c.dom(f), c.cod(g)):
            errs.append(f"composite {fmt(h)} of ({fmt(g)},{fmt(f)}) has wrong dom/cod")
    if errs:
        return errs

    for f in c.mor:
        for g in c.mor:
            if c.cod(f) == c.dom(g) and (g, f) not in c.table:
                errs.append(f"missing composite for {fmt(g)} after {fmt(f)}")
    if errs:
        return errs

    for m in c.mor:
        d, co = c.mor[m]
        if c.table[(m, c.ident[d])] != m:
            errs.append(f"{fmt(m)} ∘ id ≠ {fmt(m)}")
        if c.table[(c.ident[co], m)] != m:
            errs.append(f"id ∘ {fmt(m)} ≠ {fmt(m)}")

    # Associativity over all composable triples.
    by_dom = {}
    for m, (d, _) in c.mor.items():
        by_dom.setdefault(d, []).append(m)
    for f in c.mor:
        for g in by_dom.get(c.cod(f), ()):
            gf = c.table[(g, f)]
            for h in by_dom.get(c.cod(g), ()):
                if c.table[(h, gf)] != c.table[(c.table[(h, g)], f)]:
                    errs.append(
                        f"associativity fails on ({fmt(h)},{fmt(g)},{fmt(f)})"
                    )
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
        errs = []
        for x in self.src.objects:
            if x not in self.omap:
                errs.append(f"no image for object {fmt(x)}")
            elif self.omap[x] not in set(self.dst.objects):
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
            return errs
        for x in self.src.objects:
            if self.mmap[self.src.ident[x]] != self.dst.ident[self.omap[x]]:
                errs.append(f"identity of {fmt(x)} not preserved")
        for (g, f), h in self.src.table.items():
            if self.dst.table[(self.mmap[g], self.mmap[f])] != self.mmap[h]:
                errs.append(f"composition not preserved on ({fmt(g)},{fmt(f)})")
        return errs


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
                if B0.compose(u, w) != fh:
                    continue
                ts = [
                    t
                    for t in E0.hom(Z, A1)
                    if F.mo(t) == w and E0.compose(m, t) == h
                ]
                if len(ts) != 1:
                    return False
    return True


class NatTrans:
    """Natural transformation F => G given by a component per source object."""

    __slots__ = ("F", "G", "comp", "name")

    def __init__(self, F, G, comp, name=""):
        self.F = F
        self.G = G
        self.comp = dict(comp)
        self.name = name

    def validate(self) -> list:
        errs = []
        F, G = self.F, self.G
        dst = F.dst
        if F.src is not G.src and F.src != G.src:
            return ["source functors disagree on domain"]
        for x in F.src.objects:
            a = self.comp.get(x)
            if a is None:
                errs.append(f"no component at {fmt(x)}")
            elif a not in dst.mor or dst.mor[a] != (F.omap[x], G.omap[x]):
                errs.append(f"component at {fmt(x)} is not F({fmt(x)}) -> G({fmt(x)})")
        if errs:
            return errs
        for m, (d, c) in F.src.mor.items():
            lhs = dst.compose(self.comp[c], F.mmap[m])
            rhs = dst.compose(G.mmap[m], self.comp[d])
            if lhs != rhs:
                errs.append(f"naturality fails at {fmt(m)}")
        return errs

    def is_iso(self):
        return all(self.F.dst.is_iso(a) for a in self.comp.values())


class NatIso(NatTrans):
    def validate(self) -> list:
        errs = super().validate()
        if errs:
            return errs
        for x, a in self.comp.items():
            if not self.F.dst.is_iso(a):
                errs.append(f"component at {fmt(x)} is not invertible")
        return errs


def all_nat_trans(F: Functor, G: Functor, iso_only: bool = False,
                  caps: _caps.Caps = _caps.DEFAULT):
    """Yield every natural transformation F => G, choosing components in
    object order and checking each naturality square once both of its
    endpoints are chosen."""
    if F.src is not G.src and F.src != G.src:
        return
    src, dst = F.src, F.dst
    objects = list(src.objects)
    pools = []
    for x in objects:
        pool = list(dst.hom(F.omap[x], G.omap[x]))
        if iso_only:
            pool = [a for a in pool if dst.is_iso(a)]
        if not pool:
            return
        pools.append(pool)
    at = {x: i for i, x in enumerate(objects)}
    closing = {}
    for m, (d, c) in src.mor.items():
        closing.setdefault(max(at[d], at[c]), []).append((m, at[d], at[c]))

    def fits(i, a):
        return all(
            dst.compose(a[c], F.mmap[m]) == dst.compose(G.mmap[m], a[d])
            for m, d, c in closing.get(i, ())
        )

    for a in search(len(objects), lambda i, a: pools[i], fits, Budget(caps)):
        yield NatTrans(F, G, dict(zip(objects, a)))


def find_natiso(F: Functor, G: Functor):
    """Some natural isomorphism F => G, or None."""
    for t in all_nat_trans(F, G, iso_only=True):
        return NatIso(F, G, t.comp)
    return None


def all_functors(src: FinCat, dst: FinCat, caps: _caps.Caps = _caps.DEFAULT):
    """Yield every functor src -> dst: each object map in turn, then the
    non-identity morphisms by backtracking, checking each table entry once
    its three morphisms are mapped.  Only reasonable for desk-scale
    categories; one caps budget covers all object maps."""
    objs = list(stable_sorted(src.objects))
    non_id = [m for m in stable_sorted(src.mor) if not src.is_id(m)]
    at = {m: i for i, m in enumerate(non_id)}
    closing = {}
    for (g, f), h in src.table.items():
        i = max(at.get(g, -1), at.get(f, -1), at.get(h, -1))
        if i >= 0:
            closing.setdefault(i, []).append((g, f, h))
    budget = Budget(caps)

    for combo in iproduct(*(list(stable_sorted(dst.objects)) for _ in objs)):
        omap = dict(zip(objs, combo))
        mmap = {src.ident[x]: dst.ident[omap[x]] for x in objs}

        def cands(i, a):
            d, c = src.mor[non_id[i]]
            return dst.hom(omap[d], omap[c])

        def fits(i, a):
            mmap[non_id[i]] = a[i]  # entries past i are stale, never read
            return all(
                dst.table[(mmap[g], mmap[f])] == mmap[h]
                for g, f, h in closing.get(i, ())
            )

        for a in search(len(non_id), cands, fits, budget):
            yield Functor(src, dst, dict(omap), dict(mmap))


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
    """Finite product of categories; ids are tuples of component ids."""
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


def terminal_cat(obj="*", name="1") -> FinCat:
    i = ("id", obj)
    return FinCat((obj,), {i: (obj, obj)}, {obj: i}, {(i, i): i}, name=name)


def discrete_cat(objects, name="") -> FinCat:
    objects = tuple(objects)
    ident = {x: ("id", x) for x in objects}
    mor = {i: (x, x) for x, i in ident.items()}
    table = {(i, i): i for i in mor}
    return FinCat(objects, mor, ident, table, name=name)


def poset_cat(objects, leq, name="") -> FinCat:
    """Category of a preorder: morphism ("le", a, b) whenever a <= b.

    `leq` is any iterable of (a, b) pairs; reflexive and transitive closure is
    taken here, so generators may pass a bare covering relation.
    """
    objects = tuple(objects)
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
    mor = {("le", a, b): (a, b) for a in objects for b in objects if (a, b) in rel}
    ident = {x: ("le", x, x) for x in objects}
    return FinCat.from_homs(
        objects, mor, ident, lambda g, f: ("le", f[1], g[2]), name=name
    )


def iso_classes(c: FinCat) -> list:
    """Partition of objects into isomorphism classes (stable order)."""
    rest = list(stable_sorted(c.objects))
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
