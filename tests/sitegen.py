"""Seeded random instance generators for the acceptance corpus.

Every generator takes an explicit random.Random so corpora are reproducible.
Presheaves and functors are sampled on a generating set of morphisms, derived
along composites, and rejection-tested against the validators; diamonds in
the base can make independently sampled legs disagree, so the retry loop is
part of the contract.
"""

import itertools
import random

from finstack import (
    CapExceeded,
    Caps,
    FinCat,
    Functor,
    IndexedCat,
    Presheaf,
    const_indexed,
    discrete_cat,
    embed_discrete,
    embed_mor,
    poset_cat,
    product_indexed,
    saturate,
    terminal_cat,
    validate_presheaf,
    validate_presheaf_mor,
)
from finstack.util import stable_sorted

import corpus


def rand_poset(rng, n=None, name=""):
    """Random poset category on 2..4 objects, at least one relation."""
    n = n if n is not None else rng.choice((2, 2, 3, 3, 4))
    objs = tuple(f"o{i}" for i in range(n))
    edges = []
    for j in range(1, n):
        for i in range(j):
            if rng.random() < 0.45:
                edges.append((objs[i], objs[j]))
    if not edges:
        edges.append((objs[0], objs[-1]))
    return poset_cat(objs, edges, name=name or f"P{n}")


def generators_of(c):
    """Morphisms not factoring as a composite of two non-identities."""
    composite = set()
    for (g, f), h in c.table.items():
        if not c.is_id(g) and not c.is_id(f):
            composite.add(h)
    return [m for m in c.mor if not c.is_id(m) and m not in composite]


def _derive_all(c, assign, compose_val):
    """Extend a generator assignment to every morphism via the table."""
    todo = [m for m in c.mor if m not in assign]
    while todo:
        progress = False
        rest = []
        for m in todo:
            found = None
            for (g, f), h in c.table.items():
                if h == m and g in assign and f in assign:
                    found = compose_val(assign[g], assign[f])
                    break
            if found is None:
                rest.append(m)
            else:
                assign[m] = found
                progress = True
        if not progress:
            return None
        todo = rest
    return assign


def rand_presheaf(rng, c, max_el=3, tries=400, name=""):
    """Random presheaf: sample actions on generators, derive, reject."""
    for attempt in range(tries):
        els = {
            x: tuple(f"{x}e{i}" for i in range(rng.randint(1, max_el)))
            for x in c.objects
        }
        act = {c.ident[x]: {e: e for e in els[x]} for x in c.objects}
        for m in generators_of(c):
            src, dst = c.mor[m]
            act[m] = {e: rng.choice(els[src]) for e in els[dst]}
        full = _derive_all(
            c, act, lambda ag, af: {e: af[ag[e]] for e in ag}
        )
        if full is None:
            continue
        P = Presheaf(c, els, full, name=name or f"R{attempt}")
        if not validate_presheaf(P):
            return P
    raise RuntimeError(f"no coherent presheaf on {c.name} in {tries} tries")


def sub_presheaf(rng, P, name=""):
    """Random subfunctor of P with its inclusion map."""
    c = P.base
    keep = {x: {e for e in P.els[x] if rng.random() < 0.6} for x in c.objects}
    changed = True
    while changed:
        changed = False
        for m in c.mor:
            src, dst = c.mor[m]
            for e in list(keep[dst]):
                img = P.act[m][e]
                if img not in keep[src]:
                    keep[src].add(img)
                    changed = True
    els = {x: tuple(e for e in P.els[x] if e in keep[x]) for x in c.objects}
    act = {
        m: {e: P.act[m][e] for e in els[c.cod(m)]} for m in c.mor
    }
    Q = Presheaf(c, els, act, name=name or f"{P.name}|sub")
    incl = {x: {e: e for e in els[x]} for x in c.objects}
    return Q, incl


def singleton_presheaf(c, name="pt"):
    els = {x: ("*",) for x in c.objects}
    act = {m: {"*": "*"} for m in c.mor}
    return Presheaf(c, els, act, name=name)


def product_presheaf(P, values, name=""):
    """P x (constant presheaf on the given values), with its projection."""
    c = P.base
    els = {
        x: tuple((e, v) for e in P.els[x] for v in values) for x in c.objects
    }
    act = {
        m: {(e, v): (P.act[m][e], v) for (e, v) in els[c.cod(m)]}
        for m in c.mor
    }
    Q = Presheaf(c, els, act, name=name or f"{P.name}xK")
    proj = {x: {(e, v): e for (e, v) in els[x]} for x in c.objects}
    return Q, proj


def rand_topology(rng, c, caps=Caps(), second=0.25):
    """Random saturated topology from one or two families per object.

    Families are capped at two generators; wide covers square the descent
    search and the corpus has to stay desk-scale.
    """
    coverage = {}
    for x in stable_sorted(c.objects):
        arrows = [m for m in c.into(x) if not c.is_id(m)]
        if not arrows or rng.random() < 0.35:
            continue
        def family():
            fam = [m for m in arrows if rng.random() < 0.6] or [rng.choice(arrows)]
            rng.shuffle(fam)
            return fam[:2]
        fams = [family()]
        if rng.random() < second:
            fams.append(family())
        coverage[x] = fams
    return saturate(c, coverage, caps)


def rand_site(rng, caps=Caps()):
    c = rand_poset(rng)
    return c, rand_topology(rng, c, caps)


def multi_cover_site(rng, caps=Caps(), tries=200):
    """A site where some object has at least two non-maximal covers."""
    for _ in range(tries):
        c = rand_poset(rng, n=rng.randint(3, 4))
        J = rand_topology(rng, c, caps, second=0.9)
        for x in c.objects:
            nonmax = [s for s in J.covers[x]
                      if s != frozenset(c.into(x))]
            if len(nonmax) >= 2:
                return c, J, x
    raise RuntimeError("no multi-cover site found")


# no codiscrete groupoid here: with nothing to prune, its descent carriers
# grow multiplicatively and the double plus leaves desk scale
SMALL_FIBRES = (
    terminal_cat,
    lambda: discrete_cat(("0", "1"), name="two"),
    corpus.arrow_cat,
)


def rand_small_cat(rng):
    return rng.choice(SMALL_FIBRES)()


def rand_indexed(rng, c, caps=Caps()):
    """Random indexed category over c: discrete, constant, or a product.

    Product fibres stay discrete-by-discrete; an iso-rich factor under a
    two-generator cover already squares the descent search out of desk
    scale, so the groupoid texture comes from the constant family alone.
    """
    kind = rng.choice(("discrete", "discrete", "const", "product"))
    if kind == "discrete":
        return embed_discrete(rand_presheaf(rng, c))
    if kind == "const":
        return const_indexed(c, rand_small_cat(rng))
    prod, _, _ = product_indexed(
        embed_discrete(rand_presheaf(rng, c, max_el=2)),
        const_indexed(c, discrete_cat(("0", "1"), name="two")),
    )
    return prod


def rand_fibration(rng, caps=Caps()):
    """Random indexed fibration over a random poset site.

    Families: identity on a random indexed category, projection of a
    product, collapse of a constant groupoid onto the constant point, and
    embedded presheaf maps (inclusions and projections are always natural;
    every map of discrete fibres lifts identities, hence is a fibration).
    """
    c, J = rand_site(rng, caps)
    kind = rng.choice(("identity", "projection", "groupoid",
                       "inclusion", "collapse"))
    if kind == "identity":
        from finstack import identity_indexed_fun

        return identity_indexed_fun(rand_indexed(rng, c, caps)), J
    if kind == "projection":
        _, pr1, _ = product_indexed(
            embed_discrete(rand_presheaf(rng, c, max_el=2)),
            const_indexed(c, rng.choice((terminal_cat,
                                         lambda: discrete_cat(("0", "1"),
                                                              name="two")))()),
        )
        return pr1, J
    if kind == "groupoid":
        return corpus.groupoid_fibration(c), J
    if kind == "inclusion":
        Q = rand_presheaf(rng, c)
        P, incl = sub_presheaf(rng, Q)
        assert validate_presheaf_mor(P, Q, incl) == []
        return embed_mor(P, Q, incl), J
    P = rand_presheaf(rng, c, max_el=2)
    Q = singleton_presheaf(c)
    bang = {x: {e: "*" for e in P.els[x]} for x in c.objects}
    assert validate_presheaf_mor(P, Q, bang) == []
    return embed_mor(P, Q, bang), J


def open_cover_site(rng, n_opens):
    """The opens of a random finite T0 space with exactly `n_opens` opens,
    ordered by inclusion, with one random genuine open cover of every open
    that has a proper subcover (the empty open by the empty family).

    A finite T0 space is a finite poset with the Alexandrov topology, whose
    opens are the up-sets.  Points and order are drawn until the up-set
    count matches.  Returns (poset category, saturated topology, opens by
    name)."""
    least = max(2, (n_opens - 1).bit_length())
    while True:
        k = rng.randint(least, least + 1)
        density = rng.random()
        above = {i: {j for j in range(i + 1, k) if rng.random() < density}
                 for i in range(k)}
        for i in reversed(range(k)):
            for j in list(above[i]):
                above[i] |= above[j]
        opens = set()
        for bits in range(2 ** k):
            up = frozenset(i for i in range(k) if bits >> i & 1)
            if all(above[i] <= up for i in up):
                opens.add(up)
        if len(opens) == n_opens:
            break
    opens = sorted(opens, key=lambda u: (len(u), sorted(u)))
    names = {u: "U" + "".join(str(p) for p in sorted(u)) for u in opens}
    c = poset_cat(tuple(names[u] for u in opens),
                  [(names[a], names[b]) for a in opens for b in opens if a < b],
                  name=f"O{n_opens}")
    coverage = {}
    for u in opens:
        if not u:
            coverage[names[u]] = [[]]
            continue
        proper = [v for v in opens if v < u and v]
        rng.shuffle(proper)
        fam, covered = [], set()
        for v in proper:
            if not v <= covered:
                fam.append(v)
                covered |= v
        if covered == u:
            coverage[names[u]] = [[("le", names[v], names[u]) for v in fam]]
    return c, saturate(c, coverage), {names[u]: u for u in opens}


def restriction_presheaf(rng, c, opens, count):
    """The restrictions of `count` random 0/1-valued functions on the points:
    coherent by construction, a sheaf or not by the draw."""
    points = sorted(set().union(*opens.values()))
    funcs = [{p: rng.randint(0, 1) for p in points} for _ in range(count)]

    def restrict(f, u):
        return "v" + "".join(str(f[p]) for p in sorted(opens[u]))

    els = {u: tuple(sorted({restrict(f, u) for f in funcs})) for u in opens}
    act = {m: {restrict(f, u): restrict(f, v) for f in funcs}
           for m, (v, u) in c.mor.items()}
    return Presheaf(c, els, act, name="F")
