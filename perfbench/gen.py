"""Seeded input generators for the benchmark workloads.

The structure generators are ported from the test-suite generators so that
a later change to the tests cannot change a workload.  Every generator takes
an explicit `random.Random`; the workloads derive one per input from the
command-line seed and the input's index, so input `i` is the same whatever
else was generated before it.

Only finstack constructors (`poset_cat`, `Presheaf`, `embed_discrete`, ...)
and the validators that reject incoherent samples are called here; the
workloads saturate topologies themselves.
"""

import random

import finstack as fs


def op_rng(seed, workload, i):
    """The random source of input `i`: independent of every other input."""
    return random.Random(f"{seed}:{workload}:{i}")


# ---------------------------------------------------------------------------
# small categories


def arrow_cat():
    """Single non-identity arrow i : a -> b."""
    mor = {"ida": ("a", "a"), "idb": ("b", "b"), "i": ("a", "b")}
    table = {
        ("ida", "ida"): "ida",
        ("idb", "idb"): "idb",
        ("i", "ida"): "i",
        ("idb", "i"): "i",
    }
    return fs.FinCat(("a", "b"), mor, {"a": "ida", "b": "idb"}, table,
                     name="arrow")


def walking_iso_cat():
    mor = {"idx": ("x", "x"), "idy": ("y", "y"),
           "f": ("x", "y"), "g": ("y", "x")}
    table = {
        ("idx", "idx"): "idx",
        ("idy", "idy"): "idy",
        ("f", "idx"): "f",
        ("idy", "f"): "f",
        ("g", "idy"): "g",
        ("idx", "g"): "g",
        ("g", "f"): "idx",
        ("f", "g"): "idy",
    }
    return fs.FinCat(("x", "y"), mor, {"x": "idx", "y": "idy"}, table,
                     name="walking_iso")


def two_cat():
    return fs.discrete_cat(("0", "1"), name="two")


# ---------------------------------------------------------------------------
# posets, presheaves, indexed categories


def generators_of(c):
    """Morphisms not factoring as a composite of two non-identities."""
    composite = {h for (g, f), h in c.table.items()
                 if not c.is_id(g) and not c.is_id(f)}
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


def rand_presheaf(rng, c, sizes, tries=400):
    """Random presheaf with sizes[x] elements over each object x: sample
    actions on generators, derive, reject."""
    els = {x: tuple(f"{x}e{i}" for i in range(sizes[x])) for x in c.objects}
    for attempt in range(tries):
        act = {c.ident[x]: {e: e for e in els[x]} for x in c.objects}
        for m in generators_of(c):
            src, dst = c.mor[m]
            act[m] = {e: rng.choice(els[src]) for e in els[dst]}
        full = _derive_all(c, act, lambda ag, af: {e: af[ag[e]] for e in ag})
        if full is None:
            continue
        P = fs.Presheaf(c, els, full, name=f"R{attempt}")
        if not fs.validate_presheaf(P):
            return P
    raise RuntimeError(f"no coherent presheaf on {c.name} in {tries} tries")


def sub_presheaf(rng, P):
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
    act = {m: {e: P.act[m][e] for e in els[c.cod(m)]} for m in c.mor}
    Q = fs.Presheaf(c, els, act, name=f"{P.name}|sub")
    incl = {x: {e: e for e in els[x]} for x in c.objects}
    return Q, incl


def singleton_presheaf(c):
    els = {x: ("*",) for x in c.objects}
    act = {m: {"*": "*"} for m in c.mor}
    return fs.Presheaf(c, els, act, name="pt")


def small_site_shape(rng, n):
    """Random poset on objects o0..o<n-1> with a coverage.

    Relations i < j appear with probability 0.45 (at least one), then are
    closed transitively.  Each object with incoming arrows is left bare with
    probability 0.35, else covered by one family of at most two arrows, and
    by a second family with probability 0.25; wide covers square the descent
    search and the corpus has to stay desk-scale.  Returns (edges, coverage).
    """
    objs = tuple(f"o{i}" for i in range(n))
    edges = [(i, j) for j in range(1, n) for i in range(j)
             if rng.random() < 0.45] or [(0, n - 1)]
    below = {j: set() for j in range(n)}
    for i, j in edges:
        below[j].add(i)
    for j in range(n):  # ascending j: every below[i], i < j, is closed
        for i in list(below[j]):
            below[j] |= below[i]
    coverage = {}
    for j in range(n):
        arrows = [("le", objs[i], objs[j]) for i in sorted(below[j])]
        if not arrows or rng.random() < 0.35:
            continue

        def family():
            fam = [m for m in arrows if rng.random() < 0.6] or [rng.choice(arrows)]
            rng.shuffle(fam)
            return fam[:2]

        fams = [family()]
        if rng.random() < 0.25:
            fams.append(family())
        coverage[objs[j]] = fams
    return [(objs[i], objs[j]) for i, j in edges], coverage


def design(name, sizes, count=125):
    """A fixed list of small sites, with presheaf sizes, drawn in their
    natural proportions.

    A cell is (object count, edges, coverage, element counts up to 3,
    element counts up to 2); the counts pin the sizes of generated
    presheaves per object.  The list comes from a fixed source, not the
    run's seed: the seed draws each op's indexed category on the cell's
    site.  This stratifies the runs.  A handful of heavy sites dominate a
    20 s run, so with sites drawn from the seed, runs on different seeds
    differed by a quarter in total op time; with the sites fixed, by a
    twelfth.  The default count is coprime to the kind cycles, so every
    site meets every kind.
    """
    rng = random.Random(f"design:{name}")
    cells = []
    for k in range(count):
        n = sizes[k % len(sizes)]
        edges, coverage = small_site_shape(rng, n)
        els3 = tuple(rng.randint(1, 3) for _ in range(n))
        els2 = tuple(rng.randint(1, 2) for _ in range(n))
        cells.append((n, edges, coverage, els3, els2))
    return cells


def small_site(cell, tag):
    """The cell's site, objects renamed o<j>.<tag> so inputs stay distinct."""
    n, edges, coverage = cell[:3]

    def rename(o):
        return f"{o}.{tag}"

    c = fs.poset_cat(tuple(rename(f"o{j}") for j in range(n)),
                     [(rename(a), rename(b)) for a, b in edges], name=f"P{n}")
    cov = {rename(x): [[("le", rename(m[1]), rename(m[2])) for m in fam]
                       for fam in fams]
           for x, fams in coverage.items()}
    return c, cov


def pinned(c, els):
    """`rand_presheaf` sizes for element counts listed in object order."""
    return dict(zip(c.objects, els))


# In their natural proportions: half discrete, a quarter constant (one
# twelfth per small fibre), a quarter products.
INDEXED_KINDS = ("discrete", "const:terminal", "product", "discrete",
                 "const:two", "discrete", "product", "discrete",
                 "const:arrow", "discrete", "product", "discrete")
CONST_FIBRES = {"terminal": fs.terminal_cat, "two": two_cat,
                "arrow": arrow_cat}


def rand_indexed(rng, c, kind, cell):
    """Indexed category over c: discrete, constant, or a product.

    Product fibres stay discrete-by-discrete; an iso-rich factor under a
    two-generator cover already squares the descent search out of desk
    scale, so the groupoid texture comes from the constant family alone.
    """
    if kind == "discrete":
        return fs.embed_discrete(rand_presheaf(rng, c, sizes=pinned(c, cell[3])))
    if kind.startswith("const:"):
        return fs.const_indexed(c, CONST_FIBRES[kind[6:]]())
    prod, _, _ = fs.product_indexed(
        fs.embed_discrete(rand_presheaf(rng, c, sizes=pinned(c, cell[4]))),
        fs.const_indexed(c, two_cat()),
    )
    return prod


def groupoid_fibration(base):
    """Projection of the constant walking-iso family onto the constant point.

    With a groupoid fibre every morphism upstairs is cartesian, so this is
    the simplest non-discrete indexed fibration over the given base.
    """
    fib = walking_iso_cat()
    one = fs.terminal_cat()
    ee = fs.const_indexed(base, fib, name="const-fib")
    dd = fs.const_indexed(base, one, name="const-pt")
    bang = fs.Functor(fib, one, {a: "*" for a in fib.objects},
                      {m: ("id", "*") for m in fib.mor}, name="!")
    return fs.strict_indexed_fun(ee, dd, {x: bang for x in base.objects},
                                 name="!")


FIBRATION_KINDS = ("identity", "projection", "groupoid", "inclusion",
                   "collapse")


def rand_fibration(rng, c, kind, cell, inner):
    """Indexed fibration over c of the given family.

    Families: identity on an indexed category of kind `inner`, projection of a
    product, collapse of a constant groupoid onto the constant point, and
    embedded presheaf maps (inclusions and projections are always natural;
    every map of discrete fibres lifts identities, hence is a fibration).
    """
    if kind == "identity":
        return fs.identity_indexed_fun(rand_indexed(rng, c, inner, cell))
    if kind == "projection":
        _, pr1, _ = fs.product_indexed(
            fs.embed_discrete(rand_presheaf(rng, c, sizes=pinned(c, cell[4]))),
            fs.const_indexed(c, rng.choice((fs.terminal_cat, two_cat))()),
        )
        return pr1
    if kind == "groupoid":
        return groupoid_fibration(c)
    if kind == "inclusion":
        Q = rand_presheaf(rng, c, sizes=pinned(c, cell[3]))
        P, incl = sub_presheaf(rng, Q)
        return fs.embed_mor(P, Q, incl)
    P = rand_presheaf(rng, c, sizes=pinned(c, cell[4]))
    Q = singleton_presheaf(c)
    bang = {x: {e: "*" for e in P.els[x]} for x in c.objects}
    return fs.embed_mor(P, Q, bang)


# ---------------------------------------------------------------------------
# open-set lattices of finite T0 spaces


def rand_t0_opens(rng, n_opens):
    """The opens of a random finite T0 space with exactly n_opens opens.

    A finite T0 space is a finite poset with the Alexandrov topology: its
    opens are the up-sets of the specialisation order.  Points and order
    are drawn at random until the up-set count matches; the empty set is
    one of the opens.
    """
    least = max(2, (n_opens - 1).bit_length())  # 2**k >= n_opens
    while True:
        k = rng.randint(least, least + 1)
        density = rng.random()
        above = {i: {j for j in range(i + 1, k) if rng.random() < density}
                 for i in range(k)}
        for i in reversed(range(k)):  # every above[j], j > i, is closed
            for j in list(above[i]):
                above[i] |= above[j]
        opens = set()
        for bits in range(2 ** k):
            up = frozenset(i for i in range(k) if bits >> i & 1)
            if all(above[i] <= up for i in up):
                opens.add(up)
        if len(opens) == n_opens:
            return sorted(opens, key=lambda u: (len(u), sorted(u)))


def t0_design(name, sizes, count):
    """A fixed list of finite T0 spaces' opens; entry k has sizes[k % len]
    opens.  As with `design`, the spaces come from a fixed source and the
    seed draws the presheaves on them: saturating a lattice costs from
    milliseconds to a second by its shape alone, and with the shapes drawn
    from the seed, runs on different seeds differed by a third in total op
    time; with them fixed, by a tenth."""
    rng = random.Random(f"design:{name}")
    return [rand_t0_opens(rng, sizes[k % len(sizes)]) for k in range(count)]


def open_cover_site(rng, opens, tag):
    """The inclusion poset of the opens and a coverage of genuine open covers.

    Every open with a proper subcover gets one random cover: proper
    sub-opens taken in random order while they add points, until their
    union is the open.  The empty open is covered by the empty family.
    Opens are named U<points>_<tag>, so inputs stay distinct.  Returns
    (poset category, coverage, opens by name).
    """
    names = {u: "U" + "".join(str(p) for p in sorted(u)) + f"_{tag}"
             for u in opens}
    edges = [(names[a], names[b]) for a in opens for b in opens
             if a < b]
    c = fs.poset_cat(tuple(names[u] for u in opens), edges,
                     name=f"O{len(opens)}")
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
    return c, coverage, {names[u]: u for u in opens}


def restriction_presheaf(rng, c, opens, count):
    """Restrictions of `count` random 0/1-valued functions on the points.

    P(U) holds the restrictions to U of the chosen functions, so P is
    coherent by construction; whether it glues depends on the draw, which
    mixes sheaves and non-sheaves.  Element names carry their values.
    """
    points = sorted(set().union(*opens.values()))
    funcs = [{p: rng.randint(0, 1) for p in points}
             for _ in range(count)]

    def restrict(f, u):
        return "v" + "".join(str(f[p]) for p in sorted(opens[u]))

    els = {u: tuple(sorted({restrict(f, u) for f in funcs})) for u in opens}
    act = {}
    for m, (v, u) in c.mor.items():
        act[m] = {restrict(f, u): restrict(f, v) for f in funcs}
    return fs.Presheaf(c, els, act, name="F")


def doubled_presheaf(P, x):
    """P with a second section over x that has the same restrictions as the
    first.  Not separated, hence not a sheaf, on any site where x has a cover
    without the identity."""
    c = P.base
    e = P.els[x][0]
    twin = f"{e}'"
    els = dict(P.els)
    els[x] = P.els[x] + (twin,)
    act = {}
    for m, a in P.act.items():
        a = dict(a)
        if c.cod(m) == x:
            a[twin] = twin if c.is_id(m) else a[e]
        act[m] = a
    return fs.Presheaf(c, els, act, name=f"{P.name}2")
