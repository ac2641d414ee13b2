"""Hand-built sites, presheaves, and indexed categories shared across tests.

Each builder returns fresh values so tests can mutate without cross-talk.
Morphism naming: poset sites use ("le", a, b) ids from poset_cat, the other
bases use short strings.
"""

from finstack import (
    FinCat,
    Functor,
    IndexedCat,
    Presheaf,
    discrete_cat,
    embed_discrete,
    poset_cat,
    saturate,
    strict_indexed,
    terminal_cat,
)


def le(a, b):
    return ("le", a, b)


def terminal_site():
    c = terminal_cat()
    return c, saturate(c, {})


def arrow_cat():
    """Single non-identity arrow i : a -> b."""
    mor = {"ida": ("a", "a"), "idb": ("b", "b"), "i": ("a", "b")}
    table = {
        ("ida", "ida"): "ida",
        ("idb", "idb"): "idb",
        ("i", "ida"): "i",
        ("idb", "i"): "i",
    }
    return FinCat(("a", "b"), mor, {"a": "ida", "b": "idb"}, table, name="arrow")


def arrow_site():
    c = arrow_cat()
    return c, saturate(c, {"b": [["i"]]})


def span_cat():
    """p -jp-> X <-jq- q."""
    mor = {
        "idp": ("p", "p"),
        "idq": ("q", "q"),
        "idX": ("X", "X"),
        "jp": ("p", "X"),
        "jq": ("q", "X"),
    }
    table = {
        ("idp", "idp"): "idp",
        ("idq", "idq"): "idq",
        ("idX", "idX"): "idX",
        ("jp", "idp"): "jp",
        ("idX", "jp"): "jp",
        ("jq", "idq"): "jq",
        ("idX", "jq"): "jq",
    }
    return FinCat(
        ("p", "q", "X"), mor, {"p": "idp", "q": "idq", "X": "idX"}, table, name="span"
    )


def span_site():
    c = span_cat()
    return c, saturate(c, {"X": [["jp", "jq"]]})


def patches_cat():
    """Poset r <= p <= X, r <= q <= X: two patches with an overlap."""
    return poset_cat(
        ("X", "p", "q", "r"),
        [("r", "p"), ("r", "q"), ("p", "X"), ("q", "X")],
        name="patches",
    )


def patches_site():
    c = patches_cat()
    return c, saturate(c, {"X": [[le("p", "X"), le("q", "X")]]})


def multicover_site():
    """Patches poset with a second, finer covering family on X."""
    c = patches_cat()
    J = saturate(
        c,
        {
            "X": [[le("p", "X"), le("q", "X")], [le("r", "X")]],
            "p": [[le("r", "p")]],
        },
    )
    return c, J


def walking_iso_cat():
    mor = {
        "idx": ("x", "x"),
        "idy": ("y", "y"),
        "f": ("x", "y"),
        "g": ("y", "x"),
    }
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
    return FinCat(("x", "y"), mor, {"x": "idx", "y": "idy"}, table, name="walking_iso")


def z2_cat():
    """One object, one involution: the group Z/2 as a category."""
    mor = {"e": ("*", "*"), "s": ("*", "*")}
    table = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
    return FinCat(("*",), mor, {"*": "e"}, table, name="Z2")


def parallel_pair_cat():
    mor = {
        "ida": ("a", "a"),
        "idb": ("b", "b"),
        "f": ("a", "b"),
        "g": ("a", "b"),
    }
    table = {
        ("ida", "ida"): "ida",
        ("idb", "idb"): "idb",
        ("f", "ida"): "f",
        ("idb", "f"): "f",
        ("g", "ida"): "g",
        ("idb", "g"): "g",
    }
    return FinCat(("a", "b"), mor, {"a": "ida", "b": "idb"}, table, name="parallel")


def patches_sheaf():
    """Sections over the patches poset satisfying the gluing condition for
    the {p, q} cover: F(X) is exactly the matched pairs."""
    c = patches_cat()
    els = {
        "X": ("x1", "x2"),
        "p": ("a1", "a2"),
        "q": ("b1",),
        "r": ("c1",),
    }
    act = {
        le("X", "X"): {"x1": "x1", "x2": "x2"},
        le("p", "p"): {"a1": "a1", "a2": "a2"},
        le("q", "q"): {"b1": "b1"},
        le("r", "r"): {"c1": "c1"},
        le("p", "X"): {"x1": "a1", "x2": "a2"},
        le("q", "X"): {"x1": "b1", "x2": "b1"},
        le("r", "X"): {"x1": "c1", "x2": "c1"},
        le("r", "p"): {"a1": "c1", "a2": "c1"},
        le("r", "q"): {"b1": "c1"},
    }
    return Presheaf(c, els, act, name="glued")


def patches_nonsheaf():
    """Same local data but F(X) misses one matching family: separated, not a
    sheaf."""
    c = patches_cat()
    els = {
        "X": ("x1",),
        "p": ("a1", "a2"),
        "q": ("b1",),
        "r": ("c1",),
    }
    act = {
        le("X", "X"): {"x1": "x1"},
        le("p", "p"): {"a1": "a1", "a2": "a2"},
        le("q", "q"): {"b1": "b1"},
        le("r", "r"): {"c1": "c1"},
        le("p", "X"): {"x1": "a1"},
        le("q", "X"): {"x1": "b1"},
        le("r", "X"): {"x1": "c1"},
        le("r", "p"): {"a1": "c1", "a2": "c1"},
        le("r", "q"): {"b1": "c1"},
    }
    return Presheaf(c, els, act, name="torn")


def patches_nonseparated():
    """Two global sections with identical restrictions."""
    c = patches_cat()
    els = {
        "X": ("x1", "x2"),
        "p": ("a1",),
        "q": ("b1",),
        "r": ("c1",),
    }
    act = {
        le("X", "X"): {"x1": "x1", "x2": "x2"},
        le("p", "p"): {"a1": "a1"},
        le("q", "q"): {"b1": "b1"},
        le("r", "r"): {"c1": "c1"},
        le("p", "X"): {"x1": "a1", "x2": "a1"},
        le("q", "X"): {"x1": "b1", "x2": "b1"},
        le("r", "X"): {"x1": "c1", "x2": "c1"},
        le("r", "p"): {"a1": "c1"},
        le("r", "q"): {"b1": "c1"},
    }
    return Presheaf(c, els, act, name="doubled")


def overlap_site():
    """Patches whose overlap r is covered in turn, by two points s, t."""
    c = poset_cat(
        ("X", "p", "q", "r", "s", "t"),
        [("s", "r"), ("t", "r"), ("r", "p"), ("r", "q"), ("p", "X"),
         ("q", "X")],
        name="overlap",
    )
    return c, saturate(c, {"X": [[le("p", "X"), le("q", "X")]],
                           "r": [[le("s", "r"), le("t", "r")]]})


def overlap_nonseparated():
    """Two sections over the overlap r that s and t cannot tell apart, c2
    from the patch p only.  Over X, (a2, b1) matches in P⁺, where c1 and c2
    become one family, but not in P, so P⁺ is not a sheaf."""
    c, _ = overlap_site()
    below = {  # each section -> its restrictions, to its own object first
        "x1": {"X": "x1", "p": "a1", "q": "b1", "r": "c1", "s": "d", "t": "e"},
        "a1": {"p": "a1", "r": "c1", "s": "d", "t": "e"},
        "a2": {"p": "a2", "r": "c2", "s": "d", "t": "e"},
        "b1": {"q": "b1", "r": "c1", "s": "d", "t": "e"},
        "c1": {"r": "c1", "s": "d", "t": "e"},
        "c2": {"r": "c2", "s": "d", "t": "e"},
        "d": {"s": "d"},
        "e": {"t": "e"},
    }
    owner = {e: next(iter(under)) for e, under in below.items()}
    els = {x: tuple(e for e in below if owner[e] == x) for x in c.objects}
    act = {m: {e: below[e][a] for e in els[b]}
           for m, (a, b) in c.mor.items()}
    return Presheaf(c, els, act, name="overlap")


def arrow_presheaf(nb=2, na=1):
    """Presheaf on the arrow with nb sections over b all restricting to the
    first of na sections over a."""
    c = arrow_cat()
    bs = tuple(f"s{i}" for i in range(nb))
    as_ = tuple(f"t{i}" for i in range(na))
    els = {"b": bs, "a": as_}
    act = {
        "idb": {s: s for s in bs},
        "ida": {t: t for t in as_},
        "i": {s: "t0" for s in bs},
    }
    return Presheaf(c, els, act, name=f"arrow{nb}{na}")


def span_presheaf(nx=0):
    """Presheaf on the span with |F(X)| = nx and free local sections."""
    c = span_cat()
    xs = tuple(f"x{i}" for i in range(nx))
    els = {"X": xs, "p": ("u", "v"), "q": ("w",)}
    act = {
        "idX": {x: x for x in xs},
        "idp": {"u": "u", "v": "v"},
        "idq": {"w": "w"},
        "jp": {x: "u" for x in xs},
        "jq": {x: "w" for x in xs},
    }
    return Presheaf(c, els, act, name=f"span{nx}")


def span_presheaf_free(np=2, nq=2, nx=1):
    """Span presheaf with np and nq free local sections; every global section
    restricts to the first of each."""
    c = span_cat()
    xs = tuple(f"x{i}" for i in range(nx))
    ps = tuple(f"u{i}" for i in range(np))
    qs = tuple(f"w{i}" for i in range(nq))
    els = {"X": xs, "p": ps, "q": qs}
    act = {
        "idX": {x: x for x in xs},
        "idp": {u: u for u in ps},
        "idq": {w: w for w in qs},
        "jp": {x: "u0" for x in xs},
        "jq": {x: "w0" for x in xs},
    }
    return Presheaf(c, els, act, name=f"spanfree{np}{nq}{nx}")


def twisted_z2_indexed():
    """Indexed category over Z/2 with identity restrictions but a non-trivial
    compositor: the square of the flip restricts trivially only up to the
    twist t.  The smallest honestly non-strict example."""
    base = z2_cat()
    # fibre is again Z/2, with morphisms 1 (identity) and t
    fib = FinCat(
        ("*",),
        {"1": ("*", "*"), "t": ("*", "*")},
        {"*": "1"},
        {("1", "1"): "1", ("1", "t"): "t", ("t", "1"): "t", ("t", "t"): "1"},
        name="fibZ2",
    )
    ident = Functor(fib, fib, {"*": "*"}, {"1": "1", "t": "t"}, name="Id")
    res = {"e": ident, "s": ident}
    compositor = {
        ("e", "e"): {"*": "1"},
        ("e", "s"): {"*": "1"},
        ("s", "e"): {"*": "1"},
        ("s", "s"): {"*": "t"},
    }
    unitor = {"*": {"*": "1"}}
    return IndexedCat(base, {"*": fib}, res, compositor, unitor, name="twisted")


def const_walking_iso(base):
    """Constant indexed category with the walking isomorphism as fibre."""
    from finstack import const_indexed

    return const_indexed(base, walking_iso_cat())


def discrete_two():
    return discrete_cat(("0", "1"), name="two")


def hom_presheaf(c, x):
    """Representable presheaf of a category at one of its objects."""
    els = {o: tuple(c.hom(o, x)) for o in c.objects}
    act = {m: {e: c.compose(e, m) for e in els[c.cod(m)]} for m in c.mor}
    return Presheaf(c, els, act, name=f"hom(-,{x})")


def const_presheaf(c, values=("e1", "e2")):
    """Constant presheaf with identity restriction maps."""
    els = {o: tuple(values) for o in c.objects}
    act = {m: {e: e for e in values} for m in c.mor}
    return Presheaf(c, els, act, name="const")


def groupoid_fibration(base, fib=None):
    """Projection from a constant indexed category onto the constant point.

    With a groupoid fibre every morphism upstairs is cartesian, so this is
    the simplest non-discrete indexed fibration over the given base.
    """
    from finstack import const_indexed, strict_indexed_fun

    fib = fib if fib is not None else walking_iso_cat()
    one = terminal_cat()
    ee = const_indexed(base, fib, name="const-fib")
    dd = const_indexed(base, one, name="const-pt")
    bang = Functor(fib, one, {a: "*" for a in fib.objects},
                   {m: ("id", "*") for m in fib.mor}, name="!")
    return strict_indexed_fun(ee, dd, {x: bang for x in base.objects}, name="!")


def projection_fibration(d, e):
    """First projection of a product of indexed categories."""
    from finstack import product_indexed

    _, pr1, _ = product_indexed(d, e)
    return pr1
