"""Small shared helpers.

`ckey` imposes a deterministic total order on the heterogeneous ids used for
objects and morphisms (strings, ints, nested tuples, frozensets).  Sorting by
it makes enumeration order, serialization, and error messages reproducible
across runs.

Keys of nested ids are costly, so they are computed as seldom as possible:
a constructed id with a `_ckey` method (a descent datum) computes its key
once and keeps it, and a `FinCat` sorts its morphisms by `ckey` once and
ranks them (`FinCat.ordered`) for every later ordering.
"""


def ckey(x):
    # bool first: bool is a subclass of int.
    if isinstance(x, bool):
        return ("b", x)
    if isinstance(x, int):
        return ("i", x)
    if isinstance(x, str):
        return ("s", x)
    if isinstance(x, tuple):
        return ("t", tuple(ckey(v) for v in x))
    if isinstance(x, (frozenset, set)):
        return ("f", tuple(sorted(ckey(v) for v in x)))
    if x is None:
        return ("n",)
    k = getattr(x, "_ckey", None)
    if k is not None:
        return ("o", type(x).__name__, k())
    raise TypeError(f"no canonical key for {type(x).__name__}: {x!r}")


def stable_sorted(xs):
    return sorted(xs, key=ckey)


def fmt(x) -> str:
    """Compact human-readable form of an id for error messages."""
    if isinstance(x, str):
        return x
    if isinstance(x, tuple):
        return "(" + ",".join(fmt(v) for v in x) + ")"
    if isinstance(x, frozenset):
        return "{" + ",".join(sorted(fmt(v) for v in x)) + "}"
    return repr(x)
