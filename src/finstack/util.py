"""Small shared helpers.

`ckey` imposes a deterministic total order on the heterogeneous ids used for
objects and morphisms (strings, ints, nested tuples, frozensets).  Sorting by
it makes enumeration order, serialization, and error messages reproducible
across runs.

Keys of nested ids are costly, so they are computed as seldom as possible.
A `FinCat` stores its objects and morphisms in this order, and every later
ordering reads that order (a sieve lists its members in `FinCat.into`
order).  A built category lists its ids in this order from its parts (a
descent category walks its data in fibre order), so no datum's key is
computed for it.  Where a key is computed (serialization, messages), a
constructed id with a `_ckey` method (a descent datum) computes it once and
keeps it.  Descent data are hash-consed (one object per distinct datum, so
equality is identity); their hash is the object's identity, which varies
between processes: no output may follow the iteration order of a set or
dict keyed by data; sort in stable order instead.

`reused` lets a builder keep its result on the structure it is built from,
so a repeat call returns what the first one built.  An entry is keyed by
`(build, caps, id(other))`: the builder, the caps and the identity of the
second argument, so two builders kept on one owner never see each other's
entries.  That is exact only because the library never mutates a structure
once built.
"""

import functools
import inspect


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


def reused(keep=None, restore=None):
    """Decorator for a builder `build(owner, other, caps)` whose result
    depends only on the values of its arguments: the result is kept on
    `owner`, in its `_memo` slot (allocated on first use), keyed by the
    builder, `caps` and the identity of `other`, and a repeat call returns
    it.

    The entry holds `other`, so its id is not reused while the entry lives.
    It holds the result, or `keep(result)` when `keep` is given, and a hit
    returns what it holds, or `restore(owner, other, kept)`.  What it holds
    must not reference `owner`: a cycle through the owner would leave the
    owner to the cyclic collector.  A call that raises leaves no entry.
    `build` may itself make reused calls on `owner`; their entries stay."""

    def wrap(build):
        default = inspect.signature(build).parameters["caps"].default

        @functools.wraps(build)
        def reuse(owner, other, caps=default):
            key = (build, caps, id(other))
            memo = getattr(owner, "_memo", None)
            if memo is not None and key in memo:
                kept = memo[key][1]
                return kept if restore is None else restore(owner, other, kept)
            out = build(owner, other, caps)
            # A nested reused call may have allocated the slot meanwhile.
            memo = getattr(owner, "_memo", None)
            if memo is None:
                memo = owner._memo = {}
            memo[key] = (other, out if keep is None else keep(out))
            return out

        return reuse

    return wrap
