"""Enumeration caps and the one bounded search.

Every exhaustive search in the library is bounded by a `Caps` value; crossing
a bound raises `CapExceeded` instead of hanging.  The backtracking searches
all run through `search`, whose node budget is `max_descent`; a product
of candidate pools that is filtered before a search runs on each
survivor goes through `pruned_product`, on the same budget.  The defaults
match the CLI flags `--max-homset`, `--max-sieves-per-object`,
`--max-descent`, `--max-closure`, and a cap message names the flag that
raises it.

Both searches keep the one constraint schedule.  A check is a pair
`(scope, c)`: `scope` is the tuple of positions it reads and `c` its
payload.  The check is filed under `max(scope)`, the position where its
scope closes, in the order the checks are given; each candidate set there
is kept only if `holds(c, a)` is true for every check filed there, tested
in that order until one fails, with `a` the assignment to positions
0..max(scope).  A check is tested nowhere else.
"""

from dataclasses import dataclass

from .util import fmt


class CapExceeded(RuntimeError):
    """An enumeration grew past its configured cap."""


@dataclass(frozen=True)
class Caps:
    max_homset: int = 64
    max_sieves_per_object: int = 65536
    max_descent: int = 100_000
    max_closure: int = 10_000


DEFAULT = Caps()


def flag(field: str) -> str:
    """The CLI flag that sets the `field` cap."""
    return "--" + field.replace("_", "-")


def check(n: int, caps: Caps, field: str, what: str, *ids) -> None:
    """Raise CapExceeded when n passes the `field` cap of `caps`.  `what` is
    a format string over the `fmt` of `ids`, formatted only when it trips."""
    cap = getattr(caps, field)
    if n > cap:
        what = what.format(*map(fmt, ids))
        raise CapExceeded(f"{what}: {n} exceeds cap {cap}; raise {flag(field)}")


class Budget:
    """Search nodes left to one or more `search` runs that share a cap."""

    __slots__ = ("cap", "left")

    def __init__(self, caps: Caps = DEFAULT):
        self.cap = self.left = caps.max_descent

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise CapExceeded(
                f"search budget of {self.cap} nodes exhausted; raise --max-descent"
            )


def _walk(pools, checks, holds, enter, reject):
    """The backtracking of `search` and `pruned_product`.  `enter()` is
    called per position entered, the root included, and `reject()` per
    candidate a check rejects; either may be None."""
    closing = [[] for _ in pools]
    for scope, c in checks:
        closing[max(scope)].append(c)
    a = []
    if enter is not None:
        enter()
    if not pools:
        yield a
        return
    n = len(pools)
    stack = [iter(pools[0])]
    while stack:
        i = len(a)
        due = closing[i]
        for v in stack[-1]:
            a.append(v)
            for c in due:
                if not holds(c, a):
                    if reject is not None:
                        reject()
                    break
            else:
                if enter is not None:
                    enter()
                if i + 1 == n:
                    yield a
                else:
                    stack.append(iter(pools[i + 1]))
                    break
            a.pop()
        else:
            stack.pop()
            if a:
                a.pop()


def search(pools, checks, holds, budget: Budget):
    """Depth-first search over assignments a with a[i] drawn from
    `pools[i]`, in pool order.

    `checks` are `(scope, c)` pairs, each tested by `holds(c, a)` where its
    scope closes (see the module docstring).  Yields each full assignment
    as a list that is reused, so callers copy what they keep.  One node of
    `budget` is spent per position entered, the full assignment included.
    """
    return _walk(pools, checks, holds, budget.spend, None)


def pruned_product(pools, checks, holds, budget: Budget):
    """The tuples of the product of `pools` that pass every check, in
    product order: forward checking (Haralick & Elliott, 1980).

    Checks are scheduled as in `search`, and a check must fail only where
    no completion of the prefix can pass.  Yields each surviving tuple as a
    list that is reused, so callers copy what they keep.  Callers run one
    `search` on every survivor, whose root node stands for it.  Positions
    entered here are not metered; one node of `budget` is spent per
    rejected candidate instead.  A rejection stands for at least one full
    combination, each of which would have cost its `search` a root node, so
    on a shared budget this never spends more than searching every
    combination of the full product.  With an empty pool there is no
    combination and nothing is spent.
    """
    if not all(pools):
        return iter(())
    return _walk(pools, checks, holds, None, budget.spend)
