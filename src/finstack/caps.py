"""Enumeration caps and the one bounded search.

Every exhaustive search in the library is bounded by a `Caps` value; crossing
a bound raises `CapExceeded` instead of hanging.  The backtracking searches
all run through `search`, whose node budget is `max_descent`; a product
of candidate pools that is filtered before a search runs on each
survivor goes through `pruned_product`, on the same budget.  The defaults
match the CLI flags `--max-homset`, `--max-sieves-per-object`,
`--max-descent`, `--max-closure`, and a cap message names the flag that
raises it.
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


class _Unmetered:
    """Stands in for a `Budget` where the caller meters the nodes."""

    __slots__ = ()

    def spend(self):
        pass


def search(n, cands, fits, budget: Budget):
    """Depth-first search over assignments to positions 0..n-1, in order.

    `cands(i, a)` gives the candidates for position i once a[:i] is fixed;
    `fits(i, a)` tests the constraints that close at position i, with a[i]
    just set.  Yields each full assignment as a list that is reused, so
    callers copy what they keep.  One node of `budget` is spent per position
    entered, the full assignment included.
    """
    a = []
    budget.spend()
    if n == 0:
        yield a
        return
    stack = [iter(cands(0, a))]
    while stack:
        i = len(a)
        for v in stack[-1]:
            a.append(v)
            if fits(i, a):
                budget.spend()
                if i + 1 == n:
                    yield a
                else:
                    stack.append(iter(cands(i + 1, a)))
                    break
            a.pop()
        else:
            stack.pop()
            if a:
                a.pop()


def pruned_product(pools, fits, budget: Budget):
    """The tuples of the product of `pools` that pass `fits`, in product
    order: forward checking (Haralick & Elliott, 1980) by `search`.

    `pools` are sequences; `fits(i, a)` tests the constraints that close at
    position i, with a[i] just set, and must fail only where no completion
    of a[:i+1] can pass.  Yields each surviving tuple as a list that is
    reused, so callers copy what they keep.  Callers run one `search` on
    every survivor, whose root node stands for it.  Positions entered here
    are not metered; one node of `budget` is spent per rejected candidate
    instead.  A rejection stands for at least one full combination, each
    of which would have cost its `search` a root node, so on a shared
    budget this never spends more than searching every combination of the
    full product.  With an empty pool there is no combination and nothing
    is spent.
    """
    if not all(pools):
        return

    def checked(i, a):
        if fits(i, a):
            return True
        budget.spend()
        return False

    yield from search(len(pools), lambda i, a: pools[i], checked, _Unmetered())
