"""Enumeration caps and the one bounded search.

Every exhaustive search in the library is bounded by a `Caps` value; crossing
a bound raises `CapExceeded` instead of hanging.  The backtracking searches
all run through `search`, whose node budget is `max_descent`.  The defaults
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


def check(n: int, caps: Caps, field: str, what: str, *ids) -> None:
    """Raise CapExceeded when n passes the `field` cap of `caps`.  `what` is
    a format string over the `fmt` of `ids`, formatted only when it trips."""
    cap = getattr(caps, field)
    if n > cap:
        flag = "--" + field.replace("_", "-")
        what = what.format(*map(fmt, ids))
        raise CapExceeded(f"{what}: {n} exceeds cap {cap}; raise {flag}")


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
