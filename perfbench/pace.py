"""The machine's speed, measured next to the ops whose times it corrects.

The benchmark runs on a few cores of a shared host, whose speed for a pure
Python loop drifts by half or more over seconds: a fixed loop timed in 5 s
windows over four minutes read 19-36 ms per call.  Every kind of pure
Python code slows alike, so the time of a fixed reference task taken next
to an op tells how fast the machine ran that op.  The harness reports each
op's time scaled to REFERENCE_S, the reference task's time on a nominal
machine:

    reported = measured * REFERENCE_S / reference time next to the op

A change in finstack moves the measured time and not the reference, so it
moves the reported time by the same factor; a change in the machine's speed
moves both and cancels.  Timed in 3 s cycles of the same 40 fibred-corpus
ops, with a reference task after every op, the measured total had an
interquartile range of 24% of its median and the scaled total one of 5%.
"""

import statistics
import time

# The reference task's time on the nominal machine: about its median over
# 20 s on the 2-vCPU VM the benchmark was written on (1.0-6.5 ms).
REFERENCE_S = 0.002
PROBE_REPEATS = 3
# Probe at least this often, in seconds of op time.
PROBE_EVERY = 0.2


def reference():
    """A fixed pure-Python task of the kinds finstack is made of: dict and
    set updates, tuple building, sorting and small function calls."""
    table, seen = {}, set()
    for i in range(2500):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        if i % 7 == 0:
            seen.add(frozenset(key))
    return len(sorted(table.items())) + len(seen)


def probe():
    """Median time of PROBE_REPEATS reference tasks, in seconds."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def factor(before, after):
    """Scale for work done between two probes."""
    return REFERENCE_S / ((before + after) / 2)


class Pacer:
    """Probes between ops and scales each op's time by the probes around it.

        pacer = Pacer()
        for op: dt = ...; pacer.add(dt)
        scaled = pacer.scaled()
    """

    def __init__(self, every=PROBE_EVERY):
        self.every = every
        self.probes = [probe()]
        self.raw, self.after = [], []  # per op: time, index of probe before it
        self._settled = 0.0  # scaled time of the ops before the last probe
        self._since = 0.0  # measured time of the ops after it

    @property
    def busy(self):
        """Op time so far at reference speed; the ops since the last probe
        are scaled by it alone."""
        return self._settled + self._since * REFERENCE_S / self.probes[-1]

    def add(self, dt):
        self.raw.append(dt)
        self.after.append(len(self.probes) - 1)
        self._since += dt
        if self._since >= self.every:
            self._probe()

    def _probe(self):
        self.probes.append(probe())
        self._settled += self._since * factor(*self.probes[-2:])
        self._since = 0.0

    def scaled(self):
        """Every op's time at reference speed."""
        if self._since > 0 or len(self.probes) == 1:
            self._probe()
        p = self.probes
        return [dt * factor(p[k], p[k + 1]) for dt, k in zip(self.raw, self.after)]


def timed(fn, *args):
    """(result, seconds at reference speed) of one call of fn, probing the
    machine before and after it."""
    before = probe()
    t0 = time.perf_counter()
    result = fn(*args)
    dt = time.perf_counter() - t0
    return result, dt * factor(before, probe())

