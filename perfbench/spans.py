"""Per-layer tracing from outside the program.

`Tracer.install` rebinds each listed public function of `src/finstack`
with a wrapper that records a span (name, start, end, parent span, op id)
in memory.  The name is rebound in every finstack module namespace that
holds the function, because modules import each other's functions by name
(`from .descent import is_stack`), so a wrapper on the defining module
alone would miss most calls.  `Tracer.uninstall` restores the originals.

A layer's self time is its span's duration minus the durations of its
direct child spans; the run is single-threaded, so children never overlap.
"""

import json
import sys
import time

# The public functions of each finstack module that the traced run wraps.
WRAPPED = {
    "site": ("saturate", "validate_topology", "sieves_on", "minimal_cover"),
    "descent": ("enumerate_data", "desc_hom", "desc_cat", "is_prestack",
                "is_stack", "comparison_datum"),
    "stackify": ("plus", "stackify", "matching_families",
                 "sheafify_with_unit", "is_sheaf_presheaf"),
    "indexed": ("is_indexed_equivalence", "find_indexed_natiso",
                "validate_indexed"),
    "fincat": ("is_equivalence", "validate_fincat"),
    "groth": ("grothendieck", "giraud_topology", "check_lemma_3_1"),
    "fibadj": ("as_fibration", "is_fibration_functor", "is_cartesian_over",
               "essential_fibre_cat", "R_D", "L_D", "unit_eta", "counit_eps",
               "flat", "sharp", "check_thm_4_2_i", "check_thm_4_2_ii"),
    "dsl": ("parse", "elaborate", "serialize_blocks", "load_interchange"),
    "cli": ("main",),
}


def _text_bytes(text):
    return len(text.encode("utf-8")) if isinstance(text, str) else len(text)


# Size counters read from a wrapped call's arguments and result:
# function -> (args, result) -> {counter: increment}.
SIZES = {
    "site.saturate": lambda a, r: {
        "site.covers_total": sum(len(v) for v in r.covers.values())},
    "site.sieves_on": lambda a, r: {"site.sieve_universe_total": len(r)},
    "descent.enumerate_data": lambda a, r: {
        "descent.enumerate_data.yielded": len(r)},
    "descent.desc_cat": lambda a, r: {
        "descent.desc_cat.objects": len(r.objects),
        "descent.desc_cat.morphisms": len(r.mor)},
    "descent.is_stack": lambda a, r: {"descent.is_stack.false": int(not r.ok)},
    "stackify.matching_families": lambda a, r: {
        "stackify.matching_families.yielded": len(r)},
    "groth.grothendieck": lambda a, r: {
        "groth.total_objects": len(r.total.objects),
        "groth.total_morphisms": len(r.total.mor)},
    "fibadj.is_cartesian_over": lambda a, r: {
        "fibadj.is_cartesian_over.true": int(bool(r))},
    "dsl.parse": lambda a, r: {"dsl.bytes_read": _text_bytes(a[0])},
    "dsl.load_interchange": lambda a, r: {"dsl.bytes_read": _text_bytes(a[0])},
    "dsl.serialize_blocks": lambda a, r: {"dsl.bytes_written": _text_bytes(r)},
}

SIZE_COUNTERS = (
    "site.covers_total", "site.sieve_universe_total",
    "descent.enumerate_data.yielded", "descent.desc_cat.objects",
    "descent.desc_cat.morphisms", "descent.is_stack.false",
    "stackify.matching_families.yielded",
    "groth.total_objects", "groth.total_morphisms",
    "dsl.bytes_read", "dsl.bytes_written",
)

HARNESS = "harness.op"


class Tracer:
    """Records spans of the wrapped functions while `op` is open.

    Spans live in parallel lists indexed by span id; `parent` is -1 for an
    op's root span.  Counters are kept per op, so the deterministic work of
    any prefix of a run can be compared between runs.
    """

    def __init__(self, cap_exceeded):
        self.cap_exceeded = cap_exceeded
        self.name, self.start, self.end = [], [], []
        self.parent, self.op_id = [], []
        self.counts = []  # per op: {counter: value}
        self._stack = []
        self._seen_caps = set()
        self._saved = []

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        sid = len(self.name)
        self.name.append(name)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(len(self.counts) - 1)
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def op(self, fn, *args):
        """Run fn(*args) as one op under a root harness span."""
        self.counts.append({})
        self._seen_caps.clear()
        sid = self._open(HARNESS)
        try:
            return fn(*args)
        finally:
            self._close(sid)

    def wrap(self, qual, fn):
        sizes = SIZES.get(qual)
        module = qual.split(".", 1)[0]
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._stack:  # outside an op: harness checks
                return fn(*args, **kwargs)
            counts = tracer.counts[-1]
            counts[qual + ".calls"] = counts.get(qual + ".calls", 0) + 1
            sid = tracer._open(qual)
            try:
                result = fn(*args, **kwargs)
            except tracer.cap_exceeded as e:
                if id(e) not in tracer._seen_caps:  # innermost span only
                    tracer._seen_caps.add(id(e))
                    key = module + ".cap_exceeded"
                    counts[key] = counts.get(key, 0) + 1
                raise
            finally:
                tracer._close(sid)
            if sizes is not None:
                for k, v in sizes(args, result).items():
                    counts[k] = counts.get(k, 0) + v
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        mods = {n: m for n, m in sys.modules.items()
                if m is not None and (n == "finstack"
                                      or n.startswith("finstack."))}
        for layer, names in WRAPPED.items():
            home = mods["finstack." + layer]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", orig)
                for mod in mods.values():
                    if getattr(mod, fname, None) is orig:
                        self._saved.append((mod, fname, orig))
                        setattr(mod, fname, wrapper)

    def uninstall(self):
        for mod, fname, orig in reversed(self._saved):
            setattr(mod, fname, orig)
        self._saved.clear()


def self_times(start, end, parent):
    """Self time of every span: its duration minus its direct children's."""
    own = [e - s for s, e in zip(start, end)]
    for sid, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[sid] - start[sid]
    return own


def layer_metrics(tracer, ops):
    """Per-op means of calls, self time and sizes over the first `ops` ops.

    Returns (metrics, per-op check rows).  Each row is (op id, traced wall
    time, sum of all self times); the two agree up to rounding.
    """
    own = self_times(tracer.start, tracer.end, tracer.parent)
    self_s, wall, summed = {}, {}, {}
    for sid, (n, op) in enumerate(zip(tracer.name, tracer.op_id)):
        if op >= ops:
            break
        self_s[n] = self_s.get(n, 0.0) + own[sid]
        summed[op] = summed.get(op, 0.0) + own[sid]
        if n == HARNESS:
            wall[op] = tracer.end[sid] - tracer.start[sid]
    totals = {}
    for c in tracer.counts[:ops]:
        for k, v in c.items():
            totals[k] = totals.get(k, 0) + v
    per = max(ops, 1)
    metrics = {}
    for layer, names in WRAPPED.items():
        for fname in names:
            q = f"{layer}.{fname}"
            metrics[q + ".calls"] = (totals.get(q + ".calls", 0) / per, "count/op")
            metrics[q + ".self_s"] = (self_s.get(q, 0.0) / per, "s/op")
        metrics[layer + ".cap_exceeded"] = (
            totals.get(layer + ".cap_exceeded", 0) / per, "count/op")
    for k in SIZE_COUNTERS:
        metrics[k] = (totals.get(k, 0) / per, "count/op")
    calls = totals.get("fibadj.is_cartesian_over.calls", 0)
    metrics["fibadj.is_cartesian_over.true_ratio"] = (
        totals.get("fibadj.is_cartesian_over.true", 0) / calls if calls else 0.0,
        "ratio")
    metrics["harness.self_s"] = (self_s.get(HARNESS, 0.0) / per, "s/op")
    rows = [(op, wall[op], summed[op]) for op in sorted(wall)]
    return metrics, rows


def dump(tracer, path):
    """Write every span, one JSON array per line:
    [span id, name, start, end, parent, op]."""
    with open(path, "w", encoding="utf-8") as fh:
        for sid in range(len(tracer.name)):
            fh.write(json.dumps([sid, tracer.name[sid], tracer.start[sid],
                                 tracer.end[sid], tracer.parent[sid],
                                 tracer.op_id[sid]]) + "\n")
