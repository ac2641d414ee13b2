"""finstack benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload stackify-corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One caller in one process, no threads:
the next op starts only when the previous one returned.  Inputs are made
from --seed at set-up, every op gets a distinct input, and every result is
checked against a known answer.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 is the separate traced
run: it runs the loop untraced for half of --seconds, then again over fresh
copies of the same inputs with every listed finstack function wrapped
(perfbench/spans.py), and reports per-layer metrics and the tracing
overhead.  Both modes print the deterministic work counts of the first
WORK_PREFIX ops and flag a run whose counts differ from an earlier run's on
the same seed (kept under .perfbench/ in the checkout).
"""

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import pace
import spans

SETUP_REPEATS = 3
WORK_PREFIX = 20
COLD_STARTS = 11
STATE = ".perfbench"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1 + num * d
            d = 1 / (d if abs(d) > tiny else tiny)
            c = 1 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1) < 1e-15:
            break
    return h


def betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(1 - x))
    if x < (a + 1) / (a + b + 2):
        return front * _betacf(a, b, x) / a
    return 1 - front * _betacf(b, a, 1 - x) / b


def quantile(xs, q):
    """Harrell-Davis estimate of the q-quantile of xs.

    A weighted mean of all order statistics, with the weights a Beta((n+1)q,
    (n+1)(1-q)) distribution puts on each 1/n slice.  Op times here are
    lumpy (each design entry has its own cost) and every op's time carries
    machine noise; a single order statistic jumps between lumps, while this
    mean moves smoothly.  In five runs of one seed it halved the spread of
    the median and the 90th percentile against the nearest rank.
    """
    xs = sorted(xs)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def run_loop(wl, inputs, seconds, tracer=None):
    """Closed loop over `inputs` until `seconds` of op time at reference
    speed have passed, so that how many ops a run holds does not depend on
    how fast the machine happened to be, and then on to the end of the
    workload's design cycle (`wl.cycle` ops, if it has one), so that every
    run holds its design in the same proportions.

    Returns (latencies at reference speed, measured latencies, failure
    messages per op, work counts per op).  The machine is probed between
    ops (perfbench/pace.py); probes are not op time.
    """
    pacer = pace.Pacer()
    cycle = getattr(wl, "cycle", 1)
    fails, works = [], []
    for inp in inputs:
        if pacer.busy >= seconds and len(pacer.raw) % cycle == 0:
            break
        t0 = time.perf_counter()
        try:
            res = tracer.op(wl.op, inp) if tracer else wl.op(inp)
            err = None
        except Exception as e:  # any exception is a failed op, not a crash
            res, err = None, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        pacer.add(dt)
        if err is not None:
            fails.append([err])
            works.append({})
            continue
        try:
            fails.append(wl.check(inp, res))
            works.append(wl.work(inp, res))
        except Exception as e:
            fails.append([f"check raised {type(e).__name__}: {e}"])
            works.append({})
    return pacer.scaled(), pacer.raw, fails, works


def sum_counts(dicts):
    out = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return dict(sorted(out.items()))


def compare_work(root, wl, seed, mode, counts):
    """Record the prefix work counts; report whether an earlier run differed."""
    folder = os.path.join(root, STATE, "work")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{wl.name}-seed{seed}-{mode}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        if before != counts:
            return f"WORK COUNTS DIFFER from an earlier run on seed {seed}: {path}"
        return "work counts match the earlier run on this seed"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(counts, fh, sort_keys=True)
    return "work counts recorded (first run on this seed)"


def cold_start_ms(root):
    """Median wall time of a fresh `python -m finstack.cli validate` process
    on the smallest bundled valid input."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    argv = [sys.executable, "-m", "finstack.cli", "validate",
            os.path.join("tests", "data", "span.site")]
    times = []
    for _ in range(COLD_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True,
                              timeout=60)
        times.append((time.perf_counter() - t0) * 1000)
        if proc.returncode != 0:
            raise RuntimeError(f"cold start exited {proc.returncode}: "
                               f"{proc.stderr.decode()[-200:]}")
    return statistics.median(times)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "finstack", "__init__.py")):
        print(f"error: no src/finstack under {root}; run from the root of a "
              f"finstack checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    def load():
        import finstack  # noqa: F401
        import workloads
        return workloads

    workloads, import_s = pace.timed(load)

    work_dir = os.path.join(root, STATE, "tmp", f"{args.workload}-{os.getpid()}")
    catalogue = {
        "stackify-corpus": workloads.StackifyCorpus,
        "fibred-corpus": workloads.FibredCorpus,
        "open-cover-sites": workloads.OpenCoverSites,
        "cli-docs": lambda: workloads.CliDocs(
            os.path.join(root, "tests", "data"), work_dir),
    }
    if args.workload not in catalogue:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(catalogue)}", file=sys.stderr)
        return 2
    wl = catalogue[args.workload]()
    try:
        return measure(args, root, wl, import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def make_inputs(wl, seed):
    return [wl.make(seed, i) for i in range(wl.capacity)]


def setup(wl, seed):
    """Input generation and warm-up; the warm-up inputs are never timed."""
    inputs = make_inputs(wl, seed)
    warm = [wl.make(seed, wl.capacity + k) for k in range(wl.warmup)]
    _, _, fails, _ = run_loop(wl, warm, float("inf"))
    bad = [f for f in fails if f]
    if bad:
        raise RuntimeError(f"warm-up op failed: {bad[0][0]}")
    return inputs


def measure(args, root, wl, import_s):
    setups = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        inputs = None
        gc.collect()
        inputs, dt = pace.timed(setup, wl, args.seed)
        setups.append(dt)
    setup_s = import_s + statistics.median(setups)
    # The inputs live for the whole run; left to the collector, every full
    # collection would walk all of them, a cost that is the harness's and
    # that varies with how the run's garbage happens to fall.
    gc.collect()
    gc.freeze()

    seconds = args.seconds / 2 if args.trace else args.seconds
    lat, raw, fails, works = run_loop(wl, inputs, seconds)
    attempted = len(lat)
    failed = sum(1 for f in fails if f)
    for k, f in [(k, f) for k, f in enumerate(fails) if f][:10]:
        print(f"FAILED op {k}: {f[0]}")
    if attempted == len(inputs):
        print(f"note: all {attempted} inputs used before {seconds:g} s")
    prefix = min(WORK_PREFIX, attempted)
    counts = {"ops": prefix, **sum_counts(works[:prefix])}

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
    print(f"work counts of the first {prefix} ops: "
          + json.dumps(counts, sort_keys=True))
    print(f"work counts of all {attempted} ops: "
          + json.dumps(sum_counts(works), sort_keys=True))

    if args.trace:
        return traced(args, root, wl, lat, failed, seconds)

    if attempted < WORK_PREFIX:
        print(f"note: only {attempted} ops; work counts not compared")
    else:
        print(compare_work(root, wl, args.seed, "plain", counts))
    metrics = {
        "throughput_ops_per_s": (attempted / sum(lat), "1/s"),
        "latency_p50_ms": (quantile(lat, 0.5) * 1000, "ms"),
        "latency_p90_ms": (quantile(lat, 0.9) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
        "setup_s": (setup_s, "s"),
    }
    extra = {"failed_frac": (failed / attempted, "1")}
    if wl.name == "cli-docs":
        extra["cold_start_ms"] = (cold_start_ms(root), "ms")
    samples = {"latency_p50_ms": attempted, "latency_p90_ms": attempted,
               "setup_s": SETUP_REPEATS, "cold_start_ms": COLD_STARTS}
    for name, (value, unit) in {**metrics, **extra}.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name:22s} {value:12.4f} {unit}{n}")
    print(f"times above are at reference speed (perfbench/pace.py); as "
          f"measured: throughput {attempted / sum(raw):.4f} 1/s, p50 "
          f"{quantile(raw, 0.5) * 1000:.4f} ms, p90 "
          f"{quantile(raw, 0.9) * 1000:.4f} ms; cold_start_ms is "
          f"as measured")
    if attempted < 100:
        print("note: fewer than 100 ops; latency_p90_ms has fewer than ten "
              "samples beyond it")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced(args, root, wl, lat, failed, seconds):
    """Second half of a traced run: the same inputs, fresh, under tracing."""
    import finstack

    fresh = make_inputs(wl, args.seed)
    gc.collect()
    gc.freeze()
    tracer = spans.Tracer(finstack.CapExceeded)
    tracer.install()
    try:
        tlat, _, tfails, tworks = run_loop(wl, fresh, seconds, tracer)
    finally:
        tracer.uninstall()
    attempted, tattempted = len(lat), len(tlat)
    tfailed = sum(1 for f in tfails if f)
    for k, f in [(k, f) for k, f in enumerate(tfails) if f][:10]:
        print(f"FAILED traced op {k}: {f[0]}")
    metrics, rows = spans.layer_metrics(tracer, tattempted)
    both = min(attempted, tattempted)
    overhead = sum(tlat[:both]) / sum(lat[:both]) - 1
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    worst = max(abs(w - s) for _, w, s in rows)
    sums_ok = worst <= 1e-9 * max(1, len(tracer.name))

    prefix = min(WORK_PREFIX, tattempted)
    tcounts = {"ops": prefix, **sum_counts(tworks[:prefix]),
               **sum_counts(tracer.counts[:prefix])}
    if prefix < WORK_PREFIX:
        print(f"note: only {prefix} traced ops; work counts not compared")
    else:
        print(compare_work(root, wl, args.seed, "traced", tcounts))
    print(f"traced ops {tattempted}, untraced ops {attempted}; tracing "
          f"overhead over the first {both}: {overhead:+.1%}")
    print(f"self times + harness time = traced op wall time on all "
          f"{len(rows)} ops: {'yes' if sums_ok else 'NO'} (worst gap "
          f"{worst:.3g} s)")
    for name, (value, unit) in sorted(metrics.items()):
        if value:
            print(f"{name:48s} {value:14.6g} {unit}")

    folder = os.path.join(root, STATE, "trace")
    os.makedirs(folder, exist_ok=True)
    spans.dump(tracer, os.path.join(folder, f"{wl.name}-seed{args.seed}.jsonl"))

    total_failed = failed + tfailed
    print(json.dumps({
        "correct": total_failed == 0 and sums_ok,
        "attempted": attempted + tattempted,
        "failed": total_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
