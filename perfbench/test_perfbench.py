"""Tests of the benchmark itself: `python3 -m pytest perfbench -q`."""

import json
import os
import types

import pytest

import finstack as fs
import gen
import pace
import run
import spans
import workloads


def fingerprint(wl, inp):
    """Canonical interchange bytes of one generated input."""
    if isinstance(wl, workloads.CliDocs):
        if not os.path.exists(inp[0][1]):  # written by the previous op
            return repr(inp)
        with open(inp[0][1], encoding="utf-8") as fh:
            return repr(inp) + fh.read()
    if isinstance(wl, workloads.StackifyCorpus):
        J, D = inp
        return fs.serialize_blocks([("category", "C", J.base),
                                    ("topology", "J", J), ("indexed", "D", D)])
    if isinstance(wl, workloads.FibredCorpus):
        J, p, K = inp
        return fs.serialize_blocks([
            ("category", "C", J.base), ("topology", "J", J),
            ("indexed", "D", p.D), ("indexed", "E", p.E),
            ("fibration", "p", p), ("category", "K", K)])
    c, coverage, P = inp
    return repr(sorted(coverage.items())) + fs.serialize_blocks(
        [("category", "C", c), ("presheaf", "P", P)])


def all_workloads(tmp_path, name):
    data = os.path.join(os.path.dirname(__file__), "..", "tests", "data")
    return [workloads.StackifyCorpus(), workloads.FibredCorpus(),
            workloads.OpenCoverSites(),
            workloads.CliDocs(data, str(tmp_path / name))]


def test_fixed_seed_generates_identical_inputs(tmp_path):
    first = all_workloads(tmp_path, "a")
    again = all_workloads(tmp_path, "b")
    for wl, wl2 in zip(first, again):
        n = len(workloads.ROTATION) * 2 if isinstance(wl, workloads.CliDocs) else 8
        a = [fingerprint(wl, wl.make(5, i)) for i in range(n)]
        b = [fingerprint(wl2, wl2.make(5, i)) for i in range(n)]
        if isinstance(wl, workloads.CliDocs):  # paths name their directory
            b = [x.replace(os.sep + "b" + os.sep, os.sep + "a" + os.sep) for x in b]
        assert a == b, wl.name
        other = [fingerprint(wl, wl.make(6, i)) for i in range(n)]
        assert other != a, wl.name


def test_input_does_not_depend_on_earlier_inputs():
    wl = workloads.StackifyCorpus()
    late = fingerprint(wl, wl.make(3, 40))
    for i in range(5):
        wl.make(3, i)
    assert fingerprint(wl, wl.make(3, 40)) == late


def test_self_time_on_hand_built_span_tree():
    # op root [0, 10] with children A [1, 4] (holding G [2, 3]) and B [5, 9]
    names = ["harness.op", "site.saturate", "fincat.validate_fincat",
             "descent.is_stack"]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]

    tracer = types.SimpleNamespace(name=names, start=start, end=end,
                                   parent=parent, op_id=[0, 0, 0, 0],
                                   counts=[{"site.saturate.calls": 1}])
    metrics, rows = spans.layer_metrics(tracer, 1)
    assert metrics["site.saturate.self_s"] == (2.0, "s/op")
    assert metrics["descent.is_stack.self_s"] == (4.0, "s/op")
    assert metrics["harness.self_s"] == (3.0, "s/op")
    assert metrics["site.saturate.calls"] == (1.0, "count/op")
    assert rows == [(0, 10.0, 10.0)]


def test_traced_op_rebinds_every_importer_and_restores():
    orig = fs.descent.is_stack
    tracer = spans.Tracer(fs.CapExceeded)
    tracer.install()
    try:
        assert fs.groth.is_stack is fs.descent.is_stack is fs.is_stack
        assert fs.descent.is_stack is not orig
        wl = workloads.StackifyCorpus()
        inp = wl.make(1, 0)
        tracer.op(wl.op, inp)
    finally:
        tracer.uninstall()
    assert fs.descent.is_stack is orig and fs.groth.is_stack is orig
    metrics, rows = spans.layer_metrics(tracer, 1)
    assert metrics["stackify.stackify.calls"][0] == 2
    assert metrics["descent.is_stack.calls"][0] >= 1
    (_, wall, summed), = rows
    assert wall == pytest.approx(summed, abs=1e-9)


def test_cap_exceeded_counts_once_at_innermost_span():
    tracer = spans.Tracer(fs.CapExceeded)

    def inner():
        raise fs.CapExceeded("too big")

    wrapped_inner = tracer.wrap("descent.enumerate_data", inner)
    wrapped_outer = tracer.wrap("stackify.plus", lambda: wrapped_inner())
    with pytest.raises(fs.CapExceeded):
        tracer.op(wrapped_outer)
    assert tracer.counts[0]["descent.cap_exceeded"] == 1
    assert "stackify.cap_exceeded" not in tracer.counts[0]


def test_pacer_scales_each_op_by_the_probes_around_it(monkeypatch):
    probes = iter([2.0, 4.0, 1.0])
    monkeypatch.setattr(pace, "probe", lambda: next(probes))
    monkeypatch.setattr(pace, "REFERENCE_S", 3.0)
    pacer = pace.Pacer(every=1.0)
    pacer.add(0.5)  # no probe yet: 0.5 s since the first
    assert pacer.busy == pytest.approx(0.5 * 3.0 / 2.0)
    pacer.add(0.5)  # a probe of 4.0 after it
    assert pacer.busy == pytest.approx(1.0 * 3.0 / 3.0)
    pacer.add(0.2)  # the last probe, 1.0, comes with scaled()
    assert pacer.scaled() == pytest.approx([0.5, 0.5, 0.2 * 3.0 / 2.5])
    assert pacer.raw == [0.5, 0.5, 0.2]


def test_quantile_is_harrell_davis():
    assert run.betainc(2, 3, 0.4) == pytest.approx(0.5248)
    assert run.quantile([1, 2, 3, 4, 5], 0.5) == pytest.approx(3)
    assert run.quantile([7.0] * 40, 0.9) == pytest.approx(7.0)
    # The 90th percentile of 1..100 weighs the ranks around 90.9 = 0.9 * 101.
    assert run.quantile(range(1, 101), 0.9) == pytest.approx(90.5, abs=0.01)
    assert run.quantile([5, 1, 4, 2, 3], 0.5) == run.quantile([1, 2, 3, 4, 5], 0.5)


def failed_frac(wl, inputs):
    lat, _, fails, _ = run.run_loop(wl, inputs, float("inf"))
    return sum(1 for f in fails if f) / len(lat)


def test_wrong_verdict_raises_failed_frac(monkeypatch):
    wl = workloads.StackifyCorpus()
    inputs = [wl.make(2, i) for i in range(3)]
    assert failed_frac(wl, inputs) == 0
    monkeypatch.setattr(fs, "is_stack",
                        lambda D, J, caps=fs.DEFAULT: fs.Check(False, "injected"))
    assert failed_frac(wl, inputs) == 1


def test_wrong_exit_code_raises_failed_frac(tmp_path):
    data = os.path.join(os.path.dirname(__file__), "..", "tests", "data")
    wl = workloads.CliDocs(data, str(tmp_path))
    inputs = [wl.make(2, i) for i in range(3)]
    assert failed_frac(wl, inputs) == 0
    argv, code, out, golden = inputs[1]
    inputs[1] = (argv, code + 1, out, golden)
    assert failed_frac(wl, inputs) == pytest.approx(1 / 3)


def test_every_bundled_input_meets_its_expected_code(tmp_path):
    data = os.path.join(os.path.dirname(__file__), "..", "tests", "data")
    wl = workloads.CliDocs(data, str(tmp_path))
    k = len(workloads.ROTATION)
    bundled = [wl.make(4, k * j + k - 1) for j in range(len(workloads.BUNDLED))]
    assert sorted({b[0][0] for b in bundled}) == sorted(
        {c for c, _, _, _ in workloads.BUNDLED})
    assert failed_frac(wl, bundled) == 0


def test_t0_opens_are_a_topology():
    rng = gen.op_rng(0, "test", 0)
    for n in (4, 9, 16):
        opens = gen.rand_t0_opens(rng, n)
        assert len(opens) == n
        assert frozenset() in opens
        assert all(a | b in opens and a & b in opens
                   for a in opens for b in opens)


def run_main(capsys, monkeypatch, *argv):
    monkeypatch.chdir(os.path.join(os.path.dirname(__file__), ".."))
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def declared(kind):
    path = os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_untraced_result_line_reports_every_end_to_end_metric(capsys, monkeypatch):
    out = run_main(capsys, monkeypatch, "--workload", "open-cover-sites",
                   "--seed", "1", "--seconds", "0.3", "--trace", "0")
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["attempted"] >= 1 and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_result_line_reports_every_per_layer_metric(capsys, monkeypatch):
    out = run_main(capsys, monkeypatch, "--workload", "open-cover-sites",
                   "--seed", "1", "--seconds", "0.6", "--trace", "1")
    assert out["correct"] and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared("per_layer")
    assert out["metrics"]["site.saturate.calls"]["value"] == 1
