"""Tests of the benchmark itself: span arithmetic, seeding, failure counting.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from momentxray import field, search, xray  # noqa: E402


def _span(sid, start, end, parent=None, name="f"):
    return tracer.Span(sid=sid, name=name, start=start, end=end,
                       parent=parent)


def test_self_time_on_a_synthetic_tree():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),
        _span(3, 3.5, 6.0, parent=0),   # overlaps span 1: counted once
        _span(4, 9.0, 12.0, parent=0),  # runs past its parent: clipped
        _span(5, 7.0, 7.0, parent=0),   # empty
    ]
    st = tracer.self_times(spans)
    assert st[0] == pytest.approx(10.0 - (5.0 + 1.0))
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(2.5)
    assert st[5] == 0.0


def test_tracer_records_parents_and_ops():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    with tr.root("bench.op", 7):
        inner = tr.open("a")
        tr.close(inner)
    assert [(s.name, s.parent, s.op) for s in tr.spans] == [
        ("bench.op", None, 7), ("a", 0, 7)]
    assert tracer.self_times(tr.spans) == {0: 2.0, 1: 1.0}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_input_digest_follows_the_seed(name):
    a = workloads.input_digest(name, 11)
    assert a == workloads.input_digest(name, 11)
    assert a != workloads.input_digest(name, 12)


def _small_search(tmp_path):
    inp = workloads.SearchInput(index=0, d=3, counts=12, seed=5)
    out = workloads.search_run(inp, str(tmp_path))
    return inp, out


def test_search_check_flags_a_perturbed_phi(tmp_path):
    inp, out = _small_search(tmp_path)
    assert workloads.search_check(inp, out)[0] == []
    report = tmp_path / "report.json"
    doc = json.loads(report.read_text())
    doc["finalPhi"] *= 1.0 + 1e-6
    report.write_text(json.dumps(doc))
    problems, _ = workloads.search_check(inp, out)
    assert any("finalPhi" in p for p in problems)


def test_wrong_or_raising_ops_count_as_failed(tmp_path):
    def perturbed_run(inp, workdir):
        out = workloads.search_run(inp, workdir)
        path = os.path.join(workdir, "report.json")
        with open(path) as fh:
            doc = json.load(fh)
        doc["finalPhi"] *= 1.0 + 1e-6
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return out

    def raising_check(inp, out):
        raise ValueError("broken check")

    def small_inputs(seed, index, small=False):
        return workloads.SearchInput(index=index, d=3, counts=12, seed=seed)

    bad = workloads.Workload("search", 1, small_inputs, perturbed_run,
                             workloads.search_check)
    rec = run._one_op(bad, small_inputs(5, 0), str(tmp_path), None)
    assert not rec["ok"] and rec["wall_s"] > 0
    crash = workloads.Workload("search", 1, small_inputs,
                               workloads.search_run, raising_check)
    records = run.run_ops(crash, 5, 0.0, str(tmp_path))
    assert len(records) == 2 and not any(r["ok"] for r in records)
    metrics = run.end_to_end(crash, [rec] + records, [0.1])
    assert metrics["ops_per_s"]["value"] == 0.0


def test_op_p50_is_the_median_of_cycle_means():
    walls = [1.0, 3.0, 1.2, 3.2, 0.8, 2.8, 5.0]  # two shapes, a torn cycle
    records = [{"index": i, "wall_s": w, "ok": True}
               for i, w in enumerate(walls)]
    assert run.cycle_op_means(records, 2) == pytest.approx(
        [2.0, 2.2, 1.8, 5.0])
    wl = workloads.Workload("cover", 2, None, None, None)
    metrics = run.end_to_end(wl, records, [0.1])
    assert metrics["op_p50_s"]["value"] == pytest.approx(2.1)
    slow = run.end_to_end(wl, records, [0.1], scale=0.5)
    assert slow["op_p50_s"]["value"] == pytest.approx(1.05)
    assert slow["setup_s"]["value"] == pytest.approx(0.05)
    assert slow["ops_per_s"]["value"] == pytest.approx(
        2 * metrics["ops_per_s"]["value"])


def test_host_samples_follow_the_op_time():
    assert len(hostspeed.samples(0.0)) == 1
    times = hostspeed.samples(2.6 * hostspeed.PERIOD_S)
    assert len(times) == 3 and all(t > 0 for t in times)


def test_every_binding_is_wrapped_and_restored(tmp_path):
    original = xray.apply_X
    instr = tracer.Instrumentation(tracer.Tracer(), layers.TARGETS)
    with instr:
        assert xray.apply_X is search.apply_X is not original
        assert getattr(search.apply_X, "__bench_traced__", False)
        with instr.tracer.root("bench.op", 0):
            _small_search(tmp_path)
    assert xray.apply_X is original and search.apply_X is original
    names = {s.name for s in instr.tracer.spans}
    assert {"cli.main", "search.run_search", "xray.apply_X",
            "field.write_field"} <= names
    values = layers.layer_metrics(instr.tracer.spans, 1.0, 1.0)
    assert values["search.ascent_step.calls"] >= 1
    assert values["xray.apply_X.matched.calls"] >= 1


def test_an_unwrapped_binding_fails_loudly(monkeypatch):
    monkeypatch.setattr(field, "apply_X", lambda *a: None, raising=False)
    instr = tracer.Instrumentation(tracer.Tracer(), layers.TARGETS)
    with pytest.raises(RuntimeError, match="field.apply_X"):
        instr.install()
    assert not getattr(xray.apply_X, "__bench_traced__", False)


def test_benchmark_json_lists_the_metrics_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
