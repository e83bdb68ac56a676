"""Tests of the benchmark's own code: span arithmetic, failure counting,
metric names, and a tiny run of every workload.

Run with ``python -m pytest perfbench -q`` from the root of a checkout.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402
from spans import Patches, SpanRecorder, layer_self_times, self_times, totals  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    """A clock that advances one second per read."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_self_time_of_nested_and_sibling_spans():
    spans = [
        ["a.root", 0.0, 10.0, -1],
        ["b.first", 1.0, 4.0, 0],
        ["c.inner", 2.0, 3.0, 1],
        ["b.second", 5.0, 7.0, 0],
        ["a.root", 11.0, 12.0, -1],
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0, 1.0]
    assert layer_self_times(spans) == {"a": 6.0, "b": 4.0, "c": 1.0}
    assert totals(spans)["b.first"] == (3.0, 2.0, 1)
    assert totals(spans)["a.root"] == (11.0, 6.0, 2)


def test_children_outside_the_parent_interval_are_clipped():
    spans = [["a.root", 0.0, 4.0, -1], ["b.child", 3.0, 6.0, 0]]
    assert self_times(spans)[0] == 3.0


def test_recorder_links_parents_and_counts_calls():
    recorder = SpanRecorder(FakeClock())
    inner = recorder.wrap("b.inner", lambda: None)
    counted = recorder.counter("b.count", lambda x: x + 1)

    def body():
        inner()
        inner()
        return counted(1)

    assert recorder.wrap("a.outer", body)() == 2
    assert [(name, parent) for name, _, _, parent in recorder.spans] == [
        ("a.outer", -1), ("b.inner", 0), ("b.inner", 0)]
    assert recorder.spans[0][1:3] == [1.0, 6.0]
    assert recorder.counts == {"b.count": 1}
    assert self_times(recorder.spans) == [3.0, 1.0, 1.0]


def test_recorder_closes_a_span_when_the_call_raises():
    recorder = SpanRecorder(FakeClock())

    def fail():
        raise KeyError("x")

    with pytest.raises(KeyError):
        recorder.wrap("a.fail", fail)()
    after = recorder.wrap("a.next", lambda: None)
    after()
    assert recorder.spans[1][3] == -1


def test_patches_are_restored():
    class Owner:
        def method(self):
            return 1

    with Patches() as patches:
        patches.replace(Owner, "method", lambda original: lambda self: original(self) + 1)
        assert Owner().method() == 2
    assert Owner().method() == 1


@pytest.mark.parametrize("metrics, delivered, problems", [
    ({"completion_fraction": 1.0, "backend": "fluid"}, None, 0),
    ({"completion_fraction": 0.5, "backend": "fluid"}, None, 1),
    ({"completion_fraction": 1.0, "truncated": True, "backend": "fluid"}, None, 1),
    ({"completion_fraction": 1.0, "backend": "packet", "total_bits": 100.0}, 100.0, 0),
    ({"completion_fraction": 1.0, "backend": "packet", "total_bits": 100.0}, 99.0, 1),
    ({"completion_fraction": 1.0, "backend": "packet", "total_bits": 100.0}, None, 1),
    ({"completion_fraction": 0.9, "truncated": True, "backend": "packet",
      "total_bits": 100.0}, 90.0, 3),
])
def test_check_operation(metrics, delivered, problems):
    assert len(suite.check_operation(metrics, delivered)) == problems


class StubOperation:
    """Stands in for :class:`suite.Operation` with scripted outcomes."""

    clock = staticmethod(FakeClock())

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def run(self, base_seed, traced):
        self.calls.append((base_seed, traced))
        return self.outcomes.pop(0)


def test_runner_counts_failed_and_inconsistent_operations(capsys):
    runner = suite.Runner(StubOperation([
        suite.Outcome(1, 0.1, digest="aa"),
        suite.Outcome(2, 0.1, digest="bb", problems=["truncated"]),
        suite.Outcome(1, 0.1, digest="aa"),
        suite.Outcome(1, 0.1, digest="cc"),
        suite.Outcome(3, 0.1, problems=["raised: boom"]),
    ]))
    for base_seed in (1, 2, 1, 1, 3):
        runner.run(base_seed, traced=False)
    result = runner.result
    assert (result.attempted, result.failed) == (5, 3)
    assert "FAILED: truncated" in capsys.readouterr().out


def test_untraced_run_divides_wall_times_by_the_host_slowdown(monkeypatch):
    outcomes = [suite.Outcome(index, seconds, digest=str(index), makespan=makespan,
                              p99_fct=makespan / 2)
                for index, (seconds, makespan) in enumerate(
                    [(1.0, 4e-6), (3.0, 2e-6), (2.0, 6e-6), (9.0, 1e-6)])]
    runner = suite.Runner(StubOperation(outcomes))
    twice = (2 * reference.REFERENCE_PYTHON_S, 2 * reference.REFERENCE_NUMPY_S)
    monkeypatch.setattr(reference, "timings", lambda clock: twice)
    monkeypatch.setattr(suite, "SETUP_EVERY", 2)
    suite._measure_untraced(runner, seed=1, seconds=0, operations=3,
                            setup_probe=iter([0.5, 0.25]).__next__)
    result = runner.result
    assert result.attempted == 3
    assert result.slowdown == pytest.approx(2.0)
    assert result.run_wall_s == 2.0
    assert result.metrics["run_s"] == pytest.approx(1.0)
    assert result.metrics["setup_s"] == pytest.approx(0.1875)
    assert result.metrics["sim_makespan_us"] == pytest.approx(4.0)
    assert result.metrics["sim_p99_fct_us"] == pytest.approx(2.0)


def test_traced_pairs_alternate_which_twin_runs_first():
    stub = StubOperation([suite.Outcome(1, 0.1, digest="aa")] * 4)
    # Each pair reads the clock twice, one second apart: two pairs fit in 3.5 s.
    suite._measure_traced(suite.Runner(stub), seed=1, seconds=3.5)
    assert stub.calls == [(1000, False), (1000, True), (1001, True), (1001, False)]


@pytest.mark.parametrize("index", [0, 1])
def test_traced_pair_reads_its_spans_whichever_twin_runs_last(index):
    workload = suite.WORKLOADS["burst_packet"]
    operation = suite.Operation(workload, {**workload.overrides, **workload.smoke})
    runner = suite.Runner(operation)
    _, traced_s, values = suite._traced_pair(runner, seed=1, index=index)
    assert runner.result.failed == 0
    assert values["covered_s"] > 0.9 * traced_s
    assert values["packet.run_calls"] == 1
    assert values["workloads.flows"] == workload.smoke["num_flows"]


def test_reference_slowdown_is_the_geometric_mean_of_median_ratios():
    samples = [(reference.REFERENCE_PYTHON_S * 4, reference.REFERENCE_NUMPY_S),
               (reference.REFERENCE_PYTHON_S * 4, reference.REFERENCE_NUMPY_S * 9),
               (reference.REFERENCE_PYTHON_S * 8, reference.REFERENCE_NUMPY_S)]
    assert reference.slowdown(samples) == pytest.approx(2.0)
    assert reference.python_work() == 0
    assert reference.numpy_work() == reference.numpy_work()


def test_row_digest_ignores_timing():
    row = {"scenario": "s", "metrics": {"makespan": 1.0}}
    assert suite.row_digest(row) == suite.row_digest({**row, "timing": {"wall_s": 2.0}})
    assert suite.row_digest(row) != suite.row_digest({**row, "seed": 1})


def test_metric_names_match_benchmark_json():
    declared_e2e = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    declared_layer = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert declared_e2e == suite.END_TO_END
    assert declared_layer == layers.PER_LAYER
    names = [name for name, _ in declared_e2e + declared_layer]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(suite.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(suite.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("name", list(suite.WORKLOADS))
def test_smoke_run_emits_every_metric(name, monkeypatch):
    monkeypatch.setattr(suite, "SETUP_EVERY", 100)
    plain = suite.measure(name, seed=1, seconds=0, trace=False, root=str(ROOT), smoke=True)
    assert plain.failed == 0
    assert set(plain.metrics) == {metric for metric, _ in suite.END_TO_END}
    assert all(value > 0 for value in plain.metrics.values())
    traced = suite.measure(name, seed=1, seconds=0, trace=True, root=str(ROOT), smoke=True)
    assert traced.failed == 0
    assert traced.attempted == 2
    assert set(traced.metrics) == {metric for metric, _ in layers.PER_LAYER}
    assert traced.metrics["trace.coverage"] > 0.9
