"""The benchmark's workloads, one operation, its checks, and the timed runs.

An operation is one ``run_scenario(name, overrides, base_seed)`` call: the
unit ``repro-fabric run`` and every sweep row execute (fabric build,
workload generation, admission routing, simulation, control loop and
``fabric_state_row``).  All load comes from this one thread, one
operation after the other.

A run makes its operations from the workload seed: operation ``i`` of
seed ``s`` runs with ``base_seed = s * 1000 + i``, so every operation is a
fresh input.  A run always completes the workload's first ``operations``
operations and then goes on while the next one still fits in its time
budget.  ``run_s`` is the median over all of the run's operations and the
simulated metrics are medians over the first ``operations``, so they
never depend on how fast the host is.

Each operation is followed by one timing of the host-speed reference in
``reference.py``, and the run divides its times by the slowdown that
those timings give; see ``README.md``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.experiments import scenarios
from repro.fabric.packetsim import PacketBackend

import layers
import reference
from spans import Patches, SpanRecorder

#: End-to-end metrics, ``(name, unit)``; every workload reports all five.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_makespan_us", "us"),
    ("sim_p99_fct_us", "us"),
]


@dataclass(frozen=True)
class Workload:
    """One named input set of the benchmark."""

    scenario: str
    overrides: Mapping[str, object]
    #: Operations every run completes; the ``sim_*`` medians are over these.
    operations: int
    #: Overrides that shrink every operation for the smoke test.
    smoke: Mapping[str, object] = field(default_factory=dict)


WORKLOADS: Dict[str, Workload] = {
    "fattree_admit": Workload(
        scenario="fattree_uniform",
        overrides={"pods": 12, "controller": "none", "backend": "fluid",
                   "allocator": "incremental", "num_flows": 256},
        operations=16,
        smoke={"pods": 4, "num_flows": 16},
    ),
    "burst_packet": Workload(
        scenario="uniform-burst",
        overrides={"rows": 8, "columns": 8, "backend": "packet", "engine": "batched",
                   "mean_flow_mb": 0.05, "num_flows": 512},
        operations=20,
        smoke={"rows": 3, "columns": 3, "num_flows": 16},
    ),
    "loop_packet": Workload(
        scenario="hotspot_migration",
        overrides={"rows": 4, "columns": 4, "controller": "loop", "backend": "packet",
                   "engine": "batched", "mean_flow_mb": 0.25},
        operations=16,
        smoke={"rows": 3, "columns": 3, "mean_flow_mb": 0.02},
    ),
}

#: A set-up probe follows every this many operations of a run, so the
#: samples spread over the whole run rather than one moment of the host's load.
SETUP_EVERY = 2

#: Code run by each set-up probe: interpreter start, ``repro`` imports and
#: the scenario registry, up to the point an operation could begin.
SETUP_PROBE = (
    "import json, sys, time\n"
    "from repro.experiments.scenarios import get_scenario, resolve_params\n"
    "resolve_params(get_scenario(sys.argv[1]), json.loads(sys.argv[2]))\n"
    "print(time.monotonic())\n"
)


def base_seed(seed: int, index: int) -> int:
    """The base seed of operation *index* of the run with workload seed *seed*."""
    return seed * 1000 + index


def row_digest(row: Mapping[str, object]) -> str:
    """SHA-256 of a result row without its wall-clock ``timing`` field."""
    payload = {key: value for key, value in row.items() if key != "timing"}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def check_operation(
    metrics: Mapping[str, object], delivered_bits: Optional[float]
) -> List[str]:
    """Why an operation's result is wrong; empty when it is correct.

    *delivered_bits* is the payload the packet engine delivered (``None``
    on the fluid backend).  The delivered total is summed segment by
    segment, so it is compared to the offered bits within float rounding.
    """
    problems = []
    if metrics.get("truncated"):
        problems.append("truncated")
    if float(metrics.get("completion_fraction", 0.0)) < 1.0:
        problems.append(f"completion_fraction={metrics.get('completion_fraction')}")
    if metrics.get("backend") == "packet":
        offered = float(metrics.get("total_bits", 0.0))
        if delivered_bits is None or not math.isclose(delivered_bits, offered, rel_tol=1e-9):
            problems.append(f"delivered {delivered_bits} of {offered} offered bits")
    return problems


@dataclass
class Outcome:
    """What one operation produced."""

    base_seed: int
    seconds: float
    digest: str = ""
    makespan: float = 0.0
    p99_fct: float = 0.0
    problems: List[str] = field(default_factory=list)
    record: object = None


class Operation:
    """Runs one workload operation and checks its result.

    The untraced and the traced operation share this code.  Both read the
    packet engine's delivered bits through a hook that adds no timing.  The
    traced one also wraps the layer entry points in spans for the duration
    of the call and keeps the :class:`RunRecord` for the layer counts.
    """

    def __init__(self, workload: Workload, overrides: Mapping[str, object],
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.overrides = dict(overrides)
        self.clock = clock
        self.scenario = scenarios.get_scenario(workload.scenario)
        self.recorder = SpanRecorder(clock)
        self._record: object = None
        self._delivered: Optional[float] = None

    def _capture_delivered(self, packet_metrics: Callable) -> Callable:
        def metrics(backend):
            self._delivered = float(backend.network.bits_delivered)
            return packet_metrics(backend)
        return metrics

    def _capture_record(self, run_experiment: Callable) -> Callable:
        def run(spec):
            self._record = run_experiment(spec)
            return self._record
        return run

    def run(self, base_seed: int, traced: bool) -> Outcome:
        """One ``run_scenario`` call, timed and checked."""
        self._record, self._delivered = None, None
        self.recorder.reset()
        gc.collect()
        with Patches() as patches:
            patches.replace(PacketBackend, "packet_metrics", self._capture_delivered)
            scenario = self.scenario
            if traced:
                patches.replace(scenarios, "run_experiment", self._capture_record)
                layers.install(patches, self.recorder)
                scenario = layers.traced_scenario(scenario, self.recorder)
            start = self.clock()
            try:
                row = scenarios.run_scenario(scenario, self.overrides, base_seed)
            except Exception:  # an operation that raises is counted as failed
                seconds = self.clock() - start
                return Outcome(base_seed, seconds,
                               problems=["raised: " + traceback.format_exc().strip()])
            seconds = self.clock() - start
        metrics = row["metrics"]
        return Outcome(
            base_seed=base_seed,
            seconds=seconds,
            digest=row_digest(row),
            makespan=float(metrics["makespan"] or 0.0),
            p99_fct=float(metrics["p99_fct"] or 0.0),
            problems=check_operation(metrics, self._delivered),
            record=self._record,
        )


def setup_seconds(root: str, workload: Workload, overrides: Mapping[str, object]) -> float:
    """Seconds from starting a fresh interpreter until an operation could begin."""
    command = [sys.executable, "-c", SETUP_PROBE, workload.scenario,
               json.dumps(dict(overrides))]
    env = {**os.environ, "PYTHONPATH": root + "/src"}
    start = time.monotonic()
    done = subprocess.run(command, cwd=root, env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1]) - start


@dataclass
class RunResult:
    """Everything one benchmark run reports."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Untraced runs: the host's slowdown against the reference host, and
    #: the median operation's wall seconds before dividing by it.
    slowdown: float = 1.0
    run_wall_s: float = 0.0
    spans: List[Tuple[int, list]] = field(default_factory=list)
    layer_rows: List[Tuple[str, float, float]] = field(default_factory=list)


class Runner:
    """Runs the operations of one benchmark run and tallies them."""

    def __init__(self, operation: Operation) -> None:
        self.operation = operation
        self.result = RunResult()
        self.digests: Dict[int, str] = {}

    def run(self, base_seed: int, traced: bool) -> Outcome:
        outcome = self.operation.run(base_seed, traced)
        result = self.result
        result.attempted += 1
        problems = list(outcome.problems)
        if outcome.digest:
            first = self.digests.setdefault(base_seed, outcome.digest)
            if first != outcome.digest:
                problems.append(f"digest {outcome.digest} differs from {first}")
        if problems:
            result.failed += 1
        mode = "traced" if traced else "untraced"
        line = (f"op {result.attempted - 1} base_seed={base_seed} {mode} "
                f"run_s={outcome.seconds:.4f} digest={outcome.digest or '-'}")
        if problems:
            line += " FAILED: " + "; ".join(problems)
        print(line, flush=True)
        return outcome


def measure(name: str, seed: int, seconds: float, trace: bool, root: str,
            smoke: bool = False) -> RunResult:
    """One benchmark run of workload *name*; see the module docstring."""
    workload = WORKLOADS[name]
    overrides = {**workload.overrides, **(workload.smoke if smoke else {})}
    runner = Runner(Operation(workload, overrides))
    if trace:
        _measure_traced(runner, seed, seconds)
    else:
        _measure_untraced(runner, seed, seconds, workload.operations,
                          lambda: setup_seconds(root, workload, overrides))
    return runner.result


def _measure_untraced(runner: Runner, seed: int, seconds: float, operations: int,
                      setup_probe: Callable[[], float]) -> None:
    """Run fresh operations for *seconds*, and at least *operations* of them.

    A set-up probe follows the first operation and then every
    ``SETUP_EVERY``-th one.
    """
    times: List[float] = []
    reference_times: List[Tuple[float, float]] = []
    first: List[Outcome] = []
    setup: List[float] = []
    clock = runner.operation.clock
    start = clock()
    index = 0
    while True:
        op_start = clock()
        outcome = runner.run(base_seed(seed, index), traced=False)
        times.append(outcome.seconds)
        reference_times.append(reference.timings(clock))
        if index < operations:
            first.append(outcome)
        if index % SETUP_EVERY == 0:
            setup.append(setup_probe())
        index += 1
        now = clock()
        if index >= operations and now - start + (now - op_start) > seconds:
            break
    slowdown = reference.slowdown(reference_times)
    result = runner.result
    result.slowdown = slowdown
    result.run_wall_s = statistics.median(times)
    result.metrics = {
        "setup_s": statistics.median(setup) / slowdown,
        "run_s": result.run_wall_s / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_makespan_us": statistics.median(o.makespan for o in first) * 1e6,
        "sim_p99_fct_us": statistics.median(o.p99_fct for o in first) * 1e6,
    }


def _measure_traced(runner: Runner, seed: int, seconds: float) -> None:
    """Run each operation untraced and traced on the same base seed.

    The untraced twin gives the tracing overhead and the digest the traced
    operation must reproduce.
    """
    untraced: List[float] = []
    traced: List[float] = []
    layer_values = []
    clock = runner.operation.clock
    start = clock()
    index = 0
    while True:
        pair_start = clock()
        plain_s, traced_s, values = _traced_pair(runner, seed, index)
        untraced.append(plain_s)
        traced.append(traced_s)
        if values is not None:
            layer_values.append(values)
        index += 1
        now = clock()
        if now - start + (now - pair_start) > seconds:
            break
    if not layer_values:
        return
    runner.result.metrics = layers.per_layer_metrics(
        layer_values, statistics.median(untraced), statistics.median(traced))
    runner.result.layer_rows = layers.layer_shares(layer_values)


def _traced_pair(runner: Runner, seed: int, index: int
                 ) -> Tuple[float, float, Optional[Dict[str, float]]]:
    """Operation *index* untraced and traced: both times and the layer values.

    Even pairs run the untraced twin first and odd pairs the traced one, so
    warm-up and host drift do not push the overhead one way.  The spans are
    read as soon as the traced twin returns, since every operation starts by
    clearing the recorder.
    """
    plain_s = traced_s = 0.0
    values = None
    for traced in ((False, True) if index % 2 == 0 else (True, False)):
        outcome = runner.run(base_seed(seed, index), traced=traced)
        if not traced:
            plain_s = outcome.seconds
            continue
        traced_s = outcome.seconds
        if outcome.record is not None:
            recorder = runner.operation.recorder
            values = layers.operation_layers(recorder, outcome.record, outcome.seconds)
            runner.result.spans.append((index, recorder.spans))
    return plain_s, traced_s, values
