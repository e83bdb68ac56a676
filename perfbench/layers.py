"""Wrap points of the traced run and the per-layer metrics built from them.

Every span wraps a layer's public entry point where its caller looks the
name up, so the program itself is unchanged:

* ``repro.experiments.scenarios`` looks up ``materialize_run``,
  ``run_experiment``, ``fabric_state_row`` and ``build_fabric`` as module
  globals;
* ``repro.core.scheduler`` imports ``k_shortest_paths`` by name;
* ``Link.post_fec_ber`` is a property that ends in the module function
  ``repro.phy.fec.post_fec_ber``, so that function is wrapped;
* packet-backend admission goes through ``Router.path``.

Per-packet functions (``phy.stats.observe`` and the like) are not wrapped:
they run hundreds of thousands of times per operation and a span there
would cost more than the work it measures.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Tuple

import repro.phy.fec as fec
from repro.core.control import ControlLoop
from repro.core.plp import PLPExecutor
from repro.core.scheduler import FlowScheduler
from repro.experiments import scenarios
import repro.core.scheduler as scheduler_module
import repro.fabric.routing as routing
from repro.fabric.packetsim import PacketBackend
from repro.sim.fluid import FluidFlowSimulator

from spans import Patches, SpanRecorder, layer_self_times, totals

#: Per-layer metrics of the traced run, ``(name, unit)``, in table order.
#: Times are per operation; counts are per operation too.
PER_LAYER: List[Tuple[str, str]] = [
    ("experiments.materialize_s", "s"),
    ("experiments.state_row_s", "s"),
    ("experiments.record_self_s", "s"),
    ("fabric.build_s", "s"),
    ("workloads.generate_s", "s"),
    ("workloads.flows", "count"),
    ("routing.path_s", "s"),
    ("routing.path_calls", "count"),
    ("routing.shortest_path_calls", "count"),
    ("routing.cache_hit_ratio", "ratio"),
    ("routing.k_shortest_s", "s"),
    ("routing.k_shortest_calls", "count"),
    ("fluid.run_s", "s"),
    ("fluid.events", "count"),
    ("fluid.us_per_event", "us"),
    ("packet.run_s", "s"),
    ("packet.run_calls", "count"),
    ("packet.events", "count"),
    ("packet.us_per_event", "us"),
    ("packet.packets_injected", "count"),
    ("packet.packets_delivered", "count"),
    ("packet.retransmissions", "count"),
    ("packet.delivery_ratio", "ratio"),
    ("control.self_s", "s"),
    ("control.ticks", "count"),
    ("control.flows_rerouted", "count"),
    ("control.reconfigurations", "count"),
    ("scheduler.cheapest_path_s", "s"),
    ("scheduler.cheapest_path_calls", "count"),
    ("scheduler.path_price_calls", "count"),
    ("phy.post_fec_ber_s", "s"),
    ("phy.post_fec_ber_calls", "count"),
    ("plp.execute_s", "s"),
    ("plp.execute_calls", "count"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
]

#: The layers whose self time the traced run attributes, in table order.
LAYERS = (
    "experiments", "fabric", "workloads", "routing", "fluid",
    "packet", "control", "scheduler", "phy", "plp",
)


def traced_scenario(scenario: scenarios.Scenario, recorder: SpanRecorder) -> scenarios.Scenario:
    """*scenario* with its flow factory (the workloads layer) wrapped."""
    return dataclasses.replace(
        scenario, flows=recorder.wrap("workloads.generate", scenario.flows)
    )


def install(patches: Patches, recorder: SpanRecorder) -> None:
    """Wrap every layer entry point in a span (or a counter)."""
    def span(name):
        return lambda original: recorder.wrap(name, original)

    patches.replace(scenarios, "materialize_run", span("experiments.materialize"))
    patches.replace(scenarios, "run_experiment", span("experiments.record"))
    patches.replace(scenarios, "fabric_state_row", span("experiments.state_row"))
    patches.replace(scenarios, "build_fabric", span("fabric.build"))
    patches.replace(routing.Router, "path", span("routing.path"))
    patches.replace(routing, "shortest_path", span("routing.shortest_path"))
    patches.replace(scheduler_module, "k_shortest_paths", span("routing.k_shortest"))
    patches.replace(FluidFlowSimulator, "run", span("fluid.run"))
    patches.replace(PacketBackend, "run", span("packet.run"))
    patches.replace(ControlLoop, "run", span("control.run"))
    patches.replace(FlowScheduler, "cheapest_path", span("scheduler.cheapest_path"))
    patches.replace(
        FlowScheduler, "path_price",
        lambda original: recorder.counter("scheduler.path_price", original),
    )
    patches.replace(fec, "post_fec_ber", span("phy.post_fec_ber"))
    patches.replace(PLPExecutor, "execute", span("plp.execute"))


def operation_layers(recorder: SpanRecorder, record: object, run_s: float) -> Dict[str, float]:
    """Extensive per-layer quantities of one traced operation.

    *record* is the operation's :class:`~repro.experiments.api.RunRecord`;
    the engine and controller counters come from it.  The ``self.<layer>``
    entries are layer self times; ``covered_s`` is the time the root spans
    cover.
    """
    spans = recorder.spans
    by_name = totals(spans)

    def inclusive(name: str) -> float:
        return by_name.get(name, (0.0, 0.0, 0))[0]

    def own(name: str) -> float:
        return by_name.get(name, (0.0, 0.0, 0))[1]

    def calls(name: str) -> int:
        return by_name.get(name, (0.0, 0.0, 0))[2]

    metrics = record.metrics  # type: ignore[attr-defined]
    summary = record.controller_summary  # type: ignore[attr-defined]
    router = record.fabric.router  # type: ignore[attr-defined]
    events = float(record.fluid.events_processed)  # type: ignore[attr-defined]
    packet = metrics.get("backend") == "packet"
    values: Dict[str, float] = {
        "experiments.materialize_s": inclusive("experiments.materialize"),
        "experiments.state_row_s": inclusive("experiments.state_row"),
        "experiments.record_self_s": own("experiments.record"),
        "fabric.build_s": inclusive("fabric.build"),
        "workloads.generate_s": inclusive("workloads.generate"),
        "workloads.flows": float(metrics["num_flows"]),
        "routing.path_s": inclusive("routing.path"),
        "routing.path_calls": float(calls("routing.path")),
        "routing.shortest_path_calls": float(calls("routing.shortest_path")),
        "routing.cache_hits": float(router.cache_hits),
        "routing.cache_lookups": float(router.cache_hits + router.cache_misses),
        "routing.k_shortest_s": inclusive("routing.k_shortest"),
        "routing.k_shortest_calls": float(calls("routing.k_shortest")),
        "fluid.run_s": inclusive("fluid.run"),
        "fluid.events": 0.0 if packet else events,
        "packet.run_s": inclusive("packet.run"),
        "packet.run_calls": float(calls("packet.run")),
        "packet.events": events if packet else 0.0,
        "packet.packets_injected": float(metrics.get("packets_injected", 0.0)),
        "packet.packets_delivered": float(metrics.get("packets_delivered", 0.0)),
        "packet.retransmissions": float(metrics.get("retransmissions", 0.0)),
        "control.self_s": own("control.run"),
        "control.ticks": float(summary.iterations),
        "control.flows_rerouted": float(summary.flows_rerouted),
        "control.reconfigurations": float(summary.reconfigurations),
        "scheduler.cheapest_path_s": inclusive("scheduler.cheapest_path"),
        "scheduler.cheapest_path_calls": float(calls("scheduler.cheapest_path")),
        "scheduler.path_price_calls": float(recorder.counts.get("scheduler.path_price", 0)),
        "phy.post_fec_ber_s": inclusive("phy.post_fec_ber"),
        "phy.post_fec_ber_calls": float(calls("phy.post_fec_ber")),
        "plp.execute_s": inclusive("plp.execute"),
        "plp.execute_calls": float(calls("plp.execute")),
        "run_s": run_s,
        "covered_s": sum(end - start for _, start, end, parent in spans if parent < 0),
    }
    for layer, seconds in layer_self_times(spans).items():
        values["self." + layer] = seconds
    return values


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    operations: List[Mapping[str, float]], untraced_run_s: float, traced_run_s: float
) -> Dict[str, float]:
    """Per-operation means of the traced operations, plus the derived ratios.

    *untraced_run_s* and *traced_run_s* are the medians of the paired
    untraced and traced operations; their difference is the tracing cost.
    """
    count = len(operations)
    total: Dict[str, float] = {}
    for values in operations:
        for key, value in values.items():
            total[key] = total.get(key, 0.0) + value
    mean = {key: value / count for key, value in total.items()}
    result = {name: mean.get(name, 0.0) for name, _ in PER_LAYER}
    result["routing.cache_hit_ratio"] = _ratio(
        mean["routing.cache_hits"], mean["routing.cache_lookups"])
    result["fluid.us_per_event"] = _ratio(mean["fluid.run_s"] * 1e6, mean["fluid.events"])
    result["packet.us_per_event"] = _ratio(mean["packet.run_s"] * 1e6, mean["packet.events"])
    result["packet.delivery_ratio"] = _ratio(
        mean["packet.packets_delivered"], mean["packet.packets_injected"])
    result["trace.overhead_s"] = traced_run_s - untraced_run_s
    result["trace.coverage"] = _ratio(mean["covered_s"], mean["run_s"])
    return result


def layer_shares(operations: List[Mapping[str, float]]) -> List[Tuple[str, float, float]]:
    """``(layer, self seconds per operation, share of traced run_s)`` rows."""
    count = len(operations)
    run_s = sum(values["run_s"] for values in operations) / count
    rows = []
    for layer in LAYERS:
        seconds = sum(values.get("self." + layer, 0.0) for values in operations) / count
        rows.append((layer, seconds, _ratio(seconds, run_s)))
    return rows
