"""Per-layer metrics, read from a traced run's spans.

``PER_LAYER`` is the list BENCHMARK.json declares; every traced run reports
all of it, so a layer the workload does not exercise reads 0 (a count of no
calls, or a time over no samples).
"""

from __future__ import annotations

from common import ALGORITHMS, SCRIPTS, pct
from tracer import Tracer

FAILURE_CAUSES = ("locked_out", "resource_locked", "overloaded")
OVERHEAD_OF = ("op_mean_us", "op_p50_us", "op_p90_us", "cpu_us_per_op")

# (name, unit, better)
PER_LAYER = [
    ("radio_sim.step_tti.self_us_p50", "us", "lower"),
    ("radio_sim.step_tti.self_us_p99", "us", "lower"),
    ("radio_sim.memo_hit_ratio", "ratio", "higher"),
    ("radio_sim.epochs_seen", "count", "lower"),
    ("fssf.run_tti.calls", "count", "lower"),
    ("fssf.run_tti.self_us_p50", "us", "lower"),
    ("fssf.run_tti.self_us_p99", "us", "lower"),
    ("fssf.stage1.busy_us", "us", "lower"),
    ("fssf.stage2.busy_us", "us", "lower"),
    ("fssf.stage3.busy_us", "us", "lower"),
    ("fssf.weighted_max_min.busy_us", "us", "lower"),
    *[(f"fssf.algo.{a}.{m}", u, "lower")
      for a in ALGORITHMS for m, u in (("calls", "count"), ("us_per_call", "us"))],
    ("pml.tti_boundary.calls", "count", "lower"),
    ("pml.tti_boundary.busy_us", "us", "lower"),
    ("pml.tti_boundary.idle_ratio", "ratio", "lower"),
    ("pml.invoke.calls", "count", "lower"),
    ("pml.lockout_rejected", "count", "lower"),
    ("pml.mediation_wait_us_p50", "us", "lower"),
    ("pml.mediation_wait_us_p90", "us", "lower"),
    ("pml.due_periodic.busy_us", "us", "lower"),
    ("pml.new_change_records.busy_us", "us", "lower"),
    ("slice_model.publish.calls", "count", "lower"),
    ("slice_model.publish.new_epochs", "count", "lower"),
    ("slice_model.publish.us_per_epoch", "us", "lower"),
    ("slice_model.snapshot.calls", "count", "lower"),
    ("slice_model.snapshot.us_p50", "us", "lower"),
    ("agent.receive.frames", "count", "higher"),
    ("agent.receive.self_us_per_frame", "us", "lower"),
    ("agent.queue_wait_us_p50", "us", "lower"),
    ("agent.queue_wait_us_p90", "us", "lower"),
    ("agent.process_message.self_us_p50", "us", "lower"),
    ("agent.process_message.self_us_p90", "us", "lower"),
    ("agent.invoke_delay_us_p50", "us", "lower"),
    ("agent.invoke_delay_us_p90", "us", "lower"),
    ("agent.pump.busy_us", "us", "lower"),
    ("agent.pump.idle_ratio", "ratio", "lower"),
    ("agent.emit_telemetry.busy_us", "us", "lower"),
    ("agent.emit_telemetry.indications", "count", "higher"),
    ("agent.failed.total", "count", "lower"),
    *[(f"agent.failed.{c}", "count", "lower") for c in FAILURE_CAUSES],
    ("e2lite.encode.us_p50", "us", "lower"),
    ("e2lite.encode.bytes_mean", "bytes", "lower"),
    ("e2lite.decode.us_p50", "us", "lower"),
    ("e2lite.feed.frames_per_call", "count", "higher"),
    ("e2lite.feed.us_per_frame", "us", "lower"),
    ("e2lite.validate.us_p50", "us", "lower"),
    ("transport.tick_gap_us_p50", "us", "lower"),
    ("transport.tick_gap_us_p99", "us", "lower"),
    ("transport.worker.busy_ratio", "ratio", "lower"),
    *[(f"ric_harness.scenario.{s}.tick_us", "us", "lower") for s in SCRIPTS],
    ("ric_harness.peer.on_bytes.us_per_frame", "us", "lower"),
    ("ric_harness.gen_late_us_p50", "us", "lower"),
    ("ric_harness.gen_late_us_p99", "us", "lower"),
    *[(f"trace.overhead.{m}", "us", "lower") for m in OVERHEAD_OF],
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _us(ns_values) -> list[float]:
    return [v / 1000.0 for v in ns_values]


def _durs(tr: Tracer, name: str) -> list[int]:
    return [c.end[i] - c.start[i] for c, i in tr.spans(name)]


def _selfs(tr: Tracer, name: str) -> list[int]:
    return [c.self_ns[i] for c, i in tr.spans(name)]


def _results(tr: Tracer, name: str) -> list[int]:
    return [c.results.get(i, 0) for c, i in tr.spans(name)]


def _busy_us(tr: Tracer, name: str) -> float:
    return sum(_durs(tr, name)) / 1000.0


def _per(total: float, n: float) -> float:
    return total / n if n else 0.0


def layer_metrics(tr: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Every PER_LAYER metric; ``extra`` supplies those the workload measures
    itself (generator lateness, scenario tick times, failure counts, overhead)."""
    m: dict[str, float] = {}

    step_self = _us(_selfs(tr, "radio_sim.step_tti"))
    m["radio_sim.step_tti.self_us_p50"] = pct(step_self, 50)
    m["radio_sim.step_tti.self_us_p99"] = pct(step_self, 99)
    steps_scheduling = {(id(c), c.parent[i]) for c, i in tr.spans("fssf.run_tti")}
    m["radio_sim.memo_hit_ratio"] = (
        1.0 - len(steps_scheduling) / len(step_self) if step_self else 0.0
    )
    m["radio_sim.epochs_seen"] = tr.counter("radio_sim.epochs_seen")

    run_self = _us(_selfs(tr, "fssf.run_tti"))
    m["fssf.run_tti.calls"] = len(run_self)
    m["fssf.run_tti.self_us_p50"] = pct(run_self, 50)
    m["fssf.run_tti.self_us_p99"] = pct(run_self, 99)
    for stage in ("stage1", "stage2", "stage3", "weighted_max_min"):
        m[f"fssf.{stage}.busy_us"] = _busy_us(tr, f"fssf.{stage}")
    for algo in ALGORITHMS:
        durs = _durs(tr, f"fssf.algo.{algo}")
        m[f"fssf.algo.{algo}.calls"] = len(durs)
        m[f"fssf.algo.{algo}.us_per_call"] = _per(sum(durs) / 1000.0, len(durs))

    boundaries = _durs(tr, "pml.tti_boundary")
    m["pml.tti_boundary.calls"] = len(boundaries)
    m["pml.tti_boundary.busy_us"] = sum(boundaries) / 1000.0
    busy = {k for k, v in tr.child_results("pml.drain", "pml.tti_boundary").items() if v}
    busy |= {k for k, v in tr.child_results("slice_model.publish", "pml.tti_boundary").items()
             if v}
    m["pml.tti_boundary.idle_ratio"] = _per(len(boundaries) - len(busy), len(boundaries))
    m["pml.invoke.calls"] = len(_durs(tr, "pml.invoke"))
    m["pml.lockout_rejected"] = tr.counter("pml.lockout_rejected")
    waits = tr.samples("pml.mediation_wait_us")
    m["pml.mediation_wait_us_p50"] = pct(waits, 50)
    m["pml.mediation_wait_us_p90"] = pct(waits, 90)
    m["pml.due_periodic.busy_us"] = _busy_us(tr, "pml.due_periodic")
    m["pml.new_change_records.busy_us"] = _busy_us(tr, "pml.new_change_records")

    publish = list(tr.spans("slice_model.publish"))
    new_epoch_ns = [c.end[i] - c.start[i] for c, i in publish if c.results.get(i)]
    m["slice_model.publish.calls"] = len(publish)
    m["slice_model.publish.new_epochs"] = len(new_epoch_ns)
    m["slice_model.publish.us_per_epoch"] = _per(sum(new_epoch_ns) / 1000.0, len(new_epoch_ns))
    snaps = _us(_durs(tr, "slice_model.snapshot"))
    m["slice_model.snapshot.calls"] = len(snaps)
    m["slice_model.snapshot.us_p50"] = pct(snaps, 50)

    frames = sum(_results(tr, "agent.receive"))
    m["agent.receive.frames"] = frames
    m["agent.receive.self_us_per_frame"] = _per(sum(_selfs(tr, "agent.receive")) / 1000.0, frames)
    for label, name in (("queue_wait_us", "agent.queue_wait_us"),
                        ("invoke_delay_us", "agent.invoke_delay_us")):
        vals = tr.samples(name)
        m[f"agent.{label}_p50"] = pct(vals, 50)
        m[f"agent.{label}_p90"] = pct(vals, 90)
    proc_self = _us(_selfs(tr, "agent.process_message"))
    m["agent.process_message.self_us_p50"] = pct(proc_self, 50)
    m["agent.process_message.self_us_p90"] = pct(proc_self, 90)
    pumped = _results(tr, "agent.pump")
    m["agent.pump.busy_us"] = _busy_us(tr, "agent.pump")
    m["agent.pump.idle_ratio"] = _per(sum(1 for n in pumped if n == 0), len(pumped))
    m["agent.emit_telemetry.busy_us"] = _busy_us(tr, "agent.emit_telemetry")
    m["agent.emit_telemetry.indications"] = sum(_results(tr, "agent.emit_telemetry"))

    enc = _us(_durs(tr, "e2lite.encode"))
    m["e2lite.encode.us_p50"] = pct(enc, 50)
    sizes = tr.samples("e2lite.encode.bytes")
    m["e2lite.encode.bytes_mean"] = _per(sum(sizes), len(sizes))
    m["e2lite.decode.us_p50"] = pct(_us(_durs(tr, "e2lite.decode")), 50)
    fed = _results(tr, "e2lite.feed")
    m["e2lite.feed.frames_per_call"] = _per(sum(fed), len(fed))
    m["e2lite.feed.us_per_frame"] = _per(_busy_us(tr, "e2lite.feed"), sum(fed))
    m["e2lite.validate.us_p50"] = pct(_us(_durs(tr, "e2lite.validate")), 50)

    ticker_starts = sorted(c.start[i] for c, i in tr.spans("pml.tti_boundary")
                           if c.thread_name == "agent-ticker")
    gaps = _us(b - a for a, b in zip(ticker_starts, ticker_starts[1:]))
    m["transport.tick_gap_us_p50"] = pct(gaps, 50)
    m["transport.tick_gap_us_p99"] = pct(gaps, 99)
    worker_ns = sum(c.end[i] - c.start[i] for c, i in tr.spans("agent.process_message")
                    if c.thread_name.startswith("agent-worker"))
    m["transport.worker.busy_ratio"] = _per(
        worker_ns, tr.enabled_ns * extra.pop("transport.workers", 0)
    )

    peer_frames = sum(tr.child_results("e2lite.feed", "ric_harness.peer.on_bytes").values())
    m["ric_harness.peer.on_bytes.us_per_frame"] = _per(
        _busy_us(tr, "ric_harness.peer.on_bytes"), peer_frames
    )

    for name, _, _ in PER_LAYER:
        m.setdefault(name, 0.0)
    m.update(extra)
    return m
