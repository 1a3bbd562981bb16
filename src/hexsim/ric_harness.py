"""Simulated controller: scripted scenarios and agent benchmarks.

A scenario runs the whole vertical slice on virtual time: scripted session
and traffic events mutate the cell directly (RAN-side procedures), while
slice/bearer control events travel the real path — controller frame, agent
pipeline, mediation queue, boundary publish — before they can influence a
tick. Per-second metrics come from the telemetry indications the controller
subscribed to, plus cell-level window counters.

The delay benchmark drives a threaded agent over wall time, because it
measures real pipeline latency; the reliability benchmark and scenarios run
on a virtual clock and are deterministic.
"""

from __future__ import annotations

import json
import math
import statistics
import threading
import time
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from . import e2lite
from .agent import RIC, Agent, AgentConfig
from .clocks import VirtualClock, ms_to_ns
from .errors import ScenarioError
from .e2lite import E2LiteFrame, FrameReader, MsgType
from .pml import Completion, FsApi, Pml
from .radio_sim import Cell, CellConfig, offered_bytes_per_tick
from .slice_model import (
    Bearer,
    ChangeTrigger,
    RadioResourceConfig,
    SliceRegistry,
    SliceState,
    UEContext,
)
from .transport import InProcessDuplex, ThreadedAgentServer

CSV_VERSION = 1
CSV_HEADER = "t_s,scope,id,throughput_mbps,rtt_ms,alloc_rb,state,utilization,extra"


# -- controller peer -------------------------------------------------------------

class SimulatedPeer:
    """One controller or management endpoint talking frames to the agent."""

    def __init__(self, peer_id: str, kind: str = RIC, activate="all"):
        self.peer_id = peer_id
        self.kind = kind
        self.activate = activate
        self.reader = FrameReader()
        self.available_functions: list[dict] = []
        self.indications: list[E2LiteFrame] = []
        self.alarms: list[E2LiteFrame] = []
        self.responses: dict[int, E2LiteFrame] = {}  # guarded by _lock
        self.setup_complete = False
        self._corr = 1
        self._send: Optional[Callable[[bytes], None]] = None
        self._outbox: list[bytes] = []
        self._lock = threading.Lock()
        # A threaded agent sends on one link from its loop thread and from the
        # thread that feeds the link (a codec or overload failure answer), and
        # a FrameReader fed from two threads decodes frames twice or loses
        # them. Re-entrant, because on a codec error or an unknown type the
        # agent answers synchronously into this peer on the same thread.
        self._feed_lock = threading.RLock()

    # transport wiring -----------------------------------------------------------

    def wire(self, send: Callable[[bytes], None]) -> None:
        self._send = send
        for data in self._outbox:
            send(data)
        self._outbox.clear()

    def on_bytes(self, data: bytes) -> None:
        with self._feed_lock:
            for frame in self.reader.feed(data):
                self.on_frame(frame)

    def on_frame(self, frame: E2LiteFrame) -> None:
        t = frame.msg_type
        if t == MsgType.SETUP_REQUEST:
            self.available_functions = frame.payload.get("functions", [])
            wanted = (
                [f["function_id"] for f in self.available_functions]
                if self.activate == "all"
                else list(self.activate)
            )
            self._emit(E2LiteFrame(MsgType.SETUP_RESPONSE, frame.correlation_id,
                                   {"activate": wanted}))
            self.setup_complete = True
        elif t == MsgType.INDICATION:
            self.indications.append(frame)
        elif t == MsgType.ALARM_NOTIFICATION:
            self.alarms.append(frame)
        else:
            with self._lock:
                self.responses[frame.correlation_id] = frame

    @property
    def control_results(self) -> dict[int, tuple[str, dict]]:
        """``corr -> ("ack" | "failure", payload)`` of every control answer
        in :attr:`responses`, read under its lock."""
        with self._lock:
            return {corr: ("ack" if f.msg_type == MsgType.CONTROL_ACK else "failure", f.payload)
                    for corr, f in self.responses.items()
                    if f.msg_type in (MsgType.CONTROL_ACK, MsgType.CONTROL_FAILURE)}

    def _emit(self, frame: E2LiteFrame) -> None:
        data = e2lite.encode(frame)
        if self._send is None:
            self._outbox.append(data)
        else:
            self._send(data)

    def next_corr(self) -> int:
        with self._lock:
            corr = self._corr
            self._corr += 1
        return corr

    # request helpers ---------------------------------------------------------------

    def _request(self, msg_type: MsgType, payload: dict) -> int:
        """Send one request under the next correlation id; returns the id."""
        corr = self.next_corr()
        self._emit(E2LiteFrame(msg_type, corr, payload))
        return corr

    def send_control(self, function_id: int, routine: str, params: Mapping,
                     target_kind: str = "slice", target_ids: Sequence[int] = ()) -> int:
        return self._request(MsgType.CONTROL_REQUEST, {
            "ran_function_id": function_id,
            "control_header": {"target": target_kind, "ids": list(target_ids)},
            "control_message": {"routine": routine, "params": dict(params)},
        })

    def control_slice(self, function_id: int, params: Mapping) -> int:
        return self.send_control(function_id, "slice_config", params,
                                 "slice", [params["slice_id"]])

    def control_ue(self, function_id: int, params: Mapping) -> int:
        return self.send_control(function_id, "ue_config", params, "ue", [params["drb_id"]])

    def subscribe(self, function_id: int, service: str,
                  slice_ids: Sequence[int] = (), ue_ids: Sequence[int] = (),
                  trigger: Optional[Mapping] = None) -> int:
        return self._request(MsgType.SUBSCRIPTION_REQUEST, {
            "ran_function_id": function_id,
            "service": service,
            "targets": {"slice_ids": list(slice_ids), "ue_ids": list(ue_ids)},
            "trigger": dict(trigger or {"kind": "periodic", "period_ms": 1000}),
        })

    def query(self, function_id: int, service: str,
              slice_ids: Sequence[int] = (), ue_ids: Sequence[int] = ()) -> int:
        return self._request(MsgType.QUERY_REQUEST, {
            "ran_function_id": function_id,
            "service": service,
            "targets": {"slice_ids": list(slice_ids), "ue_ids": list(ue_ids)},
        })

    def edit_config(self, config: Mapping) -> int:
        return self._request(MsgType.EDIT_CONFIG, {"config": dict(config)})

    def drain_indications(self) -> list[E2LiteFrame]:
        out = self.indications
        self.indications = []
        return out


def connect_inproc(agent: Agent, peer: SimulatedPeer, link_id: str) -> InProcessDuplex:
    duplex = InProcessDuplex(agent, link_id, peer.peer_id, peer.kind, on_peer_rx=peer.on_bytes)
    peer.wire(duplex.to_agent)
    return duplex


# -- scenario scripts ----------------------------------------------------------------

EVENT_ACTIONS = {"users_join", "users_leave", "traffic", "slice_control", "ue_control"}


class ScenarioEvent(NamedTuple):
    t: float
    action: str
    params: dict


class ScenarioScript(NamedTuple):
    duration_s: float
    seed: int
    cell: CellConfig
    slices: list[dict]
    ues: list[dict]
    events: list[ScenarioEvent]
    name: str = "scenario"

    @staticmethod
    def from_dict(doc: Mapping, name: str = "scenario") -> "ScenarioScript":
        try:
            duration = float(doc.get("duration_s", 0))
            if not math.isfinite(duration):
                raise ScenarioError(f"duration_s must be finite, not {duration!r}")
            seed = int(doc.get("seed", 0))
            raw_cell = dict(CellConfig._field_defaults)
            raw_cell.update(doc.get("cell", {}))
            total_rb = int(raw_cell["total_rb"])
            if "max_dl_mbps" in raw_cell:
                raw_cell["per_rb_rate_mbps"] = float(raw_cell.pop("max_dl_mbps")) / total_rb
            cell = CellConfig(total_rb, float(raw_cell["per_rb_rate_mbps"]),
                              float(raw_cell["tti_ms"]), float(raw_cell["base_rtt_ms"]))
            if not 0.0 < cell.per_rb_rate_mbps < math.inf:
                raise ScenarioError(f"cell rate (max_dl_mbps or per_rb_rate_mbps) must be a "
                                    f"positive finite number, not {cell.per_rb_rate_mbps!r} per RB")
            # the runner closes a one-second window every 1000 / tti_ms ticks
            per_s = 1000 / cell.tti_ms if cell.tti_ms > 0 else 0.0
            if per_s < 1 or not math.isclose(per_s, round(per_s)):
                raise ScenarioError(f"tti_ms {cell.tti_ms} must be > 0 and divide "
                                    "one second into whole ticks")
            events = []
            for i, raw in enumerate(doc.get("events", [])):
                action = raw["action"]
                if action not in EVENT_ACTIONS:
                    raise ScenarioError(f"unknown event action {action!r}")
                params = dict(raw.get("params", {}))
                if action == "traffic":  # a bad rate raises its ValueError here, at load
                    offered_bytes_per_tick(float(params["rate_mbps"]), cell.tti_ms / 1000.0)
                t = float(raw["t"])
                if not 0.0 <= t < math.inf:
                    raise ScenarioError(f"event {i} time t must be finite and >= 0, not {t!r}")
                events.append(ScenarioEvent(t, action, params))
            events.sort(key=lambda e: e.t)
            script = ScenarioScript(
                duration_s=duration,
                seed=seed,
                cell=cell,
                slices=[dict(s) for s in doc.get("slices", [])],
                ues=[dict(u) for u in doc.get("ues", [])],
                events=events,
                name=name,
            )
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise ScenarioError(f"bad scenario script: {exc}") from None
        if any(e.t > script.duration_s for e in script.events):
            raise ScenarioError("event scheduled past scenario duration")
        return script

    @staticmethod
    def load(path) -> "ScenarioScript":
        p = Path(path)
        with open(p) as fh:
            return ScenarioScript.from_dict(json.load(fh), name=p.stem)


# -- metrics table ------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


_NO_EXTRA = MappingProxyType({})  # read-only, so every row without extras can share it


class MetricRow(NamedTuple):
    t_s: int
    scope: str
    id: str
    throughput_mbps: Optional[float] = None
    rtt_ms: Optional[float] = None
    alloc_rb: Optional[float] = None
    state: str = ""
    utilization: Optional[float] = None
    extra: Mapping = _NO_EXTRA

    def to_csv(self) -> str:
        extra = json.dumps(self.extra, sort_keys=True, separators=(",", ":")) if self.extra else ""
        return ",".join([
            str(self.t_s), self.scope, self.id, _fmt(self.throughput_mbps),
            _fmt(self.rtt_ms), _fmt(self.alloc_rb), self.state,
            _fmt(self.utilization), extra.replace(",", ";"),
        ])


class MetricsTable:
    def __init__(self, name: str = "run", seed: int = 0):
        self.name = name
        self.seed = seed
        self.rows: list[MetricRow] = []

    def add(self, row: MetricRow) -> None:
        self.rows.append(row)

    def select(self, scope: str, id_: str, t0: float = 0.0, t1: float = math.inf) -> list[MetricRow]:
        return [r for r in self.rows if r.scope == scope and r.id == id_ and t0 <= r.t_s < t1]

    def series(self, scope: str, id_: str, fld: str, t0: float = 0.0,
               t1: float = math.inf) -> list[float]:
        out = []
        for r in self.select(scope, id_, t0, t1):
            v = getattr(r, fld)
            if v is not None:
                out.append(v)
        return out

    def mean(self, scope: str, id_: str, fld: str, t0: float, t1: float) -> float:
        values = self.series(scope, id_, fld, t0, t1)
        if not values:
            raise KeyError(f"no {fld} samples for {scope}/{id_} in [{t0},{t1})")
        return sum(values) / len(values)

    def to_csv(self) -> str:
        lines = [f"# hexsim metrics v{CSV_VERSION} name={self.name} seed={self.seed}", CSV_HEADER]
        lines.extend(r.to_csv() for r in self.rows)
        return "\n".join(lines) + "\n"

    def write(self, path) -> Path:
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(self.to_csv())
        return p


# -- scenario runner ------------------------------------------------------------------

FS_FUNCTION_DOC = {
    "functions": [
        {
            "function_id": e2lite.FS_RAN_FUNCTION_ID,
            "name": "fs",
            "kind": "ran",
            "service_model": e2lite.FS_SERVICE_MODEL,
            "required_pml_plugins": ["fs"],
            "resources": ["slice/"],
        }
    ]
}

_JOIN = ChangeTrigger("DRB Setup", "ran")
_LEAVE = ChangeTrigger("DRB Release", "ran")


def _given(params: Mapping, keys: Sequence[str]) -> dict:
    """The ``keys`` a script sets; a key it omits takes the default of what it is passed to."""
    return {k: params[k] for k in keys if k in params}


class ScenarioRunner:
    """Deterministic virtual-time run of one scripted scenario."""

    def __init__(self, script: ScenarioScript):
        self.script = script
        self.clock = VirtualClock()
        self.registry = SliceRegistry(script.cell.total_rb)
        self.pml = Pml(clock=self.clock)
        self.fs = FsApi(self.pml, self.registry)
        self.agent = Agent(self.registry, self.pml, self.fs, AgentConfig())
        self.agent.load_configuration(FS_FUNCTION_DOC)
        self.ric = SimulatedPeer("ric-1", RIC)
        self._duplex = connect_inproc(self.agent, self.ric, "link-ric-1")
        self.cell = Cell(script.cell, self.registry)
        self.metrics = MetricsTable(name=script.name, seed=script.seed)
        self._drb_rate: dict[int, float] = {}
        self._controls_sent: list[int] = []

    # script actions -------------------------------------------------------------

    def _apply_event(self, ev: ScenarioEvent) -> None:
        p = ev.params
        if ev.action == "users_join":
            sid = p["slice_id"]
            for sess in p["sessions"]:
                uid = sess["ue_id"]
                if not self.registry.has_ue(uid):
                    self.registry.add_ue(UEContext(uid, **_given(sess, ("mcs",))))
                bearer = Bearer(sess["drb_id"], uid, sid,
                                **_given(sess, ("bearer_priority", "qos_5qi")))
                self.registry.add_drb(sid, bearer, _JOIN)
                self.cell.attach_bearer(bearer.drb_id, self._drb_rate.get(bearer.drb_id, 0.0))
        elif ev.action == "users_leave":
            sid = p["slice_id"]
            drbs = p.get("drb_ids") or list(self.registry.get_slice(sid).bearers)
            for drb in drbs:
                self.registry.remove_drb(sid, drb, _LEAVE)
                self.cell.detach_bearer(drb)
        elif ev.action == "traffic":
            drb = p["drb_id"]
            self._drb_rate[drb] = float(p["rate_mbps"])
            if self.cell.has_bearer(drb):
                self.cell.set_offered(drb, self._drb_rate[drb])
        elif ev.action == "slice_control":
            corr = self.ric.control_slice(e2lite.FS_RAN_FUNCTION_ID, p)
            self._controls_sent.append(corr)
        elif ev.action == "ue_control":
            corr = self.ric.control_ue(e2lite.FS_RAN_FUNCTION_ID, p)
            self._controls_sent.append(corr)

    def _setup(self) -> None:
        for s in self.script.slices:
            options = _given(s, ("fd_scheduler", "hu_associations"))
            if "default_state" in s:
                options["default_active_state"] = SliceState(s["default_state"])
            rrc = RadioResourceConfig(**_given(s, RadioResourceConfig._fields))
            self.registry.create_slice(s["slice_id"], rrc=rrc, **options)
        for u in self.script.ues:
            self.registry.add_ue(UEContext(u["ue_id"], **_given(u, ("mcs", "cqi", "bler"))))
        slice_ids = [s["slice_id"] for s in self.script.slices]
        ue_ids = [u["ue_id"] for u in self.script.ues]
        self.ric.subscribe(e2lite.FS_RAN_FUNCTION_ID, "slice_context", slice_ids=slice_ids)
        if ue_ids:
            self.ric.subscribe(e2lite.FS_RAN_FUNCTION_ID, "ue_context", ue_ids=ue_ids)
        # the setup exchange, queued first, and the standing subscriptions settle
        self.agent.flush()

    def run(self) -> MetricsTable:
        """Run every tick: script events, the control step, then the cell.

        The control step (``Agent.pump``, then ``Agent.step``) runs on a
        tick that applied a script event or has reached the wake time the
        last step returned. On the other ticks it would do nothing, so
        skipping it changes no output. ``Agent.flush`` ends the run, and the
        RIC's link is closed after it.

        After each stepped tick, the ticks before the next event, wake tick,
        window close or end are offered to :meth:`Cell.repeat_tti`, which
        runs those that would reuse the tick's decision (up to the first
        whose demands would change), and the clock advances by exactly as
        many ticks. fig15, fig16 and fig17 step under 100 of their 80,000,
        80,000 and 60,000 ticks in full.
        """
        self._setup()
        clock, cell, tti_ms = self.clock, self.cell, self.script.cell.tti_ms
        step_ns = ms_to_ns(tti_ms)  # one tick, exactly as advance_ms(tti_ms) adds it
        n_ticks = round(self.script.duration_s * 1000 / tti_ms)
        per_s = round(1000 / tti_ms)
        events = self.script.events
        due = [round(ev.t * 1000 / tti_ms) for ev in events] + [math.inf]
        next_event = 0
        wake = 0
        tick = 0
        while tick < n_ticks:
            now = clock.now_ns()
            step = now >= wake
            while due[next_event] <= tick:
                self._apply_event(events[next_event])
                next_event += 1
                step = True
            if step:
                self.agent.pump()
                wake = self.agent.step(now)
            cell.step_tti()
            clock.advance_ns(step_ns)
            tick += 1
            end = min(n_ticks, due[next_event], -(-tick // per_s) * per_s)
            if wake != math.inf:  # ceil: the first tick whose now >= wake
                end = min(end, tick - (clock.now_ns() - wake) // step_ns)
            if end > tick:
                ran = cell.repeat_tti(end - tick)
                clock.advance_ns(ran * step_ns)
                tick += ran
            if tick % per_s == 0:
                self._close_window(tick // per_s - 1)
        self.agent.flush()  # so every control sees exactly one response
        self._duplex.close()
        return self.metrics

    def _close_window(self, second: int) -> None:
        wm = self.cell.end_window()
        published = self.registry.published.bearers
        latest: dict[str, dict] = {}
        for frame in self.ric.drain_indications():
            latest[frame.payload.get("service", "?")] = frame.payload.get("report", {})
        # slice rows, then UE rows, from the last report of each
        for scope, key in (("slice", "slice_id"), ("ue", "ue_id")):
            alloc: dict[int, float] = {}
            for drb, mean_rb in wm.alloc_rb_mean.items():
                b = published.get(drb)
                if b is not None:
                    owner = getattr(b, key)
                    alloc[owner] = alloc.get(owner, 0.0) + mean_rb
            for entry in latest.get(f"{scope}_context", {}).get(f"{scope}s", []):
                bearers = entry.get("bearers", [])
                self.metrics.add(MetricRow(
                    t_s=second,
                    scope=scope,
                    id=str(entry[key]),
                    throughput_mbps=sum(b["throughput_mbps"] for b in bearers),
                    rtt_ms=max((b["packet_delay_ms"] for b in bearers), default=None),
                    alloc_rb=alloc.get(entry[key], 0.0),
                    state=entry["state"] if scope == "slice" else "",
                ))
        self.metrics.add(MetricRow(
            t_s=second,
            scope="cell",
            id="cell",
            throughput_mbps=wm.cell_throughput_mbps,
            utilization=wm.utilization,
        ))

    def verify_control_responses(self) -> None:
        answered = self.ric.control_results
        missing = [c for c in self._controls_sent if c not in answered]
        if missing:
            raise ScenarioError(f"controls without a response: {missing}")


def run_scenario(script: ScenarioScript) -> tuple[MetricsTable, ScenarioRunner]:
    runner = ScenarioRunner(script)
    metrics = runner.run()
    runner.verify_control_responses()
    return metrics, runner


# -- agent benchmarks ------------------------------------------------------------------

RELIABILITY_BURST_MS = 100  # the reliability benchmark's report period


class BenchmarkConfig(NamedTuple):
    instances: tuple[int, ...] = tuple(range(10, 101, 10))
    period_ms: float = 50.0
    rates: tuple[int, ...] = tuple(range(10, 101, 10))
    run_s: float = 1.0
    duration_s: float = 60.0
    serialized: bool = False
    frame_gated: bool = False
    exec_cost_us: float = 100.0

    @staticmethod
    def from_dict(doc: Mapping) -> "BenchmarkConfig":
        cfg = BenchmarkConfig()
        return cfg._replace(**{key: tuple(doc[key]) if isinstance(getattr(cfg, key), tuple)
                               else doc[key] for key in cfg._fields if key in doc})


class DelayStats(NamedTuple):
    instances: int
    samples: int
    median_us: float
    p95_us: float


class ReliabilityStats(NamedTuple):
    rate_per_s: int
    received: int
    executed: int
    failed: int

    @property
    def ratio(self) -> float:
        return self.executed / self.received if self.received else 1.0


class _SerializedFsApi(FsApi):
    """Control API of the serialized reference pipeline: after queuing a
    control, the agent's thread blocks for the action's execution cost, so the
    next message in its queue waits for the whole action."""

    def __init__(self, pml: Pml, registry: SliceRegistry, exec_cost_us: float):
        super().__init__(pml, registry)
        self.exec_cost_ns = int(exec_cost_us * 1000)

    def fs_control_request(self, caller_id: str, params: Mapping) -> Completion:
        completion = super().fs_control_request(caller_id, params)
        # a spin wait models the blocking action with low jitter
        end = time.perf_counter_ns() + self.exec_cost_ns
        while time.perf_counter_ns() < end:
            pass
        return completion


def _bench_agent(n_functions: int, cfg: BenchmarkConfig,
                 clock=None) -> tuple[Agent, SimulatedPeer]:
    """Agent with ``n_functions`` activated function instances, all exercising
    one slice: the instance count scales control streams, not cell state.

    The agent always runs its one queue discipline; the two reference
    pipelines are built around it. ``cfg.serialized`` makes every control
    block the agent's thread for ``cfg.exec_cost_us``, so every control
    waits for the ones queued before it. ``cfg.frame_gated`` bounds
    every queue at one message, so a driver that pumps once per radio frame
    runs at most one control per frame and fails the rest as overloaded.
    """
    registry = SliceRegistry(106)
    pml = Pml(clock=clock)
    if cfg.serialized:
        fs = _SerializedFsApi(pml, registry, cfg.exec_cost_us)
    else:
        fs = FsApi(pml, registry)
    registry.create_slice(slice_id=1)
    doc = {
        "functions": [
            {
                "function_id": i,
                "name": f"fn{i}",
                "kind": "ran",
                "service_model": e2lite.FS_SERVICE_MODEL,
                "required_pml_plugins": ["fs"],
                "resources": [],
            }
            for i in range(1, n_functions + 1)
        ]
    }
    agent_cfg = AgentConfig(queue_depth=1) if cfg.frame_gated else AgentConfig()
    agent = Agent(registry, pml, fs, agent_cfg)
    agent.load_configuration(doc)
    ric = SimulatedPeer("ric-bench", RIC)
    connect_inproc(agent, ric, "link-bench")
    return agent, ric


def benchmark_delay(cfg: BenchmarkConfig) -> dict[int, DelayStats]:
    """Wall-clock receive-to-action-invoke latency per function-instance count.

    Each instance sends one control per ``cfg.period_ms``, spread evenly over
    the period; with ``cfg.serialized`` all of them fire together at its start.
    The frame gate is defined only by the virtual-time driver of
    :func:`benchmark_reliability`, so ``cfg.frame_gated`` is rejected here.
    """
    if cfg.frame_gated:
        raise ScenarioError("the frame-gated reference applies to the reliability benchmark only")
    results: dict[int, DelayStats] = {}
    for n in cfg.instances:
        agent, ric = _bench_agent(n, cfg)
        server = ThreadedAgentServer(agent).start()
        try:
            deadline = time.monotonic() + 2.0
            while not agent.activation("ric-bench") and time.monotonic() < deadline:
                time.sleep(0.005)
            period_s = cfg.period_ms / 1000.0
            _send_cycles(ric, n, period_s, cfg.serialized, 2 * period_s)  # warmup
            agent.metrics.reset()
            _send_cycles(ric, n, period_s, cfg.serialized, cfg.run_s)
            time.sleep(0.1)  # let the pipeline finish the tail
            delays = agent.metrics.delays_us()
        finally:
            server.stop()
        if not delays:
            results[n] = DelayStats(n, 0, float("nan"), float("nan"))
            continue
        results[n] = DelayStats(
            instances=n,
            samples=len(delays),
            median_us=statistics.median(delays),
            p95_us=_percentile(delays, 95.0),
        )
    return results


def _send_cycles(ric: SimulatedPeer, n: int, period_s: float, burst: bool,
                 run_s: float) -> None:
    start = time.monotonic()
    cycle = 0
    while time.monotonic() - start < run_s:
        for i in range(1, n + 1):
            if not burst:
                _sleep_until(start + cycle * period_s + (i - 1) * period_s / n)
            ric.control_slice(i, {"slice_id": 1, "shared_priority": 1})
        cycle += 1
        _sleep_until(start + cycle * period_s)


def _sleep_until(target: float) -> None:
    while True:
        delta = target - time.monotonic()
        if delta <= 0:
            return
        time.sleep(min(delta, 0.002))


def _percentile(values: Sequence[float], pct: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    k = max(0, min(len(ordered) - 1, int(round(pct / 100.0 * (len(ordered) - 1)))))
    return ordered[k]


def benchmark_reliability(cfg: BenchmarkConfig) -> dict[int, ReliabilityStats]:
    """Executed/received ratio per offered control rate, on virtual time.

    Controls are sent in report-driven bursts (one batch per
    ``RELIABILITY_BURST_MS``), and the agent is pumped once per 10 ms radio
    frame. Bursts starve the frame-gated reference, whose queues hold one
    message, while leaving the default queued pipeline untouched.
    """
    results: dict[int, ReliabilityStats] = {}
    for rate in cfg.rates:
        clock = VirtualClock()
        agent, ric = _bench_agent(1, cfg, clock=clock)
        agent.pump()  # complete setup
        burst = max(1, int(round(rate * RELIABILITY_BURST_MS / 1000.0)))
        step_ms = 10.0
        steps = int(cfg.duration_s * 1000 / step_ms)
        for step in range(steps):
            now_ms = int(step * step_ms)
            if now_ms % RELIABILITY_BURST_MS == 0:
                for _ in range(burst):
                    ric.control_slice(e2lite.FS_RAN_FUNCTION_ID,
                                      {"slice_id": 1, "shared_priority": 1})
            agent.pump()
            agent.step(clock.now_ns())
            clock.advance_ms(step_ms)
        agent.flush()
        m = agent.metrics
        results[rate] = ReliabilityStats(
            rate_per_s=rate, received=m.received, executed=m.executed, failed=m.failed
        )
    return results
