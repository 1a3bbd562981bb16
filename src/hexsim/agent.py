"""Control-plane agent: terminations, global and functional managers, repository.

Inbound frames are reassembled per link, stamped on receipt, and routed by
message type into bounded per-manager queues (overflow answers a failure
rather than dropping silently, so received = executed + failed always holds
for the control path). Queue processing is driven either by an explicit
:meth:`Agent.pump` (deterministic, virtual time) or by worker threads
(:class:`~hexsim.transport.ThreadedAgentServer`); per-(peer, type) order is
preserved in both because one peer's messages of a type land in one queue.

Controller peers get a separate repository context each. Activating a
function locks its governed resources to that peer; other peers' control on
an overlapping resource fails until the holder detaches.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

from . import e2lite
from .clocks import MonotonicClock
from .errors import (
    AgentError,
    BadPeriod,
    CodecError,
    InvalidResourceConfig,
    LockedOut,
    MalformedConfig,
    NotActivated,
    OverSubscription,
    ResourceLockedByOther,
    SchemaViolation,
    SliceModelError,
    UnknownDrb,
    UnknownId,
    UnknownSlice,
    UnknownUe,
    ValidationFailed,
)
from .e2lite import E2LiteFrame, FrameReader, MsgType
from .pml import Completion, FsApi, Pml
from .slice_model import SliceRegistry, record_to_dict

DEFAULT_QUEUE_DEPTH = 1024
DEFAULT_MANAGER_INSTANCES = 2
DEFAULT_UTILIZATION_ALARM = 0.90

RIC = "ric"
SMO = "smo"

# manager routing by inbound message type
_CONTROL = "control"
_SUBSCRIPTION = "subscription"
_QUERY = "query"
_INTERFACE = "interface"
_BROKER = "broker"

_ROUTE = {
    MsgType.SETUP_RESPONSE: _INTERFACE,
    MsgType.SUBSCRIPTION_REQUEST: _SUBSCRIPTION,
    MsgType.CONTROL_REQUEST: _CONTROL,
    MsgType.QUERY_REQUEST: _QUERY,
    MsgType.EDIT_CONFIG: _BROKER,
}

_KNOWN_TYPES = frozenset(int(t) for t in MsgType)

# the keys edit-config may set: what each value must be, and its check
_EDIT_CONFIG_RULES = {
    "lockout_window_ms": ("a number >= 0", lambda v: isinstance(v, (int, float)) and v >= 0),
    "queue_depth": ("a positive integer", lambda v: isinstance(v, int) and v > 0),
    "utilization_alarm_threshold": ("a number", lambda v: isinstance(v, (int, float))),
}

# the AgentConfig fields a configuration document may set, with the
# conversion each value must survive; edit-config sets a subset of them
_CONFIG_SCALARS = {
    "lockout_window_ms": float,
    "queue_depth": int,
    "manager_instances": int,
    "utilization_alarm_threshold": float,
}


def failure_cause(exc: Exception) -> str:
    if isinstance(exc, LockedOut):
        return "locked_out"
    if isinstance(exc, SchemaViolation):
        return "schema_violation"
    if isinstance(exc, CodecError):
        return "codec"
    if isinstance(exc, (UnknownId, UnknownSlice, UnknownDrb, UnknownUe)):
        return "unknown_id"
    if isinstance(exc, OverSubscription):
        return "oversubscription"
    if isinstance(exc, BadPeriod):
        return "bad_period"
    if isinstance(exc, (ValidationFailed, InvalidResourceConfig)):
        return "validation_failed"
    if isinstance(exc, NotActivated):
        return "not_activated"
    if isinstance(exc, ResourceLockedByOther):
        return "resource_locked"
    return f"error:{type(exc).__name__}"


@dataclass
class FunctionSpec:
    function_id: int
    name: str
    kind: str  # "ran" (controller-driven) or "oam" (management-driven)
    service_model: str = e2lite.FS_SERVICE_MODEL
    required_pml_plugins: tuple[str, ...] = ()
    resources: tuple[str, ...] = ()  # lock-scope prefixes, e.g. "slice/"


@dataclass
class CatalogEntry:
    spec: FunctionSpec
    available: bool
    reason: str = ""


@dataclass
class Subscription:
    sub_id: int
    peer_id: str
    link_id: str
    function_id: int
    service: str
    targets: dict
    trigger: dict
    reg_id: int = 0


@dataclass
class PeerContext:
    peer_id: str
    kind: str
    link_id: str
    endpoint: str = ""
    activated: set[int] = field(default_factory=set)
    refused: dict[int, str] = field(default_factory=dict)
    locks: set[str] = field(default_factory=set)
    subscriptions: dict[int, Subscription] = field(default_factory=dict)


class HaRepository:
    """Per-peer contexts plus RAN configuration/operational data."""

    def __init__(self):
        self.ric_contexts: dict[str, PeerContext] = {}
        self.smo_contexts: dict[str, PeerContext] = {}
        self.ran_state: dict = {"config": {}, "operational": {}}
        self.catalog: dict[int, CatalogEntry] = {}

    def peers(self) -> list[PeerContext]:
        return list(self.ric_contexts.values()) + list(self.smo_contexts.values())

    def context_for(self, peer_id: str) -> Optional[PeerContext]:
        return self.ric_contexts.get(peer_id) or self.smo_contexts.get(peer_id)

    def lock_holder(self, resource: str, exclude: str = "") -> Optional[str]:
        """The peer whose lock covers ``resource``, an ancestor or a descendant
        of it, matched on whole ``/``-separated path segments."""
        for peer in self.peers():
            if peer.peer_id == exclude:
                continue
            for lock in peer.locks:
                if _paths_overlap(resource, lock):
                    return peer.peer_id
        return None


def _paths_overlap(a: str, b: str) -> bool:
    """True if one path equals the other or is an ancestor of it. A trailing
    "/" is ignored, so "slice/" covers every slice; "slice/1" and "slice/10"
    do not overlap."""
    a, b = a.rstrip("/"), b.rstrip("/")
    return a == b or a.startswith(b + "/") or b.startswith(a + "/")


@dataclass
class MessageRecord:
    """Pipeline timestamps for one executed control message."""

    receive_ns: int
    dispatch_ns: int = 0
    invoke_ns: int = 0


class PipelineMetrics:
    def __init__(self):
        self.lock = threading.Lock()
        self.received = 0
        self.executed = 0
        self.failed = 0
        self.records: list[MessageRecord] = []

    def reset(self) -> None:
        with self.lock:
            self.received = 0
            self.executed = 0
            self.failed = 0
            self.records = []

    def delays_us(self) -> list[float]:
        """receive-to-action-invoke delay per executed control message."""
        with self.lock:
            return [
                (r.invoke_ns - r.receive_ns) / 1000.0 for r in self.records if r.invoke_ns
            ]


@dataclass
class AgentConfig:
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    manager_instances: int = DEFAULT_MANAGER_INSTANCES
    lockout_window_ms: float = 100.0
    utilization_alarm_threshold: float = DEFAULT_UTILIZATION_ALARM


@dataclass
class _Link:
    link_id: str
    peer_id: str
    kind: str
    send: Callable[[bytes], None]
    order: int  # attach order; selects the manager shard
    reader: FrameReader = field(default_factory=FrameReader)
    pending_setup_corr: Optional[int] = None


@dataclass
class _Pending:
    link_id: str
    frame: E2LiteFrame
    record: MessageRecord
    seq: int = 0  # arrival order across every queue, assigned under Agent._cv


class Agent:
    """Synchronous agent core, driven by :meth:`pump`, :meth:`step` and :meth:`flush`.

    A single-threaded driver calls ``pump()`` then ``step(now)`` on a tick
    and ends with ``flush()``. On :class:`~hexsim.transport.ThreadedAgentServer`
    the workers take the messages, the ticker steps, and ``stop()`` flushes.
    """

    def __init__(
        self,
        registry: SliceRegistry,
        pml: Pml,
        fs: FsApi,
        config: Optional[AgentConfig] = None,
        clock=None,
    ):
        self.registry = registry
        self.pml = pml
        self.fs = fs
        self.config = config or AgentConfig()
        self.clock = clock or MonotonicClock()
        self.repository = HaRepository()
        self.metrics = PipelineMetrics()
        self.failures_by_cause: dict[str, int] = {}
        self._links: dict[str, _Link] = {}
        self._link_order = itertools.count()
        self._queues: dict[tuple[str, int], deque] = {}
        self._queued = 0  # messages in _queues; guarded by _cv, like the queues
        self._arrivals = itertools.count()
        # _cv's lock; pump enters it directly, skipping Condition's Python-level
        # __enter__ on every tick
        self._queue_lock = threading.RLock()
        self._cv = threading.Condition(self._queue_lock)
        self._corr = itertools.count(0x40000000)
        self._sub_ids = itertools.count(1)
        self._sub_by_reg: dict[int, Subscription] = {}
        self._state = threading.RLock()
        self._handlers = {
            int(MsgType.SETUP_RESPONSE): self._on_setup_response,
            int(MsgType.SUBSCRIPTION_REQUEST): self._on_subscription,
            int(MsgType.CONTROL_REQUEST): self._on_control,
            int(MsgType.QUERY_REQUEST): self._on_query,
            int(MsgType.EDIT_CONFIG): self._on_edit_config,
        }
        self.pml.set_lockout_window(self.config.lockout_window_ms)

    # -- configuration manager -------------------------------------------------

    def load_configuration(self, doc: Mapping) -> dict[int, CatalogEntry]:
        """Parse the function catalog; only functions whose required mediation
        plugins are present become available.

        The whole document is parsed and checked before anything is
        committed, so a bad document raises :class:`MalformedConfig` and
        changes nothing.
        """
        if not isinstance(doc, Mapping):
            raise MalformedConfig("configuration document must be an object")
        functions = doc.get("functions", [])
        if not isinstance(functions, list):
            raise MalformedConfig("functions must be a list")
        expected_plugins = doc.get("plugins", [])
        if not isinstance(expected_plugins, list) or not all(
            isinstance(p, str) for p in expected_plugins
        ):
            raise MalformedConfig("plugins must be a list of plugin ids")
        scalars = {}
        for key, convert in _CONFIG_SCALARS.items():
            if key in doc:
                try:
                    scalars[key] = convert(doc[key])
                except (TypeError, ValueError) as exc:
                    raise MalformedConfig(f"bad {key}: {exc}") from None
        if scalars.get("lockout_window_ms", 0.0) < 0:
            raise MalformedConfig("lockout_window_ms must be >= 0")
        registered = self.pml.plugin_ids()
        catalog: dict[int, CatalogEntry] = {}
        for raw in functions:
            try:
                spec = FunctionSpec(
                    function_id=int(raw["function_id"]),
                    name=str(raw.get("name", f"fn{raw['function_id']}")),
                    kind=str(raw.get("kind", "ran")),
                    service_model=str(raw.get("service_model", e2lite.FS_SERVICE_MODEL)),
                    required_pml_plugins=tuple(raw.get("required_pml_plugins", ())),
                    resources=tuple(raw.get("resources", ())),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedConfig(f"bad function entry: {exc}") from None
            if spec.kind not in ("ran", "oam"):
                raise MalformedConfig(f"bad function kind {spec.kind!r}")
            missing = [p for p in spec.required_pml_plugins if p not in registered]
            if missing:
                catalog[spec.function_id] = CatalogEntry(
                    spec, False, reason=f"missing_plugin:{','.join(missing)}"
                )
            else:
                catalog[spec.function_id] = CatalogEntry(spec, True)
        # everything parsed: commit
        self._apply_config(scalars)
        with self._state:
            self.repository.ran_state["operational"]["plugins"] = {
                p: (p in registered) for p in expected_plugins
            }
            self.repository.catalog = catalog
        return catalog

    def sm_functions(self) -> dict[int, str]:
        return {
            fid: e.spec.service_model
            for fid, e in self.repository.catalog.items()
            if e.available
        }

    # -- interface manager -------------------------------------------------------

    def attach_link(
        self, link_id: str, peer_id: str, kind: str, send: Callable[[bytes], None],
        endpoint: str = "",
    ) -> None:
        """Register a connected peer; controller links are greeted with a
        setup request listing the available functions."""
        if kind not in (RIC, SMO):
            raise AgentError(f"unknown peer kind {kind!r}")
        link = _Link(link_id=link_id, peer_id=peer_id, kind=kind, send=send,
                     order=next(self._link_order))
        with self._state:
            self._links[link_id] = link
            ctx = PeerContext(peer_id=peer_id, kind=kind, link_id=link_id, endpoint=endpoint)
            if kind == RIC:
                self.repository.ric_contexts[peer_id] = ctx
            else:
                self.repository.smo_contexts[peer_id] = ctx
        if kind == RIC:
            corr = next(self._corr)
            link.pending_setup_corr = corr
            payload = {
                "functions": [
                    {"function_id": e.spec.function_id, "name": e.spec.name, "kind": e.spec.kind}
                    for e in self.repository.catalog.values()
                    if e.available
                ]
            }
            self._send(link_id, E2LiteFrame(MsgType.SETUP_REQUEST, corr, payload))

    def detach_link(self, link_id: str) -> bool:
        """Drop the peer, its locks and its subscriptions; False if not attached."""
        with self._state:
            link = self._links.pop(link_id, None)
            if link is None:
                return False
            ctx = self.repository.context_for(link.peer_id)
            if ctx is not None and ctx.link_id == link_id:
                for sub in ctx.subscriptions.values():
                    self.pml.drop_registration(sub.reg_id)
                    self._sub_by_reg.pop(sub.reg_id, None)
                self.repository.ric_contexts.pop(link.peer_id, None)
                self.repository.smo_contexts.pop(link.peer_id, None)
        return True

    def activation(self, peer_id: str) -> set[int]:
        ctx = self.repository.context_for(peer_id)
        return set(ctx.activated) if ctx else set()

    # -- termination / dispatch ----------------------------------------------------

    def receive(self, link_id: str, data: bytes) -> int:
        """Feed raw bytes from a link; frames are stamped and queued."""
        link = self._links.get(link_id)
        if link is None:
            raise AgentError(f"unknown link {link_id}")
        try:
            frames, error = link.reader.feed(data), None
        except CodecError as exc:
            frames, error = exc.frames, exc
        for frame in frames:
            self._dispatch(link, frame)
        if error is not None:
            self._count_failure(failure_cause(error))
            self._send(link_id, E2LiteFrame(MsgType.CONTROL_FAILURE, 0,
                                            {"cause": "codec", "detail": str(error)}))
        return len(frames)

    def _dispatch(self, link: _Link, frame: E2LiteFrame) -> None:
        record = MessageRecord(receive_ns=self.clock.now_ns())
        msg = _Pending(link_id=link.link_id, frame=frame, record=record)
        manager = _ROUTE.get(frame.msg_type)  # IntEnum keys match raw ints
        if frame.msg_type == MsgType.CONTROL_REQUEST:
            with self.metrics.lock:
                self.metrics.received += 1
        if manager is None:
            cause = "unknown_type" if frame.msg_type not in _KNOWN_TYPES else "invalid_direction"
            self._fail(msg, cause, f"message type {frame.msg_type} not accepted inbound")
            return
        with self._cv:
            q = self._queues.setdefault((manager, link.order % self._shards()), deque())
            overflow = len(q) >= self.config.queue_depth
            if not overflow:
                msg.seq = next(self._arrivals)
                q.append(msg)
                self._queued += 1
            self._cv.notify_all()
        if overflow:
            self._fail(msg, "overloaded", "manager queue full")
            self.raise_alarm("queue_overflow", f"{manager} queue at depth {self.config.queue_depth}")

    # -- driving: pump, step, flush ---------------------------------------------------

    def pump(self) -> int:
        """Process everything queued; returns the number of messages handled.

        Only the owner of the queues calls it: a single-threaded driver, not
        the threaded server, whose workers take the messages. Messages run in
        arrival order across all manager queues; :meth:`step` publishes and
        reports.

        Every queued message is counted, so a zero count means the queues are
        empty and the call returns without scanning them.
        """
        processed = 0
        while True:
            with self._queue_lock:
                if not self._queued:
                    break
                msg = self._pop_oldest(self._queues)
            self.process_message(msg)
            processed += 1
        return processed

    def step(self, now_ns: int) -> float:
        """Run the mediation boundary, then :meth:`emit_telemetry`, so reports
        read the epoch just published; returns :meth:`next_wake_ns`."""
        self.pml.tti_boundary(self.registry)
        self.emit_telemetry(now_ns)
        return self.next_wake_ns()

    def flush(self) -> None:
        """Pump and run the boundary until no message is queued and no
        mediation call is pending, so every message received gets its one
        response. For when nothing else drives the agent."""
        while True:
            self.pump()
            self.pml.tti_boundary(self.registry)
            if not self._queued and not self.pml.pending():
                return

    def next_wake_ns(self) -> float:
        """When the control plane next has work, in this agent's clock's ns.

        0 (now) if a message is queued or :meth:`Pml.next_wake_ns` says the
        boundary or a change-record scan has work; otherwise the earliest
        periodic report deadline, ``inf`` with none. Before then, with no new
        input, :meth:`pump` and :meth:`step` do nothing, so a driver may skip
        them.

        For single-threaded drivers: it takes no lock, and input that arrives
        from another thread after it returns is not seen.
        """
        if self._queued:
            return 0
        return self.pml.next_wake_ns(self.registry)

    def _pop_oldest(self, keys: Iterable[tuple[str, int]]) -> Optional[_Pending]:
        """Pop the earliest-arrived head among the given queues; hold ``_cv``."""
        oldest = None
        for key in keys:
            q = self._queues.get(key)
            if q and (oldest is None or q[0].seq < oldest[0].seq):
                oldest = q
        if oldest is None:
            return None
        self._queued -= 1
        return oldest.popleft()

    # -- manager bodies ------------------------------------------------------------

    def process_message(self, msg: _Pending) -> None:
        msg.record.dispatch_ns = self.clock.now_ns()
        frame = msg.frame
        handler = self._handlers.get(frame.msg_type)
        if handler is None:
            self._fail(msg, "unknown_type", f"no handler for {frame.msg_type}")
            return
        try:
            handler(msg)
        except Exception as exc:  # manager failures become failure responses
            self._fail(msg, failure_cause(exc), str(exc))

    def _on_setup_response(self, msg: _Pending) -> None:
        link = self._links.get(msg.link_id)
        if link is None:
            return
        if link.pending_setup_corr != msg.frame.correlation_id:
            self._fail(msg, "validation_failed", "unexpected setup response")
            return
        link.pending_setup_corr = None
        requested = msg.frame.payload.get("activate", [])
        with self._state:
            ctx = self.repository.context_for(link.peer_id)
            for fid in requested:
                entry = self.repository.catalog.get(fid)
                if entry is None or not entry.available:
                    ctx.refused[fid] = "unavailable"
                    continue
                blocked = None
                for resource in entry.spec.resources:
                    holder = self.repository.lock_holder(resource, exclude=link.peer_id)
                    if holder is not None:
                        blocked = holder
                        break
                if blocked is not None:
                    ctx.refused[fid] = f"resource_locked:{blocked}"
                    continue
                ctx.activated.add(fid)
                ctx.locks.update(entry.spec.resources)

    def _require_activation(self, msg: _Pending, function_id: int) -> tuple[_Link, PeerContext]:
        link = self._links[msg.link_id]
        ctx = self.repository.context_for(link.peer_id)
        if ctx is None or function_id not in ctx.activated:
            raise NotActivated(f"function {function_id} not activated for {link.peer_id}")
        return link, ctx

    def _on_control(self, msg: _Pending) -> None:
        payload = msg.frame.payload
        function_id = payload.get("ran_function_id")
        link, ctx = self._require_activation(msg, function_id)
        validated = e2lite.validate_sm_payload(function_id, payload, self.sm_functions())
        params = self._control_params(validated)
        for resource in self._touched_resources(validated):
            holder = self.repository.lock_holder(resource, exclude=link.peer_id)
            if holder is not None:
                raise ResourceLockedByOther(f"{resource} held by {holder}")
        msg.record.invoke_ns = self.clock.now_ns()  # RAN function action API entry
        with self.metrics.lock:
            self.metrics.records.append(msg.record)
        completion = self.fs.fs_control_request(link.peer_id, params)
        completion.add_done_callback(lambda c: self._control_done(msg, c))

    def _control_done(self, msg: _Pending, completion: Completion) -> None:
        if completion.error is None:
            with self.metrics.lock:
                self.metrics.executed += 1
            self._send(
                msg.link_id,
                E2LiteFrame(MsgType.CONTROL_ACK, msg.frame.correlation_id,
                            {"result": completion.result}),
            )
        else:
            self._fail(msg, failure_cause(completion.error), str(completion.error))

    @staticmethod
    def _control_params(validated: Mapping) -> dict:
        message = validated["control_message"]
        routine = message["routine"]
        if routine == "slice_config":
            return {"slices": [dict(message["params"])]}
        return {"ues": [dict(message["params"])]}

    def _touched_resources(self, validated: Mapping) -> list[str]:
        message = validated["control_message"]
        if message["routine"] == "slice_config":
            return [f"slice/{message['params']['slice_id']}"]
        drb = message["params"]["drb_id"]
        if self.registry.has_drb(drb):
            return [f"slice/{self.registry.get_bearer(drb).slice_id}"]
        return []

    def _on_subscription(self, msg: _Pending) -> None:
        payload = msg.frame.payload
        function_id = payload.get("ran_function_id")
        link, ctx = self._require_activation(msg, function_id)
        validated = e2lite.validate_sm_payload(function_id, payload, self.sm_functions())
        completion = self.fs.fs_telemetry_registration_request(
            link.peer_id, validated["targets"], validated["trigger"]
        )

        def finish(c: Completion) -> None:
            if c.error is not None:
                self._fail(msg, failure_cause(c.error), str(c.error))
                return
            sub = Subscription(
                sub_id=next(self._sub_ids),
                peer_id=link.peer_id,
                link_id=msg.link_id,
                function_id=function_id,
                service=validated["service"],
                targets=validated["targets"],
                trigger=validated["trigger"],
                reg_id=c.result["reg_id"],
            )
            with self._state:
                ctx.subscriptions[sub.sub_id] = sub
                self._sub_by_reg[sub.reg_id] = sub
            self._send(
                msg.link_id,
                E2LiteFrame(MsgType.SUBSCRIPTION_RESPONSE, msg.frame.correlation_id,
                            {"sub_id": sub.sub_id, "reg_id": sub.reg_id}),
            )

        completion.add_done_callback(finish)

    def _on_query(self, msg: _Pending) -> None:
        payload = msg.frame.payload
        function_id = payload.get("ran_function_id")
        link, _ = self._require_activation(msg, function_id)
        validated = e2lite.validate_sm_payload(function_id, payload, self.sm_functions())
        report = self._build_report(validated["service"], validated["targets"])
        self._send(
            msg.link_id,
            E2LiteFrame(MsgType.QUERY_RESPONSE, msg.frame.correlation_id,
                        {"service": validated["service"], "report": report}),
        )

    def _on_edit_config(self, msg: _Pending) -> None:
        link = self._links[msg.link_id]
        if link.kind != SMO:
            raise ValidationFailed("edit-config arrives on management sessions only")
        config = msg.frame.payload.get("config")
        if not isinstance(config, Mapping):
            raise ValidationFailed("missing config object")
        unknown = set(config) - set(_EDIT_CONFIG_RULES)
        if unknown:
            raise ValidationFailed(f"unknown config keys {sorted(unknown)}")
        # every key is checked before any is committed
        for key, value in config.items():
            what, valid = _EDIT_CONFIG_RULES[key]
            if not valid(value):
                raise ValidationFailed(f"{key} must be {what}")
        staged = dict(config)
        # data broker commits, then the config plugin applies via the mediation layer
        with self._state:
            self.repository.ran_state["config"].update(staged)
        self._apply_config(staged)
        self._send(
            msg.link_id,
            E2LiteFrame(MsgType.CONFIG_ACK, msg.frame.correlation_id,
                        {"committed": sorted(staged)}),
        )

    def _apply_config(self, staged: Mapping) -> None:
        """Commit checked AgentConfig values; the Pml takes the lockout window."""
        for key, value in staged.items():
            setattr(self.config, key, _CONFIG_SCALARS[key](value))
        if "lockout_window_ms" in staged:
            self.pml.set_lockout_window(self.config.lockout_window_ms)

    # -- telemetry / alarms --------------------------------------------------------

    def _build_report(self, service: str, targets: Mapping) -> dict:
        """A query's or a periodic indication's report, from the published epoch."""
        if service == "slice_context":
            return self.registry.snapshot(slice_ids=targets.get("slice_ids", []))
        if service == "ue_context":
            return self.registry.snapshot(ue_ids=targets.get("ue_ids", []))
        if service == "context_change":
            return self.registry.change_report(targets.get("slice_ids", []))
        raise SchemaViolation(f"unknown service {service!r}")

    def emit_telemetry(self, now_ns: int) -> int:
        """Send due periodic reports and event-triggered change reports."""
        emitted = 0
        for reg in self.pml.due_periodic(now_ns):
            sub = self._sub_by_reg.get(reg.reg_id)
            if sub is None:
                continue
            try:
                report = self._build_report(sub.service, sub.targets)
            except SliceModelError:
                continue
            emitted += self._send_indication(sub, report)
        for reg, record in self.pml.new_change_records(self.registry):
            sub = self._sub_by_reg.get(reg.reg_id)
            if sub is None:
                continue
            emitted += self._send_indication(sub, {"records": [record_to_dict(record)]})
        return emitted

    def _send_indication(self, sub: Subscription, report: dict) -> bool:
        frame = E2LiteFrame(
            MsgType.INDICATION,
            0,
            {
                "ran_function_id": sub.function_id,
                "sub_id": sub.sub_id,
                "service": sub.service,
                "report": report,
            },
        )
        return self._send(sub.link_id, frame)

    def report_hu_utilization(self, unit: str, utilization: float) -> None:
        """Operational hook: over-threshold capacity utilization raises an alarm."""
        with self._state:
            self.repository.ran_state["operational"][f"util:{unit}"] = utilization
        if utilization > self.config.utilization_alarm_threshold:
            self.raise_alarm(
                "hu_utilization",
                f"{unit} at {utilization:.2f}",
                severity="major",
            )

    def raise_alarm(self, condition: str, detail: str, severity: str = "warning") -> None:
        payload = {"condition": condition, "detail": detail, "severity": severity}
        for link in list(self._links.values()):
            if link.kind == SMO:
                self._send(link.link_id, E2LiteFrame(MsgType.ALARM_NOTIFICATION,
                                                     next(self._corr), payload))

    # -- plumbing ---------------------------------------------------------------------

    def _send(self, link_id: str, frame: E2LiteFrame) -> bool:
        """Send one frame; False if the link is gone. A send that raises
        detaches the link and counts and alarms ``link_lost`` once."""
        link = self._links.get(link_id)
        if link is None:
            return False
        try:
            link.send(e2lite.encode(frame))
        except Exception as exc:  # the peer's transport; any failure loses the link
            if self.detach_link(link_id):
                self._count_failure("link_lost")
                self.raise_alarm("link_lost", f"{link.peer_id}: {exc!r}")
            return False
        return True

    def _fail(self, msg: _Pending, cause: str, detail: str) -> None:
        if msg.frame.msg_type == MsgType.CONTROL_REQUEST:
            with self.metrics.lock:
                self.metrics.failed += 1
        self._count_failure(cause)
        self._send(
            msg.link_id,
            E2LiteFrame(MsgType.CONTROL_FAILURE, msg.frame.correlation_id,
                        {"cause": cause, "detail": detail}),
        )

    def _count_failure(self, cause: str) -> None:
        with self._state:
            self.failures_by_cause[cause] = self.failures_by_cause.get(cause, 0) + 1

    # -- threaded-server support ----------------------------------------------------

    def _shards(self) -> int:
        return max(1, self.config.manager_instances)

    def worker_keys(self) -> list[list[tuple[str, int]]]:
        """Queue keys per server worker: one list per control shard, then one
        list holding every shard of the other managers."""
        shards = range(self._shards())
        keys = [[(_CONTROL, i)] for i in shards]
        keys.append([(mgr, i) for mgr in (_SUBSCRIPTION, _QUERY, _INTERFACE, _BROKER)
                     for i in shards])
        return keys

    def wait_message(self, keys: Iterable[tuple[str, int]], timeout: float = 0.1):
        keyset = list(keys)
        with self._cv:
            msg = self._pop_oldest(keyset)
            if msg is None:
                self._cv.wait(timeout)
                msg = self._pop_oldest(keyset)
        return msg
