"""Control-plane agent: terminations, global and functional managers, repository.

Inbound frames are reassembled per link, stamped on receipt, and routed by
message type to a manager. Every manager's messages wait in one FIFO, and
each manager may hold at most ``queue_depth`` of them, over all links
(overflow answers a failure rather than dropping silently, so received =
executed + failed always holds for the control path). One thread drains the
FIFO with :meth:`Agent.pump`: a single-threaded driver on virtual time, or
the loop of :class:`~hexsim.transport.ThreadedAgentServer` on wall time.
Messages therefore run in arrival order, which keeps per-(peer, type) order.

Each attached link has one record (:class:`PeerContext`), and a peer id
attaches once. Activated functions lock their resources against other peers'
control; a detach releases the link's locks, its subscriptions (even one still
registering) and its queued messages, which fail as ``link_lost``.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import Callable, Mapping, NamedTuple, Optional

from . import e2lite
from .errors import (
    AgentError,
    CodecError,
    HexsimError,
    LinkLost,
    MalformedConfig,
    NotActivated,
    ResourceLockedByOther,
    SchemaViolation,
    UnknownId,
    ValidationFailed,
)
from .e2lite import JSON_ENCODER, E2LiteFrame, FrameReader, MsgType
from .pml import Completion, FsApi, Pml
from .slice_model import SliceRegistry, fill_report, record_to_dict

DEFAULT_QUEUE_DEPTH = 1024
DELAY_SAMPLES = 4096  # newest control delay samples kept

RIC = "ric"
SMO = "smo"

# manager routing by inbound message type
_CONTROL = "control"
_SUBSCRIPTION = "subscription"
_QUERY = "query"
_INTERFACE = "interface"
_BROKER = "broker"

_KNOWN_TYPES = frozenset(int(t) for t in MsgType)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# the settings a configuration document or an edit-config may set: what each
# value must be, and its check; a value that passes is applied as given, the
# queue depth to the AgentConfig and the lockout window to the Pml
_SETTINGS = {
    "lockout_window_ms": ("a number >= 0", lambda v: _is_number(v) and v >= 0),
    "queue_depth": ("a positive integer", lambda v: _is_number(v) and isinstance(v, int) and v > 0),
}

# the fields of a configuration document's function entry, checked the same way
_STR = ("a string", lambda v: isinstance(v, str))
_STR_LIST = ("a list of strings",
             lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v))
_FUNCTION_FIELDS = {
    "function_id": ("an integer", lambda v: _is_number(v) and isinstance(v, int)),
    "name": _STR, "kind": ("ran or oam", lambda v: v in ("ran", "oam")),
    # the schemas in e2lite are the only service model this agent serves
    "service_model": ('"fs"', lambda v: v == e2lite.FS_SERVICE_MODEL),
    "required_pml_plugins": _STR_LIST, "resources": _STR_LIST,
}


def _check(table: Mapping, values: Mapping, error: type[Exception]) -> dict:
    """Check each value (keyed as in ``table``); a copy of ``values``, or
    ``error`` raised for the first value that fails."""
    for key, value in values.items():
        what, valid = table[key]
        if not valid(value):
            raise error(f"{key} must be {what}")
    return dict(values)


def failure_cause(exc: Exception) -> str:
    """The cause a failure answer names: a HexsimError's, else error:<class name>."""
    cause = exc.cause if isinstance(exc, HexsimError) else None
    return cause or f"error:{type(exc).__name__}"


class FunctionSpec(NamedTuple):
    function_id: int
    name: str
    kind: str  # "ran" (controller-driven) or "oam" (management-driven)
    required_pml_plugins: tuple[str, ...] = ()
    resources: tuple[str, ...] = ()  # lock-scope prefixes, e.g. "slice/"


class CatalogEntry(NamedTuple):
    spec: FunctionSpec
    available: bool
    reason: str = ""


class Subscription:
    __slots__ = ("sub_id", "link", "service", "targets", "reg_id", "plan", "envelope")

    def __init__(self, sub_id: int, link: PeerContext, function_id: int, service: str,
                 targets: dict, reg_id: int):
        self.sub_id = sub_id
        self.link = link
        self.service = service
        self.targets = targets
        self.reg_id = reg_id
        self.plan: Optional[tuple] = None  # its last SliceRegistry.report_plan, for that epoch
        encode = JSON_ENCODER.encode
        # its indication payload, a %s where the report goes
        self.envelope = '{"ran_function_id":%s,"report":%%s,"service":%s,"sub_id":%s}' % (
            encode(function_id), encode(service), encode(sub_id))


class PeerContext:
    """One attached link: its transport, its reader, and its peer's context."""

    __slots__ = ("link_id", "peer_id", "kind", "send", "reader", "pending_setup_corr",
                 "activated", "refused", "locks")

    def __init__(self, link_id: str, peer_id: str, kind: str, send: Callable[[bytes], None],
                 pending_setup_corr: Optional[int] = None):
        self.link_id = link_id
        self.peer_id = peer_id
        self.kind = kind
        self.send = send
        self.reader = FrameReader()
        self.pending_setup_corr = pending_setup_corr
        self.activated: set[int] = set()
        self.refused: dict[int, str] = {}
        self.locks: set[str] = set()


class HaRepository:
    """Per-link contexts (changed under the agent's lock; read a copy) plus RAN data."""

    def __init__(self):
        self.peers: dict[str, PeerContext] = {}  # by link id
        self.ran_state: dict = {"config": {}, "operational": {}}
        self.catalog: dict[int, CatalogEntry] = {}

    def attached(self, link: PeerContext) -> bool:
        return self.peers.get(link.link_id) is link

    def peer(self, peer_id: str) -> Optional[PeerContext]:
        for ctx in list(self.peers.values()):
            if ctx.peer_id == peer_id:
                return ctx
        return None

    def lock_holder(self, resource: str, exclude: str = "") -> Optional[str]:
        """The peer whose lock covers ``resource``, an ancestor or a descendant
        of it, matched on whole ``/``-separated path segments."""
        for peer in list(self.peers.values()):
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


class MessageRecord:
    """Pipeline timestamps for one executed control message."""

    __slots__ = ("receive_ns", "dispatch_ns", "invoke_ns")

    def __init__(self, receive_ns: int):
        self.receive_ns = receive_ns
        self.dispatch_ns = 0
        self.invoke_ns = 0


class PipelineMetrics:
    def __init__(self):
        self.lock = threading.Lock()
        self.received = 0
        self.executed = 0
        self.failed = 0
        self.records: deque[MessageRecord] = deque(maxlen=DELAY_SAMPLES)

    def reset(self) -> None:
        with self.lock:
            self.received = 0
            self.executed = 0
            self.failed = 0
            self.records.clear()

    def delays_us(self) -> list[float]:
        """receive-to-action-invoke delay of the newest ``DELAY_SAMPLES``
        invoked control messages, oldest first."""
        with self.lock:
            return [
                (r.invoke_ns - r.receive_ns) / 1000.0 for r in self.records if r.invoke_ns
            ]


class AgentConfig(NamedTuple):
    queue_depth: int = DEFAULT_QUEUE_DEPTH


class _Pending:
    __slots__ = ("link", "frame", "record", "manager")

    def __init__(self, link: PeerContext, frame: E2LiteFrame, record: MessageRecord):
        self.link = link  # the record it arrived on; a detached one is not served
        self.frame = frame
        self.record = record
        self.manager = ""  # once queued, the manager whose queue depth it counts against

    @property
    def link_id(self) -> str:
        return self.link.link_id


class Agent:
    """Synchronous agent core, driven by :meth:`pump`, :meth:`step` and :meth:`flush`.

    A single-threaded driver calls ``pump()`` then ``step(now)`` on a tick
    and ends with ``flush()``. :class:`~hexsim.transport.ThreadedAgentServer`
    makes the same calls from its one loop thread, sleeping in :meth:`wait`
    between them, and ``stop()`` flushes. The Pml owns time and the lockout
    window; the agent reads both from it.
    """

    def __init__(
        self,
        registry: SliceRegistry,
        pml: Pml,
        fs: FsApi,
        config: Optional[AgentConfig] = None,
    ):
        self.registry = registry
        self.pml = pml
        self.fs = fs
        self.config = config or AgentConfig()
        self.repository = HaRepository()
        self.metrics = PipelineMetrics()
        self.failures_by_cause: dict[str, int] = {}
        # every manager's messages in arrival order, the count queued per
        # manager, and a pending wake; all guarded by _cv
        self._queue: deque[_Pending] = deque()
        self._depth: dict[str, int] = {}
        self._woken = False
        # _cv's lock; pump enters it directly, skipping Condition's Python-level
        # __enter__ on every tick
        self._queue_lock = threading.RLock()
        self._cv = threading.Condition(self._queue_lock)
        self._corr = itertools.count(0x40000000)
        self._sub_ids = itertools.count(1)
        self._sub_by_reg: dict[int, Subscription] = {}
        self._state = threading.RLock()

    @property
    def clock(self):
        """The Pml's clock, which stamps every message this agent receives."""
        return self.pml.clock

    # -- configuration manager -------------------------------------------------

    def load_configuration(self, doc: Mapping) -> dict[int, CatalogEntry]:
        """Parse the function catalog; only functions whose required mediation
        plugins are present become available, and a function's service model,
        if given, must be ``"fs"``.

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
        settings = _check(_SETTINGS, {k: doc[k] for k in _SETTINGS if k in doc}, MalformedConfig)
        registered = self.pml.plugin_ids()
        catalog: dict[int, CatalogEntry] = {}
        for raw in functions:
            if not isinstance(raw, Mapping) or "function_id" not in raw:
                raise MalformedConfig("a function entry must be an object with a function_id")
            entry = _check(_FUNCTION_FIELDS, {k: raw[k] for k in _FUNCTION_FIELDS if k in raw},
                           MalformedConfig)
            fid = entry["function_id"]
            spec = FunctionSpec(
                function_id=fid,
                name=entry.get("name", f"fn{fid}"),
                kind=entry.get("kind", "ran"),
                required_pml_plugins=tuple(entry.get("required_pml_plugins", ())),
                resources=tuple(entry.get("resources", ())),
            )
            missing = [p for p in spec.required_pml_plugins if p not in registered]
            if missing:
                catalog[spec.function_id] = CatalogEntry(
                    spec, False, reason=f"missing_plugin:{','.join(missing)}"
                )
            else:
                catalog[spec.function_id] = CatalogEntry(spec, True)
        # everything parsed: commit
        self._apply_config(settings)
        with self._state:
            self.repository.ran_state["operational"]["plugins"] = {
                p: (p in registered) for p in expected_plugins
            }
            self.repository.catalog = catalog
        return catalog

    # -- interface manager -------------------------------------------------------

    def attach_link(self, link_id: str, peer_id: str, kind: str,
                    send: Callable[[bytes], None]) -> None:
        """Register a connected peer; controller links are greeted with a
        setup request listing the available functions. A link id or a peer id
        that is already attached raises :class:`AgentError`."""
        if kind not in (RIC, SMO):
            raise AgentError(f"unknown peer kind {kind!r}")
        corr = next(self._corr) if kind == RIC else None
        link = PeerContext(link_id, peer_id, kind, send, pending_setup_corr=corr)
        with self._state:
            if link_id in self.repository.peers or self.repository.peer(peer_id) is not None:
                raise AgentError(f"link {link_id} or peer {peer_id} is already attached")
            self.repository.peers[link_id] = link
        if kind == RIC:
            payload = {
                "functions": [
                    {"function_id": e.spec.function_id, "name": e.spec.name, "kind": e.spec.kind}
                    for e in self.repository.catalog.values()
                    if e.available
                ]
            }
            self._send(link, E2LiteFrame(MsgType.SETUP_REQUEST, corr, payload))

    def detach_link(self, link_id: str) -> bool:
        """Drop the link, its locks and its subscriptions, and fail its calls
        still waiting in mediation as ``link_lost``; False if not attached."""
        with self._state:
            link = self.repository.peers.pop(link_id, None)
            if link is None:
                return False
            for sub in [s for s in self._sub_by_reg.values() if s.link is link]:
                self.pml.drop_registration(sub.reg_id)
                del self._sub_by_reg[sub.reg_id]
            self.pml.cancel_calls(link.peer_id, LinkLost(f"link {link_id} detached"))
        return True

    def activation(self, peer_id: str) -> set[int]:
        ctx = self.repository.peer(peer_id)
        return set(ctx.activated) if ctx else set()

    # -- termination / dispatch ----------------------------------------------------

    def receive(self, link_id: str, data: bytes) -> int:
        """Feed raw bytes from a link; frames are stamped and queued."""
        link = self.repository.peers.get(link_id)
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
            self._send(link, E2LiteFrame(MsgType.CONTROL_FAILURE, 0,
                                         {"cause": "codec", "detail": str(error)}))
        return len(frames)

    def _dispatch(self, link: PeerContext, frame: E2LiteFrame) -> None:
        record = MessageRecord(receive_ns=self.clock.now_ns())
        msg = _Pending(link=link, frame=frame, record=record)
        route = _INBOUND.get(frame.msg_type)  # IntEnum keys match raw ints
        if frame.msg_type == MsgType.CONTROL_REQUEST:
            with self.metrics.lock:
                self.metrics.received += 1
        if route is None:
            cause = "unknown_type" if frame.msg_type not in _KNOWN_TYPES else "invalid_direction"
            self._fail(msg, cause, f"message type {frame.msg_type} not accepted inbound")
            return
        manager = msg.manager = route[0]
        with self._cv:
            depth = self._depth.get(manager, 0)
            overflow = depth >= self.config.queue_depth
            if not overflow:
                self._depth[manager] = depth + 1
                self._queue.append(msg)
                self._cv.notify()
        if overflow:
            self._fail(msg, "overloaded", "manager queue full")
            self.raise_alarm("queue_overflow", f"{manager} queue at depth {self.config.queue_depth}")

    # -- driving: pump, step, flush ---------------------------------------------------

    def pump(self) -> int:
        """Process the messages queued when it is called, in arrival order;
        returns how many. :meth:`step` publishes and reports.

        One thread owns the queue and calls it: a single-threaded driver, or
        the threaded server's loop, which so reaches its next step even while
        frames keep arriving.
        """
        with self._queue_lock:
            count = len(self._queue)
        for _ in range(count):
            with self._queue_lock:
                msg = self._queue.popleft()
                self._depth[msg.manager] -= 1
            self.process_message(msg)
        return count

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
            if not self._queue and not self.pml.pending():
                return

    def next_wake_ns(self) -> float:
        """When the control plane next has work, in the Pml's clock's ns.

        0 (now) if a message is queued or :meth:`Pml.next_wake_ns` says the
        boundary or a change-record scan has work; otherwise the earliest
        periodic report deadline, ``inf`` with none. Before then, with no new
        input, :meth:`pump` and :meth:`step` do nothing, so a driver may skip
        them.

        It takes no lock, and input that arrives from another thread after it
        returns is not seen. The threaded server's loop reads it too: a stale
        answer there costs one :meth:`wait`, which the new frame ends.
        """
        if self._queue:
            return 0
        return self.pml.next_wake_ns(self.registry)

    def wait(self, timeout: Optional[float]) -> None:
        """Block until a message is queued, :meth:`wake` is called, or
        ``timeout`` seconds pass (``None``: no limit). A message already queued,
        or a wake since the last wait, returns at once."""
        with self._cv:
            if not self._queue and not self._woken:
                self._cv.wait(timeout)
            self._woken = False

    def wake(self) -> None:
        """End the current or the next :meth:`wait`."""
        with self._cv:
            self._woken = True
            self._cv.notify()

    # -- manager bodies ------------------------------------------------------------

    def process_message(self, msg: _Pending) -> None:
        """Run a queued message's manager body; only routed types are queued.

        A control, subscription or query fails as ``not_activated`` unless
        its link activated the function it names and the catalog still lists
        that function as available; only then is it checked against its
        type's schema, and its body gets the validated payload.
        """
        msg.record.dispatch_ns = self.clock.now_ns()
        msg_type, payload = msg.frame.msg_type, msg.frame.payload
        _, body = _INBOUND[msg_type]
        link = msg.link
        if not self.repository.attached(link):
            self._fail(msg, "link_lost", f"link {msg.link_id} detached")
            return
        try:
            if msg_type in e2lite.SCHEMAS:
                function_id = payload.get("ran_function_id")
                entry = (self.repository.catalog.get(function_id)
                         if function_id in link.activated else None)
                if entry is None or not entry.available:
                    raise NotActivated(f"function {function_id} not activated for {link.peer_id}")
                payload = e2lite.validate_sm_payload(msg_type, payload)
            body(self, msg, link, payload)
        except Exception as exc:  # manager failures become failure responses
            self._fail(msg, failure_cause(exc), str(exc))

    def _on_setup_response(self, msg: _Pending, link: PeerContext, payload: dict) -> None:
        if link.pending_setup_corr != msg.frame.correlation_id:
            self._fail(msg, "validation_failed", "unexpected setup response")
            return
        requested = e2lite.validate_setup_payload(payload)["activate"]
        link.pending_setup_corr = None
        with self._state:
            for fid in requested:
                entry = self.repository.catalog.get(fid)
                if entry is None or not entry.available:
                    link.refused[fid] = "unavailable"
                    continue
                blocked = None
                for resource in entry.spec.resources:
                    holder = self.repository.lock_holder(resource, exclude=link.peer_id)
                    if holder is not None:
                        blocked = holder
                        break
                if blocked is not None:
                    link.refused[fid] = f"resource_locked:{blocked}"
                    continue
                link.activated.add(fid)
                link.locks.update(entry.spec.resources)

    def _on_control(self, msg: _Pending, link: PeerContext, validated: dict) -> None:
        params = self._control_params(validated)
        for resource in self._touched_resources(validated):
            holder = self.repository.lock_holder(resource, exclude=link.peer_id)
            if holder is not None:
                raise ResourceLockedByOther(f"{resource} held by {holder}")
        # a detach comes before the submit, or cancels the call in mediation
        with self._state:
            if not self.repository.attached(link):
                raise LinkLost(f"link {link.link_id} detached")
            msg.record.invoke_ns = self.clock.now_ns()  # RAN function action API entry
            completion = self.fs.fs_control_request(link.peer_id, params)
        with self.metrics.lock:
            self.metrics.records.append(msg.record)
        completion.add_done_callback(lambda c: self._control_done(msg, c))

    def _control_done(self, msg: _Pending, completion: Completion) -> None:
        if completion.error is None:
            with self.metrics.lock:
                self.metrics.executed += 1
            self._send(
                msg.link,
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

    def _on_subscription(self, msg: _Pending, link: PeerContext, validated: dict) -> None:
        completion = self.fs.fs_telemetry_registration_request(
            link.peer_id, validated["targets"], validated["trigger"]
        )

        def finish(c: Completion) -> None:
            if c.error is not None:
                self._fail(msg, failure_cause(c.error), str(c.error))
                return
            with self._state:
                if not self.repository.attached(link):  # detached while registering
                    self.pml.drop_registration(c.result["reg_id"])
                    self._fail(msg, "link_lost", f"link {msg.link_id} detached")
                    return
                sub = Subscription(
                    sub_id=next(self._sub_ids),
                    link=link,
                    function_id=msg.frame.payload["ran_function_id"],
                    service=validated["service"],
                    targets=validated["targets"],
                    reg_id=c.result["reg_id"],
                )
                self._sub_by_reg[sub.reg_id] = sub
            self._send(
                msg.link,
                E2LiteFrame(MsgType.SUBSCRIPTION_RESPONSE, msg.frame.correlation_id,
                            {"sub_id": sub.sub_id, "reg_id": sub.reg_id}),
            )

        completion.add_done_callback(finish)

    def _on_query(self, msg: _Pending, link: PeerContext, validated: dict) -> None:
        service = validated["service"]
        report = self._build_report(service, validated["targets"])
        self._send(msg.link, E2LiteFrame(MsgType.QUERY_RESPONSE, msg.frame.correlation_id),
                   '{"report":%s,"service":%s}' % (report, JSON_ENCODER.encode(service)))

    def _on_edit_config(self, msg: _Pending, link: PeerContext, payload: dict) -> None:
        if link.kind != SMO:
            raise ValidationFailed("edit-config arrives on management sessions only")
        config = payload.get("config")
        if not isinstance(config, Mapping):
            raise ValidationFailed("missing config object")
        unknown = set(config) - set(_SETTINGS)
        if unknown:
            raise ValidationFailed(f"unknown config keys {sorted(unknown)}")
        # every key is checked before any is committed
        staged = _check(_SETTINGS, config, ValidationFailed)
        # the data broker commits, then each setting goes to its owner
        with self._state:
            self.repository.ran_state["config"].update(staged)
        self._apply_config(staged)
        self._send(
            msg.link,
            E2LiteFrame(MsgType.CONFIG_ACK, msg.frame.correlation_id,
                        {"committed": sorted(staged)}),
        )

    def _apply_config(self, staged: Mapping) -> None:
        """Commit checked settings: the queue depth to this agent's config, the
        lockout window straight to the Pml, which owns it."""
        if "queue_depth" in staged:
            self.config = self.config._replace(queue_depth=staged["queue_depth"])
        if "lockout_window_ms" in staged:
            self.pml.set_lockout_window(staged["lockout_window_ms"])

    # -- telemetry / alarms --------------------------------------------------------

    def _build_report(self, service: str, targets: Mapping,
                      sub: Optional[Subscription] = None) -> str:
        """The JSON text of a query's or a periodic indication's report, from
        the published epoch. A subscription keeps its slice or UE report's
        plan until the epoch changes; a query's plan is not kept."""
        if service == "context_change":
            return JSON_ENCODER.encode(self.registry.change_report(targets.get("slice_ids", [])))
        plan = sub.plan if sub is not None else None
        if plan is None or plan[0] is not self.registry.published:
            if service == "slice_context":
                plan = self.registry.report_plan(slice_ids=targets.get("slice_ids", []))
            elif service == "ue_context":
                plan = self.registry.report_plan(ue_ids=targets.get("ue_ids", []))
            else:
                raise SchemaViolation(f"unknown service {service!r}")
            if sub is not None:
                sub.plan = plan
        return fill_report(plan[1], plan[2])

    def emit_telemetry(self, now_ns: int) -> int:
        """Send due periodic reports and event-triggered change reports."""
        emitted = 0
        for reg in self.pml.due_periodic(now_ns):
            sub = self._sub_by_reg.get(reg.reg_id)
            if sub is None:
                continue
            try:
                report = self._build_report(sub.service, sub.targets, sub)
            except UnknownId as exc:  # a target is gone
                self._end_subscription(sub, exc)
                continue
            emitted += self._send_indication(sub, report)
        for reg, record in self.pml.new_change_records(self.registry):
            sub = self._sub_by_reg.get(reg.reg_id)
            if sub is None:
                continue
            emitted += self._send_indication(
                sub, JSON_ENCODER.encode({"records": [record_to_dict(record)]}))
        return emitted

    def _send_indication(self, sub: Subscription, report: str) -> bool:
        try:
            return self._send(sub.link, E2LiteFrame(MsgType.INDICATION, 0), sub.envelope % report)
        except CodecError as exc:  # too large for one frame
            self._end_subscription(sub, exc)
            return False

    def _end_subscription(self, sub: Subscription, exc: Exception) -> None:
        """End a subscription whose report cannot be sent, rather than retry it
        every period: drop its registration and count ``exc``'s cause. Its
        peer is not told, and its link stays."""
        with self._state:
            if self._sub_by_reg.pop(sub.reg_id, None) is not None:
                self.pml.drop_registration(sub.reg_id)
        self._count_failure(failure_cause(exc))

    def raise_alarm(self, condition: str, detail: str) -> None:
        payload = {"condition": condition, "detail": detail, "severity": "warning"}
        for link in list(self.repository.peers.values()):
            if link.kind == SMO:
                self._send(link, E2LiteFrame(MsgType.ALARM_NOTIFICATION,
                                             next(self._corr), payload))

    # -- plumbing ---------------------------------------------------------------------

    def _send(self, link: PeerContext, frame: E2LiteFrame, text: Optional[str] = None) -> bool:
        """Send one frame; False if the link is detached. ``text``, a report's
        JSON built already, replaces the frame's payload and raises
        ``FrameTooLarge`` over ``MAX_FRAME``; any other failure detaches the
        link and counts and alarms ``link_lost`` once."""
        if not self.repository.attached(link):
            return False
        packed = None if text is None else e2lite.pack(frame.msg_type, frame.correlation_id, text)
        try:
            link.send(e2lite.encode(frame) if packed is None else packed)
        except Exception as exc:  # the peer's transport; any failure loses the link
            if self.detach_link(link.link_id):
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
            msg.link,
            E2LiteFrame(MsgType.CONTROL_FAILURE, msg.frame.correlation_id,
                        {"cause": cause, "detail": detail}),
        )

    def _count_failure(self, cause: str) -> None:
        with self._state:
            self.failures_by_cause[cause] = self.failures_by_cause.get(cause, 0) + 1


# inbound message type -> (manager, body); a body is called as body(agent,
# msg, link, payload), with the payload validated for the types in
# e2lite.SCHEMAS. A module-level table, so an agent holds no bound methods of
# itself.
_INBOUND = {
    MsgType.SETUP_RESPONSE: (_INTERFACE, Agent._on_setup_response),
    MsgType.SUBSCRIPTION_REQUEST: (_SUBSCRIPTION, Agent._on_subscription),
    MsgType.CONTROL_REQUEST: (_CONTROL, Agent._on_control),
    MsgType.QUERY_REQUEST: (_QUERY, Agent._on_query),
    MsgType.EDIT_CONFIG: (_BROKER, Agent._on_edit_config),
}
