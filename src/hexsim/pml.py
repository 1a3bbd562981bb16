"""Mediation layer: plugin/API registry with conflict-mitigated dispatch.

Call handling contract:

* accepted calls wait in one FIFO and complete in arrival order, across all
  APIs (so calls on one API do too);
* a call that writes a parameter path recently written by a *different*
  caller is rejected immediately (``LockedOut``); the rejected caller owns any
  retry. Same-caller rewrites are always allowed, and reads never lock;
* accepted bodies execute at the next tick boundary (:meth:`Pml.tti_boundary`)
  and their effects publish atomically with that boundary's snapshot, so the
  scheduling path never waits on an in-flight call and a reader never sees a
  half-applied request. Their completions resolve only after that publish, so
  a caller told "done" already reads the new epoch.

Executing queued work at boundaries rather than on caller threads is what
makes the no-disruption guarantee a structural property instead of a locking
discipline: the tick driver reads only the published snapshot, which swaps in
one reference assignment.
"""

from __future__ import annotations

import itertools
import math
import threading
import weakref
from collections import deque
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from . import fssf
from .clocks import MonotonicClock, is_period_ms, ms_to_ns
from .errors import (
    BadPeriod,
    DuplicateApi,
    LockedOut,
    OverSubscription,
    UnknownApi,
    UnknownId,
    ValidationFailed,
)
from .slice_model import (
    ChangeTrigger,
    ContextChangeRecord,
    RadioResourceConfig,
    RegistrySnapshot,
    SliceRegistry,
    SliceState,
)

DEFAULT_LOCKOUT_WINDOW_MS = 100.0


class PluginManifest(NamedTuple):
    plugin_id: str
    provided_api_ids: tuple[str, ...]


class ApiCall(NamedTuple):
    call_id: int
    api_id: str
    caller_id: str
    payload: object
    arrival_time_ns: int
    parameter_paths: tuple[str, ...] = ()


class Completion:
    """Async completion handle for one API call."""

    def __init__(self, call: ApiCall):
        self.call = call
        self.done = False
        self.result = None
        self.error: Optional[Exception] = None
        self._callbacks: list[Callable[["Completion"], None]] = []

    def _resolve(self, result=None, error: Optional[Exception] = None) -> int:
        """Settle the call and run each callback once; returns how many raised.

        The callbacks are taken off before any runs, and one that raises
        neither stops the others nor changes the outcome.
        """
        self.result = result
        self.error = error
        self.done = True
        callbacks, self._callbacks = self._callbacks, []
        raised = 0
        for cb in callbacks:
            try:
                cb(self)
            except Exception:
                raised += 1
        return raised

    def add_done_callback(self, cb: Callable[["Completion"], None]) -> None:
        if self.done:
            cb(self)
        else:
            self._callbacks.append(cb)


class TelemetryRegistration:
    """A report registration on ``slice_ids`` (empty: every slice), due every
    ``period_ns`` from ``next_due_ns``, or, with ``period_ns`` None, on each
    change record past its ``change_cursor`` (slice id -> last seq sent)."""

    __slots__ = ("reg_id", "slice_ids", "period_ns", "next_due_ns", "change_cursor")

    def __init__(self, reg_id: int, slice_ids: tuple[int, ...], period_ns: Optional[int],
                 next_due_ns: int = 0):
        self.reg_id = reg_id
        self.slice_ids = slice_ids
        self.period_ns = period_ns
        self.next_due_ns = next_due_ns
        self.change_cursor: dict[int, int] = {}


class LockoutRegistry:
    """Last-writer tracking per parameter path inside a sliding window."""

    def __init__(self):
        self.window_ms = DEFAULT_LOCKOUT_WINDOW_MS  # set through Pml.set_lockout_window
        self._writes: dict[str, tuple[str, int]] = {}

    def check_and_record(self, paths: Sequence[str], caller: str, now_ns: int) -> None:
        window_ns = ms_to_ns(self.window_ms)
        for path in paths:
            entry = self._writes.get(path)
            if entry is not None:
                writer, when = entry
                if writer != caller and now_ns - when < window_ns:
                    raise LockedOut(
                        f"{path} written by {writer} {(now_ns - when) / 1e6:.1f} ms ago"
                    )
        for path in paths:
            self._writes[path] = (caller, now_ns)
        if len(self._writes) > 4096:
            self._writes = {
                p: (w, t) for p, (w, t) in self._writes.items() if now_ns - t < window_ns
            }

    def forget(self, call: ApiCall) -> None:
        """Drop the writes ``call`` recorded that no later write has replaced."""
        mine = (call.caller_id, call.arrival_time_ns)
        for path in call.parameter_paths:
            if self._writes.get(path) == mine:
                del self._writes[path]


class Pml:
    """API dispatcher: one arrival-ordered FIFO, lockout, boundary-published writes."""

    def __init__(self, clock=None):
        self.clock = clock or MonotonicClock()
        self.lockout = LockoutRegistry()
        self._plugins: dict[str, PluginManifest] = {}
        self._handlers: dict[str, Callable[[ApiCall], object]] = {}
        self._queue: deque[Completion] = deque()  # accepted calls; guarded by _lock
        self._call_ids = itertools.count(1)
        self._reg_ids = itertools.count(1)
        self._registrations: dict[int, TelemetryRegistration] = {}
        self._lock = threading.RLock()
        # fast-path state, all guarded by _lock
        self._next_periodic_ns = -math.inf  # earliest periodic deadline; -inf: rescan
        # (registry, published epoch) at the last change-record scan; None: rescan
        self._records_seen: Optional[tuple] = None
        self.callback_errors = 0  # done-callbacks that raised; their calls still stand

    # -- registration ---------------------------------------------------------

    def register_plugin(
        self, manifest: PluginManifest, handlers: Mapping[str, Callable[[ApiCall], object]]
    ) -> PluginManifest:
        with self._lock:
            for api_id in manifest.provided_api_ids:
                if api_id in self._handlers:
                    raise DuplicateApi(api_id)
                if api_id not in handlers:
                    raise ValidationFailed(f"manifest lists {api_id} but no handler given")
            self._plugins[manifest.plugin_id] = manifest
            for api_id in manifest.provided_api_ids:
                self._handlers[api_id] = handlers[api_id]
            return manifest

    def plugin_ids(self) -> set[str]:
        return set(self._plugins)

    def set_lockout_window(self, window_ms: float) -> None:
        if window_ms < 0:
            raise ValidationFailed("lockout window must be >= 0")
        self.lockout.window_ms = window_ms

    # -- dispatch ---------------------------------------------------------------

    def invoke(
        self,
        api_id: str,
        caller_id: str,
        payload: object,
        parameter_paths: Iterable[str] = (),
    ) -> Completion:
        """Queue a call. Lockout rejections fail fast; bodies run at the boundary."""
        with self._lock:
            if api_id not in self._handlers:
                raise UnknownApi(api_id)
            now_ns = self.clock.now_ns()
            call = ApiCall(
                call_id=next(self._call_ids),
                api_id=api_id,
                caller_id=caller_id,
                payload=payload,
                arrival_time_ns=now_ns,
                parameter_paths=tuple(parameter_paths),
            )
            completion = Completion(call)
            try:
                self.lockout.check_and_record(call.parameter_paths, caller_id, now_ns)
            except LockedOut as exc:
                completion._resolve(error=exc)
                return completion
            self._queue.append(completion)
            return completion

    def pending(self) -> int:
        with self._lock:
            return len(self._queue)

    def cancel_calls(self, caller_id: str, error: Exception) -> int:
        """Take the caller's queued calls off the FIFO, drop the lockout
        writes they recorded, and resolve each with ``error``; returns how
        many. A call already taken by a boundary stands."""
        with self._lock:
            cancelled = [c for c in self._queue if c.call.caller_id == caller_id]
            self._queue = deque(c for c in self._queue if c.call.caller_id != caller_id)
            for c in cancelled:
                self.lockout.forget(c.call)
        return self._complete([(c, None, error) for c in cancelled])

    def drain(self) -> int:
        """Execute every queued call in arrival order. Returns the number executed.

        Calls on different APIs interleave as they arrived; each runs the
        handler of its own ``api_id``; their completions resolve, in the same
        order, once the whole batch has run. With nothing queued this returns
        0 at once. Calls invoked while the batch runs wait for the next drain.
        """
        return self._complete(self._execute())

    def tti_boundary(self, registry: SliceRegistry) -> RegistrySnapshot:
        """Drain queued calls and publish their effects as one new epoch.

        The completions resolve only after the publish, so a done-callback
        (an ack, say) never runs before its effect is visible to readers.
        With no call queued and no unpublished write it returns the published
        snapshot at once; a call queued concurrently waits for the next one.
        """
        if not self._boundary_has_work(registry):
            return registry.published
        executed = self._execute()
        snap = registry.publish()
        if executed:
            self._complete(executed)
        return snap

    def _boundary_has_work(self, registry: SliceRegistry) -> bool:
        """True if :meth:`tti_boundary` would run a call or publish an epoch."""
        return bool(self._queue) or registry.has_unpublished()

    def next_wake_ns(self, registry: SliceRegistry) -> float:
        """When :meth:`tti_boundary` or the telemetry scans next have work.

        0 (now) if a call is queued, ``registry`` holds unpublished writes, or
        a published epoch or registration change has not been scanned for
        change records; otherwise the earliest periodic deadline, ``inf``
        with none. Before then, with no new input, :meth:`tti_boundary`,
        :meth:`due_periodic` and :meth:`new_change_records` take their fast
        paths, which test the same state. Takes no lock: for single-threaded
        drivers.
        """
        if (self._boundary_has_work(registry)
                or (registry, registry.published.epoch) != self._records_seen):
            return 0
        return self._next_periodic_ns

    def _execute(self) -> list[tuple[Completion, object, Optional[Exception]]]:
        """Run the queued batch's handlers in arrival order, resolving nothing."""
        with self._lock:
            if not self._queue:
                return []
            batch, self._queue = self._queue, deque()
        executed = []
        for completion in batch:
            handler = self._handlers[completion.call.api_id]
            try:
                executed.append((completion, handler(completion.call), None))
            except Exception as exc:  # handler errors propagate via the completion
                executed.append((completion, None, exc))
        return executed

    def _complete(self, executed: list[tuple[Completion, object, Optional[Exception]]]) -> int:
        """Resolve each executed call once, in order; a done-callback that
        raises is counted in :attr:`callback_errors` and changes no outcome."""
        raised = 0
        for completion, result, error in executed:
            raised += completion._resolve(result, error)
        if raised:
            with self._lock:
                self.callback_errors += raised
        return len(executed)

    # -- telemetry registrations -------------------------------------------------

    def add_registration(self, slice_ids: Sequence[int], trigger: Mapping) -> TelemetryRegistration:
        kind, period_ns = trigger.get("kind"), None
        if kind == "periodic":
            period = trigger.get("period_ms")
            if not is_period_ms(period):
                raise BadPeriod(f"period_ms {period!r}")
            period_ns = ms_to_ns(period)
        elif kind != "event":
            raise ValidationFailed(f"unknown trigger kind {kind!r}")
        reg = TelemetryRegistration(
            reg_id=next(self._reg_ids),
            slice_ids=tuple(slice_ids),
            period_ns=period_ns,
            next_due_ns=self.clock.now_ns() + (period_ns or 0),
        )
        with self._lock:
            self._registrations[reg.reg_id] = reg
            self._registrations_changed()
        return reg

    def drop_registration(self, reg_id: int) -> None:
        with self._lock:
            if self._registrations.pop(reg_id, None) is not None:
                self._registrations_changed()

    def _registrations_changed(self) -> None:
        """Invalidate both telemetry fast paths; the caller holds ``_lock``."""
        self._next_periodic_ns = -math.inf
        self._records_seen = None

    def due_periodic(self, now_ns: int) -> list[TelemetryRegistration]:
        """Periodic registrations whose period elapsed; advances their deadlines.

        Deadlines move only here and in :meth:`add_registration`, so the
        earliest one is remembered from the last scan: before it, nothing can
        be due and the scan is skipped. Adding or dropping a registration
        forgets it.
        """
        with self._lock:
            if now_ns < self._next_periodic_ns:
                return []
            due = []
            earliest = None
            for reg in self._registrations.values():
                period_ns = reg.period_ns
                if period_ns is None:
                    continue
                if now_ns >= reg.next_due_ns:
                    due.append(reg)
                    # to the first deadline after now_ns, in one step however
                    # many periods the clock skipped
                    reg.next_due_ns += ((now_ns - reg.next_due_ns) // period_ns + 1) * period_ns
                if earliest is None or reg.next_due_ns < earliest:
                    earliest = reg.next_due_ns
            # with no periodic registration, nothing is due until one is added
            self._next_periodic_ns = earliest if earliest is not None else math.inf
        return due

    def new_change_records(
        self, registry: SliceRegistry
    ) -> list[tuple[TelemetryRegistration, ContextChangeRecord]]:
        """Per event-triggered registration, the change records it has not seen.

        Records become visible only when :meth:`SliceRegistry.publish` raises
        the watermark, which starts a new epoch. So the answer can differ from
        the last call's only if the published epoch or the registration set
        changed since; otherwise every cursor is already at the watermark and
        the scan is skipped.
        """
        with self._lock:
            seen = (registry, registry.published.epoch)
            if seen == self._records_seen:
                return []
            self._records_seen = seen
            regs = [r for r in self._registrations.values() if r.period_ns is None]
        fired = []
        for reg in regs:
            targets = reg.slice_ids or tuple(registry.slice_ids())
            for sid in targets:
                if not registry.has_slice(sid):
                    continue
                cursor = reg.change_cursor.get(sid, 0)
                for record in registry.records_since(sid, cursor):
                    fired.append((reg, record))
                    reg.change_cursor[sid] = record.seq
        return fired


# -- the slice-control plugin ---------------------------------------------------

FS_PLUGIN_ID = "fs"
API_TELEMETRY_REGISTRATION = "fs.telemetry_registration"
API_CONTROL = "fs.control"

FS_API_IDS = (API_TELEMETRY_REGISTRATION, API_CONTROL)


def control_parameter_paths(params: Mapping) -> list[str]:
    """Parameter paths a slice/UE control request writes (lockout granularity)."""
    paths = []
    for entry in params.get("slices", []):
        sid = entry.get("slice_id")
        if "state" in entry or any(
            k in entry for k in ("dedicated_rb", "prioritized_rb", "shared_priority")
        ):
            paths.append(f"slice/{sid}/rrc")
        if "fd_scheduler" in entry:
            paths.append(f"slice/{sid}/scheduler")
        if "hu_associations" in entry:
            paths.append(f"slice/{sid}/hu_assoc")
    for entry in params.get("ues", []):
        paths.append(f"drb/{entry.get('drb_id')}/priority")
    return paths


class FsApi:
    """The FS plugin's two mediated APIs: telemetry registration and control.

    Reports are not mediated: :class:`SliceRegistry` builds them from the
    published snapshot. ``fs_control_request`` is all-or-nothing: every
    action in the request is validated against live state before anything
    is applied.

    The handlers registered with ``pml`` live on a separate object that holds
    ``pml`` only weakly, so ``pml`` and this object form no reference cycle
    and are freed by reference counting alone.
    """

    def __init__(self, pml: Pml, registry: SliceRegistry,
                 algorithms: fssf.AlgorithmRegistry = fssf.DEFAULT_REGISTRY):
        self.pml = pml
        handlers = _FsHandlers(weakref.ref(pml), registry, algorithms)
        manifest = PluginManifest(plugin_id=FS_PLUGIN_ID, provided_api_ids=FS_API_IDS)
        pml.register_plugin(
            manifest,
            {
                API_TELEMETRY_REGISTRATION: handlers.registration,
                API_CONTROL: handlers.control,
            },
        )

    # one invoke wrapper per API, called by the agent's managers --------------

    def fs_telemetry_registration_request(self, caller_id: str, targets: Mapping,
                                          trigger: Mapping) -> Completion:
        return self.pml.invoke(API_TELEMETRY_REGISTRATION, caller_id,
                               {"targets": dict(targets), "trigger": dict(trigger)})

    def fs_control_request(self, caller_id: str, params: Mapping) -> Completion:
        return self.pml.invoke(API_CONTROL, caller_id, dict(params),
                               parameter_paths=control_parameter_paths(params))


class _FsHandlers:
    """:class:`FsApi`'s handlers; ``pml`` is a weak reference to the caller."""

    def __init__(self, pml: weakref.ref[Pml], registry: SliceRegistry,
                 algorithms: fssf.AlgorithmRegistry):
        self.pml = pml
        self.registry = registry
        self.algorithms = algorithms
        self._trigger: Optional[ChangeTrigger] = None  # the last control's

    def _targets(self, payload: Mapping) -> list[int]:
        """The target slice ids; every target slice and UE must exist."""
        targets = payload.get("targets", {})
        slice_ids = list(targets.get("slice_ids", []))
        for sid in slice_ids:
            if not self.registry.has_slice(sid):
                raise UnknownId(f"slice {sid}")
        for uid in targets.get("ue_ids", []):
            if not self.registry.has_ue(uid):
                raise UnknownId(f"ue {uid}")
        return slice_ids

    def registration(self, call: ApiCall) -> dict:
        reg = self.pml().add_registration(self._targets(call.payload), call.payload["trigger"])
        return {"reg_id": reg.reg_id}

    def control(self, call: ApiCall) -> dict:
        params = call.payload
        # one trigger while the same caller writes, shared by its change records
        trigger = self._trigger
        if trigger is None or trigger.source != call.caller_id:
            trigger = self._trigger = ChangeTrigger("FS Control Request", call.caller_id)
        ue_actions = list(params.get("ues", []))
        staged = self._validate_control(list(params.get("slices", [])), ue_actions)
        # apply shrinking footprints first so interim sums stay feasible
        staged.sort(key=lambda action: action[2].footprint()
                    - self.registry.get_slice(action[0]["slice_id"]).rrc.footprint())
        applied = 0
        for entry, new_state, new_rrc in staged:
            applied += self._apply_slice_action(entry, new_state, new_rrc, trigger)
        for entry in ue_actions:
            self.registry.set_bearer_priority(entry["drb_id"], entry["bearer_priority"], trigger)
            applied += 1
        return {"applied": applied}

    @staticmethod
    def _target_rrc(ctx, entry: Mapping) -> RadioResourceConfig:
        """The requested config; the slice's own when equal to it, so a
        control that changes none stores no new object."""
        # an explicit state change replaces the resource assignment with
        # exactly what the request carries (shared priority is sticky)
        base = (RadioResourceConfig(shared_priority=ctx.rrc.shared_priority)
                if "state" in entry else ctx.rrc)
        rrc = base._replace(**{k: entry[k] for k in RadioResourceConfig._fields if k in entry})
        return ctx.rrc if rrc == ctx.rrc else rrc

    def _validate_control(self, slice_actions, ue_actions
                          ) -> list[tuple[Mapping, SliceState, RadioResourceConfig]]:
        """Check every action against live state; each slice action comes back
        staged as ``(entry, new_state, new_rrc)``, decided from the state before
        the request."""
        # a request without slice actions changes no footprint, and the
        # registry already keeps the sum within the cell: skip the check
        footprints = {
            sid: self.registry.get_slice(sid).rrc.footprint() for sid in self.registry.slice_ids()
        } if slice_actions else {}
        staged = []
        for entry in slice_actions:
            sid = entry.get("slice_id")
            if sid is None or not self.registry.has_slice(sid):
                raise UnknownId(f"slice {sid}")
            # actions are decided from the state before the request, so a
            # second one on the same slice would replace the first unchecked
            if any(staged_entry["slice_id"] == sid for staged_entry, _, _ in staged):
                raise ValidationFailed(f"slice {sid} appears twice in one request")
            ctx = self.registry.get_slice(sid)
            new_state = SliceState(entry["state"]) if "state" in entry else (
                ctx.state if ctx.state is not SliceState.IDLE else ctx.default_active_state
            )
            new_rrc = self._target_rrc(ctx, entry)
            new_rrc.validate_for_state(new_state)
            if "fd_scheduler" in entry and not self.algorithms.known(entry["fd_scheduler"]):
                raise ValidationFailed(f"unknown scheduler {entry['fd_scheduler']!r}")
            footprints[sid] = new_rrc.footprint()
            staged.append((entry, new_state, new_rrc))
        if sum(footprints.values()) > self.registry.total_rb:
            raise OverSubscription(
                f"request would reserve {sum(footprints.values())} of {self.registry.total_rb} RBs"
            )
        for entry in ue_actions:
            drb = entry.get("drb_id")
            if drb is None or not self.registry.has_drb(drb):
                raise UnknownId(f"drb {drb}")
            if entry.get("bearer_priority", 0) < 1:
                raise ValidationFailed("bearer_priority must be >= 1")
        return staged

    def _apply_slice_action(self, entry: Mapping, new_state: SliceState,
                            new_rrc: RadioResourceConfig, trigger: ChangeTrigger) -> int:
        count = 0
        if {"state", "dedicated_rb", "prioritized_rb", "shared_priority"} & set(entry):
            self.registry.request_state_change(entry["slice_id"], new_state, new_rrc, trigger)
            count += 1
        if "fd_scheduler" in entry or "hu_associations" in entry:
            self.registry.update_slice(
                entry["slice_id"],
                trigger,
                fd_scheduler=entry.get("fd_scheduler"),
                hu_associations=entry.get("hu_associations"),
            )
            count += 1
        return count
