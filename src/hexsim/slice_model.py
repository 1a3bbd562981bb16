"""Slice context store: slices, bearers, UEs, and the slice lifecycle state machine.

The registry is single-writer: every mutation is expected to arrive serialized
through the mediation-layer dispatch queue (or a single-threaded driver).
Readers never touch live state directly; they read the snapshot produced by
:meth:`SliceRegistry.publish`, which the TTI driver refreshes at tick
boundaries so that a half-applied control request is never observable.

Bearer statistics are the one exception: they are high-rate telemetry owned by
the radio simulator, updated in place between publishes, and reports read the
current values. Configuration fields (state, resource config, scheduler,
bearer priority) are only visible via the published snapshot.

Publishing is copy-on-write. The write methods record which slice, bearer and
UE ids they touched; a publish copies only those objects and shares every
other object (and every map with no touched id) with the previous snapshot,
so a one-change epoch costs one copy whatever the registry's size. A
published object is never mutated afterwards, so sharing it is safe.

Reports are compact sorted-key JSON text (:meth:`SliceRegistry.report_plan`).
Because a published object never changes, the first report to read it builds
its static text and keeps it in its ``text`` slot: a bearer's as a format
string with a hole per statistic, a slice's or UE's as the keys after its
bearer list. A publish copies every object it touches, and a copy starts with
no text, so text lives and dies with the published object it describes. Only
the agent's loop thread builds reports, and two builds of one object's text
are the same string, so the slot needs no lock.
"""

from __future__ import annotations

import enum
import json
from collections import deque
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .e2lite import JSON_ENCODER
from .errors import (
    DuplicateDrb,
    DuplicateSliceId,
    DuplicateUe,
    InvalidResourceConfig,
    OverSubscription,
    UnknownId,
)

MCS_MAX = 28
CQI_MAX = 15
CHANGE_LOG_DEPTH = 4096  # change records kept per slice


class SliceState(enum.Enum):
    IDLE = "idle"
    DEDICATED = "dedicated"
    PRIORITIZED = "prioritized"
    SHARED = "shared"
    HYBRID = "hybrid"


ACTIVE_STATES = frozenset(
    {SliceState.DEDICATED, SliceState.PRIORITIZED, SliceState.SHARED, SliceState.HYBRID}
)


class OutcomeKind(enum.Enum):
    HU_ASSOC = "hu_assoc"
    SCHEDULER = "scheduler"
    RESOURCE_CONFIG = "resource_config"
    BEARER_LIST = "bearer_list"


class RadioResourceConfig(NamedTuple):
    """Per-slice radio resource parameters; which fields matter depends on state."""

    dedicated_rb: int = 0
    prioritized_rb: int = 0
    shared_priority: int = 1

    def validate(self) -> None:
        if self.dedicated_rb < 0 or self.prioritized_rb < 0:
            raise InvalidResourceConfig("resource block counts must be >= 0")
        if self.shared_priority < 1:
            raise InvalidResourceConfig("shared_priority must be >= 1")

    def validate_for_state(self, state: SliceState) -> None:
        """Dedicated slices carry no prioritized RBs, prioritized no dedicated,
        shared neither; hybrid may set all three."""
        self.validate()
        if state is SliceState.DEDICATED and self.prioritized_rb != 0:
            raise InvalidResourceConfig("dedicated slice must have prioritized_rb = 0")
        if state is SliceState.PRIORITIZED and self.dedicated_rb != 0:
            raise InvalidResourceConfig("prioritized slice must have dedicated_rb = 0")
        if state is SliceState.SHARED and (self.dedicated_rb or self.prioritized_rb):
            raise InvalidResourceConfig("shared slice must have dedicated_rb = prioritized_rb = 0")
        if state is SliceState.IDLE and (self.dedicated_rb or self.prioritized_rb):
            raise InvalidResourceConfig("idle slice holds no resource assignment")

    def footprint(self) -> int:
        return self.dedicated_rb + self.prioritized_rb


class BearerStats:
    __slots__ = ("throughput_mbps", "packet_delay_ms", "packet_loss_rate", "buffer_occupancy_bytes")

    def __init__(self, throughput_mbps: float = 0.0, packet_delay_ms: float = 0.0,
                 packet_loss_rate: float = 0.0, buffer_occupancy_bytes: float = 0.0):
        self.throughput_mbps = throughput_mbps
        self.packet_delay_ms = packet_delay_ms
        self.packet_loss_rate = packet_loss_rate
        self.buffer_occupancy_bytes = buffer_occupancy_bytes


class Bearer:
    __slots__ = ("drb_id", "ue_id", "slice_id", "bearer_priority", "qos_5qi", "stats", "text")

    def __init__(self, drb_id: int, ue_id: int, slice_id: int, bearer_priority: int = 1,
                 qos_5qi: int = 9, stats: Optional[BearerStats] = None):
        self.drb_id = drb_id
        self.ue_id = ue_id
        self.slice_id = slice_id
        self.bearer_priority = bearer_priority
        self.qos_5qi = qos_5qi
        self.stats = BearerStats() if stats is None else stats
        self.text = None  # a published copy's report text, built by report_plan

    def validate(self) -> None:
        if self.bearer_priority < 1:
            raise InvalidResourceConfig("bearer_priority must be >= 1")


class UEContext:
    __slots__ = ("ue_id", "mcs", "cqi", "bler", "bearers", "text")

    def __init__(self, ue_id: int, mcs: int = MCS_MAX, cqi: int = CQI_MAX, bler: float = 0.0,
                 bearers: Optional[list[int]] = None):
        self.ue_id = ue_id
        self.mcs = mcs
        self.cqi = cqi
        self.bler = bler
        self.bearers = [] if bearers is None else bearers
        self.text = None

    def validate(self) -> None:
        if not 0 <= self.mcs <= MCS_MAX:
            raise InvalidResourceConfig(f"mcs out of range: {self.mcs}")
        if not 0 <= self.cqi <= CQI_MAX:
            raise InvalidResourceConfig(f"cqi out of range: {self.cqi}")
        if not 0.0 <= self.bler <= 1.0:
            raise InvalidResourceConfig(f"bler out of range: {self.bler}")


class SliceContext:
    __slots__ = ("slice_id", "state", "default_active_state", "rrc", "fd_scheduler",
                 "hu_associations", "bearers", "text")

    def __init__(self, slice_id: int, state: SliceState, default_active_state: SliceState,
                 rrc: RadioResourceConfig, fd_scheduler: str,
                 hu_associations: Optional[set[str]] = None, bearers: Optional[list[int]] = None):
        self.slice_id = slice_id
        self.state = state
        self.default_active_state = default_active_state
        self.rrc = rrc
        self.fd_scheduler = fd_scheduler
        self.hu_associations = set() if hu_associations is None else hu_associations
        self.bearers = [] if bearers is None else bearers
        self.text = None


class ChangeTrigger(NamedTuple):
    """What caused a context change: procedure name plus the originating entity."""

    procedure: str
    source: str


class StateConfig(NamedTuple):
    """A slice's state value and resource config, as one outcome value."""

    state: str
    rrc: RadioResourceConfig


class BearerPriority(NamedTuple):
    drb_id: int
    bearer_priority: int


class ChangeOutcome(NamedTuple):
    """``before`` and ``after`` hold immutable values (None, a str, a tuple
    or a NamedTuple) that the registry may share; :func:`record_to_dict`
    renders them."""

    kind: OutcomeKind
    before: object
    after: object


class ContextChangeRecord(NamedTuple):
    seq: int
    slice_id: int
    trigger: ChangeTrigger
    outcomes: tuple[ChangeOutcome, ...]


def state_after_drb_added(state: SliceState, default_active_state: SliceState) -> SliceState:
    """Idle slices wake into their configured default state; active slices stay put."""
    if state is SliceState.IDLE:
        return default_active_state
    return state


def state_after_last_drb_removed(state: SliceState) -> tuple[SliceState, Optional[SliceState]]:
    """Next state once the bearer count hits zero, plus the new default if it resets.

    Prioritized and shared slices fall back to idle with a shared default;
    hybrid collapses to dedicated, keeping only its dedicated assignment;
    dedicated slices keep their state (and their resources).
    """
    if state is SliceState.PRIORITIZED or state is SliceState.SHARED:
        return SliceState.IDLE, SliceState.SHARED
    if state is SliceState.HYBRID:
        return SliceState.DEDICATED, None
    return state, None


def _plain(value):
    """An outcome value as report JSON: a NamedTuple as an object, a tuple as
    a list."""
    if isinstance(value, tuple):
        if hasattr(value, "_fields"):
            return {k: _plain(v) for k, v in zip(value._fields, value)}
        return list(value)
    return value


def record_to_dict(record: ContextChangeRecord) -> dict:
    return {
        "slice_id": record.slice_id,
        "seq": record.seq,
        "trigger": {"procedure": record.trigger.procedure, "source": record.trigger.source},
        "outcomes": [
            {"kind": o.kind.value, "before": _plain(o.before), "after": _plain(o.after)}
            for o in record.outcomes
        ],
    }


def _copy_slice(s: SliceContext) -> SliceContext:
    return SliceContext(s.slice_id, s.state, s.default_active_state, s.rrc, s.fd_scheduler,
                        set(s.hu_associations), list(s.bearers))


def _copy_bearer(b: Bearer) -> Bearer:
    """A copy that keeps ``.stats``: it aliases the live telemetry."""
    return Bearer(b.drb_id, b.ue_id, b.slice_id, b.bearer_priority, b.qos_5qi, b.stats)


def _copy_ue(ue: UEContext) -> UEContext:
    return UEContext(ue.ue_id, ue.mcs, ue.cqi, ue.bler, list(ue.bearers))


def _copy_on_write(previous: dict, live: dict, dirty: set[int], copy) -> dict:
    """``previous`` with each dirty id re-copied from ``live`` (or dropped if
    gone); ``previous`` itself when nothing is dirty. Clears ``dirty``."""
    if not dirty:
        return previous
    out = dict(previous)
    for key in dirty:
        obj = live.get(key)
        if obj is None:
            out.pop(key, None)
        else:
            out[key] = copy(obj)
    dirty.clear()
    return out


# the BearerStats fields a report carries, in the sorted order of their keys
_STATS = ("buffer_occupancy_bytes", "packet_delay_ms", "packet_loss_rate", "throughput_mbps")
_stat_values = attrgetter(*_STATS)
_HOLE = JSON_ENCODER.encode("\0")  # the placeholder value a hole replaces


def _static_text(doc: dict) -> str:
    """``doc`` as report JSON, with "%" escaped so it can be a format string."""
    return JSON_ENCODER.encode(doc).replace("%", "%%")


def _bearer_text(b: Bearer) -> str:
    doc = {"drb_id": b.drb_id, "ue_id": b.ue_id, "slice_id": b.slice_id,
           "bearer_priority": b.bearer_priority, "qos_5qi": b.qos_5qi}
    doc.update(dict.fromkeys(_STATS, "\0"))
    return _static_text(doc).replace(_HOLE, "%s")


# a slice's or UE's keys after "bearers", which sorts first in both
def _slice_tail(s: SliceContext) -> str:
    return _static_text({"slice_id": s.slice_id, "state": s.state.value,
                         "hu_associations": sorted(s.hu_associations),
                         "fd_scheduler": s.fd_scheduler, "rrc": s.rrc._asdict()})[1:]


def _ue_tail(ue: UEContext) -> str:
    return _static_text({"ue_id": ue.ue_id, "mcs": ue.mcs, "cqi": ue.cqi, "bler": ue.bler})[1:]


def _text(obj, make) -> str:
    """``make(obj)``, built once per published object and kept on it."""
    if obj.text is None:
        obj.text = make(obj)
    return obj.text


def fill_report(fmt: str, stats: Sequence[BearerStats]) -> str:
    """The report text of a :meth:`SliceRegistry.report_plan`. Every
    statistic is formatted by one encode of them all, so each reads exactly
    as the encoder writes it (NaN, Infinity and ints included)."""
    values = [v for s in stats for v in _stat_values(s)]
    if not values:
        return fmt % ()
    return fmt % tuple(JSON_ENCODER.encode(values)[1:-1].split(","))


class RegistrySnapshot(NamedTuple):
    """Immutable view of slice/bearer/UE configuration published at a TTI boundary.

    Consecutive snapshots share every object, and every map, that no write
    touched between their publishes; a touched object is a fresh copy, never
    the live one. Objects are never mutated once published, but for the report
    text a report keeps in ``text``. The one alias is ``Bearer.stats``, which
    is the live :class:`BearerStats` so reports read current telemetry.
    """

    epoch: int
    slices: dict[int, SliceContext]
    bearers: dict[int, Bearer]
    ues: dict[int, UEContext]
    record_watermark: dict[int, int]


class SliceRegistry:
    """Live slice context plus the epoch-published read snapshot."""

    def __init__(self, total_rb: int):
        if total_rb <= 0:
            raise ValueError("total_rb must be positive")
        self.total_rb = total_rb
        self._slices: dict[int, SliceContext] = {}
        self._bearers: dict[int, Bearer] = {}
        self._ues: dict[int, UEContext] = {}
        self._records: dict[int, deque[ContextChangeRecord]] = {}
        self._seq: dict[int, int] = {}
        # ids touched by writes since the last publish; any id here means a new epoch
        self._dirty_slices: set[int] = set()
        self._dirty_bearers: set[int] = set()
        self._dirty_ues: set[int] = set()
        self._published = RegistrySnapshot(0, {}, {}, {}, {})

    # -- read side ----------------------------------------------------------

    @property
    def published(self) -> RegistrySnapshot:
        return self._published

    def has_unpublished(self) -> bool:
        """True if a write since the last publish makes the next one a new epoch."""
        return bool(self._dirty_slices or self._dirty_bearers or self._dirty_ues)

    def publish(self) -> RegistrySnapshot:
        """Swap in a fresh read snapshot; a no-op (same epoch) if nothing changed.

        Only the ids touched since the last publish are copied (or dropped,
        if removed); everything else is shared with the previous snapshot.
        """
        if not self.has_unpublished():
            return self._published
        prev = self._published
        snap = RegistrySnapshot(
            epoch=prev.epoch + 1,
            slices=_copy_on_write(prev.slices, self._slices, self._dirty_slices, _copy_slice),
            bearers=_copy_on_write(prev.bearers, self._bearers, self._dirty_bearers, _copy_bearer),
            ues=_copy_on_write(prev.ues, self._ues, self._dirty_ues, _copy_ue),
            record_watermark=dict(self._seq),
        )
        self._published = snap
        return snap

    def snapshot(self, slice_ids: Iterable[int] = (), ue_ids: Iterable[int] = ()) -> dict:
        """Point-in-time report for the given targets, from the published
        epoch: the decoded text of :meth:`report_plan`, as the agent sends it."""
        _, fmt, stats = self.report_plan(slice_ids, ue_ids)
        return json.loads(fill_report(fmt, stats))

    def report_plan(self, slice_ids: Iterable[int] = (), ue_ids: Iterable[int] = ()
                    ) -> tuple[RegistrySnapshot, str, list[BearerStats]]:
        """The report of the given targets in the published epoch, unfilled:
        the snapshot read, a format string with a ``%s`` hole per bearer
        statistic, and the live stats that fill the holes, in order (see
        :func:`fill_report`). Raises :class:`UnknownId` for an id not in it."""
        snap = self._published
        stats: list[BearerStats] = []
        lists = []
        for kind, ids, table, tail_of in (("slices", slice_ids, snap.slices, _slice_tail),
                                          ("ues", ue_ids, snap.ues, _ue_tail)):
            entries = []
            for i in ids:
                obj = table.get(i)
                if obj is None:
                    raise UnknownId(f"{kind[:-1]} {i}")
                bearers = [snap.bearers[d] for d in sorted(obj.bearers)]
                stats.extend(b.stats for b in bearers)
                entries.append('{"bearers":[' + ",".join(_text(b, _bearer_text) for b in bearers)
                               + "]," + _text(obj, tail_of))
            lists.append(",".join(entries))
        return snap, '{"slices":[%s],"ues":[%s]}' % tuple(lists), stats

    def change_report(self, slice_ids: Sequence[int] = ()) -> dict:
        """Every published change record of ``slice_ids`` (of all slices, in
        id order, with none). Like :meth:`snapshot`, it reads one published
        epoch and raises :class:`UnknownId` for an id not in it."""
        snap = self._published
        records = []
        for sid in slice_ids or sorted(snap.slices):
            if sid not in snap.slices:
                raise UnknownId(f"slice {sid}")
            records.extend(record_to_dict(r) for r in self.records_since(sid))
        return {"records": records}

    def records_since(self, slice_id: int, since_seq: int = 0) -> list[ContextChangeRecord]:
        """All published change records for a slice with seq > since_seq, in order."""
        if slice_id not in self._records:
            raise UnknownId(f"slice {slice_id}")
        watermark = self._published.record_watermark.get(slice_id, 0)
        # tuple() copies the deque in one call, so a writer appending on
        # another thread cannot interrupt the iteration
        return [r for r in tuple(self._records[slice_id]) if since_seq < r.seq <= watermark]

    # -- write side ---------------------------------------------------------

    def create_slice(
        self,
        slice_id: int,
        default_active_state: SliceState = SliceState.SHARED,
        rrc: Optional[RadioResourceConfig] = None,
        fd_scheduler: str = "priority_weighted",
        hu_associations: Iterable[str] = (),
        trigger: ChangeTrigger = ChangeTrigger("create_slice", "local"),
    ) -> SliceContext:
        if slice_id in self._slices:
            raise DuplicateSliceId(f"slice {slice_id}")
        if default_active_state not in ACTIVE_STATES:
            raise InvalidResourceConfig("default_active_state must be an active state")
        rrc = rrc or RadioResourceConfig()
        rrc.validate_for_state(default_active_state)
        self._check_footprint(rrc, exclude=slice_id)
        ctx = SliceContext(
            slice_id=slice_id,
            state=SliceState.IDLE,
            default_active_state=default_active_state,
            rrc=rrc,
            fd_scheduler=fd_scheduler,
            hu_associations=set(hu_associations),
        )
        self._slices[slice_id] = ctx
        self._records[slice_id] = deque(maxlen=CHANGE_LOG_DEPTH)
        self._seq[slice_id] = 0
        self._record(
            slice_id,
            trigger,
            [ChangeOutcome(OutcomeKind.RESOURCE_CONFIG, None, rrc)],
        )
        self._dirty_slices.add(slice_id)
        return ctx

    def add_ue(self, ue: UEContext) -> UEContext:
        ue.validate()
        if ue.ue_id in self._ues:
            raise DuplicateUe(f"ue {ue.ue_id} already exists")
        self._ues[ue.ue_id] = ue
        self._dirty_ues.add(ue.ue_id)
        return ue

    def remove_ue(self, ue_id: int) -> None:
        ue = self._ues.get(ue_id)
        if ue is None:
            raise UnknownId(f"ue {ue_id}")
        if ue.bearers:
            raise InvalidResourceConfig(f"ue {ue_id} still has bearers")
        del self._ues[ue_id]
        self._dirty_ues.add(ue_id)

    def add_drb(self, slice_id: int, bearer: Bearer, trigger: ChangeTrigger) -> SliceContext:
        ctx = self.get_slice(slice_id)
        bearer.validate()
        if bearer.drb_id in self._bearers:
            raise DuplicateDrb(f"drb {bearer.drb_id}")
        if bearer.slice_id != slice_id:
            raise InvalidResourceConfig("bearer.slice_id does not match target slice")
        ue = self._ues.get(bearer.ue_id)
        if ue is None:
            raise UnknownId(f"ue {bearer.ue_id}")
        before = tuple(ctx.bearers)
        self._bearers[bearer.drb_id] = bearer
        ctx.bearers.append(bearer.drb_id)
        ue.bearers.append(bearer.drb_id)
        outcomes = [ChangeOutcome(OutcomeKind.BEARER_LIST, before, tuple(ctx.bearers))]
        new_state = state_after_drb_added(ctx.state, ctx.default_active_state)
        if new_state is not ctx.state:
            outcomes.append(
                ChangeOutcome(OutcomeKind.RESOURCE_CONFIG, ctx.state.value, new_state.value)
            )
            ctx.state = new_state
        self._record(slice_id, trigger, outcomes)
        self._dirty_slices.add(slice_id)
        self._dirty_bearers.add(bearer.drb_id)
        self._dirty_ues.add(bearer.ue_id)
        return ctx

    def remove_drb(self, slice_id: int, drb_id: int, trigger: ChangeTrigger) -> SliceContext:
        ctx = self.get_slice(slice_id)
        if drb_id not in ctx.bearers:
            raise UnknownId(f"drb {drb_id} not on slice {slice_id}")
        bearer = self._bearers.pop(drb_id)
        before = tuple(ctx.bearers)
        ctx.bearers.remove(drb_id)
        ue = self._ues.get(bearer.ue_id)
        if ue is not None and drb_id in ue.bearers:
            ue.bearers.remove(drb_id)
            self._dirty_ues.add(ue.ue_id)
        outcomes = [ChangeOutcome(OutcomeKind.BEARER_LIST, before, tuple(ctx.bearers))]
        if not ctx.bearers:
            outcomes.extend(self._collapse_empty(ctx))
        self._record(slice_id, trigger, outcomes)
        self._dirty_slices.add(slice_id)
        self._dirty_bearers.add(drb_id)
        return ctx

    def _collapse_empty(self, ctx: SliceContext) -> list[ChangeOutcome]:
        """Apply the zero-bearer transition and its resource side effects."""
        new_state, new_default = state_after_last_drb_removed(ctx.state)
        outcomes: list[ChangeOutcome] = []
        if new_state is ctx.state:
            return outcomes
        before_rrc = ctx.rrc
        outcomes.append(ChangeOutcome(OutcomeKind.RESOURCE_CONFIG, ctx.state.value, new_state.value))
        if new_state is SliceState.IDLE:
            # the slice gives up its resource assignment entirely so a later
            # reactivation as shared satisfies the shared-state field rules
            ctx.rrc = ctx.rrc._replace(dedicated_rb=0, prioritized_rb=0)
        elif new_state is SliceState.DEDICATED:
            # hybrid collapse: dedicated assignment survives, the prioritized
            # remainder returns to the pool; shared_priority is retained as
            # stored data for a lossless return to hybrid
            ctx.rrc = ctx.rrc._replace(prioritized_rb=0)
        if new_default is not None:
            ctx.default_active_state = new_default
        ctx.state = new_state
        if ctx.rrc != before_rrc:
            outcomes.append(ChangeOutcome(OutcomeKind.RESOURCE_CONFIG, before_rrc, ctx.rrc))
        return outcomes

    def request_state_change(
        self,
        slice_id: int,
        new_state: SliceState,
        new_rrc: RadioResourceConfig,
        trigger: ChangeTrigger,
    ) -> SliceContext:
        """Replace state and resource config together (one audited transition).

        On an idle slice this updates the default active state and stored
        config; the slice stays idle until a bearer arrives.
        """
        ctx = self.get_slice(slice_id)
        if new_state not in ACTIVE_STATES:
            raise InvalidResourceConfig("requested state must be an active state")
        new_rrc.validate_for_state(new_state)
        self._check_footprint(new_rrc, exclude=slice_id)
        before = StateConfig(ctx.state.value, ctx.rrc)
        if ctx.state is SliceState.IDLE:
            ctx.default_active_state = new_state
        else:
            ctx.state = new_state
        ctx.rrc = new_rrc
        after = StateConfig(ctx.state.value, ctx.rrc)
        self._record(
            slice_id, trigger, [ChangeOutcome(OutcomeKind.RESOURCE_CONFIG, before, after)]
        )
        self._dirty_slices.add(slice_id)
        return ctx

    def update_slice(
        self,
        slice_id: int,
        trigger: ChangeTrigger,
        fd_scheduler: Optional[str] = None,
        hu_associations: Optional[Iterable[str]] = None,
    ) -> SliceContext:
        ctx = self.get_slice(slice_id)
        outcomes: list[ChangeOutcome] = []
        if fd_scheduler is not None and fd_scheduler != ctx.fd_scheduler:
            outcomes.append(ChangeOutcome(OutcomeKind.SCHEDULER, ctx.fd_scheduler, fd_scheduler))
            ctx.fd_scheduler = fd_scheduler
        if hu_associations is not None:
            new_assoc = set(hu_associations)
            if new_assoc != ctx.hu_associations:
                outcomes.append(ChangeOutcome(OutcomeKind.HU_ASSOC,
                                              tuple(sorted(ctx.hu_associations)),
                                              tuple(sorted(new_assoc))))
                ctx.hu_associations = new_assoc
        if outcomes:
            self._record(slice_id, trigger, outcomes)
            self._dirty_slices.add(slice_id)
        return ctx

    def set_bearer_priority(self, drb_id: int, bearer_priority: int, trigger: ChangeTrigger) -> Bearer:
        bearer = self._bearers.get(drb_id)
        if bearer is None:
            raise UnknownId(f"drb {drb_id}")
        if bearer_priority < 1:
            raise InvalidResourceConfig("bearer_priority must be >= 1")
        before = bearer.bearer_priority
        bearer.bearer_priority = bearer_priority
        self._record(
            bearer.slice_id,
            trigger,
            [ChangeOutcome(OutcomeKind.BEARER_LIST, BearerPriority(drb_id, before),
                           BearerPriority(drb_id, bearer_priority))],
        )
        self._dirty_bearers.add(drb_id)
        return bearer

    # -- helpers --------------------------------------------------------------

    def get_slice(self, slice_id: int) -> SliceContext:
        """Live context (writer-side view); readers should use the snapshot."""
        ctx = self._slices.get(slice_id)
        if ctx is None:
            raise UnknownId(f"slice {slice_id}")
        return ctx

    def get_bearer(self, drb_id: int) -> Bearer:
        bearer = self._bearers.get(drb_id)
        if bearer is None:
            raise UnknownId(f"drb {drb_id}")
        return bearer

    def slice_ids(self) -> list[int]:
        return sorted(self._slices)

    def has_slice(self, slice_id: int) -> bool:
        return slice_id in self._slices

    def has_ue(self, ue_id: int) -> bool:
        return ue_id in self._ues

    def has_drb(self, drb_id: int) -> bool:
        return drb_id in self._bearers

    def _check_footprint(self, candidate: RadioResourceConfig, exclude: int) -> None:
        total = candidate.footprint()
        for sid, ctx in self._slices.items():
            if sid != exclude:
                total += ctx.rrc.footprint()
        if total > self.total_rb:
            raise OverSubscription(
                f"dedicated+prioritized sum {total} exceeds cell total {self.total_rb}"
            )

    def _record(self, slice_id: int, trigger: ChangeTrigger, outcomes: list[ChangeOutcome]) -> None:
        self._seq[slice_id] += 1
        self._records[slice_id].append(
            ContextChangeRecord(
                seq=self._seq[slice_id],
                slice_id=slice_id,
                trigger=trigger,
                outcomes=tuple(outcomes),
            )
        )

