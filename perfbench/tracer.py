"""Span recorder that wraps hexsim's public entry points from outside.

Every wrapped call records a span: name, start, end, the span that was open on
the same thread when it started (its parent), and, for control messages, the
key ``(link, correlation id)``. Self time is the span's duration minus the time
its child spans cover, computed as spans close on a per-thread stack.

Spans are kept in memory in per-thread column arrays (a replay pass records
close to two million of them, which Python tuples could not hold cheaply) and
written out when the run ends. Nothing here changes hexsim's behaviour: the
wrappers call through with the same arguments and return the same result.
"""

from __future__ import annotations

import json
import threading
import time
from array import array
from pathlib import Path

from hexsim import agent, e2lite, fssf, pml, radio_sim, ric_harness, slice_model
from hexsim.clocks import MonotonicClock
from hexsim.errors import LockedOut

from common import ALGORITHMS

SPAN_DUMP_LIMIT = 20_000  # spans written per thread; all of them feed the metrics

_now = time.perf_counter_ns


class _Columns:
    """One thread's spans, as parallel arrays, plus its open-span stack."""

    def __init__(self, thread_name: str):
        self.thread_name = thread_name
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = array("q")
        self.parent = array("l")
        self.stack: list[list[int]] = []  # [index, child_ns]
        self.keys: dict[int, tuple] = {}
        self.results: dict[int, int] = {}
        self.values: dict[str, array] = {}
        self.counters: dict[str, int] = {}
        self.by_name: dict[int, array] | None = None

    def index(self) -> None:
        """Group closed spans by name, once, after recording has stopped."""
        by: dict[int, array] = {}
        ends = self.end
        for i, nid in enumerate(self.name):
            if ends[i]:
                idxs = by.get(nid)
                if idxs is None:
                    idxs = by[nid] = array("l")
                idxs.append(i)
        self.by_name = by


class Tracer:
    def __init__(self):
        self.enabled = False
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._tls = threading.local()
        self._all: list[_Columns] = []
        self._all_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._last_epoch: dict[int, int] = {}
        self.enabled_ns = 0  # total time with tracing on, for busy ratios

    # -- recording -------------------------------------------------------------

    def _cols(self) -> _Columns:
        cols = getattr(self._tls, "cols", None)
        if cols is None:
            cols = _Columns(threading.current_thread().name)
            self._tls.cols = cols
            with self._all_lock:
                self._all.append(cols)
        return cols

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self._names)
            self._names.append(name)
            self._name_ids[name] = nid
        return nid

    def value(self, name: str, v: float) -> None:
        """Record one sample of a measured quantity (a wait, a byte count)."""
        vals = self._cols().values
        arr = vals.get(name)
        if arr is None:
            arr = vals[name] = array("d")
        arr.append(v)

    def count(self, name: str, n: int = 1) -> None:
        c = self._cols().counters
        c[name] = c.get(name, 0) + n

    def wrap(self, fn, name: str, pre=None, post=None, key_of=None):
        """Return ``fn`` wrapped in a span. ``pre(args)`` runs before the call;
        ``post(args, result, pre_value)`` after it, and a non-zero int it
        returns is stored as the span's result (0 is the default, kept implicit
        because most boundary and pump calls find nothing to do). ``key_of(args)``
        names the request."""
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            cols = tracer._cols()
            stack = cols.stack
            idx = len(cols.name)
            cols.name.append(nid)
            cols.parent.append(stack[-1][0] if stack else -1)
            cols.start.append(0)
            cols.end.append(0)
            cols.self_ns.append(0)
            if key_of is not None:
                cols.keys[idx] = key_of(args)
            pre_value = pre(args) if pre is not None else None
            frame = [idx, 0]
            stack.append(frame)
            start = _now()
            cols.start[idx] = start
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                dur = end - start
                cols.end[idx] = end
                cols.self_ns[idx] = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if post is not None:
                r = post(args, result, pre_value)
                if r:
                    cols.results[idx] = r
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _patch(self, owner, attr: str, name: str, **hooks) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **hooks))

    # -- the wrap points -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics are read from."""
        Cell, Pml, Reg, Agent = radio_sim.Cell, pml.Pml, slice_model.SliceRegistry, agent.Agent
        self._patch(Cell, "step_tti", "radio_sim.step_tti", post=self._after_step)
        self._patch(fssf, "run_tti", "fssf.run_tti")
        self._patch(fssf, "stage1_slice_specific", "fssf.stage1")
        self._patch(fssf, "stage2_shared", "fssf.stage2")
        self._patch(fssf, "stage3_vrb_assignment", "fssf.stage3")
        self._patch(fssf, "weighted_max_min", "fssf.weighted_max_min")
        registry = fssf.DEFAULT_REGISTRY
        for algo_name in ALGORITHMS:
            original = registry.get(algo_name)
            wrapped = self.wrap(original, f"fssf.algo.{algo_name}")
            wrapped.stateless = original.stateless
            registry.register(algo_name, wrapped)
            self._patches.append((registry, ("algo", algo_name), original))
        self._patch(Pml, "tti_boundary", "pml.tti_boundary")
        self._patch(Pml, "drain", "pml.drain", post=lambda a, r, p: r)
        self._patch(Pml, "invoke", "pml.invoke", pre=lambda a: _now(), post=self._after_invoke)
        self._patch(Pml, "due_periodic", "pml.due_periodic")
        self._patch(Pml, "new_change_records", "pml.new_change_records")
        self._patch(Reg, "publish", "slice_model.publish", pre=_epoch_of,
                    post=lambda a, r, before: int(r.epoch != before))
        self._patch(Reg, "snapshot", "slice_model.snapshot")
        self._patch(Agent, "receive", "agent.receive", post=lambda a, r, p: r)
        self._patch(Agent, "process_message", "agent.process_message",
                    key_of=lambda a: (a[1].link_id, a[1].frame.correlation_id),
                    post=self._after_process)
        self._patch(Agent, "pump", "agent.pump", post=lambda a, r, p: r)
        self._patch(Agent, "emit_telemetry", "agent.emit_telemetry", post=lambda a, r, p: r)
        self._patch(e2lite, "encode", "e2lite.encode",
                    post=lambda a, r, p: self.value("e2lite.encode.bytes", len(r)))
        self._patch(e2lite, "decode_first", "e2lite.decode")
        self._patch(e2lite.FrameReader, "feed", "e2lite.feed", post=lambda a, r, p: len(r))
        self._patch(e2lite, "validate_sm_payload", "e2lite.validate")
        self._patch(ric_harness.SimulatedPeer, "on_bytes", "ric_harness.peer.on_bytes")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(attr, tuple):
                owner.register(attr[1], original)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def start(self) -> None:
        self._t_on = _now()
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False
        self.enabled_ns += _now() - self._t_on

    # -- hooks ---------------------------------------------------------------------------

    def _after_step(self, args, result, _):
        cell = args[0]
        epoch = cell.registry.published.epoch
        if self._last_epoch.get(id(cell)) != epoch:
            self._last_epoch[id(cell)] = epoch
            self.count("radio_sim.epochs_seen")

    def _after_invoke(self, args, completion, t_invoke):
        if completion.done and isinstance(completion.error, LockedOut):
            self.count("pml.lockout_rejected")
            return
        completion.add_done_callback(
            lambda c: self.value("pml.mediation_wait_us", (_now() - t_invoke) / 1000.0)
        )

    def _after_process(self, args, result, _):
        agent_obj, msg = args
        if not isinstance(agent_obj.clock, MonotonicClock):
            return  # virtual-time stamps say nothing about host waits
        rec = msg.record
        self.value("agent.queue_wait_us", (rec.dispatch_ns - rec.receive_ns) / 1000.0)
        if rec.invoke_ns:
            self.value("agent.invoke_delay_us", (rec.invoke_ns - rec.receive_ns) / 1000.0)

    # -- read-out ------------------------------------------------------------------------

    def spans(self, name: str):
        """(columns, index) for every closed span called ``name``."""
        nid = self._name_ids.get(name)
        for cols in list(self._all):
            if cols.by_name is None:
                cols.index()
            for i in cols.by_name.get(nid, ()):
                yield cols, i

    def samples(self, name: str) -> list[float]:
        """Every value recorded under ``name`` with :meth:`value`."""
        out: list[float] = []
        for cols in list(self._all):
            out.extend(cols.values.get(name, ()))
        return out

    def child_results(self, child: str, parent: str) -> dict[tuple[int, int], int]:
        """Summed results of ``child`` spans per enclosing ``parent`` span."""
        pid = self._name_ids.get(parent)
        out: dict[tuple[int, int], int] = {}
        for c, i in self.spans(child):
            p = c.parent[i]
            if p >= 0 and c.name[p] == pid:
                out[(id(c), p)] = out.get((id(c), p), 0) + c.results.get(i, 0)
        return out

    def counter(self, name: str) -> int:
        return sum(cols.counters.get(name, 0) for cols in list(self._all))

    def write(self, path: Path) -> None:
        """Dump the first SPAN_DUMP_LIMIT spans of each thread as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for cols in list(self._all):
                for i in range(min(len(cols.name), SPAN_DUMP_LIMIT)):
                    if not cols.end[i]:
                        continue
                    fh.write(json.dumps({
                        "thread": cols.thread_name,
                        "id": i,
                        "name": self._names[cols.name[i]],
                        "start_ns": cols.start[i],
                        "end_ns": cols.end[i],
                        "self_ns": cols.self_ns[i],
                        "parent": cols.parent[i],
                        "key": cols.keys.get(i),
                    }) + "\n")


def _epoch_of(args):
    try:
        return args[0].published.epoch
    except AttributeError:  # the constructor's own first publish
        return None
