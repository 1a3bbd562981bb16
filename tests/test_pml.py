"""Mediation layer: FIFO dispatch, lockout, boundary publication, slice APIs."""

import gc
import math
import threading
import time
import weakref

import pytest

from hexsim.clocks import VirtualClock
from hexsim.errors import (
    BadPeriod,
    DuplicateApi,
    LockedOut,
    OverSubscription,
    UnknownApi,
    UnknownId,
    ValidationFailed,
)
from hexsim.pml import (
    API_CONTROL,
    FsApi,
    Pml,
    PluginManifest,
    control_parameter_paths,
)
from hexsim.slice_model import (
    Bearer,
    ChangeTrigger,
    RadioResourceConfig,
    SliceRegistry,
    SliceState,
    UEContext,
)

T = ChangeTrigger("test", "unit")


def make_stack(total_rb=106, clock=None):
    clock = clock or VirtualClock()
    registry = SliceRegistry(total_rb)
    pml = Pml(clock=clock)
    fs = FsApi(pml, registry)
    return registry, pml, fs, clock


NOOP_API = "noop.read"


def register_noop(pml):
    """A plugin API whose calls do nothing: a second, non-control API."""
    pml.register_plugin(PluginManifest("noop", (NOOP_API,)), {NOOP_API: lambda call: None})


def seed_slice(registry, slice_id=1, state=SliceState.SHARED, drb=None, **rrc):
    registry.create_slice(slice_id, state, RadioResourceConfig(**rrc))
    if drb is not None:
        registry.add_ue(UEContext(ue_id=drb))
        registry.add_drb(slice_id, Bearer(drb_id=drb, ue_id=drb, slice_id=slice_id), T)
    registry.publish()


class TestRegistration:
    def test_fs_plugin_exposes_two_apis(self):
        _, pml, _, _ = make_stack()
        assert pml.plugin_ids() == {"fs"}
        # each of its two APIs is taken: a second plugin cannot provide it
        for api_id in ("fs.control", "fs.telemetry_registration"):
            with pytest.raises(DuplicateApi):
                pml.register_plugin(PluginManifest("again", (api_id,)),
                                    {api_id: lambda call: None})

    def test_empty_manifest_is_fine(self):
        _, pml, _, _ = make_stack()
        pml.register_plugin(PluginManifest("noop", ()), {})
        assert "noop" in pml.plugin_ids()

    def test_duplicate_api_rejected(self):
        _, pml, _, _ = make_stack()
        with pytest.raises(DuplicateApi):
            pml.register_plugin(PluginManifest("again", (API_CONTROL,)),
                                {API_CONTROL: lambda call: None})

    def test_unknown_api_raises_synchronously(self):
        _, pml, _, _ = make_stack()
        with pytest.raises(UnknownApi):
            pml.invoke("nope", "x", {})


class TestFifoDispatch:
    def test_per_api_completion_order_matches_arrival(self):
        _, pml, _, _ = make_stack()
        log = {"a": [], "b": []}
        pml.register_plugin(
            PluginManifest("p", ("a", "b")),
            {"a": lambda c: log["a"].append(c.payload),
             "b": lambda c: log["b"].append(c.payload)},
        )
        for k in range(500):
            pml.invoke("a" if k % 3 else "b", f"caller{k % 4}", k)
        pml.drain()
        assert log["a"] == sorted(log["a"])
        assert log["b"] == sorted(log["b"])

    def test_calls_on_different_apis_complete_in_arrival_order(self):
        registry, pml, fs, _ = make_stack()
        seed_slice(registry)
        resolved = []
        control = fs.fs_control_request("ric", {"slices": [{"slice_id": 1,
                                                            "shared_priority": 2}]})
        registration = fs.fs_telemetry_registration_request(
            "ric", {"slice_ids": [1]}, {"kind": "periodic", "period_ms": 1000})
        control.add_done_callback(lambda c: resolved.append("control"))
        registration.add_done_callback(lambda c: resolved.append("registration"))
        assert pml.drain() == 2
        assert resolved == ["control", "registration"]
        assert control.error is None and registration.error is None

    def test_fifo_under_thread_interleaving(self):
        _, pml, _, _ = make_stack()
        executed = []
        pml.register_plugin(PluginManifest("p", ("a",)),
                            {"a": lambda c: executed.append(c.call_id)})
        ids = []
        lock = threading.Lock()

        def worker(name):
            for _ in range(500):
                completion = pml.invoke("a", name, None)
                with lock:
                    ids.append(completion.call.call_id)

        threads = [threading.Thread(target=worker, args=(f"t{i}",)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        pml.drain()
        # call ids are assigned in arrival order under the dispatch lock, so
        # execution order must be their sorted order
        assert executed == sorted(executed)
        assert len(executed) == 4000

    def test_a_raising_callback_runs_once_and_the_batch_goes_on(self):
        registry, pml, _, _ = make_stack()
        seed_slice(registry)
        pml.register_plugin(PluginManifest("p", ("a",)), {"a": lambda c: c.payload * 2})
        first, second = pml.invoke("a", "x", 1), pml.invoke("a", "x", 2)
        calls = []

        def raising(c):
            calls.append(("raising", c.result, c.error))
            raise BrokenPipeError("ack send failed")

        first.add_done_callback(raising)
        first.add_done_callback(lambda c: calls.append(("after", c.result, c.error)))
        second.add_done_callback(lambda c: calls.append(("second", c.result, c.error)))
        assert pml.tti_boundary(registry) is registry.published
        assert calls == [("raising", 2, None), ("after", 2, None), ("second", 4, None)]
        assert (first.result, first.error) == (2, None)
        assert pml.callback_errors == 1
        pml.tti_boundary(registry)
        assert len(calls) == 3

    def test_completion_callbacks_fire_on_drain(self):
        _, pml, _, _ = make_stack()
        pml.register_plugin(PluginManifest("p", ("a",)), {"a": lambda c: c.payload * 2})
        done = []
        completion = pml.invoke("a", "x", 21)
        completion.add_done_callback(lambda c: done.append(c.result))
        assert not completion.done
        pml.drain()
        assert completion.done and completion.result == 42
        assert done == [42]


class TestLockout:
    def window_stack(self):
        clock = VirtualClock()
        _, pml, _, _ = make_stack(clock=clock)
        pml.register_plugin(PluginManifest("p", ("w",)), {"w": lambda c: None})
        return pml, clock

    def test_different_callers_inside_window_rejected(self):
        pml, clock = self.window_stack()
        assert pml.invoke("w", "X", None, ["path/p"]).error is None
        clock.advance_ms(10)
        second = pml.invoke("w", "Y", None, ["path/p"])
        assert isinstance(second.error, LockedOut)

    def test_different_callers_at_window_boundary_accepted(self):
        pml, clock = self.window_stack()
        pml.invoke("w", "X", None, ["path/p"])
        clock.advance_ms(100)  # default window
        assert pml.invoke("w", "Y", None, ["path/p"]).error is None

    def test_same_caller_inside_window_accepted(self):
        pml, clock = self.window_stack()
        pml.invoke("w", "X", None, ["path/p"])
        clock.advance_ms(10)
        assert pml.invoke("w", "X", None, ["path/p"]).error is None

    def test_pairwise_caller_matrix(self):
        for caller_b, dt_ms, rejected in [
            ("X", 10, False), ("X", 150, False), ("Y", 10, True), ("Y", 150, False),
        ]:
            pml, clock = self.window_stack()
            pml.invoke("w", "X", None, ["p"])
            clock.advance_ms(dt_ms)
            outcome = pml.invoke("w", caller_b, None, ["p"])
            assert isinstance(outcome.error, LockedOut) == rejected, (caller_b, dt_ms)

    def test_disjoint_paths_do_not_conflict(self):
        pml, clock = self.window_stack()
        pml.invoke("w", "X", None, ["p1"])
        clock.advance_ms(1)
        assert pml.invoke("w", "Y", None, ["p2"]).error is None

    def test_rejected_call_never_executes(self):
        clock = VirtualClock()
        _, pml, _, _ = make_stack(clock=clock)
        ran = []
        pml.register_plugin(PluginManifest("p", ("w",)), {"w": lambda c: ran.append(c.caller_id)})
        pml.invoke("w", "X", None, ["p"])
        pml.invoke("w", "Y", None, ["p"])
        pml.drain()
        assert ran == ["X"]

    def test_window_is_reconfigurable(self):
        pml, clock = self.window_stack()
        pml.set_lockout_window(50)
        pml.invoke("w", "X", None, ["p"])
        clock.advance_ms(60)
        assert pml.invoke("w", "Y", None, ["p"]).error is None


class TestControlApi:
    def test_control_applies_at_boundary_not_before(self):
        registry, pml, fs, _ = make_stack()
        seed_slice(registry, 2, SliceState.SHARED, drb=21)
        completion = fs.fs_control_request(
            "ric-1", {"slices": [{"slice_id": 2, "state": "dedicated", "dedicated_rb": 85}]}
        )
        assert not completion.done
        assert registry.get_slice(2).state is SliceState.SHARED
        assert registry.snapshot(slice_ids=[2])["slices"][0]["state"] == "shared"
        pml.tti_boundary(registry)
        assert completion.error is None
        assert registry.get_slice(2).state is SliceState.DEDICATED
        assert registry.snapshot(slice_ids=[2])["slices"][0]["state"] == "dedicated"

    def test_a_write_resolves_only_after_its_epoch_is_published(self):
        registry, pml, fs, _ = make_stack()
        seed_slice(registry, 1, SliceState.SHARED, drb=11)
        epoch = registry.published.epoch
        seen = []
        completion = fs.fs_control_request("ric-1", {"ues": [{"drb_id": 11, "bearer_priority": 5}]})
        completion.add_done_callback(lambda c: seen.append(
            (registry.published.epoch, registry.published.bearers[11].bearer_priority)
        ))
        snap = pml.tti_boundary(registry)
        assert completion.error is None
        assert snap.epoch == epoch + 1
        assert seen == [(epoch + 1, 5)]

    def test_multi_target_request_publishes_atomically(self):
        registry, pml, fs, _ = make_stack()
        seed_slice(registry, 1, SliceState.SHARED, drb=11)
        seed_slice(registry, 2, SliceState.SHARED, drb=21)
        fs.fs_control_request("ric-1", {
            "slices": [
                {"slice_id": 1, "state": "dedicated", "dedicated_rb": 40},
                {"slice_id": 2, "state": "prioritized", "prioritized_rb": 30},
            ]
        })
        before = registry.snapshot(slice_ids=[1, 2])
        assert [s["state"] for s in before["slices"]] == ["shared", "shared"]
        pml.tti_boundary(registry)
        after = registry.snapshot(slice_ids=[1, 2])
        assert [s["state"] for s in after["slices"]] == ["dedicated", "prioritized"]

    def test_all_or_nothing_on_unknown_target(self):
        registry, pml, fs, _ = make_stack()
        seed_slice(registry, 1, SliceState.SHARED, drb=11)
        completion = fs.fs_control_request("ric-1", {
            "slices": [{"slice_id": 1, "state": "dedicated", "dedicated_rb": 40}],
            "ues": [{"drb_id": 999, "bearer_priority": 2}],
        })
        pml.tti_boundary(registry)
        assert isinstance(completion.error, UnknownId)
        assert registry.get_slice(1).state is SliceState.SHARED

    def test_combined_footprint_checked_before_applying(self):
        registry, pml, fs, _ = make_stack()
        seed_slice(registry, 1, SliceState.SHARED, drb=11)
        seed_slice(registry, 2, SliceState.SHARED, drb=21)
        completion = fs.fs_control_request("ric-1", {
            "slices": [
                {"slice_id": 1, "state": "dedicated", "dedicated_rb": 60},
                {"slice_id": 2, "state": "dedicated", "dedicated_rb": 47},
            ]
        })
        pml.tti_boundary(registry)
        assert isinstance(completion.error, OverSubscription)
        assert registry.get_slice(1).rrc.footprint() == 0

    def test_footprint_check_counts_slices_outside_the_request(self):
        registry, pml, fs, _ = make_stack()
        seed_slice(registry, 1, SliceState.DEDICATED, drb=11, dedicated_rb=85)
        seed_slice(registry, 2, SliceState.SHARED, drb=21)
        seed_slice(registry, 3, SliceState.SHARED, drb=31)
        completion = fs.fs_control_request("ric-1", {
            "slices": [
                {"slice_id": 2, "state": "dedicated", "dedicated_rb": 10},
                {"slice_id": 3, "state": "dedicated", "dedicated_rb": 15},
            ]
        })
        pml.tti_boundary(registry)
        assert isinstance(completion.error, OverSubscription)
        assert registry.get_slice(2).state is SliceState.SHARED

    def test_a_slice_named_twice_fails_the_request_and_applies_nothing(self):
        registry, pml, fs, _ = make_stack()
        seed_slice(registry, 1, SliceState.HYBRID, drb=11, dedicated_rb=10)
        seed_slice(registry, 2, SliceState.DEDICATED, drb=21, dedicated_rb=70)
        completion = fs.fs_control_request("ric-1", {
            "slices": [
                {"slice_id": 1, "dedicated_rb": 40},
                {"slice_id": 1, "prioritized_rb": 20},
            ]
        })
        pml.tti_boundary(registry)
        assert isinstance(completion.error, ValidationFailed)
        assert registry.get_slice(1).rrc == RadioResourceConfig(dedicated_rb=10)

    def test_shrink_and_grow_in_one_request(self):
        registry, pml, fs, _ = make_stack()
        seed_slice(registry, 1, SliceState.DEDICATED, drb=11, dedicated_rb=85)
        seed_slice(registry, 2, SliceState.SHARED, drb=21)
        completion = fs.fs_control_request("ric-1", {
            "slices": [
                {"slice_id": 2, "state": "dedicated", "dedicated_rb": 60},
                {"slice_id": 1, "state": "dedicated", "dedicated_rb": 40},
            ]
        })
        pml.tti_boundary(registry)
        assert completion.error is None
        assert registry.get_slice(1).rrc.dedicated_rb == 40
        assert registry.get_slice(2).rrc.dedicated_rb == 60

    def test_bearer_priority_update_and_paths(self):
        registry, pml, fs, _ = make_stack()
        seed_slice(registry, 1, SliceState.SHARED, drb=11)
        params = {"ues": [{"drb_id": 11, "bearer_priority": 5}]}
        assert control_parameter_paths(params) == ["drb/11/priority"]
        completion = fs.fs_control_request("ric-1", params)
        pml.tti_boundary(registry)
        assert completion.error is None
        assert registry.get_bearer(11).bearer_priority == 5

    def test_change_record_carries_procedure_and_caller(self):
        registry, pml, fs, _ = make_stack()
        seed_slice(registry, 1, SliceState.SHARED, drb=11)
        fs.fs_control_request("xapp-7", {"slices": [{"slice_id": 1, "shared_priority": 2}]})
        pml.tti_boundary(registry)
        record = registry.records_since(1, 0)[-1]
        assert record.trigger.procedure == "FS Control Request"
        assert record.trigger.source == "xapp-7"

    def test_controls_in_a_row_by_one_caller_share_one_trigger(self):
        def controls(registry, sid):
            return [r.trigger for r in registry.records_since(sid, 0)
                    if r.trigger.procedure == "FS Control Request"]

        registry, pml, fs, _ = make_stack()
        seed_slice(registry, 1, SliceState.SHARED, drb=11)
        seed_slice(registry, 2, SliceState.SHARED, drb=21)
        for caller, sid, priority in [("xapp-7", 1, 2), ("xapp-7", 1, 3), ("xapp-8", 2, 2),
                                      ("xapp-7", 1, 4)]:
            fs.fs_control_request(caller, {"slices": [{"slice_id": sid,
                                                       "shared_priority": priority}]})
            pml.tti_boundary(registry)
        first, second, third = controls(registry, 1)
        (between,) = controls(registry, 2)
        assert first is second
        assert between is not first and third is not first
        assert first == third == ChangeTrigger("FS Control Request", "xapp-7")
        assert between == ChangeTrigger("FS Control Request", "xapp-8")


class TestTelemetryAndReports:
    def test_context_change_counting(self):
        registry, _, _, _ = make_stack()
        seed_slice(registry, 1, SliceState.SHARED)
        for k in range(3):
            registry.update_slice(1, T, fd_scheduler=("round_robin", "max_throughput",
                                                      "priority_weighted")[k])
        registry.publish()
        records = registry.records_since(1, 0)
        assert len(records) == 4  # creation plus three scheduler flips
        latest = records[-1].seq
        assert registry.records_since(1, latest) == []

    def test_periodic_registration_fires_every_period(self):
        registry, pml, fs, clock = make_stack()
        seed_slice(registry, 1, SliceState.SHARED, drb=11)
        completion = fs.fs_telemetry_registration_request(
            "ric", {"slice_ids": [1]}, {"kind": "periodic", "period_ms": 1000})
        pml.drain()
        assert completion.error is None
        fired = 0
        for _ in range(10_500):
            clock.advance_ms(1)
            fired += len(pml.due_periodic(clock.now_ns()))
        assert fired == 10

    # 1e-7 ms is 0 ns once converted, a period that would never move a deadline
    @pytest.mark.parametrize("period_ms", [0, 1e-7, math.nan, math.inf, True])
    def test_bad_period_rejected(self, period_ms):
        registry, pml, fs, _ = make_stack()
        seed_slice(registry, 1)
        completion = fs.fs_telemetry_registration_request(
            "ric", {"slice_ids": [1]}, {"kind": "periodic", "period_ms": period_ms})
        pml.drain()
        assert isinstance(completion.error, BadPeriod)
        assert pml._registrations == {}

    def test_a_clock_jump_moves_a_deadline_in_one_step(self):
        registry, pml, _, clock = make_stack()
        seed_slice(registry, 1)
        reg = pml.add_registration([1], {"kind": "periodic", "period_ms": 1e-6})  # 1 ns
        assert reg.next_due_ns == clock.now_ns() + 1
        clock.advance_ms(1000)  # a billion missed periods
        start = time.perf_counter()
        assert pml.due_periodic(clock.now_ns()) == [reg]
        assert time.perf_counter() - start < 1.0  # not one loop pass per missed period
        # where stepping one period at a time would stop: the first deadline after now
        assert reg.next_due_ns == clock.now_ns() + 1
        clock.advance_ns(7)
        assert pml.due_periodic(clock.now_ns()) == [reg]
        assert reg.next_due_ns == clock.now_ns() + 1

    def test_event_registration_fires_once_per_change(self):
        registry, pml, fs, _ = make_stack()
        seed_slice(registry, 1, SliceState.SHARED)
        completion = fs.fs_telemetry_registration_request(
            "ric", {"slice_ids": [1]}, {"kind": "event", "event": "context_change"})
        pml.drain()
        assert completion.error is None
        pml.new_change_records(registry)  # swallow the creation record
        n_changes = 5
        for k in range(n_changes):
            registry.update_slice(1, T, hu_associations={f"hu{k}"})
        registry.publish()
        fired = pml.new_change_records(registry)
        assert len(fired) == n_changes
        assert pml.new_change_records(registry) == []


class TestIdleFastPaths:
    """Each fast path must give the answer the full scan would."""

    def test_pending_follows_invoke_drain_and_lockout(self):
        registry, pml, fs, _ = make_stack()
        seed_slice(registry, 1, SliceState.SHARED)
        register_noop(pml)
        assert pml.pending() == 0
        assert pml.drain() == 0
        fs.fs_control_request("ric-a", {"slices": [{"slice_id": 1, "shared_priority": 2}]})
        pml.invoke(NOOP_API, "ric-b", None)
        assert pml.pending() == 2
        rejected = fs.fs_control_request("ric-b",
                                         {"slices": [{"slice_id": 1, "shared_priority": 3}]})
        assert isinstance(rejected.error, LockedOut)
        assert pml.pending() == 2  # a rejected call is never queued
        assert pml.drain() == 2
        assert pml.pending() == 0
        assert pml.drain() == 0
        pml.invoke(NOOP_API, "ric-b", None)
        assert pml.pending() == 1
        assert pml.drain() == 1

    def test_due_periodic_matches_a_full_scan_under_churn(self):
        registry, pml, _, clock = make_stack()
        seed_slice(registry, 1)
        model: dict[int, list[int]] = {}  # reg_id -> [period_ns, next_due_ns]

        def add(period_ms):
            reg = pml.add_registration([1], {"kind": "periodic", "period_ms": period_ms})
            model[reg.reg_id] = [period_ms * 1_000_000, clock.now_ns() + period_ms * 1_000_000]
            return reg.reg_id

        seven = add(7)
        pml.add_registration([1], {"kind": "event"})  # never periodic-due
        three = None
        seen, expected = [], []
        for tick in range(100):
            if tick == 22:
                # due at 25 ms, before the 7 ms registration's next deadline (28 ms)
                three = add(3)
            if tick == 60:
                pml.drop_registration(seven)
                del model[seven]
            now = clock.now_ns()
            due = []
            for reg_id, entry in model.items():
                if now >= entry[1]:
                    due.append(reg_id)
                    while entry[1] <= now:
                        entry[1] += entry[0]
            expected.append(due)
            seen.append([r.reg_id for r in pml.due_periodic(now)])
            clock.advance_ms(1)
        assert seen == expected
        assert sum(three in d for d in seen) == (99 - 22) // 3
        assert sum(seven in d for d in seen) == 60 // 7

    def test_new_event_registration_catches_up_and_empty_epochs_fire_nothing(self):
        registry, pml, _, _ = make_stack()
        seed_slice(registry, 1)  # the creation record
        first = pml.add_registration([1], {"kind": "event"})
        assert [rec.seq for _, rec in pml.new_change_records(registry)] == [1]
        n = 4
        for k in range(n - 1):
            registry.update_slice(1, T, hu_associations={f"hu{k}"})
        registry.publish()
        assert len(pml.new_change_records(registry)) == n - 1
        # same epoch, but a new registration: it has seen nothing yet
        late = pml.add_registration([1], {"kind": "event"})
        fired = pml.new_change_records(registry)
        assert [(reg.reg_id, rec.seq) for reg, rec in fired] == [
            (late.reg_id, seq) for seq in range(1, n + 1)
        ]
        assert pml.new_change_records(registry) == []
        registry.add_ue(UEContext(ue_id=7))  # a new epoch without a change record
        before = registry.published.epoch
        assert registry.publish().epoch == before + 1
        assert pml.new_change_records(registry) == []
        registry.update_slice(1, T, fd_scheduler="round_robin")
        assert pml.new_change_records(registry) == []  # not published yet
        registry.publish()
        fired = pml.new_change_records(registry)
        assert sorted(reg.reg_id for reg, _ in fired) == [first.reg_id, late.reg_id]
        assert {rec.seq for _, rec in fired} == {n + 1}


class TestNonBlockingBoundary:
    def test_tick_latency_unaffected_by_pending_invokes(self):
        """p95 of the scheduling computation with 1000 queued calls (and a
        trickle of concurrent enqueues) stays within 2x of the idle p95."""
        from hexsim import fssf

        registry, pml, _, _ = make_stack()
        register_noop(pml)
        for sid in (1, 2, 3):
            seed_slice(registry, sid, SliceState.SHARED, drb=sid * 10)
        snap = registry.published
        slices = tuple(
            fssf.SliceInput(s.slice_id, s.state, 0, 0, 1, "priority_weighted",
                            tuple(fssf.DrbInput(d, snap.bearers[d].ue_id, 1)
                                  for d in s.bearers))
            for s in snap.slices.values()
        )
        rates = {b.ue_id: 1226.4 for b in snap.bearers.values()}
        inp = fssf.TtiInput(0, 106, rates, {d: 50 for d in snap.bearers}, slices)

        def measure(n=400):
            samples = []
            for _ in range(n):
                t0 = time.perf_counter_ns()
                fssf.run_tti(inp)
                samples.append(time.perf_counter_ns() - t0)
            return sorted(samples)[int(n * 0.95)]

        measure(100)  # warm caches
        idle_p95 = measure()
        stop = threading.Event()

        def trickler():
            while not stop.is_set():
                pml.invoke(NOOP_API, "bg", None)
                time.sleep(0.001)

        for _ in range(1000):
            pml.invoke(NOOP_API, "bg", None)
        threads = [threading.Thread(target=trickler) for _ in range(2)]
        for t in threads:
            t.start()
        try:
            assert pml.pending() >= 1000
            busy_p95 = measure()
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert busy_p95 <= 2 * idle_p95 + 100_000  # 100 us absolute floor for timer noise


class TestReferenceCycles:
    def test_a_dropped_stack_is_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            registry, pml, fs, _ = make_stack()
            seed_slice(registry, drb=11)
            pml.invoke(API_CONTROL, "a", {"slices": [{"slice_id": 1, "shared_priority": 2}]})
            pml.tti_boundary(registry)
            dead = weakref.ref(registry)
            del registry, pml, fs
            assert dead() is None
        finally:
            gc.enable()

    def test_the_handlers_outlive_the_fs_api_object(self):
        registry, pml, _, _ = make_stack()
        seed_slice(registry, drb=11)
        done = pml.invoke(API_CONTROL, "a", {"slices": [{"slice_id": 1, "shared_priority": 3}]})
        pml.tti_boundary(registry)
        assert done.error is None and done.result == {"applied": 1}
        assert registry.get_slice(1).rrc.shared_priority == 3
