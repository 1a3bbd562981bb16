"""Slice context store: lifecycle transitions, admission checks, reports."""

import random
import sys
import threading
from dataclasses import asdict

import pytest

from hexsim import slice_model
from hexsim.errors import (
    DuplicateDrb,
    DuplicateSliceId,
    DuplicateUe,
    InvalidResourceConfig,
    OverSubscription,
    SliceModelError,
    UnknownDrb,
    UnknownId,
    UnknownSlice,
)
from hexsim.reference import expected_after_add, expected_after_empty
from hexsim.slice_model import (
    ACTIVE_STATES,
    Bearer,
    ChangeTrigger,
    RadioResourceConfig,
    SliceContext,
    SliceRegistry,
    SliceState,
    UEContext,
    state_after_drb_added,
    state_after_last_drb_removed,
)

T = ChangeTrigger("test", "unit")


def make_registry(total_rb=106):
    return SliceRegistry(total_rb)


def add_session(reg, slice_id, drb_id, ue_id=None, bp=1):
    ue_id = ue_id if ue_id is not None else drb_id
    if not reg.has_ue(ue_id):
        reg.add_ue(UEContext(ue_id=ue_id))
    reg.add_drb(slice_id, Bearer(drb_id=drb_id, ue_id=ue_id, slice_id=slice_id,
                                 bearer_priority=bp), T)


class TestCreateSlice:
    def test_new_slice_starts_idle(self):
        reg = make_registry()
        ctx = reg.create_slice(1, SliceState.SHARED,
                               RadioResourceConfig(shared_priority=1))
        assert ctx.state is SliceState.IDLE
        assert ctx.bearers == []
        assert len(reg.records_since(1, 0)) == 0  # visible only after publish
        reg.publish()
        assert len(reg.records_since(1, 0)) == 1

    def test_zero_rb_dedicated_default_is_fine(self):
        reg = make_registry()
        ctx = reg.create_slice(2, SliceState.DEDICATED, RadioResourceConfig(dedicated_rb=0))
        assert ctx.state is SliceState.IDLE
        assert ctx.rrc.footprint() == 0

    def test_oversubscription_rejected_at_creation(self):
        reg = make_registry(106)
        reg.create_slice(1, SliceState.DEDICATED, RadioResourceConfig(dedicated_rb=60))
        with pytest.raises(OverSubscription):
            reg.create_slice(2, SliceState.PRIORITIZED,
                             RadioResourceConfig(prioritized_rb=47))  # 60 + 47 = 107
        # exactly at the cell size is admissible
        reg.create_slice(3, SliceState.PRIORITIZED, RadioResourceConfig(prioritized_rb=46))

    def test_oversubscription_brute_force_boundary(self):
        # every split of 107 across two slices must be rejected on a 106-RB cell
        for first in range(1, 107):
            reg = make_registry(106)
            second = 107 - first
            reg.create_slice(1, SliceState.DEDICATED, RadioResourceConfig(dedicated_rb=first))
            with pytest.raises(OverSubscription):
                reg.create_slice(2, SliceState.DEDICATED,
                                 RadioResourceConfig(dedicated_rb=second))

    def test_duplicate_id_rejected(self):
        reg = make_registry()
        reg.create_slice(1)
        with pytest.raises(DuplicateSliceId):
            reg.create_slice(1)

    def test_duplicate_ue_rejected_as_a_ue_error(self):
        reg = make_registry()
        reg.add_ue(UEContext(ue_id=1))
        with pytest.raises(DuplicateUe) as info:
            reg.add_ue(UEContext(ue_id=1))
        assert not isinstance(info.value, DuplicateSliceId)

    def test_rrc_state_mismatch_rejected(self):
        reg = make_registry()
        with pytest.raises(InvalidResourceConfig):
            reg.create_slice(1, SliceState.DEDICATED,
                             RadioResourceConfig(dedicated_rb=5, prioritized_rb=3))
        with pytest.raises(InvalidResourceConfig):
            reg.create_slice(1, SliceState.SHARED, RadioResourceConfig(dedicated_rb=1))
        with pytest.raises(InvalidResourceConfig):
            reg.create_slice(1, SliceState.SHARED, RadioResourceConfig(shared_priority=0))


class TestDrbTransitions:
    def test_idle_wakes_into_default_shared(self):
        reg = make_registry()
        reg.create_slice(1, SliceState.SHARED)
        add_session(reg, 1, 11)
        assert reg.get_slice(1).state is SliceState.SHARED

    def test_idle_wakes_into_default_hybrid(self):
        reg = make_registry()
        reg.create_slice(1, SliceState.HYBRID,
                         RadioResourceConfig(dedicated_rb=4, prioritized_rb=4))
        add_session(reg, 1, 11)
        assert reg.get_slice(1).state is SliceState.HYBRID

    def test_active_slice_unchanged_by_additional_drbs(self):
        reg = make_registry()
        reg.create_slice(1, SliceState.DEDICATED, RadioResourceConfig(dedicated_rb=10))
        add_session(reg, 1, 11)
        add_session(reg, 1, 12)
        add_session(reg, 1, 13)
        ctx = reg.get_slice(1)
        assert ctx.state is SliceState.DEDICATED
        assert len(ctx.bearers) == 3

    def test_prioritized_empties_to_idle_with_shared_default(self):
        reg = make_registry()
        reg.create_slice(1, SliceState.PRIORITIZED, RadioResourceConfig(prioritized_rb=20))
        add_session(reg, 1, 11)
        reg.remove_drb(1, 11, T)
        ctx = reg.get_slice(1)
        assert ctx.state is SliceState.IDLE
        assert ctx.default_active_state is SliceState.SHARED
        assert ctx.rrc.footprint() == 0  # assignment given up entirely

    def test_hybrid_collapses_to_dedicated_keeping_dedicated_only(self):
        reg = make_registry()
        reg.create_slice(1, SliceState.HYBRID,
                         RadioResourceConfig(dedicated_rb=10, prioritized_rb=20,
                                             shared_priority=3))
        add_session(reg, 1, 11)
        reg.remove_drb(1, 11, T)
        ctx = reg.get_slice(1)
        assert ctx.state is SliceState.DEDICATED
        assert ctx.rrc.dedicated_rb == 10
        assert ctx.rrc.prioritized_rb == 0
        # stored for a lossless return to hybrid, no scheduling effect
        assert ctx.rrc.shared_priority == 3

    def test_dedicated_keeps_state_when_emptied(self):
        reg = make_registry()
        reg.create_slice(1, SliceState.DEDICATED, RadioResourceConfig(dedicated_rb=15))
        add_session(reg, 1, 11)
        reg.remove_drb(1, 11, T)
        ctx = reg.get_slice(1)
        assert ctx.state is SliceState.DEDICATED
        assert ctx.rrc.dedicated_rb == 15

    def test_duplicate_and_unknown_ids(self):
        reg = make_registry()
        reg.create_slice(1)
        add_session(reg, 1, 11)
        with pytest.raises(DuplicateDrb):
            add_session(reg, 1, 11)
        with pytest.raises(UnknownSlice):
            add_session(reg, 9, 12)
        with pytest.raises(UnknownDrb):
            reg.remove_drb(1, 99, T)

    def test_exhaustive_transition_table(self):
        """Every (state, event) pair matches the hand-enumerated table."""
        for default in sorted(ACTIVE_STATES, key=lambda s: s.value):
            for state in SliceState:
                assert state_after_drb_added(state, default) == expected_after_add(state, default)
        for state in SliceState:
            if state is SliceState.IDLE:
                continue
            assert state_after_last_drb_removed(state) == expected_after_empty(state)


class TestStateChangeRequests:
    def test_dedicated_upgrade_applies_state_and_rrc(self):
        reg = make_registry()
        reg.create_slice(2, SliceState.SHARED)
        add_session(reg, 2, 21)
        reg.request_state_change(2, SliceState.DEDICATED,
                                 RadioResourceConfig(dedicated_rb=85), T)
        ctx = reg.get_slice(2)
        assert ctx.state is SliceState.DEDICATED
        assert ctx.rrc.dedicated_rb == 85

    def test_noop_change_still_appends_a_record(self):
        reg = make_registry()
        reg.create_slice(1, SliceState.SHARED)
        add_session(reg, 1, 11)
        reg.publish()
        before = len(reg.records_since(1, 0))
        reg.request_state_change(1, SliceState.SHARED, RadioResourceConfig(), T)
        reg.publish()
        after = reg.records_since(1, 0)
        assert len(after) == before + 1
        ctx = reg.get_slice(1)
        assert ctx.state is SliceState.SHARED

    def test_change_on_idle_slice_retargets_default(self):
        reg = make_registry()
        reg.create_slice(1, SliceState.SHARED)
        reg.request_state_change(1, SliceState.DEDICATED,
                                 RadioResourceConfig(dedicated_rb=10), T)
        ctx = reg.get_slice(1)
        assert ctx.state is SliceState.IDLE
        assert ctx.default_active_state is SliceState.DEDICATED
        add_session(reg, 1, 11)
        assert reg.get_slice(1).state is SliceState.DEDICATED

    def test_infeasible_change_rejected(self):
        reg = make_registry(106)
        reg.create_slice(1, SliceState.DEDICATED, RadioResourceConfig(dedicated_rb=60))
        reg.create_slice(2, SliceState.SHARED)
        add_session(reg, 2, 21)
        with pytest.raises(OverSubscription):
            reg.request_state_change(2, SliceState.DEDICATED,
                                     RadioResourceConfig(dedicated_rb=47), T)

    def test_footprint_bound_holds_under_random_walks(self):
        rng = random.Random(7)
        reg = make_registry(50)
        for sid in range(1, 6):
            reg.create_slice(sid, SliceState.SHARED)
            add_session(reg, sid, 10 + sid)
        for _ in range(300):
            sid = rng.randint(1, 5)
            ded = rng.randint(0, 60)
            try:
                reg.request_state_change(sid, SliceState.DEDICATED,
                                         RadioResourceConfig(dedicated_rb=ded), T)
            except OverSubscription:
                pass
            total = sum(reg.get_slice(s).rrc.footprint() for s in reg.slice_ids())
            assert total <= 50


class TestRecordsAndSnapshots:
    def test_seq_is_strictly_increasing_and_gap_free(self):
        reg = make_registry()
        reg.create_slice(1)
        for k in range(10):
            add_session(reg, 1, 100 + k)
        reg.publish()
        seqs = [r.seq for r in reg.records_since(1, 0)]
        assert seqs == list(range(1, len(seqs) + 1))

    def test_ring_buffer_keeps_depth_and_continuity(self, monkeypatch):
        monkeypatch.setattr(slice_model, "CHANGE_LOG_DEPTH", 8)
        reg = SliceRegistry(106)
        reg.create_slice(1)
        add_session(reg, 1, 11)
        for k in range(20):
            reg.set_bearer_priority(11, (k % 5) + 1, T)
        reg.publish()
        records = reg.records_since(1, 0)
        assert len(records) == 8
        seqs = [r.seq for r in records]
        assert seqs == list(range(seqs[0], seqs[0] + 8))

    def test_snapshot_report_fields(self):
        reg = make_registry()
        reg.create_slice(1, SliceState.SHARED, fd_scheduler="round_robin",
                         hu_associations=("hu2", "hu1"))
        add_session(reg, 1, 11, ue_id=5, bp=2)
        reg.publish()
        report = reg.snapshot(slice_ids=[1], ue_ids=[5])
        s = report["slices"][0]
        assert s["slice_id"] == 1
        assert s["state"] == "shared"
        assert s["hu_associations"] == ["hu1", "hu2"]
        assert s["fd_scheduler"] == "round_robin"
        assert set(s["rrc"]) == {"dedicated_rb", "prioritized_rb", "shared_priority"}
        b = s["bearers"][0]
        for key in ("bearer_priority", "throughput_mbps", "packet_delay_ms",
                    "packet_loss_rate", "buffer_occupancy_bytes"):
            assert key in b
        u = report["ues"][0]
        assert u["ue_id"] == 5
        for key in ("mcs", "cqi", "bler"):
            assert key in u
        assert u["bearers"][0]["drb_id"] == 11

    def test_empty_snapshot(self):
        reg = make_registry()
        assert reg.snapshot() == {"slices": [], "ues": []}

    def test_unknown_target_raises(self):
        reg = make_registry()
        reg.publish()
        with pytest.raises(UnknownId):
            reg.snapshot(slice_ids=[4])
        with pytest.raises(UnknownId):
            reg.snapshot(ue_ids=[4])

    def test_the_report_text_store_never_outgrows_the_published_registry(self):
        reg = make_registry()
        reg.create_slice(1, SliceState.SHARED)
        reg.add_ue(UEContext(ue_id=5))
        for drb in range(1, 301):  # a fresh drb id per epoch, three bearers live
            reg.add_drb(1, Bearer(drb_id=drb, ue_id=5, slice_id=1), T)
            if drb > 3:
                reg.remove_drb(1, drb - 3, T)
            snap = reg.publish()
            reg.report_plan(slice_ids=[1], ue_ids=[5])
            live = len(snap.slices) + len(snap.bearers) + len(snap.ues)
            assert sum(len(store) for store in reg._texts.values()) <= live
        assert set(reg._texts["bearers"]) == set(snap.bearers) == {298, 299, 300}

    def test_a_republished_object_gets_fresh_report_text(self):
        reg = make_registry()
        reg.create_slice(1, SliceState.SHARED, hu_associations={"50%"})
        add_session(reg, 1, 11, ue_id=5)
        reg.publish()
        assert reg.snapshot(slice_ids=[1])["slices"][0]["hu_associations"] == ["50%"]
        reg.set_bearer_priority(11, 4, T)
        reg.update_slice(1, T, hu_associations={"60%"})
        reg.publish()
        report = reg.snapshot(slice_ids=[1], ue_ids=[5])
        assert report["slices"][0]["hu_associations"] == ["60%"]
        assert [b["bearer_priority"] for b in report["slices"][0]["bearers"]] == [4]
        assert [b["bearer_priority"] for b in report["ues"][0]["bearers"]] == [4]

    def test_snapshot_reads_published_epoch_not_live_state(self):
        reg = make_registry()
        reg.create_slice(1, SliceState.SHARED)
        add_session(reg, 1, 11)
        reg.publish()
        reg.request_state_change(1, SliceState.DEDICATED,
                                 RadioResourceConfig(dedicated_rb=30), T)
        assert reg.snapshot(slice_ids=[1])["slices"][0]["state"] == "shared"
        reg.publish()
        assert reg.snapshot(slice_ids=[1])["slices"][0]["state"] == "dedicated"

    def test_change_report_reads_the_published_epoch(self):
        reg = make_registry()
        reg.create_slice(2, SliceState.SHARED)
        reg.create_slice(1, SliceState.SHARED)
        reg.publish()
        reg.update_slice(1, T, fd_scheduler="round_robin")
        reg.create_slice(3, SliceState.SHARED)
        # slice 3 and the scheduler change are not published yet
        seqs = [(r["slice_id"], r["seq"]) for r in reg.change_report()["records"]]
        assert seqs == [(1, 1), (2, 1)]
        assert reg.change_report([2, 1]) == {
            "records": [reg.change_report([2])["records"][0],
                        reg.change_report([1])["records"][0]]
        }
        with pytest.raises(UnknownId, match="^slice 3$"):
            reg.change_report([1, 3])
        with pytest.raises(UnknownId, match="^slice 9$"):
            reg.change_report([9])
        reg.publish()
        seqs = [(r["slice_id"], r["seq"]) for r in reg.change_report()["records"]]
        assert seqs == [(1, 1), (1, 2), (2, 1), (3, 1)]
        record = reg.change_report([1])["records"][-1]
        assert record["trigger"] == {"procedure": "test", "source": "unit"}
        assert record["outcomes"][0]["kind"] == "scheduler"


class TestRecordsSinceUnderAWriter:
    def test_a_reader_survives_a_writer_appending_to_the_log(self, monkeypatch):
        monkeypatch.setattr(slice_model, "CHANGE_LOG_DEPTH", 512)
        reg = SliceRegistry(106)
        reg.create_slice(1)
        add_session(reg, 1, 11)
        for k in range(600):
            reg.set_bearer_priority(11, k % 5 + 1, T)
        reg.publish()
        stop = threading.Event()

        def writer():
            k = 0
            while not stop.is_set():
                reg.set_bearer_priority(11, k % 5 + 1, T)
                k += 1

        errors = 0
        interval = sys.getswitchinterval()
        thread = threading.Thread(target=writer)
        sys.setswitchinterval(1e-6)
        try:
            thread.start()
            for _ in range(20_000):
                try:
                    reg.records_since(1, 0)
                except RuntimeError:
                    errors += 1
        finally:
            stop.set()
            thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert errors == 0


# -- copy-on-write publish -------------------------------------------------------

KINDS = ("slices", "bearers", "ues")


def _live(reg):
    return {"slices": reg._slices, "bearers": reg._bearers, "ues": reg._ues}


def _content(maps, with_stats=True):
    """A field-by-field copy of every object, keyed by kind and id."""
    out = {}
    for kind in KINDS:
        out[kind] = {}
        for key, obj in maps[kind].items():
            fields = asdict(obj)
            if not with_stats:
                fields.pop("stats", None)
            out[kind][key] = fields
    return out


def _snap_maps(snap):
    return {"slices": snap.slices, "bearers": snap.bearers, "ues": snap.ues}


def _random_rrc(rng, state):
    if state is SliceState.DEDICATED:
        return RadioResourceConfig(dedicated_rb=rng.randint(0, 12))
    if state is SliceState.PRIORITIZED:
        return RadioResourceConfig(prioritized_rb=rng.randint(0, 12))
    if state is SliceState.HYBRID:
        return RadioResourceConfig(dedicated_rb=rng.randint(0, 6),
                                   prioritized_rb=rng.randint(0, 6),
                                   shared_priority=rng.randint(1, 3))
    return RadioResourceConfig(shared_priority=rng.randint(1, 3))


def random_write(reg, rng):
    """Apply one random write; return the ids it names, per kind (none if it raised)."""
    touched = {kind: set() for kind in KINDS}
    sids, drbs = reg.slice_ids(), sorted(reg._bearers)
    sid = rng.choice(sids) if sids and rng.random() < 0.9 else rng.randint(1, 10)
    drb = rng.choice(drbs) if drbs and rng.random() < 0.9 else rng.randint(100, 140)
    uid = rng.randint(1, 25)
    op = rng.randrange(9)
    try:
        if op == 0:
            new_sid = sid if rng.random() < 0.2 else rng.randint(1, 10)
            state = rng.choice(sorted(ACTIVE_STATES, key=lambda s: s.value))
            reg.create_slice(new_sid, state, _random_rrc(rng, state), hu_associations=["hu1"])
            touched["slices"].add(new_sid)
        elif op == 1:
            reg.add_ue(UEContext(ue_id=uid, mcs=rng.randint(0, 28), bler=rng.random() / 2))
            touched["ues"].add(uid)
        elif op == 2:
            reg.remove_ue(uid)
            touched["ues"].add(uid)
        elif op == 3:
            new_drb = rng.randint(100, 140)
            reg.add_drb(sid, Bearer(drb_id=new_drb, ue_id=uid, slice_id=sid,
                                    bearer_priority=rng.randint(1, 4)), T)
            touched["slices"].add(sid)
            touched["bearers"].add(new_drb)
            touched["ues"].add(uid)
        elif op == 4:
            bearers = reg.get_slice(sid).bearers
            target = rng.choice(bearers) if bearers else drb
            ue = reg.get_bearer(target).ue_id
            reg.remove_drb(sid, target, T)
            touched["slices"].add(sid)
            touched["bearers"].add(target)
            touched["ues"].add(ue)
        elif op == 5:
            state = rng.choice(sorted(ACTIVE_STATES, key=lambda s: s.value))
            reg.request_state_change(sid, state, _random_rrc(rng, state), T)
            touched["slices"].add(sid)
        elif op == 6:
            reg.update_slice(
                sid, T,
                fd_scheduler=rng.choice([None, "round_robin", "priority_weighted"]),
                hu_associations=rng.choice([None, [], ["hu1"], ["hu1", "hu2"]]),
            )
            touched["slices"].add(sid)
        elif op == 7:
            reg.set_bearer_priority(drb, rng.randint(1, 4), T)
            touched["bearers"].add(drb)
        else:  # telemetry written in place, as the radio simulator does
            if reg.has_drb(drb):
                reg.get_bearer(drb).stats.throughput_mbps = rng.random()
    except SliceModelError:
        return {kind: set() for kind in KINDS}
    return touched


class TestCopyOnWritePublish:
    def test_a_new_registry_holds_an_empty_epoch_zero(self):
        reg = make_registry()
        snap = reg.published
        assert (snap.epoch, snap.slices, snap.bearers, snap.ues) == (0, {}, {}, {})
        assert reg.publish() is snap

    @pytest.mark.parametrize("seed", range(12))
    def test_random_writes_publish_exactly_the_live_state(self, seed):
        rng = random.Random(seed)
        reg = make_registry()
        held = []  # (snapshot, its content without stats, at publish time)
        touched = {kind: set() for kind in KINDS}
        for _ in range(400):
            for kind, ids in random_write(reg, rng).items():
                touched[kind] |= ids
            if rng.random() < 0.6:
                continue
            prev = reg.published
            snap = reg.publish()
            live = _live(reg)
            assert _content(_snap_maps(snap)) == _content(live)
            assert snap.record_watermark == reg._seq
            if snap is prev:  # every named id was a no-op write
                continue
            assert snap.epoch == prev.epoch + 1
            for kind in KINDS:
                old, new = _snap_maps(prev)[kind], _snap_maps(snap)[kind]
                if not touched[kind]:
                    assert new is old
                for key, obj in new.items():
                    assert obj is not live[kind][key]
                    if key not in touched[kind]:
                        assert obj is old[key]
                    elif key not in old or asdict(old[key]) != asdict(obj):
                        assert obj is not old.get(key)
            for drb, bearer in snap.bearers.items():
                assert bearer.stats is reg.get_bearer(drb).stats
            held.append((snap, _content(_snap_maps(snap), with_stats=False)))
            touched = {kind: set() for kind in KINDS}
        assert len(held) > 20
        for snap, content in held:
            assert _content(_snap_maps(snap), with_stats=False) == content

    @pytest.mark.parametrize("scale", [1, 10])
    def test_a_one_bearer_change_copies_one_bearer(self, scale, monkeypatch):
        reg = SliceRegistry(106 * scale)
        for sid in range(1, 8 * scale + 1):
            reg.create_slice(sid, SliceState.SHARED)
            for k in range(8):
                add_session(reg, sid, 1000 + 8 * sid + k)
        prev = reg.publish()
        made = {cls: 0 for cls in (Bearer, SliceContext, UEContext)}
        for cls in made:
            def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
                made[_cls] += 1
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting)
        reg.set_bearer_priority(1012, 3, T)
        snap = reg.publish()
        assert made == {Bearer: 1, SliceContext: 0, UEContext: 0}
        assert [d for d, b in snap.bearers.items() if b is not prev.bearers[d]] == [1012]
        assert snap.bearers[1012].bearer_priority == 3
        assert snap.slices is prev.slices and snap.ues is prev.ues
