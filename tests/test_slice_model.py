"""Slice context store: lifecycle transitions, admission checks, reports."""

import random

import pytest

from hexsim.errors import (
    DuplicateDrb,
    DuplicateSliceId,
    DuplicateUe,
    InvalidResourceConfig,
    OverSubscription,
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

    def test_ring_buffer_keeps_depth_and_continuity(self):
        reg = SliceRegistry(106, change_log_depth=8)
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
