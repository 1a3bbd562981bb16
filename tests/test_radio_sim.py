"""Cell emulation: service rates, RTT model, utilization, determinism."""

import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexsim import fssf, radio_sim
from hexsim.radio_sim import RTT_CAP_MS, Cell, CellConfig, LinkState
from hexsim.slice_model import (
    Bearer,
    ChangeTrigger,
    RadioResourceConfig,
    SliceRegistry,
    SliceState,
    UEContext,
)

T = ChangeTrigger("test", "unit")


def build_cell(slices, total_rb=106, algorithms=fssf.DEFAULT_REGISTRY, **cfg_kwargs):
    """slices: {slice_id: (state, rrc_kwargs, [(drb, ue, offered_mbps)])}."""
    cfg = CellConfig(total_rb=total_rb, **cfg_kwargs)
    registry = SliceRegistry(total_rb)
    cell = Cell(cfg, registry, algorithms)
    for sid, (state, rrc, bearers) in slices.items():
        registry.create_slice(sid, state, RadioResourceConfig(**rrc))
        for drb, ue, offered in bearers:
            if not registry.has_ue(ue):
                registry.add_ue(UEContext(ue_id=ue))
            registry.add_drb(sid, Bearer(drb_id=drb, ue_id=ue, slice_id=sid), T)
            cell.attach_bearer(drb, offered)
    registry.publish()
    return cell, registry


def run_seconds(cell, registry, seconds):
    windows = []
    for _ in range(seconds):
        for _ in range(1000):
            registry.publish()
            cell.step_tti()
        windows.append(cell.end_window())
    return windows


class TestServiceRates:
    def test_sole_saturating_shared_slice_reaches_cell_peak(self):
        cell, reg = build_cell({1: (SliceState.SHARED, {}, [(11, 1, 200.0)])})
        w = run_seconds(cell, reg, 2)[-1]
        assert w.served_mbps[11] == pytest.approx(130.0, abs=0.5)
        assert w.utilization == pytest.approx(1.0, abs=0.001)

    def test_zero_traffic_idles_at_base_rtt(self):
        cell, reg = build_cell({1: (SliceState.SHARED, {}, [(11, 1, 0.0)])})
        w = run_seconds(cell, reg, 1)[-1]
        assert w.utilization == 0.0
        assert reg.published.bearers[11].stats.packet_delay_ms == cell.cfg.base_rtt_ms

    def test_dedicated_85_rb_saturated_serves_about_103(self):
        cell, reg = build_cell({
            1: (SliceState.DEDICATED, {"dedicated_rb": 85}, [(11, 1, 120.0)]),
        })
        w = run_seconds(cell, reg, 2)[-1]
        assert w.served_mbps[11] == pytest.approx(103.0, abs=2.0)  # 85 x 130/106 = 104.2

    def test_served_never_exceeds_allocation_capacity(self):
        rng = random.Random(3)
        cell, reg = build_cell({
            1: (SliceState.SHARED, {}, [(11, 1, 40.0), (12, 2, 80.0)]),
            2: (SliceState.DEDICATED, {"dedicated_rb": 30}, [(21, 3, 50.0)]),
        })
        per_rb_mbps = cell.cfg.per_rb_rate_mbps
        for _ in range(2000):
            reg.publish()
            cell.step_tti()
        w = cell.end_window()
        for drb, mbps in w.served_mbps.items():
            assert mbps <= w.alloc_rb_mean[drb] * per_rb_mbps * 1.001

    def test_bler_shrinks_goodput(self):
        cfg = CellConfig()
        registry = SliceRegistry(106)
        cell = Cell(cfg, registry)
        registry.create_slice(1, SliceState.SHARED)
        registry.add_ue(UEContext(ue_id=1, bler=0.5))
        registry.add_drb(1, Bearer(drb_id=11, ue_id=1, slice_id=1), T)
        cell.attach_bearer(11, 200.0)
        registry.publish()
        w = run_seconds(cell, registry, 2)[-1]
        assert w.served_mbps[11] == pytest.approx(65.0, abs=1.0)

    def test_mcs_rate_hook_scales_capacity(self):
        cfg = CellConfig()
        registry = SliceRegistry(106)
        cell = Cell(cfg, registry, link_state=LinkState(mcs_rate_fraction=lambda m: m / 28.0))
        registry.create_slice(1, SliceState.SHARED)
        registry.add_ue(UEContext(ue_id=1, mcs=14))
        registry.add_drb(1, Bearer(drb_id=11, ue_id=1, slice_id=1), T)
        cell.attach_bearer(11, 200.0)
        registry.publish()
        w = run_seconds(cell, registry, 2)[-1]
        assert w.served_mbps[11] == pytest.approx(65.0, abs=1.0)


class TestRtt:
    def test_rtt_grows_to_cap_under_overload(self):
        cell, reg = build_cell({
            1: (SliceState.SHARED, {}, [(11, 1, 130.0)]),
            2: (SliceState.DEDICATED, {"dedicated_rb": 85}, [(21, 2, 0.0)]),
        })
        samples = []
        for _ in range(8):
            run_seconds(cell, reg, 1)
            samples.append(reg.published.bearers[11].stats.packet_delay_ms)
        assert all(b >= a - 1e-6 for a, b in zip(samples, samples[1:]))  # monotone in backlog
        assert samples[-1] == RTT_CAP_MS

    def test_rtt_stays_near_base_when_served_matches_offered(self):
        cell, reg = build_cell({1: (SliceState.SHARED, {}, [(11, 1, 100.0)])})
        run_seconds(cell, reg, 2)
        assert reg.published.bearers[11].stats.packet_delay_ms <= 1.2 * cell.cfg.base_rtt_ms

    def test_empty_buffer_is_base_rtt(self):
        cell, reg = build_cell({1: (SliceState.SHARED, {}, [(11, 1, 0.0)])})
        run_seconds(cell, reg, 1)
        assert reg.published.bearers[11].stats.packet_delay_ms == cell.cfg.base_rtt_ms


class TestUtilization:
    def test_full_grid_is_one(self):
        cell, reg = build_cell({1: (SliceState.SHARED, {}, [(11, 1, 200.0)])})
        run_seconds(cell, reg, 1)
        for _ in range(100):
            reg.publish()
            cell.step_tti()
        assert cell.utilization() == pytest.approx(1.0, abs=1e-6)

    def test_idle_dedicated_users_collapse_utilization_to_20_percent(self):
        cell, reg = build_cell({
            1: (SliceState.SHARED, {}, [(11, 1, 130.0)]),
            2: (SliceState.DEDICATED, {"dedicated_rb": 85}, [(21, 2, 0.0)]),
        })
        w = run_seconds(cell, reg, 2)[-1]
        assert w.utilization == pytest.approx(21 / 106, abs=0.002)

    def test_utilization_recomputable_from_decision_log(self):
        rng = random.Random(11)
        cell, reg = build_cell({
            1: (SliceState.SHARED, {}, [(11, 1, 0.0), (12, 2, 0.0)]),
            2: (SliceState.PRIORITIZED, {"prioritized_rb": 40}, [(21, 3, 0.0)]),
        })
        logged = 0
        ttis = 0
        for _ in range(1500):
            if rng.random() < 0.01:
                for drb in (11, 12, 21):
                    cell.set_offered(drb, rng.choice((0.0, 20.0, 80.0, 140.0)))
            reg.publish()
            decision = cell.step_tti()
            logged += sum(decision.per_drb_rb.values())
            ttis += 1
        assert cell.utilization() == pytest.approx(logged / (ttis * 106), abs=1e-9)


class TestDeterminismAndProfiles:
    def test_identical_runs_produce_identical_windows(self):
        def one_run():
            cell, reg = build_cell({
                1: (SliceState.SHARED, {}, [(11, 1, 60.0)]),
                2: (SliceState.SHARED, {}, [(21, 2, 90.0)]),
            })
            changes = {1: (11, 120.0), 2: (21, 10.0)}  # second -> (drb, Mbps)
            out = []
            for second in range(3):
                if second in changes:
                    cell.set_offered(*changes[second])
                out.append(run_seconds(cell, reg, 1)[0])
            return out
        a, b = one_run(), one_run()
        assert [w.served_mbps for w in a] == [w.served_mbps for w in b]
        assert [w.utilization for w in a] == [w.utilization for w in b]

    def test_work_conservation_when_demand_saturates(self):
        cell, reg = build_cell({
            1: (SliceState.SHARED, {}, [(11, 1, 90.0)]),
            2: (SliceState.PRIORITIZED, {"prioritized_rb": 50}, [(21, 2, 90.0)]),
        })
        w = run_seconds(cell, reg, 2)[-1]
        assert w.utilization == pytest.approx(1.0, abs=0.001)


class TestOfferedRates:
    """A rate enters the cell at attach or at set_offered; a negative, NaN or
    infinite one is refused there, as is one whose bytes per tick overflow."""

    BAD = [-5.0, math.nan, math.inf, 1e307]

    @pytest.mark.parametrize("mbps", BAD)
    def test_attach_refuses_a_bad_rate_and_attaches_nothing(self, mbps):
        cell, _ = build_cell({1: (SliceState.SHARED, {}, [(11, 1, 10.0)])})
        with pytest.raises(ValueError, match="offered rate"):
            cell.attach_bearer(12, mbps)
        assert not cell.has_bearer(12)
        cell.step_tti()  # none of the refused rate arrives: 12 gets no buffer
        assert 12 not in cell.buffers and 12 not in cell.end_window().served_mbps

    @pytest.mark.parametrize("mbps", BAD)
    def test_set_offered_refuses_a_bad_rate_and_keeps_the_old_one(self, mbps):
        cell, _ = build_cell({1: (SliceState.SHARED, {}, [(11, 1, 10.0)])})
        with pytest.raises(ValueError, match="offered rate"):
            cell.set_offered(11, mbps)
        cell.step_tti()
        assert cell.buffers[11] == 0.0  # 1,250 bytes arrived and were served
        assert cell.end_window().served_mbps[11] == pytest.approx(10.0)  # the old rate


class TestBearerTable:
    def test_stats_reach_the_live_bearers_after_a_churn_epoch(self):
        cell, reg = build_cell({1: (SliceState.SHARED, {}, [(11, 1, 20.0), (12, 2, 20.0)])})
        run_seconds(cell, reg, 1)
        old_11 = reg.get_bearer(11).stats
        frozen = (old_11.throughput_mbps, old_11.buffer_occupancy_bytes)
        assert frozen[0] > 0.0
        # drb 11 leaves and comes back as a new bearer (fresh stats); drb 13 joins
        reg.remove_drb(1, 11, T)
        cell.detach_bearer(11)
        reg.add_ue(UEContext(ue_id=3))
        for drb, ue in ((11, 1), (13, 3)):
            reg.add_drb(1, Bearer(drb_id=drb, ue_id=ue, slice_id=1), T)
            cell.attach_bearer(drb, 20.0)
        run_seconds(cell, reg, 1)
        assert (old_11.throughput_mbps, old_11.buffer_occupancy_bytes) == frozen
        for drb in (11, 12, 13):
            live = reg.get_bearer(drb).stats
            assert reg.published.bearers[drb].stats is live
            assert live.throughput_mbps == pytest.approx(20.0, rel=0.05), drb


class TestDecisionMemo:
    """Within a stateless epoch a tick whose demands equal the previous
    tick's reuses its decision; every other tick runs the scheduler."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        original = fssf.run_tti

        def counting(inp, *args):
            seen.append(inp)
            return original(inp, *args)

        monkeypatch.setattr(fssf, "run_tti", counting)
        return seen

    @staticmethod
    def _cell(algorithms=fssf.DEFAULT_REGISTRY, offered=10.0):
        # at 10 Mbps the cell clears every buffer each tick, so demands repeat
        return build_cell({
            1: (SliceState.DEDICATED, {"dedicated_rb": 20}, [(11, 1, offered)]),
            2: (SliceState.SHARED, {}, [(21, 2, offered), (22, 3, offered / 2)]),
        }, algorithms=algorithms)

    @staticmethod
    def _steps(cell, reg, n):
        decisions = []
        for _ in range(n):
            reg.publish()
            decisions.append(cell.step_tti())
        return decisions

    def test_steady_demands_in_a_stateless_epoch_schedule_once(self, calls):
        cell, reg = self._cell()
        decisions = self._steps(cell, reg, 50)
        assert len(calls) == 1
        last = decisions[-1]
        assert last is decisions[0] and last.tti_index == 0
        # the reused decision is what a fresh run on this tick's input gives
        now =dataclasses.replace(calls[0], tti_index=cell.tti_index - 1)
        recomputed = fssf.run_tti(now, cell.algorithms, {})
        assert (recomputed.plan, recomputed.vrb) == (last.plan, last.vrb)

    def test_round_robin_on_any_slice_schedules_every_tick(self, calls):
        cell, reg = self._cell()
        reg.update_slice(2, T, fd_scheduler="round_robin")
        self._steps(cell, reg, 30)
        assert len(calls) == 30

    def test_custom_algorithm_without_a_stateless_flag_schedules_every_tick(self, calls):
        def plain(budget, drbs, history):
            return fssf.priority_weighted(budget, drbs, history)

        algorithms = fssf.AlgorithmRegistry()
        algorithms.register("priority_weighted", plain)
        # overload fills the buffers, so demands change until they cap
        memo_cell, memo_reg = self._cell(offered=80.0)
        plain_cell, plain_reg = self._cell(algorithms, offered=80.0)
        memo = self._steps(memo_cell, memo_reg, 200)
        memo_calls = len(calls)
        fresh = self._steps(plain_cell, plain_reg, 200)
        assert len(calls) - memo_calls == 200
        assert memo_calls < 200
        assert [(d.plan, d.vrb) for d in memo] == [(d.plan, d.vrb) for d in fresh]

    def test_a_new_epoch_forces_a_fresh_decision(self, calls):
        cell, reg = self._cell()
        self._steps(cell, reg, 10)
        assert len(calls) == 1
        reg.set_bearer_priority(21, 2, T)
        self._steps(cell, reg, 10)
        assert len(calls) == 2
        assert calls[1].demands == calls[0].demands
        assert calls[1].slices is not calls[0].slices

    def test_each_epoch_builds_one_plan_that_run_tti_reuses(self, monkeypatch):
        cell, reg = self._cell()
        reg.update_slice(2, T, fd_scheduler="round_robin")  # stateful: every tick schedules
        built, used = [], []
        plan_type, stage3 = fssf.EpochPlan, fssf.stage3_vrb_assignment
        monkeypatch.setattr(fssf, "EpochPlan",
                            lambda **fields: built.append(plan_type(**fields)) or built[-1])
        monkeypatch.setattr(fssf, "stage3_vrb_assignment",
                            lambda ep, *args: used.append(ep) or stage3(ep, *args))
        self._steps(cell, reg, 5)
        reg.set_bearer_priority(21, 2, T)
        self._steps(cell, reg, 5)
        assert len(built) == 2 and len(used) == 10
        assert all(ep is built[0] for ep in used[:5]) and all(ep is built[1] for ep in used[5:])
        assert cell._epoch.plan is built[1]

    def test_a_re_registered_algorithm_forces_a_fresh_decision(self):
        def highest_id_first(budget, drbs, history):
            top = max(drbs, key=lambda d: d.drb_id)
            return {top.drb_id: min(budget, top.demand_rb)}

        highest_id_first.stateless = True
        algorithms = fssf.AlgorithmRegistry()
        # overloaded: both demands sit at the 10-RB cap, so every tick hits the memo
        cell, reg = build_cell({1: (SliceState.SHARED, {}, [(11, 1, 50.0), (12, 2, 50.0)])},
                               total_rb=10, algorithms=algorithms)
        reg.update_slice(1, T, fd_scheduler="max_throughput")
        assert self._steps(cell, reg, 2)[-1].plan.per_drb_rb == {11: 10}
        algorithms.register("max_throughput", highest_id_first)
        assert cell.repeat_tti(5) == 0
        assert self._steps(cell, reg, 1)[-1].plan.per_drb_rb == {12: 10}
        assert cell.repeat_tti(5) == 5

    def test_demands_a_b_a_schedule_three_times(self, calls):
        cell, reg = self._cell()
        for mbps in (10.0, 20.0, 10.0):
            cell.set_offered(21, mbps)
            self._steps(cell, reg, 1)
        assert len(calls) == 3
        assert calls[0].demands == calls[2].demands != calls[1].demands


class TestPfHistory:
    def test_churned_ids_leave_no_averages_behind(self):
        cell, reg = build_cell({1: (SliceState.SHARED, {}, [(d, d, 5.0) for d in range(1, 5)])})
        reg.update_slice(1, T, fd_scheduler="proportional_fair")
        live = list(range(1, 5))
        fresh = 5
        for _ in range(2500):
            for _ in range(4):  # 10,000 leaves and as many fresh joins in all
                gone = live.pop(0)
                reg.remove_drb(1, gone, T)
                cell.detach_bearer(gone)
                reg.remove_ue(gone)
                reg.add_ue(UEContext(ue_id=fresh))
                reg.add_drb(1, Bearer(drb_id=fresh, ue_id=fresh, slice_id=1), T)
                cell.attach_bearer(fresh, 5.0)
                live.append(fresh)
                fresh += 1
            reg.publish()
            cell.step_tti()
        ewma = cell.histories[1]["pf_ewma"]
        assert len(ewma) <= len(live)
        assert set(ewma) <= set(live)

    def test_a_bearer_moving_to_another_slice_keeps_its_average(self):
        cell, reg = build_cell({
            1: (SliceState.SHARED, {}, [(11, 1, 20.0), (12, 2, 20.0)]),
            2: (SliceState.SHARED, {}, [(21, 3, 20.0)]),
        })
        for sid in (1, 2):
            reg.update_slice(sid, T, fd_scheduler="proportional_fair")
        run_seconds(cell, reg, 1)
        before = cell.histories[1]["pf_ewma"][11]
        reg.remove_drb(1, 11, T)
        reg.add_drb(2, Bearer(drb_id=11, ue_id=1, slice_id=2), T)
        reg.publish()
        cell.step_tti()
        assert cell.histories[1]["pf_ewma"][11] == before  # slice 1 no longer runs it
        assert 11 in cell.histories[2]["pf_ewma"]


class TestFixedPoint:
    """A tick that reuses the previous decision holds the decision at a fixed
    point: ``repeat_tti(k)`` then runs up to k more ticks that would reuse
    it, with the bits of stepping them, and returns how many it ran."""

    @staticmethod
    def _state(cell):
        bearers = cell.registry.published.bearers
        return (cell.tti_index, cell._win_ttis, cell._win_alloc,
                list(cell._win_served.items()), list(cell._win_alloc_drb.items()),
                list(cell.buffers.items()),
                [(drb, list(vars(b.stats).values())) for drb, b in bearers.items()])

    @classmethod
    def _advance(cls, fast, slow, k):
        """Run ``k`` ticks on both cells: ``fast`` as the scenario runner
        does (repeat what it can, step the rest), ``slow`` one step a tick.
        Compares the cells after each repeat or step; returns the ticks
        ``fast`` repeated."""
        repeated = 0
        while k:
            ran = fast.repeat_tti(k)
            if ran == 0:
                fast.registry.publish()
                fast.step_tti()
                ran = 1
            else:
                repeated += ran
            for _ in range(ran):
                slow.registry.publish()
                slow.step_tti()
            assert cls._state(fast) == cls._state(slow)
            k -= ran
        return repeated

    def test_repeat_stands_for_the_ticks_it_skips(self):
        # rates whose bytes per tick are not dyadic, so that k adds of the
        # served bytes differ from one multiplication by k
        slices = {
            1: (SliceState.DEDICATED, {"dedicated_rb": 20}, [(11, 1, 9.7131)]),
            2: (SliceState.SHARED, {}, [(21, 2, 10.333), (22, 3, 5.1117), (23, 4, 0.0)]),
        }
        fast, _ = build_cell(slices)
        slow, _ = build_cell(slices)
        repeated = sum(self._advance(fast, slow, k) for k in (1, 7, 993))
        assert repeated > 990
        assert fast.end_window() == slow.end_window()
        # after a window close the sums start afresh, in the same key order
        assert self._advance(fast, slow, 5) == 5
        assert fast.end_window() == slow.end_window()

    def test_traffic_to_a_bearer_outside_the_table_is_repeated(self):
        cells = []
        for _ in range(2):
            cell, reg = build_cell({1: (SliceState.SHARED, {}, [(11, 1, 10.0)])})
            reg.create_slice(2, SliceState.SHARED)  # no bearers: idle, so never scheduled
            # the cell carries drb 21 while no published slice schedules it, as
            # for a bearer of slice 2 before a boundary publishes it
            cell.attach_bearer(21, 5.0)
            cells.append(cell)
        fast, slow = cells
        assert self._advance(fast, slow, 10_000) > 9_990
        assert fast.registry.published.slices[2].state is SliceState.IDLE
        assert fast.buffers[21] == pytest.approx(10_000 * 625.0)
        for cell in cells:
            cell.set_offered(21, 0.0)  # without arrivals its buffer stays put
        assert self._advance(fast, slow, 200) == 200
        assert fast.buffers[21] == slow.buffers[21] == pytest.approx(10_000 * 625.0)

    def test_a_stateful_algorithm_is_never_fixed(self):
        cell, reg = TestDecisionMemo._cell()
        reg.update_slice(2, T, fd_scheduler="round_robin")
        for _ in range(5_000):
            reg.publish()
            cell.step_tti()
            assert cell.repeat_tti(3) == 0

    def test_repeat_needs_an_unchanged_fixed_tick_of_the_published_epoch(self):
        slices = {1: (SliceState.SHARED, {}, [(11, 1, 10.0)])}
        fast, fast_reg = build_cell(slices)
        slow, slow_reg = build_cell(slices)
        assert fast.repeat_tti(3) == 0  # no tick of this epoch has decided yet
        assert self._advance(fast, slow, 50) == 49
        assert fast.repeat_tti(0) == 0
        # a rate or the attached set changes between ticks: the repeat reads
        # them afresh, as a step would
        for change in (lambda cell: cell.set_offered(11, 12.0),
                       lambda cell: cell.attach_bearer(12, 3.0),
                       lambda cell: cell.detach_bearer(12)):
            for cell in (fast, slow):
                change(cell)
            assert self._advance(fast, slow, 300) > 250
        for reg in (fast_reg, slow_reg):
            reg.set_bearer_priority(11, 2, T)
            reg.publish()
        before = self._state(fast)
        assert fast.repeat_tti(3) == 0  # a new epoch: the next tick schedules afresh
        assert self._state(fast) == before
        assert self._advance(fast, slow, 50) == 49
        for cell in (fast, slow):
            cell.detach_bearer(11)  # still in the published table, now without a buffer
        assert self._advance(fast, slow, 50) == 49

    def test_a_demand_that_moves_by_less_than_one_rb_ends_the_repeat(self):
        # 8 bits per RB and a BLER of 0.5: an RB carries half a byte, and the
        # demand is the buffer in bytes, rounded up. Whole-byte buffers put
        # the demand on the edges of its range, and a quarter-byte surplus a
        # tick moves it by less than one RB. Last, 0.5001 and then 0.4999
        # bytes a tick against the one RB granted: the buffer grows and then
        # shrinks below the RB's half byte, long after the throughput settles.
        cells = []
        for _ in range(2):
            cfg = CellConfig(total_rb=106, per_rb_rate_mbps=0.008)
            registry = SliceRegistry(106)
            cell = Cell(cfg, registry)
            registry.create_slice(1, SliceState.SHARED)
            registry.add_ue(UEContext(ue_id=1, bler=0.5))
            registry.add_drb(1, Bearer(drb_id=11, ue_id=1, slice_id=1), T)
            registry.publish()
            cell.attach_bearer(11)
            cells.append(cell)
        fast, slow = cells
        repeated = 0
        phases = [(mbps, 300) for mbps in (0.1, 0.02, 0.0, 0.018, 0.022, 0.014, 0.1, 0.0)]
        for mbps, ticks in phases + [(0.0040008, 4_500), (0.0039992, 5_000)]:
            for cell in cells:
                cell.set_offered(11, mbps)
            repeated += self._advance(fast, slow, ticks)
        assert repeated > 10_000
        assert fast.buffers[11] == 0.0  # the last ticks cleared it

    def test_a_48_bearer_cell_repeats_as_it_steps_tick_by_tick(self):
        rng = random.Random(48)
        # 48 bearers over four slices: some idle, some light, some backlogged
        rates = [rng.choice((0.0, rng.uniform(0.2, 2.5), rng.uniform(0.2, 2.5),
                             rng.uniform(8.0, 30.0))) for _ in range(48)]
        drbs = [(100 + i, i + 1, rate) for i, rate in enumerate(rates)]
        slices = {
            1: (SliceState.DEDICATED, {"dedicated_rb": 20}, drbs[:8]),
            2: (SliceState.PRIORITIZED, {"prioritized_rb": 15}, drbs[8:16]),
            3: (SliceState.SHARED, {"shared_priority": 2}, drbs[16:36]),
            4: (SliceState.SHARED, {}, drbs[36:]),
        }
        cells = []
        for _ in range(3):
            cell, reg = build_cell(slices)
            reg.update_slice(3, T, fd_scheduler="max_throughput")
            cells.append(cell)
        slow, split, chunked = cells
        split_repeats = chunked_repeats = 0
        for phase in range(3):
            if phase:  # some rates drop to 0, so their throughputs decay; some rise
                for drb, _, _ in drbs[phase::5]:
                    for cell in cells:
                        cell.set_offered(drb, 0.0 if drb % 2 else 25.5)
            stepped = {}
            for _ in range(1_000):
                slow.registry.publish()
                slow.step_tti()
                stepped[slow.tti_index] = repr(self._state(slow))
                # one repeated tick at a time, checked after every tick
                if split.repeat_tti(1):
                    split_repeats += 1
                else:
                    split.registry.publish()
                    split.step_tti()
                assert repr(self._state(split)) == stepped[slow.tti_index]
            # runs of ticks as the scenario runner offers them
            for k in (3, 50, 947):
                while k:
                    ran = chunked.repeat_tti(k)
                    if ran == 0:
                        chunked.registry.publish()
                        chunked.step_tti()
                        ran = 1
                    else:
                        chunked_repeats += ran
                    assert repr(self._state(chunked)) == stepped[chunked.tti_index]
                    k -= ran
            assert slow.end_window() == split.end_window() == chunked.end_window()
        assert split_repeats > 2_500 and chunked_repeats > 2_500


def _plain_adds(s, c, m):
    for _ in range(m):
        s += c
    return s


def _plain_backlog(m, buf, arriving, capacity, lo, hi, bits_per_rb):
    for i in range(m):
        drained = buf + arriving
        if not (capacity < drained and lo < drained * 8.0 / bits_per_rb <= hi):
            return i, buf
        buf = drained - capacity
    return m, buf


def _plain_smooth(throughput, inst_mbps, alpha, m):
    for _ in range(m):
        throughput = throughput + alpha * (inst_mbps - throughput)
    return throughput


def _plain_bearer(n, buf, arriving, capacity, throughput, served_sum, lo, hi, bits_per_rb,
                  alpha, tti_s):
    """One bearer's ticks as step_tti runs them, one tick at a time."""
    for i in range(n):
        drained = buf + arriving
        if not lo < drained * 8.0 / bits_per_rb <= hi:
            return i, buf, throughput, served_sum
        served = capacity if capacity < drained else drained
        buf = drained - served
        served_sum += served
        throughput = throughput + alpha * (served * 8.0 / tti_s / 1e6 - throughput)
    return n, buf, throughput, served_sum


def _same(a, b):
    """Equal to the bit: repr tells 0.0 from -0.0 and compares nan."""
    return repr(a) == repr(b)


_SUM = st.floats(min_value=0.0, max_value=1e15)
_TICKS = st.integers(0, 3_000)


class TestRepeatKernels:
    """Each closed-form kernel of ``repeat_tti`` returns the bits of the
    plain loop it stands for."""

    @settings(max_examples=400, deadline=None)
    @given(s=_SUM, c=st.floats(min_value=0.0, max_value=1e7), m=_TICKS)
    @example(s=0.0, c=0.0, m=10)
    @example(s=0.0, c=4_600.123, m=3_000)  # from empty across a dozen binades
    @example(s=2.0 ** 20, c=3.0, m=3_000)  # starting on a binade edge
    @example(s=5.0, c=7.0, m=3)  # s below c
    def test_adds_match_the_loop(self, s, c, m):
        assert _same(radio_sim._add_repeated(s, c, m), _plain_adds(s, c, m))

    @settings(max_examples=200, deadline=None)
    @given(s=st.floats(min_value=1e-310, max_value=1e15), share=st.floats(0.0, 0.4999),
           m=_TICKS)
    def test_adds_under_half_an_ulp_leave_the_sum(self, s, share, m):
        c = math.ulp(s) * share
        assert _same(radio_sim._add_repeated(s, c, m), _plain_adds(s, c, m))

    @settings(max_examples=300, deadline=None)
    @given(s=st.floats(min_value=1.0, max_value=1e12), odd=st.integers(0, 5_000),
           shift=st.integers(-1, 3), m=_TICKS)
    def test_half_ulp_ties_round_as_the_loop_does(self, s, odd, shift, m):
        # an odd multiple of half an ulp: a tie in s's binade (shift -1), or
        # in one the sum reaches later
        c = (2 * odd + 1) * math.ulp(s) * 2.0 ** shift
        assert _same(radio_sim._add_repeated(s, c, m), _plain_adds(s, c, m))

    @settings(max_examples=150, deadline=None)
    @given(c=st.floats(min_value=1e-3, max_value=1e6), start=st.floats(0.0, 1.0),
           m=st.integers(1_000, 20_000))
    def test_sums_that_cross_many_binades(self, c, start, m):
        s = c * start
        assert _same(radio_sim._add_repeated(s, c, m), _plain_adds(s, c, m))

    @settings(max_examples=400, deadline=None)
    @given(buf=st.floats(min_value=1.0, max_value=1e10),
           capacity=st.floats(min_value=0.0, max_value=1e5),
           trend=st.sampled_from(["grow", "shrink", "flat", "near"]),
           ratio=st.floats(min_value=0.0, max_value=3.0),
           bits_per_rb=st.floats(min_value=8.0, max_value=4_000.0),
           cut=st.sampled_from(["none", "lo", "hi", "first"]),
           edge=st.floats(min_value=0.5, max_value=1.5),
           m=_TICKS)
    @example(buf=2.0 ** 20, capacity=1_000.0, trend="shrink", ratio=0.5, bits_per_rb=8.0,
             cut="none", edge=1.0, m=3_000)  # starts on a binade edge
    @example(buf=1e6, capacity=1_533.0, trend="flat", ratio=1.0, bits_per_rb=1_226.4,
             cut="lo", edge=1.0, m=3_000)
    def test_backlog_matches_the_loop(self, buf, capacity, trend, ratio, bits_per_rb, cut,
                                      edge, m):
        if trend == "grow":
            arriving = capacity * (1.0 + ratio)
        elif trend == "shrink":
            arriving = capacity * ratio / 3.0
        elif trend == "flat":
            arriving = capacity
        else:  # differs from the capacity by a few of the buffer's ulps
            arriving = capacity + math.ulp(buf) * (ratio - 1.5) * 4.0
        arriving = max(arriving, 0.0)
        x = (buf + arriving) * 8.0 / bits_per_rb
        # a demand range the buffer leaves part way through the run, or one
        # that its first tick misses (a growing backlog would enter it later)
        lo, hi = {"none": (-math.inf, math.inf), "lo": (x * edge * 0.5, math.inf),
                  "hi": (-math.inf, x * (1.0 + edge)), "first": (x * (1.0 + edge), math.inf)}[cut]
        args = (m, buf, arriving, capacity, lo, hi, bits_per_rb)
        assert _same(radio_sim._drain_backlog(*args), _plain_backlog(*args))

    # u = 2**-32 is the ulp of [2**20, 2**21); under 2**20 the grid is u / 2
    @pytest.mark.parametrize("buf, arriving, capacity", [
        # five ticks drain the buffer to 2**20, off by a share of u: 0.3 u
        # under it lands half an ulp under
        (2.0 ** 20 + 5_000.0, 0.0, 1_000.0 + 0.3 * 2.0 ** -32),
        (2.0 ** 20 + 5_000.0, 0.0, 1_000.0 + 0.2 * 2.0 ** -32),
        (2.0 ** 20 + 5_000.0, 0.0, 1_000.0 - 0.3 * 2.0 ** -32),
        (2.0 ** 20 + 5_000.0, 500.0, 1_500.0 + 0.3 * 2.0 ** -32),
        # a flat backlog on the edge: both round to 1,000 / u, yet the buffer moves
        (2.0 ** 20, 1_000.0 - 0.2 * 2.0 ** -32, 1_000.0 + 0.3 * 2.0 ** -32),
    ])
    def test_a_backlog_that_drains_onto_a_binade_edge(self, buf, arriving, capacity):
        args = (8, buf, arriving, capacity, -math.inf, math.inf, 8.0)
        assert _same(radio_sim._drain_backlog(*args), _plain_backlog(*args))

    @settings(max_examples=200, deadline=None)
    @given(buf=st.floats(min_value=1.0, max_value=1e9), odd=st.integers(0, 1_000),
           shift=st.integers(-1, 2), capacity=st.floats(min_value=0.0, max_value=1e4),
           m=_TICKS)
    def test_backlog_with_half_ulp_ties(self, buf, odd, shift, capacity, m):
        arriving = (2 * odd + 1) * math.ulp(buf) * 2.0 ** shift
        for a, c in ((arriving, capacity), (capacity, arriving), (arriving, arriving / 3.0)):
            args = (m, buf, a, c, -math.inf, math.inf, 1_000.0)
            assert _same(radio_sim._drain_backlog(*args), _plain_backlog(*args))

    @settings(max_examples=200, deadline=None)
    @given(throughput=st.floats(min_value=0.0, max_value=200.0),
           inst_mbps=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=200.0)),
           alpha=st.one_of(st.just(0.01), st.floats(min_value=1e-4, max_value=1.0)),
           m=st.integers(0, 6_000))
    def test_smoothing_matches_the_loop(self, throughput, inst_mbps, alpha, m):
        assert _same(radio_sim._smooth(throughput, inst_mbps, alpha, m),
                     _plain_smooth(throughput, inst_mbps, alpha, m))

    def test_smoothing_decays_to_its_last_subnormal_and_stays(self):
        # a rate dropped to 0: 74,000-odd ticks to a value that no longer moves
        decayed = _plain_smooth(10.0, 0.0, 0.01, 80_000)
        assert 0.0 < decayed < 1e-300
        assert _same(radio_sim._smooth(10.0, 0.0, 0.01, 80_000), decayed)
        settled = _plain_smooth(10.0, 12.5, 0.01, 10_000)
        assert settled + 0.01 * (12.5 - settled) == settled  # already settled
        assert _same(radio_sim._smooth(settled, 12.5, 0.01, 10**9), settled)

    @settings(max_examples=400, deadline=None)
    @given(n=_TICKS,
           buf=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e8)),
           arriving=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2e4)),
           n_rb=st.integers(0, 106),
           throughput=st.floats(min_value=0.0, max_value=150.0),
           served_sum=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e9)),
           need=st.one_of(st.none(), st.integers(1, 106)))
    def test_a_bearer_repeats_as_it_steps(self, n, buf, arriving, n_rb, throughput, served_sum,
                                          need):
        rb_capacity, bits_per_rb = 153.3, 1_226.4
        capacity = n_rb * rb_capacity
        if need is None:
            lo, hi = -math.inf, math.inf
        else:
            lo, hi = need - 1, (need if need < 106 else math.inf)
        args = (n, buf, arriving, capacity, throughput, served_sum, lo, hi, bits_per_rb,
                0.01, 0.001)
        assert _same(radio_sim._repeat_bearer(*args), _plain_bearer(*args))
