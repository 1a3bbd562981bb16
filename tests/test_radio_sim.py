"""Cell emulation: service rates, RTT model, utilization, determinism."""

import dataclasses
import random

import pytest

from hexsim import fssf
from hexsim.radio_sim import RTT_CAP_MS, Cell, CellConfig, LinkState, TrafficProfile
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
        assert cell.rtt(11) == cell.cfg.base_rtt_ms

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
            samples.append(cell.rtt(11))
        assert all(b >= a - 1e-6 for a, b in zip(samples, samples[1:]))  # monotone in backlog
        assert samples[-1] == RTT_CAP_MS

    def test_rtt_stays_near_base_when_served_matches_offered(self):
        cell, reg = build_cell({1: (SliceState.SHARED, {}, [(11, 1, 100.0)])})
        run_seconds(cell, reg, 2)
        assert cell.rtt(11) <= 1.2 * cell.cfg.base_rtt_ms

    def test_empty_buffer_is_base_rtt(self):
        cell, reg = build_cell({1: (SliceState.SHARED, {}, [(11, 1, 0.0)])})
        run_seconds(cell, reg, 1)
        assert cell.rtt(11) == cell.cfg.base_rtt_ms


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
            profile = TrafficProfile({11: [(0.0, 60.0), (1.0, 120.0)],
                                      21: [(0.0, 90.0), (2.0, 10.0)]})
            out = []
            for second in range(3):
                profile.apply(cell, second)
                out.append(run_seconds(cell, reg, 1)[0])
            return out
        a, b = one_run(), one_run()
        assert [w.served_mbps for w in a] == [w.served_mbps for w in b]
        assert [w.utilization for w in a] == [w.utilization for w in b]

    def test_profile_rate_lookup(self):
        p = TrafficProfile({5: [(0.0, 10.0), (3.0, 30.0)]})
        assert p.rate_at(5, 0.0) == 10.0
        assert p.rate_at(5, 2.999) == 10.0
        assert p.rate_at(5, 3.0) == 30.0
        assert p.rate_at(7, 1.0) == 0.0
        with pytest.raises(ValueError):
            TrafficProfile({1: [(0.0, -5.0)]})

    def test_work_conservation_when_demand_saturates(self):
        cell, reg = build_cell({
            1: (SliceState.SHARED, {}, [(11, 1, 90.0)]),
            2: (SliceState.PRIORITIZED, {"prioritized_rb": 50}, [(21, 2, 90.0)]),
        })
        w = run_seconds(cell, reg, 2)[-1]
        assert w.utilization == pytest.approx(1.0, abs=0.001)


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
            assert live.packet_delay_ms == cell.rtt(drb)


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

    def test_demands_a_b_a_schedule_three_times(self, calls):
        cell, reg = self._cell()
        for mbps in (10.0, 20.0, 10.0):
            cell.set_offered(21, mbps)
            self._steps(cell, reg, 1)
        assert len(calls) == 3
        assert calls[0].demands == calls[2].demands != calls[1].demands


class TestDrainLoop:
    def test_rtt_equals_the_published_delay_after_every_churn_tick(self):
        """The drain loop computes the delay inline; Cell.rtt must agree bit
        for bit, across base RTT, the cap and everything in between."""
        rng = random.Random(8)
        cell, reg = build_cell({
            1: (SliceState.DEDICATED, {"dedicated_rb": 20}, [(11, 1, 30.0), (12, 2, 0.0)]),
            2: (SliceState.SHARED, {}, [(21, 3, 90.0), (22, 4, 5.0)]),
        })
        reg.update_slice(2, T, fd_scheduler="proportional_fair")
        live = {11: 1, 12: 1, 21: 2, 22: 2}
        fresh = 100
        for tick in range(3000):
            if tick % 50 == 49:
                drb = rng.choice(sorted(live))
                sid = live.pop(drb)
                reg.remove_drb(sid, drb, T)
                cell.detach_bearer(drb)
                reg.add_ue(UEContext(ue_id=fresh))
                reg.add_drb(sid, Bearer(drb_id=fresh, ue_id=fresh, slice_id=sid), T)
                cell.attach_bearer(fresh, rng.choice((0.0, 2.0, 40.0, 150.0)))
                live[fresh] = sid
                fresh += 1
            if tick % 37 == 0:
                cell.set_offered(rng.choice(sorted(live)), rng.choice((0.0, 1.0, 60.0, 200.0)))
            reg.publish()
            cell.step_tti()
            for drb in live:
                assert cell.rtt(drb) == reg.get_bearer(drb).stats.packet_delay_ms, (tick, drb)
        seen = {reg.get_bearer(drb).stats.packet_delay_ms for drb in live}
        assert cell.cfg.base_rtt_ms in seen or RTT_CAP_MS in seen


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
