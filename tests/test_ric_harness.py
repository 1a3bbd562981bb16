"""Scenario harness: script loading, determinism, metrics table, control accounting."""

import pytest

from hexsim.agent import Agent
from hexsim.errors import ScenarioError
from hexsim.ric_harness import (
    CSV_HEADER,
    MetricRow,
    MetricsTable,
    ScenarioRunner,
    ScenarioScript,
    run_scenario,
)

MINI_SCRIPT = {
    "duration_s": 8,
    "seed": 3,
    "cell": {"total_rb": 106, "max_dl_mbps": 130.0},
    "slices": [
        {"slice_id": 1, "default_state": "shared", "fd_scheduler": "priority_weighted"},
        {"slice_id": 2, "default_state": "dedicated", "dedicated_rb": 40},
    ],
    "ues": [{"ue_id": 1}, {"ue_id": 2}],
    "events": [
        {"t": 0.0, "action": "users_join",
         "params": {"slice_id": 1, "sessions": [{"ue_id": 1, "drb_id": 11}]}},
        {"t": 0.0, "action": "users_join",
         "params": {"slice_id": 2, "sessions": [{"ue_id": 2, "drb_id": 21}]}},
        {"t": 0.0, "action": "traffic", "params": {"drb_id": 11, "rate_mbps": 30.0}},
        {"t": 0.0, "action": "traffic", "params": {"drb_id": 21, "rate_mbps": 45.0}},
        {"t": 4.0, "action": "slice_control",
         "params": {"slice_id": 2, "state": "prioritized", "prioritized_rb": 40}},
        {"t": 5.0, "action": "ue_control", "params": {"drb_id": 11, "bearer_priority": 2}},
        {"t": 6.0, "action": "users_leave", "params": {"slice_id": 2}},
    ],
}


class TestScriptLoading:
    def test_mini_script_parses_and_sorts_events(self):
        script = ScenarioScript.from_dict(MINI_SCRIPT, name="mini")
        assert script.cell.per_rb_rate_mbps == pytest.approx(130.0 / 106.0)
        assert [e.t for e in script.events] == sorted(e.t for e in script.events)

    def test_unknown_action_rejected(self):
        bad = dict(MINI_SCRIPT, events=[{"t": 0, "action": "explode", "params": {}}])
        with pytest.raises(ScenarioError):
            ScenarioScript.from_dict(bad)

    def test_event_past_duration_rejected(self):
        bad = dict(MINI_SCRIPT, events=[{"t": 99.0, "action": "traffic",
                                         "params": {"drb_id": 1, "rate_mbps": 1}}])
        with pytest.raises(ScenarioError):
            ScenarioScript.from_dict(bad)

    def test_bundled_scripts_load(self):
        from hexsim.cli import bundled_scenario_path
        for name in ("fig15", "fig16", "fig17"):
            script = ScenarioScript.load(bundled_scenario_path(name))
            assert script.duration_s >= 60
            assert script.cell.total_rb == 106


class TestScenarioRun:
    def test_mini_scenario_phases(self):
        metrics, runner = run_scenario(ScenarioScript.from_dict(MINI_SCRIPT, "mini"))
        # both slices meet their offered rates while feasible
        assert metrics.mean("slice", "1", "throughput_mbps", 2, 4) == pytest.approx(30.0, abs=1.0)
        assert metrics.mean("slice", "2", "throughput_mbps", 2, 4) == pytest.approx(45.0, abs=1.0)
        # slice 2 empties at t=6: prioritized slices reset to idle
        rows = metrics.select("slice", "2", 7, 8)
        assert rows[-1].state == "idle"
        runner.verify_control_responses()
        assert len(runner.ric.control_results) == 2

    def test_same_script_and_seed_give_byte_identical_csv(self):
        a, _ = run_scenario(ScenarioScript.from_dict(MINI_SCRIPT, "mini"))
        b, _ = run_scenario(ScenarioScript.from_dict(MINI_SCRIPT, "mini"))
        assert a.to_csv() == b.to_csv()

    def test_empty_script_yields_flat_baseline_rows(self):
        script = ScenarioScript.from_dict({
            "duration_s": 3, "seed": 0,
            "cell": {"total_rb": 106, "max_dl_mbps": 130.0},
            "slices": [{"slice_id": 1, "default_state": "shared"}],
            "ues": [],
            "events": [],
        }, "empty")
        metrics, _ = run_scenario(script)
        cells = metrics.series("cell", "cell", "utilization")
        assert cells and all(u == 0.0 for u in cells)


class TestTickLength:
    """A tick lasts ``cell.tti_ms``; seconds, windows and event times stay
    seconds whatever the tick length."""

    def _runner(self, tti_ms, events=()):
        script = ScenarioScript.from_dict({
            "duration_s": 2,
            "cell": {"total_rb": 106, "max_dl_mbps": 130.0, "tti_ms": tti_ms},
            "slices": [{"slice_id": 1, "default_state": "shared"}],
            "events": list(events),
        }, "half")
        return ScenarioRunner(script)

    def test_half_millisecond_ticks_run_two_seconds_in_two_windows(self):
        runner = self._runner(0.5)
        step_tti = runner.cell.step_tti
        ticks = []

        def counted():
            ticks.append(runner.clock.now_ns())
            return step_tti()

        runner.cell.step_tti = counted
        metrics = runner.run()
        assert len(ticks) == 4000
        assert runner.clock.now_ns() == 2_000_000_000
        assert [r.t_s for r in metrics.select("cell", "cell")] == [0, 1]

    def test_an_event_applies_at_its_scripted_time(self):
        runner = self._runner(0.5, [{"t": 0.5, "action": "traffic",
                                     "params": {"drb_id": 11, "rate_mbps": 1.0}}])
        apply_event = runner._apply_event
        applied_ns = []

        def stamped(ev):
            applied_ns.append(runner.clock.now_ns())
            apply_event(ev)

        runner._apply_event = stamped
        runner.run()
        assert applied_ns == [500_000_000]

    @pytest.mark.parametrize("tti_ms", [0, -1.0, 0.3, 3.0, 2000.0])
    def test_a_tick_that_does_not_divide_a_second_is_rejected(self, tti_ms):
        bad = dict(MINI_SCRIPT, cell={"total_rb": 106, "tti_ms": tti_ms})
        with pytest.raises(ScenarioError):
            ScenarioScript.from_dict(bad)

    @pytest.mark.parametrize("tti_ms", [1.0, 0.5, 0.25, 0.125, 0.0625, 2.0])
    def test_a_tick_that_divides_a_second_is_accepted(self, tti_ms):
        script = ScenarioScript.from_dict(dict(MINI_SCRIPT, cell={"tti_ms": tti_ms}))
        assert script.cell.tti_ms == tti_ms


class TestMetricsTable:
    def test_csv_shape_and_header(self):
        table = MetricsTable(name="t", seed=9)
        table.add(MetricRow(t_s=0, scope="slice", id="1", throughput_mbps=1.25,
                            state="shared", extra={"a": 1}))
        text = table.to_csv()
        lines = text.strip().split("\n")
        assert lines[0].startswith("# hexsim metrics v1")
        assert lines[1] == CSV_HEADER
        assert lines[2].split(",")[:4] == ["0", "slice", "1", "1.250000"]

    def test_selection_helpers(self):
        table = MetricsTable()
        for t in range(5):
            table.add(MetricRow(t_s=t, scope="ue", id="7", throughput_mbps=float(t)))
        assert table.series("ue", "7", "throughput_mbps", 1, 4) == [1.0, 2.0, 3.0]
        assert table.mean("ue", "7", "throughput_mbps", 0, 5) == 2.0
        with pytest.raises(KeyError):
            table.mean("ue", "9", "throughput_mbps", 0, 5)


def _outputs(script):
    metrics, runner = run_scenario(script)
    stamps = [(r.receive_ns, r.dispatch_ns, r.invoke_ns) for r in runner.agent.metrics.records]
    return metrics.to_csv(), runner.ric.control_results, stamps


class TestQuietTicks:
    """The runner skips the control step until the agent's next wake time;
    stepping it on every tick must give exactly the same run."""

    @pytest.mark.parametrize("name", ["fig15", "fig16", "fig17", "mini", "mini_off_grid"])
    def test_skipping_quiet_ticks_changes_nothing(self, name, monkeypatch):
        from hexsim.cli import bundled_scenario_path
        if name == "mini":
            script = ScenarioScript.from_dict(MINI_SCRIPT, "mini")
        elif name == "mini_off_grid":
            # events between the once-a-second report deadlines
            events = [dict(e, t=e["t"] + 0.37) for e in MINI_SCRIPT["events"]]
            script = ScenarioScript.from_dict(dict(MINI_SCRIPT, events=events), name)
        else:
            script = ScenarioScript.load(bundled_scenario_path(name))
        steps = []
        next_wake_ns = Agent.next_wake_ns

        def counted(agent):
            steps.append(1)
            return next_wake_ns(agent)

        monkeypatch.setattr(Agent, "next_wake_ns", counted)
        skipping = _outputs(script)
        ticks = int(round(script.duration_s * 1000))
        if name == "fig15":
            assert 0 < len(steps) < ticks / 100
        monkeypatch.setattr(Agent, "next_wake_ns", lambda agent: 0)
        every_tick = _outputs(script)
        assert skipping[0] == every_tick[0]
        assert skipping[1] == every_tick[1]
        assert skipping[2] == every_tick[2]
        assert len(skipping[2]) == sum(
            e.action in ("slice_control", "ue_control") for e in script.events)
