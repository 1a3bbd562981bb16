"""Scenario harness: script loading, determinism, metrics table, control accounting."""

import hashlib

import pytest

from hexsim.agent import Agent
from hexsim.errors import ScenarioError
from hexsim.radio_sim import Cell
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


# sha256 of each deterministic output, pinned so that a change to how the
# agent is driven cannot move a byte of them unnoticed
_PINNED_SHA256 = {
    "fig15": "55452a2339f3a635916f9fabf65f438fe654ad7b54ba609a631c659aba8ff1e4",
    "fig16": "4f2685765fa5aa7057074abe90a08fc49319dff997be1765f8662f1ffa9cd983",
    "fig17": "5142a58d628a95c1654dcf721f85b158e6a96a5d12405209997e52dd8195a62b",
    "bench_reliability.csv":
        "6b1e055268ce8f5422e5976b83350f8463417504addadc121900de065896d2ba",
    "bench_reliability_framegated.csv":
        "ad5f344c19c07c4b99d8cc8103752aa24a5e6c8deac3b1dbd583a72d839921cf",
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("name", ["fig15", "fig16", "fig17"])
    def test_bundled_scenario_csv(self, name):
        from hexsim.cli import bundled_scenario_path
        metrics, _ = run_scenario(ScenarioScript.load(bundled_scenario_path(name)))
        assert hashlib.sha256(metrics.to_csv().encode()).hexdigest() == _PINNED_SHA256[name]

    @pytest.mark.parametrize("flags, csv", [
        ([], "bench_reliability.csv"),
        (["--frame-gated"], "bench_reliability_framegated.csv"),
    ])
    def test_quick_reliability_csv(self, flags, csv, tmp_path):
        from hexsim.cli import main
        argv = ["bench-agent", "--mode", "reliability", "--quick", "--out", str(tmp_path)]
        assert main(argv + flags) == 0
        digest = hashlib.sha256((tmp_path / csv).read_bytes()).hexdigest()
        assert digest == _PINNED_SHA256[csv]


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
        step_tti, repeat_tti = runner.cell.step_tti, runner.cell.repeat_tti
        ticks = []  # ticks run per call: one per step, k per repeat

        def stepped():
            ticks.append(1)
            return step_tti()

        def repeated(k):
            ticks.append(k)
            repeat_tti(k)

        runner.cell.step_tti, runner.cell.repeat_tti = stepped, repeated
        metrics = runner.run()
        assert sum(ticks) == runner.cell.tti_index == 4000
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


# the generated script's drb 41 is carried by the cell alone: slice 4, which
# would hold it, has no bearers and stays idle, so no published slice
# schedules it, as for a bearer whose join a boundary has not yet published
IDLE_DRB = 41
IDLE_FROM_S, IDLE_UNTIL_S = 13.0, 17.0
ROUND_ROBIN_FROM_S, ROUND_ROBIN_UNTIL_S = 8.0, 9.5  # slice 3's algorithm keeps state
# its reports are due every 333.3 ms, so its wake ticks fall off the window
# grid and on ticks whose now passes the deadline (1.3335 s and 5.333 s)
OFF_GRID_PERIOD_MS = 333.3


def _generated_script():
    """Half-millisecond ticks with rates changed mid-window, bearers joining
    and leaving, slice 3 on round_robin for a while, traffic to the idle
    drb, and events on window-close ticks (t = k - 0.0005 s, the last tick
    of a window) and on wake ticks."""
    def join(t, sid, ue, drb):
        return {"t": t, "action": "users_join",
                "params": {"slice_id": sid, "sessions": [{"ue_id": ue, "drb_id": drb}]}}

    def rate(t, drb, mbps):
        return {"t": t, "action": "traffic", "params": {"drb_id": drb, "rate_mbps": mbps}}

    def leave(t, sid, drb):
        return {"t": t, "action": "users_leave", "params": {"slice_id": sid, "drb_ids": [drb]}}

    def scheduler(t, sid, name):
        return {"t": t, "action": "slice_control",
                "params": {"slice_id": sid, "fd_scheduler": name}}

    return ScenarioScript.from_dict({
        "duration_s": 26.3,  # ends inside a window
        "cell": {"total_rb": 106, "max_dl_mbps": 130.0, "tti_ms": 0.5},
        "slices": [
            {"slice_id": 1, "default_state": "shared"},
            {"slice_id": 2, "default_state": "dedicated", "dedicated_rb": 30},
            {"slice_id": 3, "default_state": "shared"},
            {"slice_id": 4, "default_state": "shared"},
        ],
        "ues": [{"ue_id": u} for u in range(1, 6)],
        "events": [
            join(0.0, 1, 1, 11), join(0.0, 2, 2, 21),
            rate(0.0, 11, 20.0), rate(0.0, 21, 15.3331),
            rate(0.25, 11, 12.1117), rate(1.3335, 21, 15.3331),
            {"t": 4.9995, "action": "ue_control", "params": {"drb_id": 11, "bearer_priority": 2}},
            rate(5.333, 21, 15.3331),
            join(6.3, 3, 3, 31), rate(6.3, 31, 8.4441),
            scheduler(ROUND_ROBIN_FROM_S, 3, "round_robin"),
            scheduler(ROUND_ROBIN_UNTIL_S, 3, "priority_weighted"),
            rate(IDLE_FROM_S, IDLE_DRB, 5.7), rate(IDLE_UNTIL_S, IDLE_DRB, 0.0),
            rate(17.9995, 11, 14.0),
            leave(18.0, 1, 11), join(18.5, 1, 4, 12), rate(18.5, 12, 9.1234),
            leave(19.25, 2, 21),
            join(20.0, 2, 5, 22), rate(20.0, 22, 30.0), rate(20.7, 22, 25.6789),
        ],
    }, "generated")


def _steady_script(name):
    if name == "generated":
        return _generated_script()
    from hexsim.cli import bundled_scenario_path
    return ScenarioScript.load(bundled_scenario_path(name))


def _cell_digest(cell):
    """Every buffer, published BearerStats field and window accumulator, in
    dict order, hashed so that a whole run's ticks fit in memory: equal
    values hash equal, and a changed value changes the hash (but for a
    collision)."""
    bearers = cell.registry.published.bearers
    return hash((cell.tti_index, cell._win_ttis, cell._win_alloc,
                 tuple(cell._win_served.items()), tuple(cell._win_alloc_drb.items()),
                 tuple(cell.buffers.items()),
                 tuple((drb, tuple(vars(b.stats).values())) for drb, b in bearers.items())))


def _replay(script, mode, on_tick):
    """Run ``script`` calling ``on_tick(cell, now_ns)`` after each clock advance.

    ``mode`` "off" clears ``fixed_tick`` after every step, so no tick is
    repeated; "split" runs each repeat as single-tick repeats, calling
    ``on_tick(cell, None)`` after each; "on" runs as shipped. Returns the
    outputs, with the tick and time of every control step, and the (first
    tti_index, k) of every repeat.
    """
    runner = ScenarioRunner(script)
    cell, clock, ric, agent = runner.cell, runner.clock, runner.ric, runner.agent
    step_tti, repeat_tti, emit = cell.step_tti, cell.repeat_tti, agent.emit_telemetry
    apply_event, subscribe = runner._apply_event, ric.subscribe
    repeats, control_steps = [], []

    def stepped():
        decision = step_tti()
        if mode == "off":
            cell.fixed_tick = None
        return decision

    def repeated(k):
        repeats.append((cell.tti_index, k))
        if mode == "split":
            for _ in range(k):
                repeat_tti(1)
                on_tick(cell, None)
        else:
            repeat_tti(k)

    def emitting(now_ns):
        control_steps.append((cell.tti_index, now_ns))
        return emit(now_ns)

    def advancing(advance):
        def advanced(amount):
            now = advance(amount)
            on_tick(cell, now)
            return now
        return advanced

    def applied(ev):
        if ev.params.get("drb_id") != IDLE_DRB:
            apply_event(ev)
        elif ev.params["rate_mbps"]:
            cell.attach_bearer(IDLE_DRB, ev.params["rate_mbps"])
        else:
            cell.detach_bearer(IDLE_DRB)

    def off_grid(*args, **kwargs):
        return subscribe(*args, trigger={"kind": "periodic", "period_ms": OFF_GRID_PERIOD_MS},
                         **kwargs)

    cell.step_tti, cell.repeat_tti, agent.emit_telemetry = stepped, repeated, emitting
    clock.advance_ms, clock.advance_ns = advancing(clock.advance_ms), advancing(clock.advance_ns)
    if script.name == "generated":
        runner._apply_event, ric.subscribe = applied, off_grid
    metrics = runner.run()
    runner.verify_control_responses()
    return (metrics.to_csv(), ric.control_results, control_steps), repeats


class TestSteadyTicks:
    """After a fixed-point tick the runner repeats it up to the next event,
    wake, window close or the end; patched off, it steps every tick."""

    @pytest.mark.parametrize("name", ["fig15", "fig16", "fig17", "generated"])
    def test_repeated_ticks_match_stepped_ticks(self, name):
        script = _steady_script(name)
        n_ticks = round(script.duration_s * 1000 / script.cell.tti_ms)
        stepped = {}

        def record(cell, now):
            stepped[cell.tti_index] = (_cell_digest(cell), now)

        reference, repeats = _replay(script, "off", record)
        assert repeats == [] and sorted(stepped) == list(range(1, n_ticks + 1))
        # fig17 repeats no tick (its buffers stay backlogged), so its split
        # run would be its "on" run again
        for mode in ("on",) if name == "fig17" else ("on", "split"):
            seen = set()

            def check(cell, now):
                digest, stepped_now = stepped[cell.tti_index]
                assert _cell_digest(cell) == digest, (mode, cell.tti_index)
                if now is not None:
                    assert now == stepped_now, (mode, cell.tti_index)
                seen.add(cell.tti_index)

            outputs, repeats = _replay(script, mode, check)
            assert outputs == reference
            assert max(seen) == n_ticks
            if mode == "split":
                assert seen == set(stepped)  # every tick, repeated or not
            assert bool(repeats) == (name != "fig17")

    def test_no_repeats_while_the_idle_drb_has_traffic_or_round_robin_runs(self):
        script = _generated_script()
        per_s = round(1000 / script.cell.tti_ms)
        outputs, repeats = _replay(script, "on", lambda cell, now: None)
        assert all(kind == "ack" for kind, _ in outputs[1].values())
        for start_s, stop_s in ((IDLE_FROM_S, IDLE_UNTIL_S), (ROUND_ROBIN_FROM_S, ROUND_ROBIN_UNTIL_S)):
            start, stop = start_s * per_s, stop_s * per_s
            assert not [(i, k) for i, k in repeats if i < stop and i + k > start]
            assert any(i + k <= start for i, k in repeats)
            assert any(i >= stop for i, k in repeats)

    def test_steady_figures_step_under_half_their_ticks(self, monkeypatch):
        counts = {}
        step_tti, repeat_tti = Cell.step_tti, Cell.repeat_tti

        def stepped(cell):
            counts["stepped"] += 1
            return step_tti(cell)

        def repeated(cell, k):
            counts["repeated"] += k
            repeat_tti(cell, k)

        monkeypatch.setattr(Cell, "step_tti", stepped)
        monkeypatch.setattr(Cell, "repeat_tti", repeated)
        for name in ("fig15", "fig16", "fig17"):
            counts.update(stepped=0, repeated=0)
            script = _steady_script(name)
            run_scenario(script)
            ticks = round(script.duration_s * 1000)
            assert counts["stepped"] + counts["repeated"] == ticks
            if name == "fig17":  # its buffers stay backlogged
                assert counts["repeated"] == 0
            else:
                assert counts["stepped"] < ticks / 2
