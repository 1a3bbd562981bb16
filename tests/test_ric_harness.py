"""Scenario harness: script loading, determinism, metrics table, control accounting."""

import gc
import hashlib
import json
import math
import weakref

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

    @pytest.mark.parametrize("rate", [-5.0, math.nan, math.inf, 1e307])
    def test_a_traffic_event_with_a_bad_rate_is_rejected(self, rate):
        # drb 31 never joins: the rate alone is wrong (1e307 Mbps overflows
        # its bytes per tick)
        event = {"t": 1.0, "action": "traffic", "params": {"drb_id": 31, "rate_mbps": rate}}
        with pytest.raises(ScenarioError, match="offered rate"):
            ScenarioScript.from_dict(dict(MINI_SCRIPT, events=MINI_SCRIPT["events"] + [event]))

    def test_a_rate_of_1e309_in_a_file_is_rejected(self, tmp_path):
        # JSON reads 1e309 as infinity
        text = json.dumps(MINI_SCRIPT).replace('"rate_mbps": 30.0', '"rate_mbps": 1e309')
        assert "1e309" in text
        path = tmp_path / "overflow.json"
        path.write_text(text)
        with pytest.raises(ScenarioError, match="offered rate"):
            ScenarioScript.load(path)

    @pytest.mark.parametrize("key", ["max_dl_mbps", "per_rb_rate_mbps"])
    @pytest.mark.parametrize("value", [0, -130.0, math.nan, math.inf, "fast"])
    def test_a_cell_rate_that_is_not_positive_and_finite_is_rejected(self, key, value):
        with pytest.raises(ScenarioError):
            ScenarioScript.from_dict(dict(MINI_SCRIPT, cell={"total_rb": 106, key: value}))

    def test_a_cell_without_resource_blocks_is_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioScript.from_dict(dict(MINI_SCRIPT, cell={"total_rb": 0, "max_dl_mbps": 130.0}))

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

    def test_a_script_that_omits_every_optional_key_runs_as_one_spelling_out_the_defaults(self):
        def script(spelled):
            def given(**defaults):
                return defaults if spelled else {}
            cell = given(total_rb=106, per_rb_rate_mbps=130.0 / 106.0, tti_ms=1.0,
                         base_rtt_ms=20.0)
            session = {"ue_id": 2, "drb_id": 21, **given(mcs=28, bearer_priority=1, qos_5qi=9)}
            return ScenarioScript.from_dict({
                "duration_s": 4, **given(seed=0), "cell": cell,
                "slices": [{"slice_id": 1, **given(
                    default_state="shared", dedicated_rb=0, prioritized_rb=0, shared_priority=1,
                    fd_scheduler="priority_weighted", hu_associations=[])}],
                "ues": [{"ue_id": 1, **given(mcs=28, cqi=15, bler=0.0)}],
                "events": [
                    {"t": 0.0, "action": "users_join",
                     "params": {"slice_id": 1, "sessions": [{"ue_id": 1, "drb_id": 11}, session]}},
                    {"t": 0.0, "action": "traffic", "params": {"drb_id": 11, "rate_mbps": 30.0}},
                    {"t": 0.0, "action": "traffic", "params": {"drb_id": 21, "rate_mbps": 90.0}},
                    {"t": 2.0, "action": "ue_control",
                     "params": {"drb_id": 21, "bearer_priority": 3}},
                ],
            }, "defaults")

        assert script(spelled=False).cell == script(spelled=True).cell
        omitted, _ = run_scenario(script(spelled=False))
        spelled, _ = run_scenario(script(spelled=True))
        assert omitted.to_csv() == spelled.to_csv()
        assert {row.scope for row in omitted.rows} == {"slice", "ue", "cell"}

    def test_a_finished_run_is_freed_by_reference_counting(self):
        """No reference cycle keeps a finished run's objects alive."""
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            metrics, runner = run_scenario(ScenarioScript.from_dict(MINI_SCRIPT, "mini"))
            refs = {name: weakref.ref(getattr(runner, name))
                    for name in ("agent", "pml", "registry", "ric")}
            del metrics, runner
            assert [name for name, ref in refs.items() if ref() is not None] == []
        finally:
            if was_enabled:
                gc.enable()


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
    "scale_hexran.csv": "a50bf243da96b948b35ef15c57df70429c52c9f505395a18baee91b27d729957",
    "scale_baseline.csv": "6f7d75d1cb1624943d9cc2f58af05ef0da7910d47b4cb1659d10f4294a8d0c61",
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

    @pytest.mark.parametrize("mode", ["hexran", "baseline"])
    def test_scale_csv(self, mode, tmp_path):
        from hexsim.cli import main
        assert main(["scale", "--mode", mode, "--out", str(tmp_path)]) == 0
        csv = f"scale_{mode}.csv"
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
            ran = repeat_tti(k)
            ticks.append(ran)
            return ran

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
# drb 22 offers more than slice 2's 30 dedicated RBs carry, so its buffer
# grows; then its rate drops to 0, the backlog drains to empty within a
# window, and its throughput decays to the end of the run
BACKLOG_FROM_S, BACKLOG_UNTIL_S = 21.0, 23.0
DECAY_FROM_S = 23.5  # drb 22's buffer is empty from about 23.45 s
# its reports are due every 333.3 ms, so its wake ticks fall off the window
# grid and on ticks whose now passes the deadline (1.3335 s and 5.333 s)
OFF_GRID_PERIOD_MS = 333.3


def _generated_script():
    """Half-millisecond ticks with rates changed mid-window, bearers joining
    and leaving, slice 3 on round_robin for a while, traffic to the idle
    drb, a backlog that drains to empty and a throughput that decays, and
    events on window-close ticks (t = k - 0.0005 s, the last tick of a
    window) and on wake ticks."""
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
            rate(BACKLOG_FROM_S, 22, 45.0), rate(BACKLOG_UNTIL_S, 22, 0.0),
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
                 tuple((drb, tuple(getattr(b.stats, f) for f in b.stats.__slots__))
                       for drb, b in bearers.items())))


def _replay(script, mode, on_tick):
    """Run ``script`` calling ``on_tick(cell, now_ns)`` after each clock advance.

    ``mode`` "off" repeats no tick, so every tick is stepped; "split" runs
    each repeat as single-tick repeats, calling ``on_tick(cell, None)``
    after each; "on" runs as shipped. Returns the outputs, with the tick and
    time of every control step, and the (first tti_index, ticks run) of
    every repeat that ran a tick.
    """
    runner = ScenarioRunner(script)
    cell, clock, ric, agent = runner.cell, runner.clock, runner.ric, runner.agent
    repeat_tti, emit = cell.repeat_tti, agent.emit_telemetry
    apply_event, subscribe = runner._apply_event, ric.subscribe
    repeats, control_steps = [], []

    def repeated(k):
        first = cell.tti_index
        if mode == "off":
            ran = 0
        elif mode == "split":
            ran = 0
            while ran < k and repeat_tti(1):
                ran += 1
                on_tick(cell, None)
        else:
            ran = repeat_tti(k)
        if ran:
            repeats.append((first, ran))
        return ran

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

    cell.repeat_tti, agent.emit_telemetry = repeated, emitting
    clock.advance_ms, clock.advance_ns = advancing(clock.advance_ms), advancing(clock.advance_ns)
    if script.name == "generated":
        runner._apply_event, ric.subscribe = applied, off_grid
    metrics = runner.run()
    runner.verify_control_responses()
    return (metrics.to_csv(), ric.control_results, control_steps), repeats


class TestSteadyTicks:
    """After each stepped tick the runner offers the ticks up to the next
    event, wake, window close or the end to ``Cell.repeat_tti``, which runs
    those that would reuse the tick's decision; patched off, it steps every
    tick."""

    @pytest.mark.parametrize("name", ["fig15", "fig16", "fig17", "generated"])
    def test_repeated_ticks_match_stepped_ticks(self, name):
        script = _steady_script(name)
        n_ticks = round(script.duration_s * 1000 / script.cell.tti_ms)
        stepped = {}

        def record(cell, now):
            stepped[cell.tti_index] = (_cell_digest(cell), now)

        reference, repeats = _replay(script, "off", record)
        assert repeats == [] and sorted(stepped) == list(range(1, n_ticks + 1))
        for mode in ("on", "split"):
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
            assert repeats

    @staticmethod
    def _stepped_share(repeats, start_s, stop_s, per_s):
        """The share of the ticks in [start_s, stop_s) that no repeat ran."""
        start, stop = round(start_s * per_s), round(stop_s * per_s)
        repeated = sum(max(0, min(i + k, stop) - max(i, start)) for i, k in repeats)
        return 1 - repeated / (stop - start)

    def test_no_repeats_while_round_robin_runs(self):
        script = _generated_script()
        per_s = round(1000 / script.cell.tti_ms)
        outputs, repeats = _replay(script, "on", lambda cell, now: None)
        assert all(kind == "ack" for kind, _ in outputs[1].values())
        start, stop = ROUND_ROBIN_FROM_S * per_s, ROUND_ROBIN_UNTIL_S * per_s
        assert not [(i, k) for i, k in repeats if i < stop and i + k > start]
        assert any(i + k <= start for i, k in repeats)
        assert any(i >= stop for i, k in repeats)

    def test_off_table_traffic_a_backlog_and_a_decay_are_repeated(self):
        script = _generated_script()
        per_s = round(1000 / script.cell.tti_ms)
        decays = []  # drb 22's throughput after each clock advance of the decay phase

        def on_tick(cell, now):
            if now is not None and cell.tti_index > DECAY_FROM_S * per_s:
                stats = cell.registry.published.bearers[22].stats
                assert stats.buffer_occupancy_bytes == 0.0
                decays.append(stats.throughput_mbps)

        outputs, repeats = _replay(script, "on", on_tick)
        for start_s, stop_s in ((IDLE_FROM_S, IDLE_UNTIL_S),
                                (BACKLOG_FROM_S, BACKLOG_UNTIL_S),
                                (DECAY_FROM_S, script.duration_s)):
            assert self._stepped_share(repeats, start_s, stop_s, per_s) < 0.01, start_s
        assert decays == sorted(decays, reverse=True) and 0.0 < decays[-1] < decays[0]
        # the drain leaves the cap inside a repeat: one stops on a changed
        # demand, short of the event, wake or window close it was offered
        control_ticks = {tick for tick, _ in outputs[2]}
        ends = [i + k for i, k in repeats
                if BACKLOG_UNTIL_S * per_s < i + k < DECAY_FROM_S * per_s]
        assert [end for end in ends if end % per_s and end not in control_ticks]

    def test_steady_figures_step_under_one_percent_of_their_ticks(self, monkeypatch):
        counts = {}
        step_tti, repeat_tti = Cell.step_tti, Cell.repeat_tti

        def stepped(cell):
            counts["stepped"] += 1
            return step_tti(cell)

        def repeated(cell, k):
            ran = repeat_tti(cell, k)
            counts["repeated"] += ran
            return ran

        monkeypatch.setattr(Cell, "step_tti", stepped)
        monkeypatch.setattr(Cell, "repeat_tti", repeated)
        for name in ("fig15", "fig16", "fig17"):
            counts.update(stepped=0, repeated=0)
            script = _steady_script(name)
            run_scenario(script)
            ticks = round(script.duration_s * 1000)
            assert counts["stepped"] + counts["repeated"] == ticks
            assert counts["stepped"] < ticks / 100
