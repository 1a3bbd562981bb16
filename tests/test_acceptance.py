"""Acceptance gate: every shipping criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Scenario replays and the reliability benchmark run on virtual
time; the delay benchmark measures the real threaded pipeline, asserting only
shape (flat vs. linear), never absolute microseconds.
"""

import random
import statistics
import time

import pytest

from hexsim import e2lite, fssf, reference
from hexsim.cli import bundled_scenario_path
from hexsim.composition_sim import run_scaling_experiment
from hexsim.errors import CodecError, LockedOut, ScenarioError
from hexsim.pml import FsApi, Pml, PluginManifest
from hexsim.clocks import VirtualClock
from hexsim.ric_harness import (
    BenchmarkConfig,
    ScenarioScript,
    _bench_agent,
    benchmark_delay,
    benchmark_reliability,
    run_scenario,
)
from hexsim.slice_model import (
    Bearer,
    ChangeTrigger,
    RadioResourceConfig,
    SliceRegistry,
    SliceState,
    UEContext,
)

T = ChangeTrigger("acceptance", "suite")
BASE_RTT = 20.0


def report(criterion: str, passed: bool, detail: str = "") -> None:
    marker = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {marker}{' - ' + detail if detail else ''}")
    assert passed, f"{criterion} failed: {detail}"


def replay(name):
    script = ScenarioScript.load(bundled_scenario_path(name))
    t0 = time.monotonic()
    metrics, runner = run_scenario(script)
    return metrics, runner, time.monotonic() - t0


@pytest.fixture(scope="module")
def fig15():
    return replay("fig15")


@pytest.fixture(scope="module")
def fig16():
    return replay("fig16")


@pytest.fixture(scope="module")
def fig17():
    return replay("fig17")


class TestCriterion1Fig15:
    def test_fig15_phases(self, fig15):
        metrics, runner, wall = fig15
        p1_s1 = metrics.mean("slice", "1", "throughput_mbps", 10, 19)
        p1_s2 = metrics.mean("slice", "2", "throughput_mbps", 10, 19)
        p2_s2 = metrics.mean("slice", "2", "throughput_mbps", 30, 39)
        p2_s1 = metrics.mean("slice", "1", "throughput_mbps", 30, 39)
        p3_s1 = metrics.mean("slice", "1", "throughput_mbps", 50, 59)
        p3_util = metrics.mean("cell", "cell", "utilization", 50, 59)
        p3_rtt = metrics.mean("slice", "1", "rtt_ms", 55, 59)
        p4_s1 = metrics.mean("slice", "1", "throughput_mbps", 70, 79)
        ok = (
            abs(p1_s1 - 65) <= 5 and abs(p1_s2 - 65) <= 5
            and abs(p2_s2 - 103) <= 3 and abs(p2_s1 - 27) <= 3
            and abs(p3_s1 - 27) <= 3 and abs(p3_util - 0.20) <= 0.03
            and p3_rtt > 5 * BASE_RTT
            and abs(p4_s1 - 130) <= 3
            and wall < 30.0
        )
        report(
            "1 (fig15 replay)", ok,
            f"p1={p1_s1:.1f}/{p1_s2:.1f} p2={p2_s2:.1f}/{p2_s1:.1f} "
            f"p3={p3_s1:.1f} util={p3_util:.3f} rtt={p3_rtt:.0f} "
            f"p4={p4_s1:.1f} wall={wall:.1f}s",
        )


class TestCriterion2Fig16:
    def test_fig16_phases(self, fig16):
        metrics, runner, _ = fig16
        targets = {"1": 52.0, "2": 52.0, "3": 26.0}
        p1 = {sid: metrics.mean("slice", sid, "throughput_mbps", 10, 19) for sid in targets}
        p2_s3 = metrics.mean("slice", "3", "throughput_mbps", 28, 39)
        f_s1 = metrics.mean("slice", "1", "throughput_mbps", 70, 79)
        f_s2 = metrics.mean("slice", "2", "throughput_mbps", 70, 79)
        f_s3 = metrics.mean("slice", "3", "throughput_mbps", 70, 79)
        f_s2_rtt = metrics.mean("slice", "2", "rtt_ms", 74, 79)
        f_s3_rtt = metrics.mean("slice", "3", "rtt_ms", 74, 79)
        ok = (
            all(abs(p1[sid] - want) <= 0.05 * want for sid, want in targets.items())
            and abs(p2_s3 - 78) <= 3
            and f_s2 < 0.95 * 52.0 and f_s2_rtt > 5 * BASE_RTT
            and abs(f_s1 - 103.0) <= 0.05 * 103.0
            and abs(f_s3 - 12.0) <= 0.05 * 12.0
            and f_s3_rtt <= 1.5 * BASE_RTT
        )
        report(
            "2 (fig16 replay)", ok,
            f"p1={p1['1']:.1f}/{p1['2']:.1f}/{p1['3']:.1f} p2_s3={p2_s3:.1f} "
            f"final={f_s1:.1f}/{f_s2:.1f}/{f_s3:.1f} s2_rtt={f_s2_rtt:.0f}",
        )


class TestCriterion3Fig17:
    def test_fig17_priority_split(self, fig17):
        metrics, runner, _ = fig17
        eq_u1 = metrics.mean("ue", "1", "throughput_mbps", 10, 19)
        eq_u2 = metrics.mean("ue", "2", "throughput_mbps", 10, 19)
        u1 = metrics.mean("ue", "1", "throughput_mbps", 50, 59)
        a1 = metrics.mean("ue", "1", "alloc_rb", 50, 59)
        a2 = metrics.mean("ue", "2", "alloc_rb", 50, 59)
        share1 = a1 / (a1 + a2)
        ok = (
            abs(eq_u1 - eq_u2) <= 3.0
            and 78.0 <= u1 <= 88.0
            and 0.75 <= share1 <= 0.85
            and 0.15 <= (1 - share1) <= 0.25
        )
        report(
            "3 (fig17 bearer priority)", ok,
            f"equal={eq_u1:.1f}/{eq_u2:.1f} bp5: ue1={u1:.1f} Mbps "
            f"split={share1 * 100:.1f}:{(1 - share1) * 100:.1f}",
        )


def linear_fit(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    ss_res = sum((y - (my + slope * (x - mx))) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    r2 = 1.0 - ss_res / ss_tot if ss_tot else 1.0
    return slope, r2


class TestCriterion4DelayShape:
    def test_default_agent_is_flat_and_serialized_reference_is_linear(self):
        default = benchmark_delay(BenchmarkConfig(instances=(10, 100), run_s=1.0))
        ratio = default[100].median_us / default[10].median_us
        serial = benchmark_delay(BenchmarkConfig(
            instances=tuple(range(10, 101, 10)), run_s=0.6,
            serialized=True, exec_cost_us=100.0,
        ))
        xs = sorted(serial)
        ys = [serial[n].median_us for n in xs]
        slope, r2 = linear_fit(xs, ys)
        ok = ratio <= 3.0 and slope > 0 and r2 > 0.8
        report(
            "4 (delay flat vs linear)", ok,
            f"default median {default[10].median_us:.0f}->{default[100].median_us:.0f} us "
            f"(x{ratio:.2f}); serialized slope={slope:.1f} us/instance R2={r2:.3f}",
        )

    def test_serialized_reference_blocks_each_control_for_its_exec_cost(self):
        cost_us = 2000.0
        agent, _ = _bench_agent(1, BenchmarkConfig(serialized=True, exec_cost_us=cost_us))
        for k in range(3):
            t0 = time.perf_counter_ns()
            agent.fs.fs_control_request("ric", {"slices": [{"slice_id": 1,
                                                            "shared_priority": 1}]})
            assert time.perf_counter_ns() - t0 >= cost_us * 1000
            assert agent.pml.pending() == k + 1  # queued, not run on the caller

    def test_frame_gated_delay_benchmark_is_rejected(self):
        with pytest.raises(ScenarioError):
            benchmark_delay(BenchmarkConfig(instances=(10,), frame_gated=True))


class TestCriterion5Reliability:
    def test_default_is_lossless_and_frame_gated_collapses(self):
        rates = tuple(range(10, 101, 10))
        default = benchmark_reliability(BenchmarkConfig(rates=rates, duration_s=60.0))
        gated = benchmark_reliability(BenchmarkConfig(rates=(100,), duration_s=60.0,
                                                      frame_gated=True))
        ledger_ok = all(s.executed + s.failed == s.received for s in default.values())
        default_ok = all(s.ratio == 1.0 for s in default.values())
        gated_ratio = gated[100].ratio
        ok = ledger_ok and default_ok and 0.05 <= gated_ratio <= 0.15
        report(
            "5 (reliability)", ok,
            f"default min ratio {min(s.ratio for s in default.values()):.2f} over "
            f"{sum(s.received for s in default.values())} msgs; "
            f"frame-gated@100/s {gated_ratio:.2f}",
        )

    def test_frame_gated_ledger_is_exact(self):
        def ledger(frame_gated):
            stats = benchmark_reliability(BenchmarkConfig(
                rates=(20, 100), duration_s=2.0, frame_gated=frame_gated))
            return {rate: (s.received, s.executed, s.failed) for rate, s in stats.items()}

        assert ledger(True) == {20: (40, 20, 20), 100: (200, 20, 180)}
        assert ledger(False) == {20: (40, 40, 0), 100: (200, 200, 0)}


class TestCriterion6Scaling:
    def test_composable_vs_monolithic_capacity(self):
        hexran = run_scaling_experiment("hexran")
        baseline = run_scaling_experiment("baseline")
        h10, b10 = hexran.per_cells[10], baseline.per_cells[10]
        identical = all(
            hexran.per_cells[n].delivered_mbps == baseline.per_cells[n].delivered_mbps
            for n in range(1, 5)
        )
        ok = (
            abs(h10.delivered_mbps - 1000.0) <= 1.0
            and max(s.loss for s in hexran.samples) == 0.0
            and hexran.settled_peak_utilization <= 0.90 + 1e-9
            and hexran.transient_peak_utilization <= 1.0 + 1e-9
            and abs(b10.delivered_mbps - 450.0) <= 1.0
            and abs(baseline.settled_peak_utilization - 2.2) <= 0.1
            and identical
        )
        report(
            "6 (capacity scaling)", ok,
            f"hexran {h10.delivered_mbps:.0f} Mbps peak {hexran.settled_peak_utilization:.3f} "
            f"(transient {hexran.transient_peak_utilization:.2f}); "
            f"baseline {b10.delivered_mbps:.0f} Mbps peak "
            f"{baseline.settled_peak_utilization:.2f}; identical<=4cells={identical}",
        )


class TestCriterion7OracleEquivalence:
    def test_ten_thousand_random_instances_match_reference(self):
        mismatches = reference.oracle_equivalence_run(10_000, seed=20240)
        report("7 (scheduler oracle equivalence)", not mismatches,
               f"10000 instances, {len(mismatches)} mismatches"
               + (f"; first: {mismatches[0][:200]}" if mismatches else ""))


class TestCriterion8StateMachine:
    def test_exhaustive_lifecycle_against_reference_table(self):
        problems = []
        for default in sorted((s for s in SliceState if s is not SliceState.IDLE),
                              key=lambda s: s.value):
            for state in SliceState:
                # bearer-arrival edge, via the registry
                reg = SliceRegistry(106)
                reg.create_slice(1, default)
                reg.add_ue(UEContext(ue_id=1))
                if state is not SliceState.IDLE:
                    reg.add_drb(1, Bearer(drb_id=1, ue_id=1, slice_id=1), T)
                    reg.request_state_change(1, state, _rrc_for(state), T)
                    reg.add_drb(1, Bearer(drb_id=2, ue_id=1, slice_id=1), T)
                else:
                    reg.add_drb(1, Bearer(drb_id=1, ue_id=1, slice_id=1), T)
                got = reg.get_slice(1).state
                want = reference.expected_after_add(state, default)
                if got is not want:
                    problems.append(f"add {state.value}/{default.value}: {got} != {want}")
        for state in (SliceState.DEDICATED, SliceState.PRIORITIZED,
                      SliceState.SHARED, SliceState.HYBRID):
            reg = SliceRegistry(106)
            reg.create_slice(1, state, _rrc_for(state))
            reg.add_ue(UEContext(ue_id=1))
            reg.add_drb(1, Bearer(drb_id=1, ue_id=1, slice_id=1), T)
            reg.remove_drb(1, 1, T)
            ctx = reg.get_slice(1)
            want_state, want_default = reference.expected_after_empty(state)
            if ctx.state is not want_state:
                problems.append(f"empty {state.value}: state {ctx.state} != {want_state}")
            if want_default is not None and ctx.default_active_state is not want_default:
                problems.append(f"empty {state.value}: default != {want_default}")
            if state is SliceState.HYBRID:
                if ctx.rrc.prioritized_rb != 0 or ctx.rrc.dedicated_rb != 10:
                    problems.append("hybrid collapse kept the wrong resources")
            if state in (SliceState.PRIORITIZED, SliceState.SHARED):
                if ctx.rrc.footprint() != 0:
                    problems.append(f"{state.value} kept resources after reset to idle")
        report("8 (slice lifecycle table)", not problems, "; ".join(problems) or
               "all (state x event) pairs match, including the collapse rules")


def _rrc_for(state):
    if state is SliceState.DEDICATED:
        return RadioResourceConfig(dedicated_rb=10)
    if state is SliceState.PRIORITIZED:
        return RadioResourceConfig(prioritized_rb=10)
    if state is SliceState.HYBRID:
        return RadioResourceConfig(dedicated_rb=10, prioritized_rb=10)
    return RadioResourceConfig()


class TestCriterion9Mediation:
    def test_fifo_lockout_and_atomic_publication(self):
        problems = []

        # FIFO over 10,000 interleaved calls on two APIs
        pml = Pml(clock=VirtualClock())
        log = {"a": [], "b": []}
        pml.register_plugin(PluginManifest("p", ("a", "b")),
                            {"a": lambda c: log["a"].append(c.call_id),
                             "b": lambda c: log["b"].append(c.call_id)})
        rng = random.Random(5)
        for k in range(10_000):
            pml.invoke(rng.choice("ab"), f"caller{k % 7}", k)
        pml.drain()
        if log["a"] != sorted(log["a"]) or log["b"] != sorted(log["b"]):
            problems.append("per-API completion order != arrival order")
        if len(log["a"]) + len(log["b"]) != 10_000:
            problems.append("lost calls")

        # lockout matrix: caller identity x window position
        for caller, dt_ms, want_rejected in (
            ("X", 10, False), ("X", 150, False), ("Y", 10, True), ("Y", 150, False),
        ):
            clock = VirtualClock()
            pml = Pml(clock=clock)
            pml.register_plugin(PluginManifest("p", ("w",)), {"w": lambda c: None})
            pml.invoke("w", "X", None, ["param/p"])
            clock.advance_ms(dt_ms)
            outcome = pml.invoke("w", caller, None, ["param/p"])
            if isinstance(outcome.error, LockedOut) != want_rejected:
                problems.append(f"lockout matrix broke at ({caller}, {dt_ms} ms)")

        # atomic boundary publication: a snapshot never splits one request
        clock = VirtualClock()
        registry = SliceRegistry(106)
        pml = Pml(clock=clock)
        fs = FsApi(pml, registry)
        for sid in (1, 2):
            registry.create_slice(sid, SliceState.SHARED)
            registry.add_ue(UEContext(ue_id=sid))
            registry.add_drb(sid, Bearer(drb_id=sid, ue_id=sid, slice_id=sid), T)
        registry.publish()
        rng = random.Random(9)
        for k in range(2, 120):
            fs.fs_control_request("ric", {"slices": [
                {"slice_id": 1, "shared_priority": k},
                {"slice_id": 2, "shared_priority": k},
            ]})
            if rng.random() < 0.5:
                snap = registry.snapshot(slice_ids=[1, 2])["slices"]
                if snap[0]["rrc"]["shared_priority"] != snap[1]["rrc"]["shared_priority"]:
                    problems.append(f"partial state visible before boundary {k}")
            pml.tti_boundary(registry)
            snap = registry.snapshot(slice_ids=[1, 2])["slices"]
            values = {s["rrc"]["shared_priority"] for s in snap}
            if values != {k}:
                problems.append(f"partial state after boundary {k}: {values}")

        report("9 (mediation dispatch)", not problems, "; ".join(problems) or
               "FIFO x10000, lockout matrix, atomic publication")


class TestCriterion10Protocol:
    def test_round_trip_and_fuzz(self):
        problems = []
        rng = random.Random(123)

        def random_payload(depth=0):
            if depth > 2:
                return rng.randint(0, 9)
            kind = rng.random()
            if kind < 0.4:
                return {f"k{rng.randint(0, 5)}": random_payload(depth + 1)
                        for _ in range(rng.randint(0, 4))}
            if kind < 0.6:
                return [random_payload(depth + 1) for _ in range(rng.randint(0, 4))]
            if kind < 0.8:
                return rng.randint(-10**6, 10**6)
            return "".join(chr(rng.randint(32, 0x2FF)) for _ in range(rng.randint(0, 12)))

        for k in range(10_000):
            frame = e2lite.E2LiteFrame(
                msg_type=rng.randint(0, 255),
                correlation_id=rng.randint(0, 2**32 - 1),
                payload={f"f{i}": random_payload() for i in range(rng.randint(0, 4))},
            )
            if e2lite.decode(e2lite.encode(frame)) != frame:
                problems.append(f"round-trip broke at {k}")
                break

        seeds = [e2lite.encode(e2lite.E2LiteFrame(rng.randint(0, 255),
                                                  rng.randint(0, 2**32 - 1),
                                                  {"x": rng.randint(0, 9)}))
                 for _ in range(64)]
        decoded = rejected = 0
        for k in range(10_000):
            if k % 2:
                data = bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 80)))
            else:
                data = bytearray(rng.choice(seeds))
                for _ in range(rng.randint(1, 8)):
                    if data:
                        data[rng.randrange(len(data))] = rng.getrandbits(8)
                data = bytes(data[:rng.randint(0, len(data))])
            try:
                e2lite.decode(data)
                decoded += 1
            except CodecError:
                rejected += 1
            except Exception as exc:  # anything else is a totality violation
                problems.append(f"decoder crashed on fuzz input {k}: {type(exc).__name__}")
                break
        if decoded + rejected + len(problems) < 10_000 and not problems:
            problems.append("fuzz loop under-ran")
        report("10 (wire protocol)", not problems, "; ".join(problems) or
               f"10000 round-trips ok; fuzz: {decoded} frames, {rejected} typed rejections")


class TestSchedulerBudget:
    def test_full_cell_decision_under_100_microseconds_median(self):
        """Stand-in for hardware parity: the per-tick decision at full cell
        width (106 RBs, 12 UEs) stays cheap enough to be invisible at TTI rate."""
        slices = []
        rates = {}
        drb = 1
        for sid, (state, ded, prio) in enumerate([
            (SliceState.DEDICATED, 30, 0), (SliceState.PRIORITIZED, 0, 25),
            (SliceState.HYBRID, 10, 10), (SliceState.SHARED, 0, 0),
        ], start=1):
            members = []
            for _ in range(3):
                members.append(fssf.DrbInput(drb, drb, (drb % 3) + 1))
                rates[drb] = 1226.4
                drb += 1
            slices.append(fssf.SliceInput(sid, state, ded, prio, sid,
                                          "priority_weighted", tuple(members)))
        demands = {d: (d * 13) % 107 for d in range(1, 13)}
        inp = fssf.TtiInput(0, 106, rates, demands, tuple(slices))
        for _ in range(500):
            fssf.run_tti(inp)
        samples = []
        for _ in range(3000):
            t0 = time.perf_counter_ns()
            fssf.run_tti(inp)
            samples.append((time.perf_counter_ns() - t0) / 1000.0)
        median = statistics.median(samples)
        report("budget (106-RB/12-UE decision)", median < 100.0,
               f"median {median:.1f} us over 3000 runs")
