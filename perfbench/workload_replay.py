"""replay: the three bundled figure scripts, back to back, through run_scenario.

This is the path `hexsim scenario` takes and the job users run most: 220k
ticks on virtual time per pass. Passes repeat until the time budget is spent;
every pass must reproduce the pinned CSV bytes. The seed is not used: the
inputs are the bundled scripts.
"""

from __future__ import annotations

import hashlib
import time

from hexsim import radio_sim
from hexsim.cli import bundled_scenario_path
from hexsim.ric_harness import ScenarioScript, run_scenario

from common import SCRIPTS, Phase, pct

TICKS_PER_WINDOW = 1000  # the runner closes a metrics window every simulated second
# sha256 of each script's metrics CSV; identical under PYTHONHASHSEED 0-3
CSV_SHA256 = {
    "fig15": "55452a2339f3a635916f9fabf65f438fe654ad7b54ba609a631c659aba8ff1e4",
    "fig16": "4f2685765fa5aa7057074abe90a08fc49319dff997be1765f8662f1ffa9cd983",
    "fig17": "5142a58d628a95c1654dcf721f85b158e6a96a5d12405209997e52dd8195a62b",
}


class Replay:
    def __init__(self, seed: int):
        self.scripts = [ScenarioScript.load(bundled_scenario_path(n)) for n in SCRIPTS]
        self.failures: dict[str, int] = {}

    def measure(self, seconds: float, tracer=None) -> Phase:
        """Whole passes until ``seconds`` have gone (at least one pass).

        Time is taken per simulated second: host wall and CPU time for each
        one-second metrics window, stamped where the runner closes it
        (Cell.end_window, once per 1000 ticks). Every pass replays the same
        windows, so each window keeps its best time over the passes: host
        interference on a shared machine only ever adds time. op_mean_us is
        the mean of those best times per tick, op_p50_us and op_p90_us their
        percentiles across windows.
        """
        phase = Phase()
        stamps: list[tuple[int, int]] = []
        original = radio_sim.Cell.end_window

        def stamped(cell):
            stamps.append((time.perf_counter_ns(), time.process_time_ns()))
            return original(cell)

        best_wall: dict[tuple[str, int], int] = {}
        best_cpu: dict[tuple[str, int], int] = {}
        total_s = 0.0
        ticks = 0
        radio_sim.Cell.end_window = stamped
        try:
            t_end = time.perf_counter() + seconds
            while True:
                for script in self.scripts:
                    stamps.clear()
                    start = time.perf_counter()
                    metrics, runner = run_scenario(script)
                    total_s += time.perf_counter() - start
                    ticks += int(round(script.duration_s * 1000 / script.cell.tti_ms))
                    # window 0 also holds the runner's construction; it is left out
                    for i, (a, b) in enumerate(zip(stamps, stamps[1:]), start=1):
                        key = (script.name, i)
                        best_wall[key] = min(best_wall.get(key, b[0]), b[0] - a[0])
                        best_cpu[key] = min(best_cpu.get(key, b[1]), b[1] - a[1])
                    self._check(script, metrics, runner, phase)
                    for cause, n in runner.agent.failures_by_cause.items():
                        self.failures[cause] = self.failures.get(cause, 0) + n
                if time.perf_counter() >= t_end:
                    break
        finally:
            radio_sim.Cell.end_window = original
        per_tick_us = {k: ns / 1000.0 / TICKS_PER_WINDOW for k, ns in best_wall.items()}
        best = list(per_tick_us.values())
        phase.e2e = {
            "op_mean_us": sum(best) / len(best),
            "op_p50_us": pct(best, 50),
            "op_p90_us": pct(best, 90),
            "cpu_us_per_op": sum(best_cpu.values()) / 1000.0 / (len(best_cpu) * TICKS_PER_WINDOW),
        }
        phase.named = {"tick_mean_us": phase.e2e["op_mean_us"],
                       "tick_mean_us_all_passes": total_s * 1e6 / ticks}
        for n in SCRIPTS:
            mine = [v for (name, _), v in per_tick_us.items() if name == n]
            phase.layer_extra[f"ric_harness.scenario.{n}.tick_us"] = sum(mine) / len(mine)
        return phase

    @staticmethod
    def _check(script, metrics, runner, phase: Phase) -> None:
        digest = hashlib.sha256(metrics.to_csv().encode()).hexdigest()
        if digest != CSV_SHA256[script.name]:
            phase.errors.append(f"{script.name}: CSV sha256 {digest[:12]} != pinned")
        # run_scenario already raised if a control had no response at all
        sent = sum(1 for e in script.events if e.action in ("slice_control", "ue_control"))
        acked = sum(1 for kind, _ in runner.ric.control_results.values() if kind == "ack")
        phase.attempted += sent
        phase.failed += sent - acked

    def failures_by_cause(self) -> dict[str, int]:
        return dict(self.failures)

    def close(self) -> None:
        pass
