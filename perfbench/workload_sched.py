"""sched: a generated dense cell driven tick by tick through the library API.

Per tick the loop does what the README's library sketch does: apply
control at the boundary (Pml.tti_boundary), then Cell.step_tti. The cell is
built from the seed so that the scheduler does real work on every tick:

* 106 RBs, six slices covering the dedicated, prioritized, hybrid and shared
  states;
* 48 UEs with mixed MCS (through the LinkState rate hook) and bearer
  priorities 1-5, each with one bearer;
* an on/off offered-rate schedule per bearer, near the cell's capacity, so
  buffers and demands change from tick to tick;
* 8 bearers leave and 8 join (into the slices the leavers left) every
  90-110 ticks, so per-epoch rebuild cost lands on the ticks after a churn;
* phases of PHASE_TICKS ticks alternate between an all-stateless algorithm
  mix (decision memo on, mostly missing) and a mix with proportional_fair and
  round_robin (memo off). The switch goes through fs_control_request.

No agent or codec is involved. Correctness is checked on every tick, outside
the timed region.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import heapq
import random
import time

from hexsim import fssf, reference
from hexsim.clocks import VirtualClock
from hexsim.pml import FsApi, Pml
from hexsim.radio_sim import Cell, CellConfig, LinkState
from hexsim.slice_model import (
    Bearer,
    ChangeTrigger,
    RadioResourceConfig,
    SliceRegistry,
    SliceState,
    UEContext,
)

from common import Phase, pct

TOTAL_RB = 106
N_UES = 48
CHURN = 8
CHURN_GAP = (90, 110)
MIN_BEARERS_PER_SLICE = 4   # a slice never empties mid-churn, so none resets to idle
PHASE_TICKS = 1000
PASS_TICKS = 3 * PHASE_TICKS  # stateless, mixed, stateless
CHECK_EVERY = 97              # ticks cross-checked against the reference scheduler
DEFAULT_SEED = 1
# sha256 over the per-second window metrics of one pass, for DEFAULT_SEED
WINDOWS_SHA256 = "dd28496eb46436dbfb91f752dc7003359c76a1c5c114a6c823db1b17f18e455b"
CALLER = "sched-bench"

SLICES = (
    (1, SliceState.DEDICATED, RadioResourceConfig(dedicated_rb=18)),
    (2, SliceState.PRIORITIZED, RadioResourceConfig(prioritized_rb=16)),
    (3, SliceState.HYBRID, RadioResourceConfig(dedicated_rb=8, prioritized_rb=10,
                                               shared_priority=2)),
    (4, SliceState.SHARED, RadioResourceConfig(shared_priority=1)),
    (5, SliceState.SHARED, RadioResourceConfig(shared_priority=2)),
    (6, SliceState.SHARED, RadioResourceConfig(shared_priority=3)),
)
# Algorithm layout per phase, rotated by one slice each phase. It does not
# depend on the seed: which slice runs proportional_fair sets most of a tick's
# cost, and seeds should differ in traffic, not in how much scheduling work
# they ask for.
STATELESS_MIX = ("priority_weighted",) * 3 + ("max_throughput",) * 3
STATEFUL_MIX = ("proportional_fair", "proportional_fair", "round_robin", "round_robin",
                "priority_weighted", "max_throughput")
_JOIN = ChangeTrigger("DRB Setup", "ran")
_LEAVE = ChangeTrigger("DRB Release", "ran")


def mcs_rate_fraction(mcs: int) -> float:
    return (mcs + 4) / 32.0


class Sched:
    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None
        self.pass_digests: set[str] = set()
        self._build()

    def _build(self) -> None:
        """The generated cell at tick 0; every pass starts from this same state."""
        self.rng = random.Random(self.seed)
        self.clock = VirtualClock()
        self.registry = SliceRegistry(TOTAL_RB)
        self.pml = Pml(clock=self.clock)
        self.fs = FsApi(self.pml, self.registry)
        for sid, state, rrc in SLICES:
            self.registry.create_slice(sid, default_active_state=state, rrc=rrc)
        self.cell = Cell(CellConfig(total_rb=TOTAL_RB), self.registry,
                         link_state=LinkState(mcs_rate_fraction=mcs_rate_fraction))
        self.members = {sid: [] for sid, _, _ in SLICES}
        self.toggles: list[tuple[int, int]] = []
        self.on: dict[int, bool] = {}
        self.next_ue = 1
        # the initial UEs spread evenly over MCS 0-28 and priorities 1-5
        mcs = [i * 28 // (N_UES - 1) for i in range(N_UES)]
        priority = [1 + i % 5 for i in range(N_UES)]
        self.rng.shuffle(mcs)
        self.rng.shuffle(priority)
        for i in range(N_UES):
            self._join(SLICES[i % len(SLICES)][0], 0, mcs[i], priority[i])
        self.tick = 0
        self.next_churn = self.rng.randint(*CHURN_GAP)
        self.pending_switch = None
        self.window_hash = hashlib.sha256()
        self.pml.tti_boundary(self.registry)

    # -- input generation ------------------------------------------------------

    def _join(self, sid: int, tick: int, mcs: int, priority: int) -> None:
        uid = self.next_ue
        self.next_ue += 1
        drb = 1000 + uid
        self.registry.add_ue(UEContext(ue_id=uid, mcs=mcs))
        self.registry.add_drb(sid, Bearer(drb_id=drb, ue_id=uid, slice_id=sid,
                                          bearer_priority=priority), _JOIN)
        self.cell.attach_bearer(drb, 0.0)
        self.members[sid].append(drb)
        self.on[drb] = False
        heapq.heappush(self.toggles, (tick + self.rng.randint(0, 50), drb))

    def _leave(self, sid: int, drb: int) -> None:
        self.registry.remove_drb(sid, drb, _LEAVE)
        self.cell.detach_bearer(drb)
        self.registry.remove_ue(drb - 1000)
        self.members[sid].remove(drb)
        del self.on[drb]

    def _churn(self) -> None:
        """CHURN bearers leave and as many join, each into the slice one left,
        so slice sizes (and with them the per-slice algorithm cost) hold steady."""
        left = []
        for _ in range(CHURN):
            eligible = [s for s, m in self.members.items() if len(m) > MIN_BEARERS_PER_SLICE]
            sid = self.rng.choice(eligible)
            self._leave(sid, self.rng.choice(self.members[sid]))
            left.append(sid)
        for sid in left:
            self._join(sid, self.tick, self.rng.randint(0, 28), self.rng.randint(1, 5))

    def _switch_algorithms(self) -> None:
        sids = [sid for sid, _, _ in SLICES]
        phase = self.tick // PHASE_TICKS
        mix = STATEFUL_MIX if phase % 2 else STATELESS_MIX
        algos = mix[phase % len(mix):] + mix[:phase % len(mix)]
        params = {"slices": [{"slice_id": s, "fd_scheduler": a} for s, a in zip(sids, algos)]}
        self.pending_switch = self.fs.fs_control_request(CALLER, params)

    def _apply_events(self) -> None:
        t = self.tick
        if t % PHASE_TICKS == 0:
            self._switch_algorithms()
        if t == self.next_churn:
            self._churn()
            self.next_churn += self.rng.randint(*CHURN_GAP)
        while self.toggles and self.toggles[0][0] <= t:
            _, drb = heapq.heappop(self.toggles)
            if drb not in self.on:
                continue  # left the cell
            if self.on[drb]:
                self.on[drb] = False
                self.cell.set_offered(drb, 0.0)
                heapq.heappush(self.toggles, (t + self.rng.randint(20, 300), drb))
            else:
                self.on[drb] = True
                self.cell.set_offered(drb, self.rng.uniform(0.5, 6.0))
                heapq.heappush(self.toggles, (t + self.rng.randint(20, 200), drb))

    # -- the timed loop -------------------------------------------------------------

    def measure(self, seconds: float, tracer=None) -> Phase:
        """Whole passes of PASS_TICKS ticks until ``seconds`` have gone.

        Every pass replays the same generated ticks, so each tick is timed once
        per pass; the op_* figures take each tick's best time over the passes,
        because host interference on a shared machine only ever adds time.
        ``tracer`` is paused while the benchmark rebuilds the cell and while
        the reference scheduler runs, since that calls the same algorithms.
        """
        self.tracer = tracer
        phase = Phase()
        inf = float("inf")
        best_loop, best_step, best_cpu = [inf] * PASS_TICKS, [inf] * PASS_TICKS, [inf] * PASS_TICKS
        total_loop_ns = 0
        passes = 0
        t_end = time.perf_counter() + seconds
        while True:
            if self.tick:
                with self._paused():
                    self._build()
            loop_ns, step_ns, cpu_ns = self._pass(phase)
            best_loop = list(map(min, best_loop, loop_ns))
            best_step = list(map(min, best_step, step_ns))
            best_cpu = list(map(min, best_cpu, cpu_ns))
            total_loop_ns += sum(loop_ns)
            passes += 1
            if time.perf_counter() >= t_end:
                break
        step_us = [ns / 1000.0 for ns in best_step]
        phase.e2e = {
            "op_mean_us": sum(best_loop) / 1000.0 / PASS_TICKS,
            "op_p50_us": pct(step_us, 50),
            "op_p90_us": pct(step_us, 90),
            "cpu_us_per_op": sum(best_cpu) / 1000.0 / PASS_TICKS,
        }
        phase.named = {
            "tick_mean_us": phase.e2e["op_mean_us"],
            "tick_p50_us": phase.e2e["op_p50_us"],
            "tick_p99_us": pct(step_us, 99),
            "tick_mean_us_all_passes": total_loop_ns / 1000.0 / (passes * PASS_TICKS),
            "passes": passes,
        }
        return phase

    def _pass(self, phase: Phase) -> tuple[list[int], list[int], list[int]]:
        loop_ns, step_ns, cpu_ns = [], [], []
        clock_ns = time.perf_counter_ns
        cpu = time.process_time_ns
        for _ in range(PASS_TICKS):
            checked = self.tick % CHECK_EVERY == 0
            if checked:
                histories = copy.deepcopy(self.cell.histories)
                captured = []
                scheduler = fssf.run_tti

                def capture(inp, *args, _real=scheduler, _out=captured):
                    _out.append((inp, args))
                    return _real(inp, *args)

                fssf.run_tti = capture
            c0 = cpu()
            ta = clock_ns()
            self._apply_events()
            self.pml.tti_boundary(self.registry)
            tb = clock_ns()
            decision = self.cell.step_tti()
            tc = clock_ns()
            cpu_ns.append(cpu() - c0)
            loop_ns.append(tc - ta)
            step_ns.append(tc - tb)
            if checked:
                fssf.run_tti = scheduler
                if captured:
                    self._cross_check(captured[0], histories, decision, phase)
            self._finish_tick(decision, phase)
        return loop_ns, step_ns, cpu_ns

    @contextlib.contextmanager
    def _paused(self):
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.enabled = True

    def _finish_tick(self, decision, phase: Phase) -> None:
        self.clock.advance_ms(1.0)
        self.tick += 1
        phase.attempted += 1
        if self.pending_switch is not None:
            phase.attempted += 1
            if not self.pending_switch.done or self.pending_switch.error is not None:
                phase.failed += 1
                phase.errors.append(f"tick {self.tick}: algorithm switch failed: "
                                    f"{self.pending_switch.error}")
            self.pending_switch = None
        problem = self._invariant_problem(decision)
        if problem:
            phase.failed += 1
            phase.errors.append(f"tick {self.tick}: {problem}")
        if self.tick % 1000 == 0:
            w = self.cell.end_window()
            self.window_hash.update(repr((
                w.ttis, w.utilization, sorted(w.served_mbps.items()),
                sorted(w.alloc_rb_mean.items()), w.cell_throughput_mbps,
            )).encode())
        if self.tick == PASS_TICKS:
            digest = self.window_hash.hexdigest()
            self.pass_digests.add(digest)
            if self.seed == DEFAULT_SEED and digest != WINDOWS_SHA256:
                phase.errors.append(f"window digest {digest} != pinned for seed {DEFAULT_SEED}")
            if len(self.pass_digests) > 1:
                phase.errors.append(f"passes of seed {self.seed} disagree: {self.pass_digests}")

    def _invariant_problem(self, decision) -> str:
        per_drb = decision.per_drb_rb
        if sum(per_drb.values()) > TOTAL_RB:
            return f"{sum(per_drb.values())} RBs granted on a {TOTAL_RB}-RB cell"
        bearers = self.registry.published.bearers
        per_ue: dict[int, int] = {}
        for drb, n in per_drb.items():
            if n:
                per_ue[bearers[drb].ue_id] = per_ue.get(bearers[drb].ue_id, 0) + n
        ranges = decision.vrb.per_ue_range
        if set(ranges) != set(per_ue):
            return "VRB map and RB grants name different UEs"
        last = -1
        for lo, hi in sorted(ranges.values()):
            if lo <= last or hi >= TOTAL_RB or lo > hi:
                return f"VRB range ({lo}, {hi}) overlaps or leaves the grid"
            last = hi
        for ue, (lo, hi) in ranges.items():
            if hi - lo + 1 != per_ue[ue]:
                return f"UE {ue} range {lo}-{hi} does not hold its {per_ue[ue]} RBs"
        return ""

    def _cross_check(self, call, histories, decision, phase: Phase) -> None:
        inp, args = call
        with self._paused():
            want = reference.reference_run_tti(inp, *args[:1], histories, *args[2:])
        got_plan = {d: n for d, n in decision.per_drb_rb.items() if n}
        want_plan = {d: n for d, n in want.per_drb_rb.items() if n}
        if (got_plan != want_plan
                or decision.plan.shared_pool_remaining != want.plan.shared_pool_remaining
                or decision.vrb.per_ue_range != want.vrb.per_ue_range):
            phase.failed += 1
            phase.errors.append(f"tick {self.tick}: scheduler disagrees with the reference")

    def failures_by_cause(self) -> dict[str, int]:
        return {}  # no agent in this workload

    def close(self) -> None:
        pass
