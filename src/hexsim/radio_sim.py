"""Tick-driven cell emulation: traffic arrivals, buffers, service, RTT, utilization.

The cell owns downlink byte buffers per bearer. Each tick it enqueues offered
traffic, builds the scheduler input from the published slice snapshot, runs
the three-stage allocator, then drains each buffer by what its RB grant can
carry. Throughput and delay statistics are exponentially smoothed with a
100 ms time constant and written into the live bearer stats read by reports.

The loop runs on virtual time and is deterministic for a fixed offered-rate
schedule; a many-second scenario replays in a fraction of wall time. Within
one epoch, when every slice's algorithm is stateless, a tick whose demands
equal the previous tick's reuses the previous decision, which is what keeps
long steady-state phases cheap.

A memo-hit tick is a fixed point when every bearer with arrivals is in the
bearer table and, for each one in it, the throughput it writes equals the one
it read and its drained buffer plus the next arrivals equals the buffer it
drained. Every later tick then reads the same inputs and writes the same
values, adding only to the window accumulators, until the epoch, a rate or
the attached set changes. ``step_tti`` tests this in its drain loop at most
every ``PROBE_INTERVAL`` ticks; ``repeat_tti`` runs k such ticks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from . import fssf
from .slice_model import BearerStats, SliceRegistry, SliceState

RTT_CAP_MS = 2000.0
STATS_WINDOW_MS = 100.0
PROBE_INTERVAL = 64  # ticks from one fixed-point probe to the next


@dataclass(frozen=True)
class CellConfig:
    total_rb: int = 106
    per_rb_rate_mbps: float = 130.0 / 106.0
    tti_ms: float = 1.0
    base_rtt_ms: float = 20.0

    @property
    def per_rb_bits_per_tti(self) -> float:
        return self.per_rb_rate_mbps * 1e6 * (self.tti_ms / 1000.0)


@dataclass
class LinkState:
    """Per-UE link quality; the rate hook maps an MCS index to a fraction of
    the calibrated per-RB rate (identity keeps the single-scalar model)."""

    mcs_rate_fraction: Callable[[int], float] = lambda mcs: 1.0


class TrafficProfile:
    """Piecewise-constant offered rate per bearer: {drb: [(t_s, mbps), ...]}."""

    def __init__(self, schedule: Mapping[int, Sequence[tuple[float, float]]]):
        self.schedule = {drb: sorted(steps) for drb, steps in schedule.items()}
        for steps in self.schedule.values():
            if any(rate < 0 for _, rate in steps):
                raise ValueError("offered rates must be >= 0")

    def rate_at(self, drb: int, t_s: float) -> float:
        rate = 0.0
        for t, r in self.schedule.get(drb, ()):
            if t <= t_s:
                rate = r
            else:
                break
        return rate

    def apply(self, cell: "Cell", t_s: float) -> None:
        for drb in self.schedule:
            if cell.has_bearer(drb):
                cell.set_offered(drb, self.rate_at(drb, t_s))


@dataclass
class _Epoch:
    """One published epoch's tick-loop constants and its last-tick memo.

    The bearer table is four columns aligned by index, one entry per
    scheduled bearer in scheduler input order.
    """

    number: int
    slices: tuple[fssf.SliceInput, ...]
    ue_rate: dict[int, float]
    drb_ids: tuple[int, ...]
    bits_per_rb: tuple[float, ...]        # the owning UE's bits per RB per tick
    rb_capacity: tuple[float, ...]        # bytes one RB carries per tick, after BLER
    stats: tuple[BearerStats, ...]        # the live objects, aliased by the published bearers
    stateless: bool  # no slice's algorithm keeps history; only then is the memo set
    last_demands: Optional[dict[int, int]] = None
    last_decision: Optional[fssf.ScheduleDecision] = None


@dataclass
class WindowMetrics:
    ttis: int
    utilization: float
    served_mbps: dict[int, float]
    alloc_rb_mean: dict[int, float]
    cell_throughput_mbps: float


class Cell:
    """One carrier driven tick-by-tick against a slice registry."""

    def __init__(
        self,
        cfg: CellConfig,
        registry: SliceRegistry,
        algorithms: fssf.AlgorithmRegistry = fssf.DEFAULT_REGISTRY,
        link_state: Optional[LinkState] = None,
    ):
        if registry.total_rb != cfg.total_rb:
            raise ValueError("registry and cell disagree on total_rb")
        self.cfg = cfg
        self.registry = registry
        self.algorithms = algorithms
        self.link = link_state or LinkState()
        self.tti_index = 0
        self.buffers: dict[int, float] = {}
        self.offered: dict[int, float] = {}
        self._arrivals: dict[int, float] = {}  # bytes per tick, for each non-zero offered rate
        self.histories: dict[int, dict] = {}
        self._epoch = _Epoch(-1, (), {}, (), (), (), (), False)
        self._tti_s = cfg.tti_ms / 1000.0
        self._alpha = cfg.tti_ms / STATS_WINDOW_MS
        # (drb, RBs or None, bytes served) per table bearer of a fixed-point last tick
        self.fixed_tick: Optional[list[tuple[int, Optional[int], float]]] = None
        self._probe_at = 0
        # window accumulators (reset by end_window)
        self._win_ttis = 0
        self._win_alloc = 0
        self._win_served: dict[int, float] = {}
        self._win_alloc_drb: dict[int, int] = {}

    # -- bearer bookkeeping ------------------------------------------------------

    def has_bearer(self, drb: int) -> bool:
        return drb in self.buffers

    def attach_bearer(self, drb: int, offered_mbps: float = 0.0) -> None:
        self.buffers.setdefault(drb, 0.0)
        self._offer(drb, offered_mbps)

    def detach_bearer(self, drb: int) -> None:
        self.fixed_tick = None  # the next tick differs from the last
        self.buffers.pop(drb, None)
        self.offered.pop(drb, None)
        self._arrivals.pop(drb, None)

    def set_offered(self, drb: int, mbps: float) -> None:
        if mbps < 0:
            raise ValueError("offered rate must be >= 0")
        if drb not in self.buffers:
            raise KeyError(f"drb {drb} not attached")
        self._offer(drb, mbps)

    def _offer(self, drb: int, mbps: float) -> None:
        self.fixed_tick = None
        self.offered[drb] = mbps
        if mbps:
            self._arrivals[drb] = mbps * 1e6 * self._tti_s / 8.0
        else:
            self._arrivals.pop(drb, None)

    # -- per-tick machinery --------------------------------------------------------

    def _rebuild_structure(self) -> _Epoch:
        snap = self.registry.published
        slices = []
        drb_ids, bits, capacity, stats = [], [], [], []
        per_rb_bits = self.cfg.per_rb_bits_per_tti
        ue_rate = {uid: per_rb_bits * self.link.mcs_rate_fraction(ue.mcs)
                   for uid, ue in snap.ues.items()}
        for sid in sorted(snap.slices):
            s = snap.slices[sid]
            if s.state is SliceState.IDLE:
                continue
            reserves = s.state in (
                SliceState.DEDICATED, SliceState.PRIORITIZED, SliceState.HYBRID
            )
            # bearer-less shared slices have nothing to schedule, but a
            # bearer-less dedicated/prioritized slice still pins its assignment
            if not s.bearers and not reserves:
                continue
            drbs = []
            for drb in sorted(s.bearers):
                b = snap.bearers[drb]
                drbs.append(fssf.DrbInput(drb, b.ue_id, b.bearer_priority))
                bler = snap.ues[b.ue_id].bler if b.ue_id in snap.ues else 0.0
                bits_per_rb = ue_rate.get(b.ue_id, per_rb_bits)
                drb_ids.append(drb)
                bits.append(bits_per_rb)
                capacity.append(bits_per_rb / 8.0 * (1.0 - bler))
                stats.append(b.stats)
            slices.append(
                fssf.SliceInput(
                    slice_id=s.slice_id,
                    state=s.state,
                    dedicated_rb=s.rrc.dedicated_rb,
                    prioritized_rb=s.rrc.prioritized_rb,
                    shared_priority=s.rrc.shared_priority,
                    fd_scheduler=s.fd_scheduler,
                    drbs=tuple(drbs),
                )
            )
        stateless = all(
            getattr(self.algorithms.get(s.fd_scheduler), "stateless", False) for s in slices
        )
        return _Epoch(snap.epoch, tuple(slices), ue_rate, tuple(drb_ids), tuple(bits),
                      tuple(capacity), tuple(stats), stateless)

    def step_tti(self) -> fssf.ScheduleDecision:
        """Advance one tick: arrivals, schedule, drain, stats.

        A decision reused from the previous tick keeps the ``tti_index`` of
        the tick that computed it. Sets :attr:`fixed_tick` to this tick if
        it is a fixed point, else to None.
        """
        ep = self._epoch
        if ep.number != self.registry.published.epoch:
            ep = self._epoch = self._rebuild_structure()
            self._prune_pf_histories()
        buffers = self.buffers
        arrivals = self._arrivals
        for drb, arriving in arrivals.items():
            buffers[drb] += arriving

        demands: dict[int, int] = {}
        total_rb = self.cfg.total_rb
        drb_ids = ep.drb_ids
        ceil = math.ceil
        for drb, bits_per_rb in zip(drb_ids, ep.bits_per_rb):
            buf = buffers.get(drb, 0.0)
            if buf > 0.0:
                need = ceil(buf * 8.0 / bits_per_rb)
                demands[drb] = need if need < total_rb else total_rb

        tti = self.tti_index
        fixed = None
        if ep.stateless and demands == ep.last_demands:
            decision = ep.last_decision
            if tti >= self._probe_at:
                self._probe_at = tti + PROBE_INTERVAL
                fixed = []
        else:
            inp = fssf.TtiInput(tti, total_rb, ep.ue_rate, demands, ep.slices)
            decision = fssf.run_tti(inp, self.algorithms, self.histories)
            if ep.stateless:
                ep.last_demands, ep.last_decision = demands, decision

        # the scheduler grants RBs only to bearers with demand, so every
        # granted drb is in the table and has an attached buffer
        per_drb_rb = decision.plan.per_drb_rb
        alloc = 0
        tti_s = self._tti_s
        alpha = self._alpha
        base_rtt_ms = self.cfg.base_rtt_ms
        rtt_cap_ms = RTT_CAP_MS
        win_served = self._win_served
        win_alloc_drb = self._win_alloc_drb
        for drb, rb_capacity, stats in zip(drb_ids, ep.rb_capacity, ep.stats):
            buf = drained = buffers.get(drb, 0.0)
            n_rb = per_drb_rb.get(drb)
            if n_rb is None:
                # nothing served: the rate is exactly 0.0 and the window's
                # served sum keeps its value
                inst_mbps = served = 0.0
                if drb not in win_served:
                    win_served[drb] = 0.0
            else:
                capacity = n_rb * rb_capacity
                served = capacity if capacity < buf else buf
                buf -= served
                buffers[drb] = buf
                win_alloc_drb[drb] = win_alloc_drb.get(drb, 0) + n_rb
                alloc += n_rb
                win_served[drb] = win_served.get(drb, 0.0) + served
                inst_mbps = served * 8.0 / tti_s / 1e6
            previous = stats.throughput_mbps
            throughput = previous + alpha * (inst_mbps - previous)
            stats.throughput_mbps = throughput
            stats.buffer_occupancy_bytes = buf
            # queueing-delay RTT estimate: monotone in backlog, capped
            if buf <= 0.0:
                stats.packet_delay_ms = base_rtt_ms
            else:
                served_bps = throughput * 1e6
                if served_bps < 1.0:
                    stats.packet_delay_ms = rtt_cap_ms
                else:
                    rtt = base_rtt_ms + buf * 8.0 / served_bps * 1000.0
                    stats.packet_delay_ms = rtt if rtt < rtt_cap_ms else rtt_cap_ms
            if fixed is not None:
                if throughput == previous and buf + arrivals.get(drb, 0.0) == drained:
                    fixed.append((drb, n_rb, served))
                else:
                    fixed = None

        self._win_alloc += alloc
        self._win_ttis += 1
        self.tti_index = tti + 1
        if fixed is not None and not arrivals.keys() <= {drb for drb, _, _ in fixed}:
            fixed = None  # a bearer outside the table grows its buffer
        self.fixed_tick = fixed
        return decision

    def repeat_tti(self, k: int) -> None:
        """Run ``k`` more ticks of the fixed-point tick just stepped: integer
        counts add ``k * n``, each served sum takes ``k`` float adds."""
        if self.fixed_tick is None or self._epoch.number != self.registry.published.epoch:
            raise RuntimeError("the last tick was not a fixed point")
        win_served, win_alloc_drb = self._win_served, self._win_alloc_drb
        for drb, n_rb, served in self.fixed_tick:
            total = win_served.get(drb, 0.0)
            if n_rb is not None:
                win_alloc_drb[drb] = win_alloc_drb.get(drb, 0) + k * n_rb
                self._win_alloc += k * n_rb
                for _ in range(k):
                    total += served
            win_served[drb] = total
        self._win_ttis += k
        self.tti_index += k

    def _prune_pf_histories(self) -> None:
        """Drop proportional-fair averages of bearers no longer attached.

        A bearer that moves to another slice stays attached, so the history
        of the slice it left keeps its entry.
        """
        buffers = self.buffers
        for history in self.histories.values():
            ewma = history.get("pf_ewma")
            if ewma:
                for drb in [drb for drb in ewma if drb not in buffers]:
                    del ewma[drb]

    # -- derived metrics ------------------------------------------------------------

    def utilization(self) -> float:
        """Allocated share of the grid averaged over the current window."""
        if self._win_ttis == 0:
            return 0.0
        return self._win_alloc / (self._win_ttis * self.cfg.total_rb)

    def end_window(self) -> WindowMetrics:
        """Close the current aggregation window (the driver calls this each second)."""
        ttis = max(self._win_ttis, 1)
        window_s = ttis * self.cfg.tti_ms / 1000.0
        served_mbps = {d: b * 8.0 / window_s / 1e6 for d, b in self._win_served.items()}
        metrics = WindowMetrics(
            ttis=self._win_ttis,
            utilization=self.utilization(),
            served_mbps=served_mbps,
            alloc_rb_mean={d: n / ttis for d, n in self._win_alloc_drb.items()},
            cell_throughput_mbps=sum(served_mbps.values()),
        )
        self._win_ttis = 0
        self._win_alloc = 0
        self._win_served = {}
        self._win_alloc_drb = {}
        return metrics
