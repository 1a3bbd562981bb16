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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from . import fssf
from .slice_model import BearerStats, SliceRegistry, SliceState

RTT_CAP_MS = 2000.0
STATS_WINDOW_MS = 100.0


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


class _BearerRow(NamedTuple):
    """Per-epoch constants of one scheduled bearer, in scheduler input order."""

    drb_id: int
    bits_per_rb: float  # the owning UE's bits per RB per tick
    rb_capacity: float  # bytes one RB carries per tick, after BLER
    stats: BearerStats  # the live object, aliased by the published bearer


@dataclass
class _Epoch:
    """One published epoch's tick-loop constants and its last-tick memo."""

    number: int
    slices: tuple[fssf.SliceInput, ...]
    ue_rate: dict[int, float]
    rows: tuple[_BearerRow, ...]
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
        stage2_policy: str = "max_min",
        link_state: Optional[LinkState] = None,
    ):
        if registry.total_rb != cfg.total_rb:
            raise ValueError("registry and cell disagree on total_rb")
        self.cfg = cfg
        self.registry = registry
        self.algorithms = algorithms
        self.stage2_policy = stage2_policy
        self.link = link_state or LinkState()
        self.tti_index = 0
        self.buffers: dict[int, float] = {}
        self.offered: dict[int, float] = {}
        self.histories: dict[int, dict] = {}
        self._epoch = _Epoch(-1, (), {}, (), False)
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
        self.offered[drb] = offered_mbps

    def detach_bearer(self, drb: int) -> None:
        self.buffers.pop(drb, None)
        self.offered.pop(drb, None)

    def set_offered(self, drb: int, mbps: float) -> None:
        if mbps < 0:
            raise ValueError("offered rate must be >= 0")
        if drb not in self.buffers:
            raise KeyError(f"drb {drb} not attached")
        self.offered[drb] = mbps

    # -- per-tick machinery --------------------------------------------------------

    def _rebuild_structure(self) -> _Epoch:
        snap = self.registry.published
        slices = []
        rows = []
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
                rows.append(_BearerRow(drb, bits_per_rb, bits_per_rb / 8.0 * (1.0 - bler),
                                       b.stats))
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
        return _Epoch(snap.epoch, tuple(slices), ue_rate, tuple(rows), stateless)

    def step_tti(self) -> fssf.ScheduleDecision:
        """Advance one tick: arrivals, schedule, drain, stats.

        A decision reused from the previous tick keeps the ``tti_index`` of
        the tick that computed it.
        """
        ep = self._epoch
        if ep.number != self.registry.published.epoch:
            ep = self._epoch = self._rebuild_structure()
        tti_s = self.cfg.tti_ms / 1000.0
        buffers = self.buffers
        for drb, rate in self.offered.items():
            if rate:
                buffers[drb] += rate * 1e6 * tti_s / 8.0

        demands: dict[int, int] = {}
        total_rb = self.cfg.total_rb
        rows = ep.rows
        for drb, bits_per_rb, _, _ in rows:
            buf = buffers.get(drb, 0.0)
            if buf > 0.0:
                need = math.ceil(buf * 8.0 / bits_per_rb)
                demands[drb] = need if need < total_rb else total_rb

        if ep.stateless and demands == ep.last_demands:
            decision = ep.last_decision
        else:
            inp = fssf.TtiInput(self.tti_index, total_rb, ep.ue_rate, demands, ep.slices)
            decision = fssf.run_tti(inp, self.algorithms, self.histories, self.stage2_policy)
            if ep.stateless:
                ep.last_demands, ep.last_decision = demands, decision

        # the scheduler grants RBs only to bearers with demand, so every
        # granted drb has a row
        per_drb_rb = decision.per_drb_rb
        alpha = self.cfg.tti_ms / STATS_WINDOW_MS
        win_served = self._win_served
        win_alloc_drb = self._win_alloc_drb
        for drb, _, rb_capacity, stats in rows:
            buf = buffers.get(drb, 0.0)
            n_rb = per_drb_rb.get(drb)
            if n_rb is None:
                served = 0.0
            else:
                capacity = n_rb * rb_capacity
                served = capacity if capacity < buf else buf
                buf -= served
                if drb in buffers:
                    buffers[drb] = buf
                win_alloc_drb[drb] = win_alloc_drb.get(drb, 0) + n_rb
            inst_mbps = served * 8.0 / tti_s / 1e6
            throughput = stats.throughput_mbps
            throughput += alpha * (inst_mbps - throughput)
            stats.throughput_mbps = throughput
            stats.buffer_occupancy_bytes = buf
            stats.packet_delay_ms = self._rtt_from(buf, throughput)
            win_served[drb] = win_served.get(drb, 0.0) + served

        self._win_alloc += sum(per_drb_rb.values())
        self._win_ttis += 1
        self.tti_index += 1
        return decision

    # -- derived metrics ------------------------------------------------------------

    def _rtt_from(self, buffer_bytes: float, served_mbps: float) -> float:
        if buffer_bytes <= 0.0:
            return self.cfg.base_rtt_ms
        served_bps = served_mbps * 1e6
        if served_bps < 1.0:
            return RTT_CAP_MS
        rtt = self.cfg.base_rtt_ms + buffer_bytes * 8.0 / served_bps * 1000.0
        return rtt if rtt < RTT_CAP_MS else RTT_CAP_MS

    def rtt(self, drb: int) -> float:
        """Queueing-delay RTT estimate in ms, monotone in backlog, capped."""
        if drb not in self.buffers:
            raise KeyError(f"drb {drb} not attached")
        stats = self.registry.get_bearer(drb).stats
        return self._rtt_from(self.buffers[drb], stats.throughput_mbps)

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
