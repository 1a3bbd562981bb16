"""Tick-driven cell emulation: traffic arrivals, buffers, service, RTT, utilization.

The cell owns downlink byte buffers per bearer. Once per published epoch (or
algorithm registration) it builds the scheduler input from the slice snapshot
and takes the scheduler's :class:`fssf.EpochPlan` for it, laying its bearer
table out in the plan's flat bearer order; ``run_tti`` then finds that same
plan every tick. Each tick it enqueues offered traffic, runs the three-stage
allocator, then drains each buffer by what its RB grant can carry.
Throughput and delay statistics are exponentially smoothed with a 100 ms time
constant and written into the live bearer stats read by reports.

The loop runs on virtual time and is deterministic for a fixed offered-rate
schedule; a many-second scenario replays in a fraction of wall time. Within
one epoch, when the plan is stateless (no slice's algorithm keeps history), a
tick whose demands equal the previous tick's reuses the previous decision,
which is what keeps long steady-state phases cheap.

A tick is steady when it reuses the previous decision. ``repeat_tti(k)``
runs up to k more steady ticks and returns how many it ran: it stops before
the first tick whose demands would miss the memo. It runs them bearer by
bearer, since under one decision no bearer's values read another's, each
bearer checking its own demand as its ticks run (a bearer whose demand
changes first cuts the run, and every bearer runs again up to there), with the
float operations of ``step_tti`` in the same order, so the bits are those of
stepping every tick; what it saves is the demand dict, the memo compare and
the per-tick dict traffic. Once a bearer serves the same amount every tick,
its ticks run as exact closed forms: within one float binade every add rounds
onto the same ulp grid, so a run of adds to the served sum, or of a backlog's
arrive-and-drain, is one integer step per binade, and the throughput's
smoothing runs alone until it stops changing.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

from . import fssf
from .slice_model import BearerStats, SliceRegistry, SliceState

RTT_CAP_MS = 2000.0
STATS_WINDOW_MS = 100.0


class CellConfig(NamedTuple):
    total_rb: int = 106
    per_rb_rate_mbps: float = 130.0 / 106.0
    tti_ms: float = 1.0
    base_rtt_ms: float = 20.0

    @property
    def per_rb_bits_per_tti(self) -> float:
        return self.per_rb_rate_mbps * 1e6 * (self.tti_ms / 1000.0)


class LinkState(NamedTuple):
    """Per-UE link quality; the rate hook maps an MCS index to a fraction of
    the calibrated per-RB rate (identity keeps the single-scalar model)."""

    mcs_rate_fraction: Callable[[int], float] = lambda mcs: 1.0


def offered_bytes_per_tick(mbps: float, tti_s: float) -> float:
    """The bytes an offered rate of ``mbps`` adds to a buffer each tick.

    Raises ValueError for a rate that is negative or NaN, or whose bytes per
    tick are not finite: the buffers, and the closed forms that repeat their
    ticks, take finite arrivals >= 0 only.
    """
    arriving = mbps * 1e6 * tti_s / 8.0
    if not 0.0 <= arriving < math.inf:
        raise ValueError(f"offered rate must be finite and >= 0, not {mbps!r} Mbps")
    return arriving


class _Epoch:
    """One published epoch's scheduler plan, tick-loop constants and last-tick memo.

    The bearer table is three columns aligned by index with ``plan.ids``, the
    scheduler's flat bearer order. The memo is set only when ``plan`` is
    stateless.
    """

    __slots__ = ("number", "plan", "ue_rate", "bits_per_rb", "rb_capacity", "stats",
                 "last_demands", "last_decision")

    def __init__(self, number: int, plan: fssf.EpochPlan, ue_rate: dict[int, float],
                 bits_per_rb: tuple[float, ...], rb_capacity: tuple[float, ...],
                 stats: tuple[BearerStats, ...], last_demands: Optional[dict[int, int]] = None,
                 last_decision: Optional[fssf.ScheduleDecision] = None):
        self.number = number
        self.plan = plan
        self.ue_rate = ue_rate
        self.bits_per_rb = bits_per_rb  # the owning UE's bits per RB per tick
        self.rb_capacity = rb_capacity  # bytes one RB carries per tick, after BLER
        self.stats = stats  # the live objects, aliased by the published bearers
        self.last_demands = last_demands
        self.last_decision = last_decision


class WindowMetrics(NamedTuple):
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
        self._arrivals: dict[int, float] = {}  # bytes per tick, for each non-zero offered rate
        self.histories: dict[int, dict] = {}
        self._epoch = self._rebuild_structure()
        self._tti_s = cfg.tti_ms / 1000.0
        self._alpha = cfg.tti_ms / STATS_WINDOW_MS
        # window accumulators (reset by end_window)
        self._win_ttis = 0
        self._win_alloc = 0
        self._win_served: dict[int, float] = {}
        self._win_alloc_drb: dict[int, int] = {}

    # -- bearer bookkeeping ------------------------------------------------------

    def has_bearer(self, drb: int) -> bool:
        return drb in self.buffers

    def attach_bearer(self, drb: int, offered_mbps: float = 0.0) -> None:
        self._offer(drb, offered_mbps)
        self.buffers.setdefault(drb, 0.0)

    def detach_bearer(self, drb: int) -> None:
        self.buffers.pop(drb, None)
        self._arrivals.pop(drb, None)

    def set_offered(self, drb: int, mbps: float) -> None:
        if drb not in self.buffers:
            raise KeyError(f"drb {drb} not attached")
        self._offer(drb, mbps)

    def _offer(self, drb: int, mbps: float) -> None:
        arriving = offered_bytes_per_tick(mbps, self._tti_s)
        if mbps:
            self._arrivals[drb] = arriving
        else:
            self._arrivals.pop(drb, None)

    # -- per-tick machinery --------------------------------------------------------

    def _rebuild_structure(self) -> _Epoch:
        snap = self.registry.published
        bearers = snap.bearers
        slices = []
        for sid in sorted(snap.slices):
            s = snap.slices[sid]
            if s.state is SliceState.IDLE:
                continue
            # bearer-less shared slices have nothing to schedule, but a
            # bearer-less dedicated/prioritized slice still pins its assignment
            if not s.bearers and s.state is SliceState.SHARED:
                continue
            slices.append(fssf.SliceInput(
                slice_id=s.slice_id,
                state=s.state,
                dedicated_rb=s.rrc.dedicated_rb,
                prioritized_rb=s.rrc.prioritized_rb,
                shared_priority=s.rrc.shared_priority,
                fd_scheduler=s.fd_scheduler,
                drbs=tuple(fssf.DrbInput(drb, bearers[drb].ue_id, bearers[drb].bearer_priority)
                           for drb in sorted(s.bearers)),
            ))
        plan = fssf.epoch_plan(tuple(slices), self.algorithms)
        per_rb_bits = self.cfg.per_rb_bits_per_tti
        ue_rate = {uid: per_rb_bits * self.link.mcs_rate_fraction(ue.mcs)
                   for uid, ue in snap.ues.items()}
        bits, capacity, stats = [], [], []
        for drb in plan.ids:
            b = bearers[drb]
            bler = snap.ues[b.ue_id].bler if b.ue_id in snap.ues else 0.0
            bits_per_rb = ue_rate.get(b.ue_id, per_rb_bits)
            bits.append(bits_per_rb)
            capacity.append(bits_per_rb / 8.0 * (1.0 - bler))
            stats.append(b.stats)
        return _Epoch(snap.epoch, plan, ue_rate, tuple(bits), tuple(capacity), tuple(stats))

    def step_tti(self) -> fssf.ScheduleDecision:
        """Advance one tick: arrivals, schedule, drain, stats.

        A decision reused from the previous tick keeps the ``tti_index`` of
        the tick that computed it.
        """
        ep = self._epoch
        plan = ep.plan
        if ep.number != self.registry.published.epoch or plan.generation != self.algorithms.generation:
            ep = self._epoch = self._rebuild_structure()
            plan = ep.plan
            self._prune_pf_histories()
        buffers = self.buffers
        arrivals = self._arrivals
        for drb, arriving in arrivals.items():
            buffers[drb] += arriving

        demands: dict[int, int] = {}
        total_rb = self.cfg.total_rb
        drb_ids = plan.ids
        ceil = math.ceil
        for drb, bits_per_rb in zip(drb_ids, ep.bits_per_rb):
            buf = buffers.get(drb, 0.0)
            if buf > 0.0:
                need = ceil(buf * 8.0 / bits_per_rb)
                demands[drb] = need if need < total_rb else total_rb

        tti = self.tti_index
        if plan.stateless and demands == ep.last_demands:
            decision = ep.last_decision
        else:
            inp = fssf.TtiInput(tti, total_rb, ep.ue_rate, demands, plan.slices)
            decision = fssf.run_tti(inp, self.algorithms, self.histories)
            if plan.stateless:
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
            buf = buffers.get(drb, 0.0)
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
            # _packet_delay_ms, inlined: this loop runs per bearer and tick
            if buf <= 0.0:
                stats.packet_delay_ms = base_rtt_ms
            else:
                served_bps = throughput * 1e6
                if served_bps < 1.0:
                    stats.packet_delay_ms = rtt_cap_ms
                else:
                    rtt = base_rtt_ms + buf * 8.0 / served_bps * 1000.0
                    stats.packet_delay_ms = rtt if rtt < rtt_cap_ms else rtt_cap_ms

        self._win_alloc += alloc
        self._win_ttis += 1
        self.tti_index = tti + 1
        return decision

    def repeat_tti(self, k: int) -> int:
        """Run up to ``k`` more ticks that reuse the current decision and
        return how many ran: 0 if the next tick would not hit the memo, else
        every tick before the first whose demands would differ from it.

        Each table bearer runs its ticks on its own, since under one decision
        no bearer's values read another's; off-table bearers with arrivals
        take their adds too. The delay estimate is written once, from the
        final values, as the last of the ticks would write it.
        """
        ep = self._epoch
        decision = ep.last_decision
        if (k <= 0 or decision is None or ep.number != self.registry.published.epoch
                or ep.plan.generation != self.algorithms.generation):
            return 0  # nothing to reuse (a stateful epoch sets no memo), or a new epoch
        buffers, arrivals, last_demands = self.buffers, self._arrivals, ep.last_demands
        drb_ids = ep.plan.ids
        per_drb_rb = decision.plan.per_drb_rb
        total_rb, alpha, tti_s = self.cfg.total_rb, self._alpha, self._tti_s
        inf = math.inf
        table = []
        for drb, bits_per_rb, rb_capacity in zip(drb_ids, ep.bits_per_rb, ep.rb_capacity):
            buf, arriving = buffers.get(drb, 0.0), arrivals.get(drb, 0.0)
            need = last_demands.get(drb)
            # the demand min(ceil(x), total_rb), x = buf * 8 / bits_per_rb, is
            # `need` exactly when need - 1 < x <= need, or x > total_rb - 1 at the cap
            if need is None:
                if arriving or buf > 0.0:
                    return 0
                lo, hi = -inf, inf  # an empty buffer without arrivals stays empty
            elif need == 0:
                return 0  # a demand of 0: x underflowed; let a full step take it
            else:
                lo, hi = need - 1, (need if need < total_rb else inf)
            n_rb = per_drb_rb.get(drb)
            capacity = 0.0 if n_rb is None else n_rb * rb_capacity
            table.append((buf, arriving, capacity, lo, hi, bits_per_rb))
        # Each bearer checks its demand as it runs; should one change, every
        # bearer runs again for fewer ticks.
        stats = ep.stats
        win_served = self._win_served
        n = k
        while True:
            finals = []
            for (buf, arriving, capacity, lo, hi, bits_per_rb), st, drb in zip(
                    table, stats, drb_ids):
                ran, buf, throughput, served_sum = _repeat_bearer(
                    n, buf, arriving, capacity, st.throughput_mbps, win_served.get(drb, 0.0),
                    lo, hi, bits_per_rb, alpha, tti_s)
                if ran < n:
                    break
                finals.append((buf, throughput, served_sum))
            else:
                break
            if ran == 0:
                return 0
            n = ran
        base_rtt_ms = self.cfg.base_rtt_ms
        win_alloc_drb = self._win_alloc_drb
        alloc = 0
        for drb, st, (buf, throughput, served_sum) in zip(drb_ids, stats, finals):
            n_rb = per_drb_rb.get(drb)
            if n_rb is not None:
                win_alloc_drb[drb] = win_alloc_drb.get(drb, 0) + n * n_rb
                alloc += n_rb
            if drb in buffers:
                buffers[drb] = buf
            win_served[drb] = served_sum
            st.throughput_mbps = throughput
            st.buffer_occupancy_bytes = buf
            st.packet_delay_ms = _packet_delay_ms(buf, throughput, base_rtt_ms)
        table_drbs = set(drb_ids)
        for drb, arriving in arrivals.items():
            if drb not in table_drbs:
                buffers[drb] = _add_repeated(buffers[drb], arriving, n)
        self._win_alloc += n * alloc
        self._win_ttis += n
        self.tti_index += n
        return n

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


def _packet_delay_ms(buf: float, throughput_mbps: float, base_rtt_ms: float) -> float:
    """Queueing-delay RTT estimate: monotone in backlog, capped."""
    if buf <= 0.0:
        return base_rtt_ms
    served_bps = throughput_mbps * 1e6
    if served_bps < 1.0:
        return RTT_CAP_MS
    rtt = base_rtt_ms + buf * 8.0 / served_bps * 1000.0
    return rtt if rtt < RTT_CAP_MS else RTT_CAP_MS


def _repeat_bearer(n, buf, arriving, capacity, throughput, served_sum, lo, hi, bits_per_rb,
                   alpha, tti_s):
    """Run up to ``n`` ticks of one bearer granted ``capacity`` bytes a tick,
    with the float operations of :meth:`Cell.step_tti` in its order; returns
    (ticks run, buffer, throughput, served sum). It stops before the first
    tick whose buffer x = buf * 8 / bits_per_rb leaves lo < x <= hi.

    Once every tick serves the same amount, because the buffer stopped
    changing or a backlog is served the capacity, the ticks run as kernels:
    the served adds and the backlog by closed forms, the smoothing alone.
    Each plain tick checks x, and the backlog kernel checks it too. Plain
    ticks are few: after one, the buffer has stopped changing, is a backlog
    served the capacity, or is empty.
    """
    i = 0
    while i < n:
        drained = buf + arriving
        if not lo < drained * 8.0 / bits_per_rb <= hi:
            break
        served = capacity if capacity < drained else drained
        buf = drained - served
        served_sum += served
        inst_mbps = served * 8.0 / tti_s / 1e6
        throughput = throughput + alpha * (inst_mbps - throughput)
        i += 1
        if i == n:
            break
        if buf + arriving == drained:
            ran = n - i  # every later tick drains this same buffer
        elif served == capacity:
            ran, buf = _drain_backlog(n - i, buf, arriving, capacity, lo, hi, bits_per_rb)
        else:
            continue
        served_sum = _add_repeated(served_sum, served, ran)
        throughput = _smooth(throughput, inst_mbps, alpha, ran)
        i += ran
    return i, buf, throughput, served_sum


# Every float in one binade [2**(e-1), 2**e) is a multiple of its ulp
# u = 2**(e-53), from 2**52 u up to 2**53 u, and an add whose exact result lies
# strictly inside the binade rounds to the nearest multiple of u. Counts of
# ulps are integers below 2**53, so they are exact as floats.
_TWO52, _TWO53 = 2.0 ** 52, 2.0 ** 53


def _ulps(x, u):
    """``x / u`` rounded to the nearest integer, or None at an exact tie,
    for 0 <= x <= 2**53 u (so that the quotient is exact)."""
    q = x / u
    whole = q // 1.0
    rest = q - whole
    return None if rest == 0.5 else whole + (rest > 0.5)


def _add_repeated(s, c, m):
    """``s += c`` run ``m`` times, rounding as that loop does (s >= 0 and
    never -0.0; c >= 0 and finite).

    While s stays in its binade, each add moves it by d = round(c / u) ulps,
    so the adds that keep it below the binade's top are one integer step.
    The add that crosses into the next binade, an add to an s below c, and
    an exact half-ulp tie run as plain float adds.
    """
    while m > 0:
        if s >= c:
            u = math.ulp(s)
            d = _ulps(c, u)
            if d == 0.0:
                return s  # c is under half an ulp: every add rounds back to s
            if d is not None:
                units = s / u
                t = (_TWO53 - 1.0 - units) // d
                if t >= m:
                    return (units + m * d) * u
                s = (units + t * d) * u
                m -= int(t)
        s += c
        m -= 1
    return s


def _drain_backlog(m, buf, arriving, capacity, lo, hi, bits_per_rb):
    """Run up to ``m`` ticks of a backlog, ``buf = (buf + arriving) -
    capacity``, stopping before the first whose drained value ``buf +
    arriving`` is not above ``capacity`` or whose x = drained * 8 /
    bits_per_rb leaves lo < x <= hi; returns (ticks run, buffer).

    While the buffer and the drained value stay strictly inside one binade,
    both operations round onto its ulp grid u, so a tick moves the buffer by
    D = round(arriving / u) - round(capacity / u) ulps. The drained value
    then moves one way, and both checks are monotone in it, so a bisection
    finds the first tick that fails them. A tick that leaves the binade or
    starts on its edge, and a half-ulp tie, run as a plain step.
    """
    def holds(drained):
        return capacity < drained and lo < drained * 8.0 / bits_per_rb <= hi

    i = 0
    while i < m:
        run = 0
        if arriving <= buf and capacity <= buf:  # so that _ulps is exact
            u = math.ulp(buf)
            a, c = _ulps(arriving, u), _ulps(capacity, u)
            if a is not None and c is not None:
                units = buf / u
                drained, step = units + a, a - c  # in ulps
                if drained < _TWO53 and drained - c > _TWO52:
                    if step > 0:  # the drained value rises to the binade's top
                        run = int((_TWO53 - 1.0 - drained) // step) + 1
                    elif step < 0:  # the buffer falls to its bottom
                        run = int((drained - c - _TWO52 - 1.0) // -step) + 1
                    else:
                        run = m
                    run = min(run, m - i)
        if not run:
            drained = buf + arriving
            if not holds(drained):
                return i, buf
            buf = drained - capacity
            i += 1
            continue
        # tick j of the run drains (drained + j * step) * u; the ticks that
        # hold are the run's first ones, as both checks pass on an interval
        if not holds(drained * u):
            return i, buf
        if holds((drained + (run - 1) * step) * u):
            ok = run
        else:
            ok, bad = 1, run - 1  # the ticks before ok hold, tick bad fails
            while ok < bad:
                mid = (ok + bad) // 2
                if holds((drained + mid * step) * u):
                    ok = mid + 1
                else:
                    bad = mid
        buf = (units + ok * step) * u
        i += ok
        if ok < run:
            return i, buf
    return i, buf


def _smooth(throughput, inst_mbps, alpha, m):
    """The throughput smoothing step run ``m`` times at one served rate; it
    stops early once a step leaves the value unchanged."""
    for _ in range(m):
        nxt = throughput + alpha * (inst_mbps - throughput)
        if nxt == throughput:
            break
        throughput = nxt
    return throughput
