"""Three-stage slice-aware frequency-domain scheduler.

Per tick, stage 1 serves slices holding dedicated and/or prioritized resource
blocks (each slice splitting its own budget with its own algorithm), stage 2
distributes the shared pool across shared slices by weighted max-min fairness,
and stage 3 maps every UE's total onto one contiguous virtual-RB range.

Everything here is pure computation: :func:`run_tti` is deterministic given
its arguments. Algorithm state (round-robin rotation, proportional-fair
averages) lives in caller-owned ``histories`` dicts passed in each tick.

Rounding and tie-break conventions (fixed for determinism):

* slices with dedicated/prioritized budgets are processed in ascending
  slice id (budgets are disjoint, so order cannot change totals);
* fractional fair shares are resolved by largest remainder, ties broken by
  larger weight then lower id;
* stage 3 places UEs in ascending UE id at the lowest free VRB.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .errors import AlgorithmContractViolation, InfeasibleSnapshot
from .slice_model import SliceState

Rates = Mapping[int, float]


class DrbInput(NamedTuple):
    drb_id: int
    ue_id: int
    bearer_priority: int


@dataclass(frozen=True)
class SliceInput:
    """Scheduler-facing view of one non-idle slice."""

    slice_id: int
    state: SliceState
    dedicated_rb: int
    prioritized_rb: int
    shared_priority: int
    fd_scheduler: str
    drbs: tuple[DrbInput, ...]


@dataclass(frozen=True)
class TtiInput:
    tti_index: int
    total_rb: int
    ue_rate_bits_per_rb: dict[int, float]
    demands: dict[int, int]
    slices: tuple[SliceInput, ...]

    def validate(self) -> None:
        if getattr(self, "_validated", False):
            return
        ue_ids = set(self.ue_rate_bits_per_rb)
        members = {d.drb_id: d.ue_id for s in self.slices for d in s.drbs}
        for drb, demand in self.demands.items():
            if demand < 0:
                raise ValueError(f"negative demand for drb {drb}")
            if demand > 0 and members.get(drb) not in ue_ids:
                raise ValueError(f"demanded drb {drb} has no schedulable UE")
        object.__setattr__(self, "_validated", True)


@dataclass(frozen=True)
class AllocationPlan:
    per_drb_rb: dict[int, int]
    shared_pool_remaining: int


@dataclass(frozen=True)
class VrbMap:
    per_ue_range: dict[int, tuple[int, int]]


@dataclass(frozen=True)
class ScheduleDecision:
    tti_index: int
    plan: AllocationPlan
    vrb: VrbMap

    @property
    def per_drb_rb(self) -> dict[int, int]:
        return self.plan.per_drb_rb


class AlgoDrb(NamedTuple):
    """Per-bearer view handed to slice scheduling algorithms."""

    drb_id: int
    ue_id: int
    demand_rb: int
    bearer_priority: int
    rate_bits_per_rb: float


Algorithm = Callable[[int, Sequence[AlgoDrb], dict], dict[int, int]]


# -- fair-share arithmetic ---------------------------------------------------

def integer_weights(weights: Sequence) -> list[int]:
    """Scale positive rational weights to integers with a common denominator."""
    fracs = [w if isinstance(w, Fraction) else Fraction(str(w)) for w in weights]
    if any(f <= 0 for f in fracs):
        raise ValueError("weights must be positive")
    denom_lcm = 1
    for f in fracs:
        denom_lcm = denom_lcm * f.denominator // gcd(denom_lcm, f.denominator)
    return [int(f * denom_lcm) for f in fracs]


def weighted_max_min(pool: int, entries: Sequence[tuple[int, int, int]]) -> dict[int, int]:
    """Integer weighted max-min fair split of ``pool`` over (key, demand, weight).

    Weights must be positive integers. Exact arithmetic: saturation is tested
    by cross-multiplication and the final proportional slice is rounded by
    largest remainder (ties: larger weight, then lower key).
    """
    alloc = {key: 0 for key, _, _ in entries}
    active = [(key, d, w) for key, d, w in entries if d > 0]
    while pool > 0 and active:
        if len(active) == 1:
            key, d, _ = active[0]
            alloc[key] = d if d < pool else pool
            break
        total_w = 0
        for _, _, w in active:
            total_w += w
        saturated = []
        rest = []
        for e in active:
            if e[1] * total_w <= pool * e[2]:
                saturated.append(e)
            else:
                rest.append(e)
        if saturated:
            for key, d, _ in saturated:
                alloc[key] = d
                pool -= d
            active = rest
            continue
        shares = []
        handed = 0
        for key, d, w in active:
            base = pool * w // total_w
            rem = pool * w % total_w
            shares.append((key, base, rem, w))
            handed += base
        leftover = pool - handed
        shares.sort(key=lambda s: (-s[2], -s[3], s[0]))
        for i, (key, base, _, _) in enumerate(shares):
            alloc[key] = base + (1 if i < leftover else 0)
        pool = 0
    return alloc


# -- built-in slice algorithms ------------------------------------------------

def round_robin(budget: int, drbs: Sequence[AlgoDrb], history: dict) -> dict[int, int]:
    """Single-RB round robin over bearers, rotating the start index each tick."""
    order = sorted(drbs, key=lambda d: d.drb_id)
    alloc = {d.drb_id: 0 for d in order}
    if not order:
        return alloc
    start = history.get("rr_start", 0) % len(order)
    history["rr_start"] = (start + 1) % len(order)
    remaining = {d.drb_id: d.demand_rb for d in order}
    pool = budget
    idx = start
    idle_steps = 0
    while pool > 0 and idle_steps < len(order):
        drb = order[idx % len(order)].drb_id
        if remaining[drb] > 0:
            alloc[drb] += 1
            remaining[drb] -= 1
            pool -= 1
            idle_steps = 0
        else:
            idle_steps += 1
        idx += 1
    return alloc


def proportional_fair(budget: int, drbs: Sequence[AlgoDrb], history: dict) -> dict[int, int]:
    """Grant RB-by-RB to the bearer with the best rate-to-average ratio.

    The served-bits average is exponentially smoothed in ``history`` so a
    bearer's past fortune lowers its claim on the next tick.
    """
    window = history.get("pf_window", 50)
    ewma = history.setdefault("pf_ewma", {})
    order = sorted(drbs, key=lambda d: d.drb_id)
    alloc = {d.drb_id: 0 for d in order}
    remaining = {d.drb_id: d.demand_rb for d in order}
    rate = {d.drb_id: max(d.rate_bits_per_rb, 1e-9) for d in order}
    granted_bits = {d.drb_id: 0.0 for d in order}
    pool = budget
    while pool > 0:
        best = None
        best_metric = -1.0
        for d in order:
            if remaining[d.drb_id] <= 0:
                continue
            avg = ewma.get(d.drb_id, 0.0) + granted_bits[d.drb_id]
            metric = rate[d.drb_id] / max(avg, 1e-9)
            if metric > best_metric:
                best_metric = metric
                best = d.drb_id
        if best is None:
            break
        alloc[best] += 1
        remaining[best] -= 1
        granted_bits[best] += rate[best]
        pool -= 1
    for d in order:
        prev = ewma.get(d.drb_id, 0.0)
        ewma[d.drb_id] = prev + (granted_bits[d.drb_id] - prev) / window
    return alloc


def max_throughput(budget: int, drbs: Sequence[AlgoDrb], history: dict) -> dict[int, int]:
    """Fill the best-rate bearers first."""
    order = sorted(drbs, key=lambda d: (-d.rate_bits_per_rb, d.drb_id))
    alloc = {d.drb_id: 0 for d in order}
    pool = budget
    for d in order:
        give = min(d.demand_rb, pool)
        alloc[d.drb_id] = give
        pool -= give
        if pool == 0:
            break
    return alloc


def make_priority_weighted(weight_of=None) -> Algorithm:
    """Budget split proportional to a bearer-priority weight (default 1/priority).

    ``weight_of`` may be a mapping or callable from bearer priority to a
    positive weight. Shares are demand-capped (excess reflows to the rest) and
    rounded by largest remainder, leftovers going to the highest weight.
    """

    def lookup(bp: int):
        if weight_of is None:
            return Fraction(1, bp)
        if callable(weight_of):
            return weight_of(bp)
        return weight_of[bp]

    weight_cache: dict[tuple[int, ...], list[int]] = {}

    def algo(budget: int, drbs: Sequence[AlgoDrb], history: dict) -> dict[int, int]:
        order = sorted(drbs, key=lambda d: d.drb_id)
        if not order:
            return {}
        bps = tuple(d.bearer_priority for d in order)
        weights = weight_cache.get(bps)
        if weights is None:
            if len(weight_cache) > 1024:
                weight_cache.clear()
            weights = integer_weights([lookup(bp) for bp in bps])
            weight_cache[bps] = weights
        entries = [(d.drb_id, d.demand_rb, w) for d, w in zip(order, weights)]
        return weighted_max_min(budget, entries)

    algo.__name__ = "priority_weighted"
    return algo


# stateless algorithms keep no history, which lets callers memoize decisions
round_robin.stateless = False
proportional_fair.stateless = False
max_throughput.stateless = True

priority_weighted = make_priority_weighted()
priority_weighted.stateless = True


class AlgorithmRegistry:
    """String-keyed algorithm lookup used by slice configs and control messages."""

    def __init__(self):
        self._algos: dict[str, Algorithm] = {}
        self.register("round_robin", round_robin)
        self.register("proportional_fair", proportional_fair)
        self.register("max_throughput", max_throughput)
        self.register("priority_weighted", priority_weighted)

    def register(self, name: str, algo: Algorithm) -> None:
        if not hasattr(algo, "stateless"):
            algo.stateless = False
        self._algos[name] = algo

    def get(self, name: str) -> Algorithm:
        try:
            return self._algos[name]
        except KeyError:
            raise KeyError(f"unknown scheduling algorithm {name!r}") from None

    def known(self, name: str) -> bool:
        return name in self._algos


DEFAULT_REGISTRY = AlgorithmRegistry()


# -- the three stages ----------------------------------------------------------

@dataclass
class Stage1Result:
    per_drb_rb: dict[int, int]
    shared_pool: int
    s_list: list[SliceInput]
    remaining: dict[int, int]


def _algo_drbs(s: SliceInput, demands: Mapping[int, int], rates: Rates) -> list[AlgoDrb]:
    return [
        AlgoDrb(d.drb_id, d.ue_id, demands.get(d.drb_id, 0), d.bearer_priority,
                rates.get(d.ue_id, 0.0))
        for d in s.drbs
    ]


def _apply_alloc(alloc: dict[int, int], budget: int, remaining: dict[int, int],
                 per_drb: dict[int, int], who: str) -> int:
    """Fold an algorithm's output into the plan, enforcing its contract."""
    used = 0
    for drb, n in alloc.items():
        if n:
            if n < 0 or n > remaining.get(drb, 0):
                raise AlgorithmContractViolation(
                    f"{who} gave drb {drb} {n} RBs (demand {remaining.get(drb, 0)})"
                )
            per_drb[drb] = per_drb.get(drb, 0) + n
            remaining[drb] -= n
            used += n
    if used > budget:
        raise AlgorithmContractViolation(f"{who} exceeded budget {budget} with {used}")
    return used


def stage1_slice_specific(
    inp: TtiInput,
    registry: AlgorithmRegistry = DEFAULT_REGISTRY,
    histories: Optional[dict[int, dict]] = None,
) -> Stage1Result:
    """Serve dedicated/prioritized/hybrid budgets; donate unused prioritized RBs."""
    histories = histories if histories is not None else {}
    dph = sorted(
        (s for s in inp.slices
         if s.state in (SliceState.DEDICATED, SliceState.PRIORITIZED, SliceState.HYBRID)),
        key=lambda s: s.slice_id,
    )
    reserved = sum(s.dedicated_rb + s.prioritized_rb for s in dph)
    if reserved > inp.total_rb:
        raise InfeasibleSnapshot(f"reserved {reserved} RBs on a {inp.total_rb}-RB cell")
    pool = inp.total_rb - reserved
    per_drb: dict[int, int] = {}
    remaining = dict(inp.demands)
    s_list = [s for s in inp.slices if s.state is SliceState.SHARED]
    s_list.sort(key=lambda s: s.slice_id)
    for s in dph:
        budget = s.dedicated_rb + s.prioritized_rb
        drbs = _algo_drbs(s, remaining, inp.ue_rate_bits_per_rb)
        algo = registry.get(s.fd_scheduler)
        alloc = algo(budget, drbs, histories.setdefault(s.slice_id, {}))
        used = _apply_alloc(alloc, budget, remaining, per_drb, s.fd_scheduler)
        # dedicated RBs are consumed first; whatever of the prioritized
        # assignment goes unused moves to the shared pool (dedicated does not)
        used_prio = max(0, used - s.dedicated_rb)
        pool += s.prioritized_rb - used_prio
        if s.state is SliceState.HYBRID:
            s_list.append(s)
    return Stage1Result(per_drb_rb=per_drb, shared_pool=pool, s_list=s_list, remaining=remaining)


def stage2_shared(
    s_list: Sequence[SliceInput],
    shared_pool: int,
    partial: dict[int, int],
    inp: TtiInput,
    registry: AlgorithmRegistry = DEFAULT_REGISTRY,
    histories: Optional[dict[int, dict]] = None,
    remaining: Optional[dict[int, int]] = None,
    policy: str = "max_min",
) -> AllocationPlan:
    """Distribute the shared pool over shared (and spent hybrid) slices.

    ``max_min`` (default) is weighted max-min fairness with the shared
    priority as weight; ``greedy`` serves slices to satisfaction in descending
    priority order (ties: ascending id) until the pool runs dry.
    """
    if shared_pool < 0:
        raise InfeasibleSnapshot("negative shared pool")
    histories = histories if histories is not None else {}
    remaining = dict(remaining) if remaining is not None else dict(inp.demands)
    per_drb = dict(partial)
    ordered = sorted(s_list, key=lambda s: (-s.shared_priority, s.slice_id))
    slice_demand = {
        s.slice_id: sum(max(0, remaining.get(d.drb_id, 0)) for d in s.drbs) for s in ordered
    }
    pool = shared_pool
    if policy == "max_min":
        grants = weighted_max_min(
            pool,
            [(s.slice_id, slice_demand[s.slice_id], s.shared_priority) for s in ordered],
        )
    elif policy == "greedy":
        grants = {}
        left = pool
        for s in ordered:
            g = min(slice_demand[s.slice_id], left)
            grants[s.slice_id] = g
            left -= g
    else:
        raise ValueError(f"unknown stage-2 policy {policy!r}")
    for s in ordered:
        grant = grants.get(s.slice_id, 0)
        if grant <= 0:
            continue
        drbs = _algo_drbs(s, remaining, inp.ue_rate_bits_per_rb)
        algo = registry.get(s.fd_scheduler)
        alloc = algo(grant, drbs, histories.setdefault(s.slice_id, {}))
        pool -= _apply_alloc(alloc, grant, remaining, per_drb, s.fd_scheduler)
    return AllocationPlan(per_drb_rb=per_drb, shared_pool_remaining=pool)


def stage3_vrb_assignment(plan: AllocationPlan, inp: TtiInput) -> VrbMap:
    """One contiguous VRB range per UE, ascending UE id, lowest free VRB first."""
    ue_total: dict[int, int] = {}
    owner = {d.drb_id: d.ue_id for s in inp.slices for d in s.drbs}
    for drb, n in plan.per_drb_rb.items():
        if n > 0:
            ue_total[owner[drb]] = ue_total.get(owner[drb], 0) + n
    if sum(ue_total.values()) > inp.total_rb:
        raise InfeasibleSnapshot("per-UE totals exceed the cell")
    ranges: dict[int, tuple[int, int]] = {}
    cursor = 0
    for ue in sorted(ue_total):
        n = ue_total[ue]
        ranges[ue] = (cursor, cursor + n - 1)
        cursor += n
    return VrbMap(per_ue_range=ranges)


def run_tti(
    inp: TtiInput,
    registry: AlgorithmRegistry = DEFAULT_REGISTRY,
    histories: Optional[dict[int, dict]] = None,
    stage2_policy: str = "max_min",
) -> ScheduleDecision:
    """Full per-tick decision: stage 1 -> stage 2 -> stage 3."""
    inp.validate()
    histories = histories if histories is not None else {}
    st1 = stage1_slice_specific(inp, registry, histories)
    plan = stage2_shared(
        st1.s_list, st1.shared_pool, st1.per_drb_rb, inp,
        registry, histories, remaining=st1.remaining, policy=stage2_policy,
    )
    vrb = stage3_vrb_assignment(plan, inp)
    return ScheduleDecision(tti_index=inp.tti_index, plan=plan, vrb=vrb)
