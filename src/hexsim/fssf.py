"""Three-stage slice-aware frequency-domain scheduler.

Per tick, stage 1 serves slices holding dedicated and/or prioritized resource
blocks (each slice splitting its own budget with its own algorithm), stage 2
distributes the shared pool across shared slices by weighted max-min fairness,
and stage 3 maps every UE's total onto one contiguous virtual-RB range.

Everything here is pure computation: :func:`run_tti` is deterministic given
its arguments. Algorithm state (round-robin rotation, proportional-fair
averages) lives in caller-owned ``histories`` dicts passed in each tick.

Structure that only changes with the slice configuration is built once per
epoch, not once per tick. Each :class:`AlgorithmRegistry` keeps a one-entry
plan for the last ``TtiInput.slices`` tuple it scheduled, matched by identity
(so that tuple must not be changed in place): the stage-1 and stage-2 slice
orders, the reserved total, the drb -> UE owner map, each slice's resolved
algorithm and, for the built-in algorithms, their prepared form (drb ids in
ascending order, UE ids, integer weights). Registering an algorithm
invalidates the plan. Custom algorithms keep the ``AlgoDrb`` contract: they
get a fresh ``AlgoDrb`` list on every call, and every algorithm's output goes
through the same contract check.

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
from heapq import heapify, heappop, heapreplace
from math import gcd, lcm
from operator import attrgetter
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .errors import AlgorithmContractViolation, InfeasibleSnapshot
from .slice_model import SliceState

Rates = Mapping[int, float]

_RESERVING = (SliceState.DEDICATED, SliceState.PRIORITIZED, SliceState.HYBRID)


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


def _owner_map(slices: Sequence[SliceInput]) -> dict[int, int]:
    return {d.drb_id: d.ue_id for s in slices for d in s.drbs}


@dataclass(frozen=True)
class TtiInput:
    tti_index: int
    total_rb: int
    ue_rate_bits_per_rb: dict[int, float]
    demands: dict[int, int]
    slices: tuple[SliceInput, ...]

    def validate(self, owner: Optional[Mapping[int, int]] = None) -> None:
        """Reject negative demands and demanded bearers with no schedulable UE.

        ``owner`` is the drb -> UE map of ``slices`` when the caller has it.
        """
        ue_ids = self.ue_rate_bits_per_rb
        members = owner if owner is not None else _owner_map(self.slices)
        for drb, demand in self.demands.items():
            if demand < 0:
                raise ValueError(f"negative demand for drb {drb}")
            if demand > 0 and members.get(drb) not in ue_ids:
                raise ValueError(f"demanded drb {drb} has no schedulable UE")


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


def _water_fill(pool: int, keys: Sequence, demands: Sequence[int],
                weights: Sequence[int], scale: Sequence[int]) -> dict:
    """Weighted max-min split of ``pool``, keyed by ``keys``; lists aligned by index.

    ``scale[i]`` is ``lcm(weights) // weights[i]``, so ``demands[i] * scale[i]``
    orders the entries by their exact fill level d/w. One walk up that order
    fills each entry whose demand fits under the current water level (which
    only rises as entries leave); the first that does not fit ends the walk,
    since every later one sits higher still. The rest split what is left in
    proportion to weight, by largest remainder (ties: larger weight, then
    lower key).
    """
    alloc = [0] * len(demands)
    if pool > 0:
        levels = [d * k for d, k in zip(demands, scale)]
        total_w = sum(weights)
        order = sorted(range(len(levels)), key=levels.__getitem__)
        # entries with no demand sort first and only give up their weight
        for pos, i in enumerate(order):
            d = demands[i]
            w = weights[i]
            if d * total_w > pool * w:
                break
            if d > 0:
                alloc[i] = d
                pool -= d
            total_w -= w
        else:
            pool = 0  # every entry filled
        if pool:
            shares = []
            leftover = pool
            for i in order[pos:]:
                w = weights[i]
                base, rem = divmod(pool * w, total_w)
                alloc[i] = base
                leftover -= base
                shares.append((-rem, -w, keys[i], i))
            if leftover:
                shares.sort()
                for share in shares[:leftover]:
                    alloc[share[3]] += 1
    return dict(zip(keys, alloc))


def weighted_max_min(pool: int, entries: Sequence[tuple[int, int, int]]) -> dict[int, int]:
    """Integer weighted max-min fair split of ``pool`` over (key, demand, weight).

    Weights must be positive integers. Exact arithmetic: saturation is tested
    by cross-multiplication and the final proportional slice is rounded by
    largest remainder (ties: larger weight, then lower key).
    """
    keys = [e[0] for e in entries]
    weights = [e[2] for e in entries]
    common = lcm(*weights)
    return _water_fill(pool, keys, [e[1] for e in entries], weights,
                       [common // w for w in weights])


# -- built-in slice algorithms ------------------------------------------------

class Prepared(NamedTuple):
    """A slice's bearers in the form the built-in algorithm cores read."""

    ids: tuple[int, ...]      # drb ids, ascending
    ues: tuple[int, ...]      # the owning UE of each
    weights: tuple[int, ...]  # integer weights (priority_weighted only, else empty)
    scale: tuple[int, ...]    # lcm(weights) // weight, for _water_fill


_by_drb_id = attrgetter("drb_id")


class BuiltinAlgorithm:
    """A built-in slice algorithm: one core over a prepared form of the bearers.

    ``core(budget, prepared, demands, rates, history)`` takes per-call demand
    and rate lists aligned with ``prepared.ids`` (``rates`` is None unless the
    algorithm reads rates) and returns the grant per drb. The scheduler
    prepares each slice once per epoch and runs the core every tick.
    Calling the object keeps the ``AlgoDrb`` contract of any
    :data:`Algorithm`: it prepares the given bearers and runs the same core.
    """

    def __init__(self, name: str, core: Callable, stateless: bool,
                 uses_rates: bool = False, weight_of: Optional[Callable] = None):
        self.__name__ = name
        self.stateless = stateless
        self.core = core
        self.uses_rates = uses_rates
        self._weight_of = weight_of  # bearer priority -> weight; priority_weighted only
        self._weight_cache: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}

    def prepare(self, drbs: Sequence) -> Prepared:
        """Prepared form of ``drbs`` (``DrbInput`` or ``AlgoDrb``), ascending drb id."""
        order = sorted(drbs, key=_by_drb_id)
        ids = tuple(d.drb_id for d in order)
        ues = tuple(d.ue_id for d in order)
        if self._weight_of is None:
            return Prepared(ids, ues, (), ())
        bps = tuple(d.bearer_priority for d in order)
        cached = self._weight_cache.get(bps)
        if cached is None:
            if len(self._weight_cache) > 1024:
                self._weight_cache.clear()
            weights = tuple(integer_weights([self._weight_of(bp) for bp in bps]))
            common = lcm(*weights)
            cached = (weights, tuple(common // w for w in weights))
            self._weight_cache[bps] = cached
        return Prepared(ids, ues, *cached)

    def __call__(self, budget: int, drbs: Sequence[AlgoDrb], history: dict) -> dict[int, int]:
        order = sorted(drbs, key=_by_drb_id)
        return self.core(budget, self.prepare(order), [d.demand_rb for d in order],
                         [d.rate_bits_per_rb for d in order], history)


def _round_robin(budget, prepared, demands, rates, history):
    """Single-RB round robin, counted in whole rounds.

    Every round visits the bearers in ascending drb id from the start index
    and hands one RB to each unsatisfied one, so k whole rounds give each
    bearer min(demand, k). The largest k the budget covers is found on the
    sorted demands; the partial round after it runs in cyclic order from the
    start index.
    """
    ids = prepared.ids
    n = len(ids)
    if not n:
        return {}
    start = history.get("rr_start", 0) % n
    history["rr_start"] = (start + 1) % n
    alloc = [0] * n
    if budget > 0:
        wants = sorted(d for d in demands if d > 0)
        level = used = 0
        left = len(wants)
        for d in wants:
            step = (d - level) * left
            if used + step > budget:
                level += (budget - used) // left
                break
            used += step
            level = d
            left -= 1
        extra = budget
        for k, d in enumerate(demands):
            if d > 0:
                alloc[k] = d if d < level else level
                extra -= alloc[k]
        # fewer RBs are left than bearers still wanting one, so this round
        # ends before it wraps
        for j in range(n):
            if not extra:
                break
            k = (start + j) % n
            if demands[k] > level:
                alloc[k] += 1
                extra -= 1
    return dict(zip(ids, alloc))


def _proportional_fair(budget, prepared, demands, rates, history):
    """Grant RB by RB to the bearer with the best rate-to-average ratio.

    A heap keyed on (-metric, drb id) holds every bearer with demand left;
    only the bearer just served changes its metric, so each grant is one
    heap replace. Ties go to the lowest drb id.
    """
    window = history.get("pf_window", 50)
    ewma = history.setdefault("pf_ewma", {})
    ids = prepared.ids
    rate = [max(r, 1e-9) for r in rates]
    avg0 = [ewma.get(i, 0.0) for i in ids]
    granted = [0.0] * len(ids)
    alloc = [0] * len(ids)
    left = list(demands)
    heap = [(-(rate[k] / max(avg0[k], 1e-9)), ids[k], k)
            for k in range(len(ids)) if left[k] > 0]
    heapify(heap)
    pool = budget
    while pool > 0 and heap:
        k = heap[0][2]
        alloc[k] += 1
        left[k] -= 1
        granted[k] += rate[k]
        pool -= 1
        if left[k] > 0:
            heapreplace(heap, (-(rate[k] / max(avg0[k] + granted[k], 1e-9)), ids[k], k))
        else:
            heappop(heap)
    for k, i in enumerate(ids):
        prev = avg0[k]
        ewma[i] = prev + (granted[k] - prev) / window
    return dict(zip(ids, alloc))


def _max_throughput(budget, prepared, demands, rates, history):
    """Fill the best-rate bearers first (ties: lower drb id)."""
    ids = prepared.ids
    # a stable sort of the ascending ids keeps the lower id first on equal rates
    order = sorted(range(len(ids)), key=lambda k: -rates[k])
    alloc = {ids[k]: 0 for k in order}
    pool = budget
    for k in order:
        give = min(demands[k], pool)
        alloc[ids[k]] = give
        pool -= give
        if pool == 0:
            break
    return alloc


def _priority_weighted(budget, prepared, demands, rates, history):
    return _water_fill(budget, prepared.ids, demands, prepared.weights, prepared.scale)


def make_priority_weighted(weight_of=None) -> BuiltinAlgorithm:
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

    return BuiltinAlgorithm("priority_weighted", _priority_weighted, stateless=True,
                            weight_of=lookup)


# stateless algorithms keep no history, which lets callers memoize decisions;
# an algorithm without a ``stateless`` attribute counts as stateful
round_robin = BuiltinAlgorithm("round_robin", _round_robin, stateless=False)
proportional_fair = BuiltinAlgorithm("proportional_fair", _proportional_fair,
                                     stateless=False, uses_rates=True)
max_throughput = BuiltinAlgorithm("max_throughput", _max_throughput, stateless=True,
                                  uses_rates=True)
priority_weighted = make_priority_weighted()


class AlgorithmRegistry:
    """String-keyed algorithm lookup used by slice configs and control messages.

    It also keeps the scheduler's one-entry per-epoch plan for the last slices
    tuple scheduled with it; :meth:`register` invalidates that plan and stores
    the algorithm as given (any callable, a bound method included).
    """

    def __init__(self):
        self._algos: dict[str, Algorithm] = {}
        self._generation = 0
        self._plan: Optional[_EpochPlan] = None
        self.register("round_robin", round_robin)
        self.register("proportional_fair", proportional_fair)
        self.register("max_throughput", max_throughput)
        self.register("priority_weighted", priority_weighted)

    def register(self, name: str, algo: Algorithm) -> None:
        self._algos[name] = algo
        self._generation += 1

    def get(self, name: str) -> Algorithm:
        try:
            return self._algos[name]
        except KeyError:
            raise KeyError(f"unknown scheduling algorithm {name!r}") from None

    def known(self, name: str) -> bool:
        return name in self._algos


DEFAULT_REGISTRY = AlgorithmRegistry()


# -- the per-epoch plan ----------------------------------------------------------

class _SliceRun(NamedTuple):
    """One slice with its resolved algorithm; ``prepared`` is None unless built-in."""

    slice: SliceInput
    algo: Algorithm
    prepared: Optional[Prepared]
    drb_ids: tuple[int, ...]


def _slice_run(s: SliceInput, registry: AlgorithmRegistry) -> _SliceRun:
    algo = registry.get(s.fd_scheduler)
    prepared = algo.prepare(s.drbs) if isinstance(algo, BuiltinAlgorithm) else None
    return _SliceRun(s, algo, prepared, tuple(d.drb_id for d in s.drbs))


def _stage2_order(s: SliceInput) -> tuple[int, int]:
    return (-s.shared_priority, s.slice_id)


_by_slice_id = attrgetter("slice_id")


@dataclass(frozen=True)
class _EpochPlan:
    slices: tuple[SliceInput, ...]
    generation: int
    reserved: int
    dph: tuple[_SliceRun, ...]         # dedicated/prioritized/hybrid, ascending id
    s_list: tuple[SliceInput, ...]     # stage 1's shared list: shared by id, then hybrid
    ordered: tuple[_SliceRun, ...]     # s_list in stage-2 order
    owner: dict[int, int]


def _epoch_plan(slices: tuple[SliceInput, ...], registry: AlgorithmRegistry) -> _EpochPlan:
    """The registry's plan for ``slices``, rebuilt when either has changed."""
    plan = registry._plan
    generation = registry._generation
    if plan is not None and plan.slices is slices and plan.generation == generation:
        return plan
    dph = sorted((s for s in slices if s.state in _RESERVING), key=_by_slice_id)
    shared = sorted((s for s in slices if s.state is SliceState.SHARED), key=_by_slice_id)
    s_list = tuple(shared) + tuple(s for s in dph if s.state is SliceState.HYBRID)
    runs = {id(s): _slice_run(s, registry) for s in dph + shared}
    plan = _EpochPlan(
        slices=slices,
        generation=generation,
        reserved=sum(s.dedicated_rb + s.prioritized_rb for s in dph),
        dph=tuple(runs[id(s)] for s in dph),
        s_list=s_list,
        ordered=tuple(runs[id(s)] for s in sorted(s_list, key=_stage2_order)),
        owner=_owner_map(slices),
    )
    registry._plan = plan
    return plan


# -- the three stages ----------------------------------------------------------

@dataclass
class Stage1Result:
    per_drb_rb: dict[int, int]
    shared_pool: int
    s_list: Sequence[SliceInput]
    remaining: dict[int, int]


def _algo_drbs(s: SliceInput, demands: Mapping[int, int], rates: Rates) -> list[AlgoDrb]:
    return [
        AlgoDrb(d.drb_id, d.ue_id, demands.get(d.drb_id, 0), d.bearer_priority,
                rates.get(d.ue_id, 0.0))
        for d in s.drbs
    ]


def _invoke(run: _SliceRun, budget: int, remaining: dict[int, int], rates: Rates,
            histories: dict[int, dict]) -> dict[int, int]:
    history = histories.get(run.slice.slice_id)
    if history is None:
        history = histories[run.slice.slice_id] = {}
    algo = run.algo
    prepared = run.prepared
    if prepared is None:
        return algo(budget, _algo_drbs(run.slice, remaining, rates), history)
    demands = [remaining.get(i, 0) for i in prepared.ids]
    per_drb_rates = [rates.get(u, 0.0) for u in prepared.ues] if algo.uses_rates else None
    return algo.core(budget, prepared, demands, per_drb_rates, history)


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
    ep = _epoch_plan(inp.slices, registry)
    if ep.reserved > inp.total_rb:
        raise InfeasibleSnapshot(f"reserved {ep.reserved} RBs on a {inp.total_rb}-RB cell")
    pool = inp.total_rb - ep.reserved
    per_drb: dict[int, int] = {}
    remaining = dict(inp.demands)
    rates = inp.ue_rate_bits_per_rb
    for run in ep.dph:
        s = run.slice
        budget = s.dedicated_rb + s.prioritized_rb
        alloc = _invoke(run, budget, remaining, rates, histories)
        used = _apply_alloc(alloc, budget, remaining, per_drb, s.fd_scheduler)
        # dedicated RBs are consumed first; whatever of the prioritized
        # assignment goes unused moves to the shared pool (dedicated does not)
        used_prio = max(0, used - s.dedicated_rb)
        pool += s.prioritized_rb - used_prio
    return Stage1Result(per_drb_rb=per_drb, shared_pool=pool, s_list=ep.s_list,
                        remaining=remaining)


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
    ep = _epoch_plan(inp.slices, registry)
    if s_list is ep.s_list:
        ordered = ep.ordered
    else:
        ordered = [_slice_run(s, registry) for s in sorted(s_list, key=_stage2_order)]
    slice_demand = []
    for run in ordered:
        want = 0
        for drb in run.drb_ids:
            n = remaining.get(drb, 0)
            if n > 0:
                want += n
        slice_demand.append(want)
    pool = shared_pool
    if policy == "max_min":
        grants = weighted_max_min(
            pool,
            [(run.slice.slice_id, want, run.slice.shared_priority)
             for run, want in zip(ordered, slice_demand)],
        )
    elif policy == "greedy":
        grants = {}
        left = pool
        for run, want in zip(ordered, slice_demand):
            g = min(want, left)
            grants[run.slice.slice_id] = g
            left -= g
    else:
        raise ValueError(f"unknown stage-2 policy {policy!r}")
    rates = inp.ue_rate_bits_per_rb
    for run in ordered:
        grant = grants.get(run.slice.slice_id, 0)
        if grant <= 0:
            continue
        alloc = _invoke(run, grant, remaining, rates, histories)
        pool -= _apply_alloc(alloc, grant, remaining, per_drb, run.slice.fd_scheduler)
    return AllocationPlan(per_drb_rb=per_drb, shared_pool_remaining=pool)


def stage3_vrb_assignment(
    plan: AllocationPlan,
    inp: TtiInput,
    registry: AlgorithmRegistry = DEFAULT_REGISTRY,
) -> VrbMap:
    """One contiguous VRB range per UE, ascending UE id, lowest free VRB first.

    The drb -> UE map comes from ``registry``'s plan for ``inp.slices``.
    """
    ue_total: dict[int, int] = {}
    owner = _epoch_plan(inp.slices, registry).owner
    for drb, n in plan.per_drb_rb.items():
        if n > 0:
            ue = owner[drb]
            ue_total[ue] = ue_total.get(ue, 0) + n
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
    ep = _epoch_plan(inp.slices, registry)
    inp.validate(ep.owner)
    histories = histories if histories is not None else {}
    st1 = stage1_slice_specific(inp, registry, histories)
    plan = stage2_shared(
        st1.s_list, st1.shared_pool, st1.per_drb_rb, inp,
        registry, histories, remaining=st1.remaining, policy=stage2_policy,
    )
    vrb = stage3_vrb_assignment(plan, inp, registry)
    return ScheduleDecision(tti_index=inp.tti_index, plan=plan, vrb=vrb)
