"""Three-stage slice-aware frequency-domain scheduler.

Per tick, stage 1 serves slices holding dedicated and/or prioritized resource
blocks (each slice splitting its own budget with its own algorithm), stage 2
distributes the shared pool across shared slices by weighted max-min fairness,
and stage 3 maps every UE's total onto one contiguous virtual-RB range.

Everything here is pure computation: :func:`run_tti` is deterministic given
its arguments. Algorithm state (round-robin rotation, proportional-fair
averages) lives in caller-owned ``histories`` dicts passed in each tick.

Structure that only changes with the slice configuration is built once per
epoch, not once per tick, as one :class:`EpochPlan`. Each
:class:`AlgorithmRegistry` keeps a one-entry plan for the last slices tuple
that :func:`epoch_plan` was given, matched by identity (so that tuple must not
be changed in place): the stage-1 and stage-2 slice orders, the reserved
total, the drb -> UE owner map, each slice's resolved algorithm, whether every
one of them is stateless and, for the built-in algorithms, their prepared
form (drb ids in ascending order, UE ids, and for ``priority_weighted`` the
integer weights lcm(priorities) // priority). Registering an algorithm
invalidates the plan. :func:`run_tti` looks the plan up once per tick and
hands it to each stage; a cell builds it once per epoch, lays its own bearer
columns out over its ``ids``, and its ticks then find that same plan.

The plan also lays every scheduled drb out once, in one flat bearer order:
slices by ascending id, each slice's drbs in its prepared order (as given, for
a custom algorithm), so each slice owns a ``[lo, hi)`` range. A tick works on
one list in that order, the demand each bearer has left, which stages 1 and 2
take their grants off. They hand each slice its range; a built-in core returns
its grants as a list aligned to it. Custom algorithms keep the ``AlgoDrb``
contract: they get a fresh ``AlgoDrb`` list on every call, and the per-drb
dict they return is laid onto their slice's range, so a nonzero grant to any
bearer outside the slice breaks the contract. Either way one loop then
contract-checks the grants and takes them off the list by index. Dicts appear
only at the edges: ``TtiInput.demands`` comes in as one, and the decision's
per-drb grants are built once, after stage 2, as the difference between the
demand and what is left.

Rounding and tie-break conventions (fixed for determinism):

* slices with dedicated/prioritized budgets are processed in ascending
  slice id (budgets are disjoint, so order cannot change totals);
* fractional fair shares are resolved by largest remainder, ties broken by
  larger weight then lower id;
* stage 3 places UEs in ascending UE id at the lowest free VRB.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from math import lcm
from operator import attrgetter, mul
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .errors import AlgorithmContractViolation, InfeasibleSnapshot
from .slice_model import SliceState

Rates = Mapping[int, float]

_RESERVING = (SliceState.DEDICATED, SliceState.PRIORITIZED, SliceState.HYBRID)
_SHARING = (SliceState.SHARED, SliceState.HYBRID)


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

    def validate(self, owner: Mapping[int, int]) -> None:
        """Reject negative demands and demanded bearers with no schedulable UE.

        ``owner`` is the drb -> UE map of ``slices``.
        """
        ue_ids = self.ue_rate_bits_per_rb
        for drb, demand in self.demands.items():
            if demand > 0:
                if owner.get(drb) not in ue_ids:
                    raise ValueError(f"demanded drb {drb} has no schedulable UE")
            elif demand < 0:
                raise ValueError(f"negative demand for drb {drb}")


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

def _water_fill(pool: int, keys: Sequence, demands: Sequence[int],
                weights: Sequence[int], scale: Sequence[int]) -> list[int]:
    """Weighted max-min split of ``pool``; lists in and out aligned by index.

    ``scale[i]`` is ``lcm(weights) // weights[i]``, or any other constant
    multiple of ``1 / weights[i]`` in integers, so ``demands[i] * scale[i]``
    orders the entries by their exact fill level d/w. One walk up that order
    fills each entry whose demand fits under the current water level (which
    only rises as entries leave); the first that does not fit ends the walk,
    since every later one sits higher still. The rest split what is left in
    proportion to weight, by largest remainder (ties: larger weight, then
    lower key).
    """
    alloc = [0] * len(demands)
    if pool > 0:
        order = sorted(range(len(demands)), key=list(map(mul, demands, scale)).__getitem__)
        total_w = sum(weights)
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
            return alloc  # every entry filled
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
    return alloc


def weighted_max_min(pool: int, entries: Sequence[tuple[int, int, int]]) -> dict[int, int]:
    """Integer weighted max-min fair split of ``pool`` over (key, demand, weight).

    Weights must be positive integers. Exact arithmetic: saturation is tested
    by cross-multiplication and the final proportional slice is rounded by
    largest remainder (ties: larger weight, then lower key).
    """
    if not entries:
        return {}
    keys, demands, weights = zip(*entries)
    common = lcm(*weights)
    return dict(zip(keys, _water_fill(pool, keys, demands, weights,
                                      [common // w for w in weights])))


# -- built-in slice algorithms ------------------------------------------------

class Prepared(NamedTuple):
    """A slice's bearers in the form the built-in algorithm cores read."""

    ids: tuple[int, ...]      # drb ids, ascending
    ues: tuple[int, ...]      # the owning UE of each
    weights: tuple[int, ...]  # integer weights (priority_weighted only, else empty)
    scale: tuple[int, ...]    # the priorities: a constant multiple of 1/weight, for _water_fill


_by_drb_id = attrgetter("drb_id")


class BuiltinAlgorithm:
    """A built-in slice algorithm: one core over a prepared form of the bearers.

    ``core(budget, prepared, demands, rates, history)`` takes per-call demand
    and rate lists aligned with ``prepared.ids`` (``rates`` is None unless the
    algorithm reads rates) and returns the grants as a list aligned the same
    way. The scheduler prepares each slice once per epoch and runs the core
    every tick. Calling the object keeps the ``AlgoDrb`` contract of any
    :data:`Algorithm`: it prepares the given bearers, runs the same core and
    returns a dict keyed by drb in ascending id, or in the order
    ``key_order(rates)`` gives as indexes into ``prepared.ids``.
    """

    def __init__(self, name: str, core: Callable, stateless: bool,
                 uses_rates: bool = False, weighted: bool = False,
                 key_order: Optional[Callable] = None):
        self.__name__ = name
        self.stateless = stateless
        self.core = core
        self.uses_rates = uses_rates
        self.weighted = weighted  # weights 1/priority; priority_weighted only
        self._key_order = key_order

    def prepare(self, drbs: Sequence) -> Prepared:
        """Prepared form of ``drbs`` (``DrbInput`` or ``AlgoDrb``), ascending drb id;
        a weighted algorithm raises ValueError for a priority below 1."""
        order = sorted(drbs, key=_by_drb_id)
        ids = tuple(d.drb_id for d in order)
        ues = tuple(d.ue_id for d in order)
        if not self.weighted:
            return Prepared(ids, ues, (), ())
        priorities = tuple(d.bearer_priority for d in order)
        if min(priorities, default=1) < 1:
            raise ValueError("bearer priorities must be >= 1")
        common = lcm(*priorities)
        return Prepared(ids, ues, tuple(common // p for p in priorities), priorities)

    def __call__(self, budget: int, drbs: Sequence[AlgoDrb], history: dict) -> dict[int, int]:
        order = sorted(drbs, key=_by_drb_id)
        rates = [d.rate_bits_per_rb for d in order]
        prepared = self.prepare(order)
        grants = self.core(budget, prepared, [d.demand_rb for d in order], rates, history)
        ids = prepared.ids
        if self._key_order is None:
            return dict(zip(ids, grants))
        return {ids[k]: grants[k] for k in self._key_order(rates)}


def _round_robin(budget, prepared, demands, rates, history):
    """Single-RB round robin, counted in whole rounds.

    Every round visits the bearers in ascending drb id from the start index
    and hands one RB to each unsatisfied one, so k whole rounds give each
    bearer min(demand, k). The largest k the budget covers is found on the
    sorted demands; the partial round after it runs in cyclic order from the
    start index.
    """
    n = len(prepared.ids)
    if not n:
        return []
    start = history.get("rr_start", 0) % n
    history["rr_start"] = (start + 1) % n
    alloc = [0] * n
    if budget > 0:
        wants = sorted([d for d in demands if d > 0])
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
    return alloc


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
    left = list(demands)
    heap = [(-(rate[k] / max(avg0[k], 1e-9)), ids[k], k)
            for k in range(len(ids)) if left[k] > 0]
    heapify(heap)
    pool = budget
    while pool > 0 and heap:
        k = heap[0][2]
        pool -= 1
        want = left[k] - 1
        left[k] = want
        got = granted[k] + rate[k]
        granted[k] = got
        if want > 0:
            avg = avg0[k] + got
            # max(avg, 1e-9), written out
            heapreplace(heap, (-(rate[k] / (1e-9 if 1e-9 > avg else avg)), ids[k], k))
        else:
            heappop(heap)
    for k, i in enumerate(ids):
        prev = avg0[k]
        ewma[i] = prev + (granted[k] - prev) / window
    return [d - n for d, n in zip(demands, left)]


def _best_rate_first(rates: Sequence[float]) -> list[int]:
    # a reversed sort is still stable: the lower id stays first on equal rates
    return sorted(range(len(rates)), key=rates.__getitem__, reverse=True)


def _max_throughput(budget, prepared, demands, rates, history):
    """Fill the best-rate bearers first (ties: lower drb id)."""
    alloc = [0] * len(demands)
    pool = budget
    for k in _best_rate_first(rates):
        give = demands[k]
        if pool < give:
            give = pool
        alloc[k] = give
        pool -= give
        if pool == 0:
            break
    return alloc


def _priority_weighted(budget, prepared, demands, rates, history):
    """Budget split in proportion to the weight 1/priority.

    Shares are demand-capped (excess reflows to the rest) and rounded by
    largest remainder, leftovers going to the highest weight.
    """
    return _water_fill(budget, prepared.ids, demands, prepared.weights, prepared.scale)


# stateless algorithms keep no history, which lets callers memoize decisions
round_robin = BuiltinAlgorithm("round_robin", _round_robin, stateless=False)
proportional_fair = BuiltinAlgorithm("proportional_fair", _proportional_fair,
                                     stateless=False, uses_rates=True)
max_throughput = BuiltinAlgorithm("max_throughput", _max_throughput, stateless=True,
                                  uses_rates=True, key_order=_best_rate_first)
priority_weighted = BuiltinAlgorithm("priority_weighted", _priority_weighted, stateless=True,
                                     weighted=True)


class AlgorithmRegistry:
    """String-keyed algorithm lookup used by slice configs and control messages.

    It also keeps the scheduler's one-entry per-epoch plan for the last slices
    tuple planned with it; :meth:`register` invalidates that plan and stores
    the algorithm as given (any callable, a bound method included).
    """

    def __init__(self):
        self._algos: dict[str, Algorithm] = {}
        self._generation = 0
        self._plan: Optional[EpochPlan] = None
        self.register("round_robin", round_robin)
        self.register("proportional_fair", proportional_fair)
        self.register("max_throughput", max_throughput)
        self.register("priority_weighted", priority_weighted)

    def register(self, name: str, algo: Algorithm) -> None:
        self._algos[name] = algo
        self._generation += 1

    @property
    def generation(self) -> int:  # moved by every register
        return self._generation

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
    """One scheduled slice, its algorithm and its range of the flat bearer order.

    ``prepared`` is None unless the algorithm is built-in. The range
    ``[lo, hi)`` holds ``prepared.ids``, or else the slice's drbs as given.
    """

    slice: SliceInput
    algo: Algorithm
    prepared: Optional[Prepared]
    lo: int
    hi: int


def _stage2_order(run: _SliceRun) -> tuple[int, int]:
    return (-run.slice.shared_priority, run.slice.slice_id)


_by_slice_id = attrgetter("slice_id")


@dataclass(frozen=True)
class EpochPlan:
    """The scheduler's per-epoch structure for one slices tuple (see the
    module docstring); the cell lays its bearer columns out over ``ids``."""

    slices: tuple[SliceInput, ...]
    generation: int                    # the AlgorithmRegistry's when built
    reserved: int
    dph: tuple[_SliceRun, ...]         # dedicated/prioritized/hybrid, ascending id
    ordered: tuple[_SliceRun, ...]     # shared and hybrid, in stage-2 order
    ids: tuple[int, ...]               # the flat bearer order: each slice's range, by id
    owner: dict[int, int]              # drb -> UE
    ues: tuple[int, ...]               # the UEs owning ids, ascending
    ue_slot: dict[int, int]            # drb -> position of its UE in ues
    stateless: bool                    # every run's algorithm has a true ``stateless``

    def aligned(self, per_drb: Mapping[int, int]) -> list[int]:
        """``per_drb``'s values in the flat bearer order, 0 where a drb is absent."""
        return [per_drb.get(drb, 0) for drb in self.ids]

    def grants(self, demand: Sequence[int], left: Sequence[int]) -> dict[int, int]:
        """drb -> RBs granted, for each bearer whose ``left`` fell below its
        ``demand`` (both lists in the flat bearer order)."""
        return {drb: d - n for drb, d, n in zip(self.ids, demand, left) if d != n}


def epoch_plan(slices: tuple[SliceInput, ...], registry: AlgorithmRegistry) -> EpochPlan:
    """The registry's plan for ``slices``, rebuilt when either has changed."""
    plan = registry._plan
    generation = registry._generation
    if plan is not None and plan.slices is slices and plan.generation == generation:
        return plan
    ids: list[int] = []
    runs: list[_SliceRun] = []
    for s in sorted(slices, key=_by_slice_id):
        lo = len(ids)
        if s.state is SliceState.IDLE:
            continue  # not scheduled
        algo = registry.get(s.fd_scheduler)
        prepared = algo.prepare(s.drbs) if isinstance(algo, BuiltinAlgorithm) else None
        ids.extend(prepared.ids if prepared is not None else (d.drb_id for d in s.drbs))
        runs.append(_SliceRun(s, algo, prepared, lo, len(ids)))
    dph = tuple(run for run in runs if run.slice.state in _RESERVING)
    shared = [run for run in runs if run.slice.state in _SHARING]
    owner = {d.drb_id: d.ue_id for s in slices for d in s.drbs}
    ues = tuple(sorted({owner[drb] for drb in ids}))
    slot = {ue: k for k, ue in enumerate(ues)}
    plan = EpochPlan(
        slices=slices,
        generation=generation,
        reserved=sum(run.slice.dedicated_rb + run.slice.prioritized_rb for run in dph),
        dph=dph,
        ordered=tuple(sorted(shared, key=_stage2_order)),
        ids=tuple(ids),
        owner=owner,
        ues=ues,
        ue_slot={drb: slot[owner[drb]] for drb in ids},
        stateless=all(getattr(run.algo, "stateless", False) for run in runs),
    )
    registry._plan = plan
    return plan


# -- the three stages ----------------------------------------------------------

def _grant(run: _SliceRun, budget: int, left: list[int], ep: EpochPlan, rates: Rates,
           histories: dict[int, dict]) -> int:
    """Run one slice's algorithm on its demand left and take the grants off it.

    Enforces the algorithm contract: no bearer gets more than its demand
    left, none a negative grant, none outside the slice a grant at all, and
    the slice no more than ``budget``.
    Returns the RBs used.
    """
    s, algo, prepared, lo, hi = run
    history = histories.get(s.slice_id)
    if history is None:
        history = histories[s.slice_id] = {}
    demands = left[lo:hi]
    if prepared is None:
        drbs = [AlgoDrb(d.drb_id, d.ue_id, n, d.bearer_priority, rates.get(d.ue_id, 0.0))
                for d, n in zip(s.drbs, demands)]
        # lay the algorithm's dict (a copy, which the pops empty) onto the
        # slice's range; what is left names bearers outside the slice
        out = dict(algo(budget, drbs, history))
        grants = [out.pop(drb, 0) for drb in ep.ids[lo:hi]]
        for drb, n in out.items():
            if n:
                raise AlgorithmContractViolation(
                    f"{s.fd_scheduler} gave drb {drb} {n} RBs outside its slice")
    else:
        per_drb_rates = [rates.get(u, 0.0) for u in prepared.ues] if algo.uses_rates else None
        grants = algo.core(budget, prepared, demands, per_drb_rates, history)
    if len(grants) != hi - lo:
        raise AlgorithmContractViolation(
            f"{s.fd_scheduler} returned {len(grants)} grants for {hi - lo} bearers")
    for i, n in enumerate(grants, lo):
        if n:
            want = left[i]
            if n < 0 or n > want:
                raise AlgorithmContractViolation(
                    f"{s.fd_scheduler} gave drb {ep.ids[i]} {n} RBs (demand {want})")
            left[i] = want - n
    used = sum(grants)
    if used > budget:
        raise AlgorithmContractViolation(f"{s.fd_scheduler} exceeded budget {budget} with {used}")
    return used


def stage1_slice_specific(ep: EpochPlan, inp: TtiInput, left: list[int],
                          histories: dict[int, dict]) -> int:
    """Serve dedicated/prioritized/hybrid budgets; donate unused prioritized RBs.

    ``left`` is the demand each bearer has left, in ``ep``'s flat bearer
    order; the grants are taken off it. Returns the shared pool.
    """
    if ep.reserved > inp.total_rb:
        raise InfeasibleSnapshot(f"reserved {ep.reserved} RBs on a {inp.total_rb}-RB cell")
    pool = inp.total_rb - ep.reserved
    rates = inp.ue_rate_bits_per_rb
    for run in ep.dph:
        s = run.slice
        used = _grant(run, s.dedicated_rb + s.prioritized_rb, left, ep, rates, histories)
        # dedicated RBs are consumed first; whatever of the prioritized
        # assignment goes unused moves to the shared pool (dedicated does not)
        used_prio = max(0, used - s.dedicated_rb)
        pool += s.prioritized_rb - used_prio
    return pool


def stage2_shared(ep: EpochPlan, inp: TtiInput, pool: int, left: list[int],
                  histories: dict[int, dict]) -> int:
    """Split ``pool`` over the shared (and hybrid) slices by weighted max-min
    fairness, with the shared priority as weight, in ``ep.ordered``.

    A slice granted nothing is not scheduled. Takes the grants off ``left``
    like stage 1; returns the pool left.
    """
    ordered = ep.ordered
    grants = weighted_max_min(
        pool,
        [(run.slice.slice_id, sum(left[run.lo:run.hi]), run.slice.shared_priority)
         for run in ordered],
    )
    rates = inp.ue_rate_bits_per_rb
    for run in ordered:
        grant = grants[run.slice.slice_id]
        if grant > 0:
            pool -= _grant(run, grant, left, ep, rates, histories)
    return pool


def stage3_vrb_assignment(ep: EpochPlan, inp: TtiInput, per_drb_rb: dict[int, int]) -> VrbMap:
    """One contiguous VRB range per UE, ascending UE id, lowest free VRB first."""
    slot = ep.ue_slot
    ue_total = [0] * len(ep.ues)
    for drb, n in per_drb_rb.items():
        if n > 0:
            ue_total[slot[drb]] += n
    if sum(ue_total) > inp.total_rb:
        raise InfeasibleSnapshot("per-UE totals exceed the cell")
    ranges: dict[int, tuple[int, int]] = {}
    cursor = 0
    for ue, n in zip(ep.ues, ue_total):
        if n:
            ranges[ue] = (cursor, cursor + n - 1)
            cursor += n
    return VrbMap(per_ue_range=ranges)


def run_tti(
    inp: TtiInput,
    registry: AlgorithmRegistry = DEFAULT_REGISTRY,
    histories: Optional[dict[int, dict]] = None,
) -> ScheduleDecision:
    """Full per-tick decision: stage 1 -> stage 2 -> stage 3.

    Looks up ``registry``'s epoch plan for ``inp.slices`` once and hands it,
    with the tick's one demand-left list, to each stage.
    """
    ep = epoch_plan(inp.slices, registry)
    inp.validate(ep.owner)
    histories = histories if histories is not None else {}
    demand = ep.aligned(inp.demands)
    left = list(demand)
    pool = stage1_slice_specific(ep, inp, left, histories)
    pool = stage2_shared(ep, inp, pool, left, histories)
    per_drb_rb = ep.grants(demand, left)
    vrb = stage3_vrb_assignment(ep, inp, per_drb_rb)
    return ScheduleDecision(inp.tti_index, AllocationPlan(per_drb_rb, pool), vrb)
