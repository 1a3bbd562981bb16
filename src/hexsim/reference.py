"""Independent reference implementations used as test oracles.

These deliberately re-derive behaviour from first principles with different
machinery than the production code: the scheduler reference walks the
three-stage flow literally and computes fair shares with exact rational
water-filling; the slice lifecycle table is a hand-written enumeration. The
production scheduler and the reference must agree exactly on small instances;
slice algorithms themselves are pluggable inputs shared by both sides.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from . import fssf
from .errors import InfeasibleSnapshot
from .slice_model import SliceState

# (state, event) -> (next state, next default or None); events are the two
# lifecycle edges: a bearer arriving on the slice, and the bearer count
# reaching zero. Idle wakes into the configured default state; on emptying,
# prioritized and shared reset to idle with a shared default, hybrid keeps
# only its dedicated assignment, dedicated stays as it is.
ADD = "drb_added"
EMPTY = "last_drb_removed"

EXPECTED_TRANSITIONS: dict[tuple[SliceState, str], tuple[Optional[SliceState], Optional[SliceState]]] = {
    (SliceState.IDLE, ADD): (None, None),  # None: goes to the default state
    (SliceState.DEDICATED, ADD): (SliceState.DEDICATED, None),
    (SliceState.PRIORITIZED, ADD): (SliceState.PRIORITIZED, None),
    (SliceState.SHARED, ADD): (SliceState.SHARED, None),
    (SliceState.HYBRID, ADD): (SliceState.HYBRID, None),
    (SliceState.IDLE, EMPTY): (SliceState.IDLE, None),
    (SliceState.DEDICATED, EMPTY): (SliceState.DEDICATED, None),
    (SliceState.PRIORITIZED, EMPTY): (SliceState.IDLE, SliceState.SHARED),
    (SliceState.SHARED, EMPTY): (SliceState.IDLE, SliceState.SHARED),
    (SliceState.HYBRID, EMPTY): (SliceState.DEDICATED, None),
}


def expected_after_add(state: SliceState, default: SliceState) -> SliceState:
    nxt, _ = EXPECTED_TRANSITIONS[(state, ADD)]
    return default if nxt is None else nxt


def expected_after_empty(state: SliceState) -> tuple[SliceState, Optional[SliceState]]:
    return EXPECTED_TRANSITIONS[(state, EMPTY)]


# -- exact rational max-min fairness ------------------------------------------

def fraction_max_min(pool: int, entries: list[tuple[int, int, int]]) -> dict[int, int]:
    """Weighted max-min by explicit water-level search over Fraction breakpoints."""
    alloc = {key: 0 for key, _, _ in entries}
    active = [(key, d, w) for key, d, w in entries if d > 0]
    if pool <= 0 or not active:
        return alloc
    if sum(d for _, d, _ in active) <= pool:
        for key, d, _ in active:
            alloc[key] = d
        return alloc
    by_level = sorted(active, key=lambda e: (Fraction(e[1], e[2]), e[0]))
    assigned = 0
    rest_weight = sum(w for _, _, w in active)
    idx = 0
    while idx < len(by_level):
        key, d, w = by_level[idx]
        level = Fraction(d, w)
        if assigned + level * rest_weight <= pool:
            alloc[key] = d
            assigned += d
            rest_weight -= w
            idx += 1
        else:
            break
    rest = by_level[idx:]
    if rest:
        level = Fraction(pool - assigned, rest_weight)
        shares = []
        for key, d, w in rest:
            exact = level * w
            base = int(exact)  # floor for non-negative fractions
            shares.append((key, base, exact - base, w))
        leftover = (pool - assigned) - sum(s[1] for s in shares)
        shares.sort(key=lambda s: (-s[2], -s[3], s[0]))
        for i, (key, base, _, _) in enumerate(shares):
            alloc[key] = base + (1 if i < leftover else 0)
    return alloc


# -- literal three-stage scheduler ----------------------------------------------

def reference_run_tti(
    inp: fssf.TtiInput,
    registry: fssf.AlgorithmRegistry = fssf.DEFAULT_REGISTRY,
    histories: Optional[dict[int, dict]] = None,
) -> fssf.ScheduleDecision:
    histories = histories if histories is not None else {}
    remaining = dict(inp.demands)
    per_drb: dict[int, int] = {}

    def invoke(s: fssf.SliceInput, budget: int) -> int:
        drbs = [
            fssf.AlgoDrb(d.drb_id, d.ue_id, remaining.get(d.drb_id, 0), d.bearer_priority,
                         inp.ue_rate_bits_per_rb.get(d.ue_id, 0.0))
            for d in s.drbs
        ]
        out = registry.get(s.fd_scheduler)(budget, drbs, histories.setdefault(s.slice_id, {}))
        used = 0
        for drb, n in out.items():
            if n:
                per_drb[drb] = per_drb.get(drb, 0) + n
                remaining[drb] = remaining.get(drb, 0) - n
                used += n
        return used

    # stage 1: dedicated + prioritized budgets, leftovers of the prioritized
    # part (and only that part) feed the shared pool
    dph = sorted(
        (s for s in inp.slices if s.state in
         (SliceState.DEDICATED, SliceState.PRIORITIZED, SliceState.HYBRID)),
        key=lambda s: s.slice_id,
    )
    pool = inp.total_rb - sum(s.dedicated_rb + s.prioritized_rb for s in dph)
    if pool < 0:
        raise InfeasibleSnapshot("over-reserved cell")
    s_list = sorted((s for s in inp.slices if s.state is SliceState.SHARED),
                    key=lambda s: s.slice_id)
    for s in dph:
        used = invoke(s, s.dedicated_rb + s.prioritized_rb)
        pool += s.prioritized_rb - max(0, used - s.dedicated_rb)
        if s.state is SliceState.HYBRID:
            s_list.append(s)

    # stage 2: shared pool across the shared list; a slice granted nothing
    # is not scheduled
    ordered = sorted(s_list, key=lambda s: (-s.shared_priority, s.slice_id))
    wants = {
        s.slice_id: sum(max(0, remaining.get(d.drb_id, 0)) for d in s.drbs) for s in ordered
    }
    grants = fraction_max_min(
        pool, [(s.slice_id, wants[s.slice_id], s.shared_priority) for s in ordered]
    )
    spent = 0
    for s in ordered:
        if grants[s.slice_id] > 0:
            spent += invoke(s, grants[s.slice_id])
    plan = fssf.AllocationPlan(per_drb, pool - spent)

    # stage 3: ascending UE id, one contiguous range each
    owner = {d.drb_id: d.ue_id for s in inp.slices for d in s.drbs}
    totals: dict[int, int] = {}
    for drb, n in per_drb.items():
        if n > 0:
            totals[owner[drb]] = totals.get(owner[drb], 0) + n
    ranges = {}
    cursor = 0
    for ue in sorted(totals):
        ranges[ue] = (cursor, cursor + totals[ue] - 1)
        cursor += totals[ue]
    return fssf.ScheduleDecision(tti_index=inp.tti_index, plan=plan,
                                 vrb=fssf.VrbMap(per_ue_range=ranges))


# -- random instance generator ---------------------------------------------------

ORACLE_ALGORITHMS = ("round_robin", "proportional_fair", "max_throughput", "priority_weighted")


def random_instance(rng: random.Random, max_rb: int = 12, max_slices: int = 3,
                    max_drbs: int = 4) -> tuple[fssf.TtiInput, dict[int, dict]]:
    """Small random scheduling instance plus per-slice algorithm history."""
    total_rb = rng.randint(1, max_rb)
    n_slices = rng.randint(0, max_slices)
    budget_left = total_rb
    slices = []
    drb_id = 1
    ue_id = 1
    drbs_left = max_drbs
    histories: dict[int, dict] = {}
    rates = {}
    for sid in range(1, n_slices + 1):
        state = rng.choice((SliceState.DEDICATED, SliceState.PRIORITIZED,
                            SliceState.SHARED, SliceState.HYBRID))
        ded = prio = 0
        if state in (SliceState.DEDICATED, SliceState.HYBRID):
            ded = rng.randint(0, budget_left)
            budget_left -= ded
        if state in (SliceState.PRIORITIZED, SliceState.HYBRID):
            prio = rng.randint(0, budget_left)
            budget_left -= prio
        n_drbs = rng.randint(0, min(2, drbs_left))
        drbs_left -= n_drbs
        members = []
        for _ in range(n_drbs):
            members.append(fssf.DrbInput(drb_id, ue_id, rng.randint(1, 5)))
            rates[ue_id] = float(rng.choice((600, 900, 1200)))
            drb_id += 1
            if rng.random() < 0.5:
                ue_id += 1
        if members and rng.random() < 0.5:
            ue_id += 1
        algo = rng.choice(ORACLE_ALGORITHMS)
        histories[sid] = {}
        if algo == "round_robin" and members:
            histories[sid]["rr_start"] = rng.randint(0, len(members) - 1)
        if algo == "proportional_fair" and members:
            histories[sid]["pf_ewma"] = {
                m.drb_id: rng.uniform(0.0, 2000.0) for m in members
            }
        slices.append(fssf.SliceInput(
            slice_id=sid,
            state=state,
            dedicated_rb=ded,
            prioritized_rb=prio,
            shared_priority=rng.randint(1, 3),
            fd_scheduler=algo,
            drbs=tuple(members),
        ))
    demands = {}
    for s in slices:
        for d in s.drbs:
            if rng.random() < 0.85:
                demands[d.drb_id] = rng.randint(0, total_rb + 2)
    inp = fssf.TtiInput(
        tti_index=rng.randint(0, 1000),
        total_rb=total_rb,
        ue_rate_bits_per_rb=rates,
        demands=demands,
        slices=tuple(slices),
    )
    return inp, histories


def oracle_equivalence_run(n_instances: int, seed: int = 20240, progress=None) -> list[str]:
    """Compare the scheduler against the reference on random instances.

    Returns a list of mismatch descriptions (empty means full agreement).
    """
    import copy

    rng = random.Random(seed)
    mismatches = []
    for k in range(n_instances):
        inp, histories = random_instance(rng)
        got = fssf.run_tti(inp, histories=copy.deepcopy(histories))
        want = reference_run_tti(inp, histories=copy.deepcopy(histories))
        got_plan = {d: n for d, n in got.per_drb_rb.items() if n}
        want_plan = {d: n for d, n in want.per_drb_rb.items() if n}
        if (got_plan != want_plan
                or got.plan.shared_pool_remaining != want.plan.shared_pool_remaining
                or got.vrb.per_ue_range != want.vrb.per_ue_range):
            mismatches.append(
                f"instance {k}: got {got_plan}/{got.plan.shared_pool_remaining}/"
                f"{got.vrb.per_ue_range} want {want_plan}/{want.plan.shared_pool_remaining}/"
                f"{want.vrb.per_ue_range} input={inp}"
            )
            if len(mismatches) >= 5:
                break
        if progress and k and k % 2000 == 0:
            progress(k)
    return mismatches
