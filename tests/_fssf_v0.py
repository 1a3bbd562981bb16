"""The built-in slice algorithms as they were before the per-epoch plan.

A frozen copy, kept only as the reference for ``test_fssf_v0_equivalence``:
the scheduler oracle in ``hexsim.reference`` runs the registry's own
algorithms on both sides, so it cannot notice a change inside one of them.
Each function takes a sequence of objects with the ``fssf.AlgoDrb`` fields.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def integer_weights(weights):
    fracs = [w if isinstance(w, Fraction) else Fraction(str(w)) for w in weights]
    if any(f <= 0 for f in fracs):
        raise ValueError("weights must be positive")
    denom_lcm = 1
    for f in fracs:
        denom_lcm = denom_lcm * f.denominator // gcd(denom_lcm, f.denominator)
    return [int(f * denom_lcm) for f in fracs]


def weighted_max_min(pool, entries):
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


def round_robin(budget, drbs, history):
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


def proportional_fair(budget, drbs, history):
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


def max_throughput(budget, drbs, history):
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


def make_priority_weighted(weight_of=None):
    def lookup(bp):
        if weight_of is None:
            return Fraction(1, bp)
        if callable(weight_of):
            return weight_of(bp)
        return weight_of[bp]

    weight_cache = {}

    def algo(budget, drbs, history):
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

    return algo


priority_weighted = make_priority_weighted()
