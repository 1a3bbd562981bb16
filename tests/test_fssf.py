"""Three-stage scheduler: stage contracts, built-in algorithms, fairness properties."""

import copy
import dataclasses
import random
from fractions import Fraction

import _fssf_v0 as fssf_v0
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexsim import fssf
from hexsim.errors import AlgorithmContractViolation, InfeasibleSnapshot
from hexsim.reference import random_instance, reference_run_tti
from hexsim.slice_model import SliceState

R = 130e6 / 106 / 1000  # bits per RB per 1 ms tick at the calibrated rate


def slice_input(sid, state, ded=0, prio=0, sp=1, sched="priority_weighted", drbs=()):
    return fssf.SliceInput(
        slice_id=sid, state=state, dedicated_rb=ded, prioritized_rb=prio,
        shared_priority=sp, fd_scheduler=sched,
        drbs=tuple(fssf.DrbInput(d, u, bp) for d, u, bp in drbs),
    )


def tti(total_rb, slices, demands, rates=None):
    if rates is None:
        rates = {d.ue_id: R for s in slices for d in s.drbs}
    return fssf.TtiInput(tti_index=0, total_rb=total_rb, ue_rate_bits_per_rb=rates,
                         demands=demands, slices=tuple(slices))


class TestStage1:
    """Stage 1 through run_tti: with no shared slice to take from it, the
    shared pool stage 1 leaves is the plan's ``shared_pool_remaining``."""

    def test_dedicated_85_leaves_pool_of_21(self):
        s2 = slice_input(2, SliceState.DEDICATED, ded=85, drbs=[(201, 2, 1)])
        out = fssf.run_tti(tti(106, [s2], {201: 106}))
        assert out.per_drb_rb == {201: 85}
        assert out.plan.shared_pool_remaining == 21

    def test_empty_dph_list_frees_everything(self):
        out = fssf.run_tti(tti(106, [], {}))
        assert out.per_drb_rb == {}
        assert out.plan.shared_pool_remaining == 106

    def test_prioritized_donation_dedicated_retention(self):
        # A dedicated 4 fully used, B prioritized 4 with demand 2: the two
        # unused prioritized RBs join the pool, total 10 - 8 + 2 = 4
        a = slice_input(1, SliceState.DEDICATED, ded=4, drbs=[(11, 1, 1)])
        b = slice_input(2, SliceState.PRIORITIZED, prio=4, drbs=[(21, 2, 1)])
        out = fssf.run_tti(tti(10, [a, b], {11: 4, 21: 2}))
        assert out.per_drb_rb == {11: 4, 21: 2}
        assert out.plan.shared_pool_remaining == 4

    def test_unused_dedicated_rbs_are_wasted(self):
        a = slice_input(1, SliceState.DEDICATED, ded=6, drbs=[(11, 1, 1)])
        out = fssf.run_tti(tti(10, [a], {11: 1}))
        assert out.plan.shared_pool_remaining == 4  # 10 - 6; the 5 idle dedicated RBs stay out

    def test_hybrid_donates_prioritized_remainder_and_joins_shared_list(self):
        h = slice_input(1, SliceState.HYBRID, ded=3, prio=5, drbs=[(11, 1, 1)])
        out = fssf.run_tti(tti(12, [h], {11: 4}))
        # 3 dedicated consumed, 1 of 5 prioritized consumed, 4 donated
        assert out.per_drb_rb == {11: 4}
        assert out.plan.shared_pool_remaining == (12 - 8) + 4
        # on the shared list, it takes the unreserved pool past its 8 RBs
        out = fssf.run_tti(tti(12, [h], {11: 20}))
        assert out.per_drb_rb == {11: 12}
        assert out.plan.shared_pool_remaining == 0

    def test_infeasible_snapshot_raises(self):
        a = slice_input(1, SliceState.DEDICATED, ded=8, drbs=[(11, 1, 1)])
        b = slice_input(2, SliceState.PRIORITIZED, prio=5, drbs=[(21, 2, 1)])
        with pytest.raises(InfeasibleSnapshot):
            fssf.run_tti(tti(10, [a, b], {11: 1, 21: 1}))


class TestStage2:
    """Stage 2 through run_tti: with only shared slices, its pool is the cell."""

    def test_equal_priorities_split_equally(self):
        s1 = slice_input(1, SliceState.SHARED, drbs=[(11, 1, 1)])
        s2 = slice_input(2, SliceState.SHARED, drbs=[(21, 2, 1)])
        out = fssf.run_tti(tti(106, [s1, s2], {11: 106, 21: 106}))
        assert out.per_drb_rb == {11: 53, 21: 53}
        assert out.plan.shared_pool_remaining == 0

    def test_empty_pool_grants_nothing(self):
        s1 = slice_input(1, SliceState.SHARED, drbs=[(11, 1, 1)])
        out = fssf.run_tti(tti(0, [s1], {11: 50}))
        assert out.per_drb_rb == {}

    def test_single_slice_capped_by_pool(self):
        s1 = slice_input(1, SliceState.SHARED, drbs=[(11, 1, 1)])
        out = fssf.run_tti(tti(21, [s1], {11: 30}))
        assert out.per_drb_rb == {11: 21}
        # 21 RBs at the calibrated rate land near the 27 Mbps ceiling
        assert 21 * R * 1000 / 1e6 == pytest.approx(25.75, abs=0.1)

    def test_weighted_split_follows_shared_priority(self):
        s1 = slice_input(1, SliceState.SHARED, sp=2, drbs=[(11, 1, 1)])
        s2 = slice_input(2, SliceState.SHARED, sp=1, drbs=[(21, 2, 1)])
        out = fssf.run_tti(tti(30, [s1, s2], {11: 106, 21: 106}))
        assert out.per_drb_rb == {11: 20, 21: 10}


class TestStage3:
    """Stage 3 through run_tti, on demands that all fit, so they are the grants."""

    def test_contiguous_range_after_occupied_prefix(self):
        s1 = slice_input(1, SliceState.SHARED, drbs=[(11, 1, 1), (21, 2, 1)])
        out = fssf.run_tti(tti(106, [s1], {11: 5, 21: 20}))
        assert out.per_drb_rb == {11: 5, 21: 20}
        assert out.vrb.per_ue_range[1] == (0, 4)
        assert out.vrb.per_ue_range[2] == (5, 24)  # 20 RBs: VRB5 through VRB24

    def test_zero_total_ue_absent(self):
        s1 = slice_input(1, SliceState.SHARED, drbs=[(11, 1, 1), (21, 2, 1)])
        out = fssf.run_tti(tti(106, [s1], {11: 3}))
        assert out.per_drb_rb == {11: 3}
        assert 2 not in out.vrb.per_ue_range

    def test_placement_matches_exhaustive_checker(self):
        rng = random.Random(5)
        for _ in range(200):
            n_ues = rng.randint(1, 4)
            total = 10
            allocs = {}
            drbs = []
            left = total
            for u in range(1, n_ues + 1):
                n = rng.randint(0, left)
                left -= n
                drbs.append((100 + u, u, 1))
                allocs[100 + u] = n
            s1 = slice_input(1, SliceState.SHARED, drbs=drbs)
            out = fssf.run_tti(tti(total, [s1], {d: n for d, n in allocs.items()}))
            assert out.per_drb_rb == {d: n for d, n in allocs.items() if n}
            used = set()
            for ue, (lo, hi) in out.vrb.per_ue_range.items():
                size = hi - lo + 1
                assert size == allocs[100 + ue]
                span = set(range(lo, hi + 1))
                assert not span & used, "ranges overlap"
                used |= span
            assert all(v < total for v in used)


class TestAlgorithms:
    def test_priority_weighted_equal_priorities_largest_remainder(self):
        drbs = [fssf.AlgoDrb(101, 1, 100, 1, R), fssf.AlgoDrb(102, 2, 100, 1, R)]
        out = fssf.priority_weighted(85, drbs, {})
        assert out == {101: 43, 102: 42}

    def test_priority_weighted_default_mapping_bp5(self):
        drbs = [fssf.AlgoDrb(101, 1, 100, 1, R), fssf.AlgoDrb(102, 2, 100, 5, R)]
        out = fssf.priority_weighted(85, drbs, {})
        assert out == {101: 71, 102: 14}
        share = out[101] / 85
        assert 0.75 <= share <= 0.85

    def test_priority_weighted_weights_are_lcm_over_priority(self):
        drbs = [fssf.DrbInput(13, 3, 4), fssf.DrbInput(11, 1, 2), fssf.DrbInput(12, 2, 3)]
        prepared = fssf.priority_weighted.prepare(drbs)
        assert prepared.ids == (11, 12, 13)
        assert prepared.weights == (6, 4, 3)  # 12 // 2, 12 // 3, 12 // 4

    @pytest.mark.parametrize("priority", [0, -1])
    def test_priority_weighted_rejects_a_priority_below_1(self, priority):
        drbs = [fssf.AlgoDrb(101, 1, 10, 1, R), fssf.AlgoDrb(102, 2, 10, priority, R)]
        with pytest.raises(ValueError, match="bearer priorities must be >= 1"):
            fssf.priority_weighted(10, drbs, {})

    def test_priority_weighted_respects_demand_caps(self):
        drbs = [fssf.AlgoDrb(101, 1, 5, 1, R), fssf.AlgoDrb(102, 2, 100, 5, R)]
        out = fssf.priority_weighted(85, drbs, {})
        assert out[101] == 5
        assert out[102] == 80

    def test_round_robin_rotates_start_index(self):
        drbs = [fssf.AlgoDrb(d, d, 2, 1, R) for d in (1, 2, 3)]
        history = {}
        seen = []
        for _ in range(3):
            fresh = [fssf.AlgoDrb(d, d, 2, 1, R) for d in (1, 2, 3)]
            seen.append(fssf.round_robin(4, fresh, history))
        assert seen == [{1: 2, 2: 1, 3: 1}, {1: 1, 2: 2, 3: 1}, {1: 1, 2: 1, 3: 2}]

    def test_round_robin_skips_satisfied(self):
        drbs = [fssf.AlgoDrb(1, 1, 1, 1, R), fssf.AlgoDrb(2, 2, 5, 1, R)]
        out = fssf.round_robin(4, drbs, {})
        assert out == {1: 1, 2: 3}

    def test_max_throughput_prefers_better_rate(self):
        drbs = [fssf.AlgoDrb(1, 1, 10, 1, 500.0), fssf.AlgoDrb(2, 2, 10, 1, 1200.0)]
        out = fssf.max_throughput(12, drbs, {})
        assert out == {2: 10, 1: 2}

    def test_proportional_fair_evens_out_over_time(self):
        history = {}
        totals = {1: 0, 2: 0}
        for _ in range(100):
            drbs = [fssf.AlgoDrb(1, 1, 10, 1, R), fssf.AlgoDrb(2, 2, 10, 1, R)]
            out = fssf.proportional_fair(9, drbs, history)
            for d, n in out.items():
                totals[d] += n
        assert abs(totals[1] - totals[2]) <= 0.1 * (totals[1] + totals[2])


def _instance_from_seed(seed):
    rng = random.Random(seed)
    return random_instance(rng)


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9))
    def test_conservation(self, seed):
        inp, histories = _instance_from_seed(seed)
        decision = fssf.run_tti(inp, histories=histories)
        assert sum(decision.per_drb_rb.values()) <= inp.total_rb

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9))
    def test_vrb_ranges_disjoint_contiguous_exact(self, seed):
        inp, histories = _instance_from_seed(seed)
        decision = fssf.run_tti(inp, histories=histories)
        owner = {d.drb_id: d.ue_id for s in inp.slices for d in s.drbs}
        totals = {}
        for drb, n in decision.per_drb_rb.items():
            if n:
                totals[owner[drb]] = totals.get(owner[drb], 0) + n
        used = set()
        for ue, (lo, hi) in decision.vrb.per_ue_range.items():
            assert hi - lo + 1 == totals[ue]
            assert hi < inp.total_rb
            span = set(range(lo, hi + 1))
            assert not span & used
            used |= span

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**9))
    def test_determinism(self, seed):
        inp, histories = _instance_from_seed(seed)
        a = fssf.run_tti(inp, histories=copy.deepcopy(histories))
        b = fssf.run_tti(inp, histories=copy.deepcopy(histories))
        assert a == b

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 12), st.integers(0, 12))
    def test_dedicated_isolation(self, seed, ded, demand):
        """A dedicated slice's grant is min(demand, dedicated) in any company."""
        inp, histories = _instance_from_seed(seed)
        ded = min(ded, inp.total_rb - sum(
            s.dedicated_rb + s.prioritized_rb for s in inp.slices))
        probe = fssf.SliceInput(
            slice_id=99, state=SliceState.DEDICATED, dedicated_rb=ded, prioritized_rb=0,
            shared_priority=1, fd_scheduler="max_throughput",
            drbs=(fssf.DrbInput(999, 999, 1),),
        )
        rates = dict(inp.ue_rate_bits_per_rb)
        rates[999] = R
        demands = dict(inp.demands)
        demands[999] = demand
        merged = fssf.TtiInput(inp.tti_index, inp.total_rb, rates, demands,
                               inp.slices + (probe,))
        histories[99] = {}
        decision = fssf.run_tti(merged, histories=histories)
        assert decision.per_drb_rb.get(999, 0) == min(demand, ded)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9))
    def test_prioritized_ceiling_and_donation(self, seed):
        inp, histories = _instance_from_seed(seed)
        # stage 1's grants and pool, as run_tti hands them to stage 2
        seen = []
        stage2 = fssf.stage2_shared

        def capture(ep, inp, pool, left, histories):
            seen.append((pool, dict(zip(ep.ids, left))))
            return stage2(ep, inp, pool, left, histories)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fssf, "stage2_shared", capture)
            fssf.run_tti(inp, histories=histories)
        [(shared_pool, left)] = seen
        expected_pool = inp.total_rb
        for s in inp.slices:
            if s.state in (SliceState.DEDICATED, SliceState.PRIORITIZED, SliceState.HYBRID):
                used = sum(inp.demands.get(d.drb_id, 0) - left[d.drb_id] for d in s.drbs)
                assert used <= s.dedicated_rb + s.prioritized_rb
                used_prio = max(0, used - s.dedicated_rb)
                # dedicated leftovers never reach the pool, prioritized ones do
                expected_pool -= s.dedicated_rb + used_prio
        assert shared_pool == expected_pool


class TestOracleEquivalence:
    def test_matches_reference_on_small_instances(self):
        rng = random.Random(99)
        for _ in range(800):
            inp, histories = random_instance(rng)
            got = fssf.run_tti(inp, histories=copy.deepcopy(histories))
            want = reference_run_tti(inp, histories=copy.deepcopy(histories))
            assert {d: n for d, n in got.per_drb_rb.items() if n} == \
                   {d: n for d, n in want.per_drb_rb.items() if n}
            assert got.plan.shared_pool_remaining == want.plan.shared_pool_remaining
            assert got.vrb.per_ue_range == want.vrb.per_ue_range


class TestFrozenAlgorithms:
    """The built-in algorithms against frozen copies of their earlier form.

    The oracle in ``hexsim.reference`` shares the registry's algorithms, so
    only this comparison notices a change inside one of them.
    """

    @staticmethod
    def _case(rng):
        n = rng.randint(0, 9)
        drbs = [
            fssf.AlgoDrb(
                drb, rng.randint(1, 6),
                rng.choice((0, 0, 1, rng.randint(0, 40), rng.randint(0, 120))),
                rng.randint(1, 5),
                rng.choice((0.0, 0.0, 600.0, 900.0, 1226.4, rng.uniform(0.0, 3000.0))),
            )
            for drb in rng.sample(range(1, 60), n)  # unsorted on purpose
        ]
        history = {}
        if rng.random() < 0.6:
            history["rr_start"] = rng.randint(-7, 25)
        if rng.random() < 0.6:
            history["pf_ewma"] = {d.drb_id: rng.choice((0.0, rng.uniform(0.0, 4000.0)))
                                  for d in drbs if rng.random() < 0.8}
        if rng.random() < 0.2:
            history["pf_window"] = rng.choice((1, 7, 50.0))
        return rng.choice((0, 1, rng.randint(0, 60), rng.randint(0, 200))), drbs, history

    def test_builtins_match_frozen_copies_on_20k_cases(self):
        pairs = [(getattr(fssf, name), getattr(fssf_v0, name)) for name in
                 ("round_robin", "proportional_fair", "max_throughput", "priority_weighted")]
        rng = random.Random(20_000)
        for case in range(20_000):
            budget, drbs, history = self._case(rng)
            for new, old in pairs:
                got_h = {k: dict(v) if isinstance(v, dict) else v for k, v in history.items()}
                want_h = {k: dict(v) if isinstance(v, dict) else v for k, v in history.items()}
                got = new(budget, drbs, got_h)
                want = old(budget, drbs, want_h)
                assert list(got.items()) == list(want.items()), (case, budget, drbs, history)
                assert got_h == want_h, (case, budget, drbs, history)

    def test_weighted_max_min_matches_frozen_copy_with_large_weights(self):
        rng = random.Random(7)
        for _ in range(20_000):
            n = rng.randint(0, 8)
            weights = fssf_v0.integer_weights(
                [Fraction(rng.randint(1, 10**4), rng.choice((1, 3, 7919, 104_729, 10**6 + 3)))
                 for _ in range(n)])
            entries = [(key, rng.randint(-2, 60), w)
                       for key, w in zip(rng.sample(range(100), n), weights)]
            pool = rng.randint(-1, 150)
            assert list(fssf.weighted_max_min(pool, entries).items()) == \
                list(fssf_v0.weighted_max_min(pool, entries).items()), (pool, entries)

    def test_scheduler_on_prepared_builtins_matches_frozen_algorithms(self):
        """Whole decisions and histories: the registry's prepared built-ins
        against a registry of frozen copies, which take the AlgoDrb path."""
        frozen = fssf.AlgorithmRegistry()
        for name in ("round_robin", "proportional_fair", "max_throughput", "priority_weighted"):
            frozen.register(name, getattr(fssf_v0, name))
        rng = random.Random(31)
        for _ in range(3000):
            inp, histories = random_instance(rng, max_rb=40, max_slices=4, max_drbs=8)
            got_h, want_h = copy.deepcopy(histories), copy.deepcopy(histories)
            got = fssf.run_tti(inp, histories=got_h)
            want = fssf.run_tti(inp, frozen, want_h)
            assert got == want
            assert got_h == want_h


def _lowest_first(budget, drbs, history):
    """A custom (AlgoDrb) algorithm: lowest drb id first, counting its calls."""
    history["calls"] = history.get("calls", 0) + 1
    out, left = {}, budget
    for d in sorted(drbs, key=lambda d: d.drb_id):
        out[d.drb_id] = min(d.demand_rb, left)
        left -= out[d.drb_id]
    return out


ALL_ALGORITHMS = ("round_robin", "proportional_fair", "max_throughput", "priority_weighted",
                  "lowest_first")


def _dense_cell(rng):
    """Six slices of eight bearers on a 106-RB cell, in every slice state and
    under every algorithm; about a third of the UEs hold two bearers."""
    states = [SliceState.DEDICATED, SliceState.PRIORITIZED, SliceState.HYBRID,
              SliceState.SHARED, SliceState.SHARED,
              rng.choice((SliceState.DEDICATED, SliceState.SHARED, SliceState.HYBRID))]
    algos = list(ALL_ALGORITHMS) + [rng.choice(ALL_ALGORITHMS)]
    rng.shuffle(states)
    rng.shuffle(algos)
    unreserved = 106
    slices, rates = [], {}
    drb = ue = 0
    for sid, (state, algo) in enumerate(zip(states, algos), start=1):
        ded = prio = 0
        if state in (SliceState.DEDICATED, SliceState.HYBRID):
            ded = rng.randint(0, min(20, unreserved))
            unreserved -= ded
        if state in (SliceState.PRIORITIZED, SliceState.HYBRID):
            prio = rng.randint(0, min(20, unreserved))
            unreserved -= prio
        members = []
        for _ in range(8):
            if ue == 0 or rng.random() > 0.3:
                ue += 1
            drb += rng.randint(1, 3)
            members.append(fssf.DrbInput(drb, ue, rng.randint(1, 5)))
            rates.setdefault(ue, rng.choice((600.0, 900.0, 1226.4, rng.uniform(0.0, 3000.0))))
        rng.shuffle(members)
        slices.append(fssf.SliceInput(sid, state, ded, prio, rng.randint(1, 3), algo,
                                      tuple(members)))
    rng.shuffle(slices)
    return tuple(slices), rates


def _warm_histories(rng, slices):
    histories = {}
    for s in slices:
        h = histories[s.slice_id] = {}
        if rng.random() < 0.7:
            h["rr_start"] = rng.randint(0, 20)
        if rng.random() < 0.7:
            # some averages belong to bearers that have left
            h["pf_ewma"] = {d: rng.uniform(0.0, 4000.0) for d in
                            [d.drb_id for d in s.drbs] + [900, 901] if rng.random() < 0.8}
    return histories


class TestAlignedPath:
    """The flat per-epoch bearer order against the algorithms' AlgoDrb form."""

    def test_dense_ticks_match_frozen_algorithms_and_the_reference(self):
        frozen = fssf.AlgorithmRegistry()
        for name in ALL_ALGORITHMS[:4]:
            frozen.register(name, getattr(fssf_v0, name))
        current = fssf.AlgorithmRegistry()
        for registry in (frozen, current):
            registry.register("lowest_first", _lowest_first)
        rng = random.Random(13)
        for instance in range(40):
            slices, rates = _dense_cell(rng)
            start = _warm_histories(rng, slices)
            # the reference carries its own histories from tick to tick
            got_h, want_h, ref_h = (copy.deepcopy(start) for _ in range(3))
            for tick in range(10):
                demands = {d.drb_id: rng.choice((0, rng.randint(1, 30), 106))
                           for s in slices for d in s.drbs if rng.random() < 0.9}
                inp = fssf.TtiInput(tick, 106, rates, demands, slices)
                ref = reference_run_tti(inp, frozen, ref_h)
                got = fssf.run_tti(inp, current, got_h)
                want = fssf.run_tti(inp, frozen, want_h)
                assert got == want, (instance, tick)
                assert got_h == want_h, (instance, tick)
                assert got.per_drb_rb == {d: n for d, n in ref.per_drb_rb.items() if n}
                assert got.plan.shared_pool_remaining == ref.plan.shared_pool_remaining
                assert got.vrb == ref.vrb
                assert ref_h == got_h, (instance, tick)

    @staticmethod
    def _run_core(grants):
        registry = fssf.AlgorithmRegistry()
        registry.register("fixed", fssf.BuiltinAlgorithm(
            "fixed", lambda budget, prepared, demands, rates, history: list(grants),
            stateless=True))
        s = slice_input(1, SliceState.SHARED, sched="fixed",
                        drbs=[(13, 3, 1), (11, 1, 1), (12, 2, 1)])
        return fssf.run_tti(tti(10, [s], {11: 4, 12: 4, 13: 4}), registry)

    @staticmethod
    def _run_dict(grants):
        """``_run_core``'s cell with an ``AlgoDrb`` algorithm returning ``grants``."""
        registry = fssf.AlgorithmRegistry()
        registry.register("fixed", lambda budget, drbs, history: dict(grants))
        s = slice_input(1, SliceState.SHARED, sched="fixed",
                        drbs=[(13, 3, 1), (11, 1, 1), (12, 2, 1)])
        return fssf.run_tti(tti(10, [s], {11: 4, 12: 4, 13: 4}), registry)

    @pytest.mark.parametrize("grants, message", [
        ([1, -1, 0], "fixed gave drb 12 -1 RBs (demand 4)"),
        ([0, 0, 5], "fixed gave drb 13 5 RBs (demand 4)"),
        ([4, 4, 3], "fixed exceeded budget 10 with 11"),
        ([1, 1], "fixed returned 2 grants for 3 bearers"),
    ])
    def test_a_builtin_core_is_contract_checked(self, grants, message):
        with pytest.raises(AlgorithmContractViolation) as err:
            self._run_core(grants)
        assert str(err.value) == message
        if len(grants) == 3:
            # the same grants as a per-drb dict, laid onto the slice's range
            # (a dict cannot miss a bearer: an absent one is granted 0)
            with pytest.raises(AlgorithmContractViolation) as err:
                self._run_dict(zip((11, 12, 13), grants))
            assert str(err.value) == message

    @pytest.mark.parametrize("drb", [22, 99], ids=["another_slice", "unknown"])
    def test_a_dict_grant_outside_the_slice_is_a_violation(self, drb):
        # slice 1's algorithm hands its dedicated RBs to a bearer it does not
        # own: slice 2's drb 22, or a drb no slice has
        registry = fssf.AlgorithmRegistry()
        registry.register("fixed", lambda budget, drbs, history: {11: 4, drb: budget - 4})
        s1 = slice_input(1, SliceState.DEDICATED, ded=10, sched="fixed", drbs=[(11, 1, 1)])
        s2 = slice_input(2, SliceState.SHARED, drbs=[(22, 2, 1)])
        with pytest.raises(AlgorithmContractViolation) as err:
            fssf.run_tti(tti(30, [s1, s2], {11: 4, 22: 20}), registry)
        assert str(err.value) == f"fixed gave drb {drb} 6 RBs outside its slice"

    def test_a_builtin_core_within_its_contract_is_applied(self):
        assert self._run_core([4, 4, 2]).per_drb_rb == {11: 4, 12: 4, 13: 2}


class TestEpochPlan:
    """The per-epoch plan is a cache: nothing it holds may outlive a change."""

    @staticmethod
    def _inp(demands=None, slices=None):
        if slices is None:
            slices = (
                slice_input(1, SliceState.DEDICATED, ded=4, drbs=[(11, 1, 1), (12, 2, 2)]),
                slice_input(2, SliceState.HYBRID, ded=2, prio=2, sp=2, drbs=[(21, 3, 1)]),
                slice_input(3, SliceState.SHARED, sp=1, sched="round_robin",
                            drbs=[(31, 4, 1), (32, 5, 3)]),
            )
        if demands is None:
            demands = {11: 5, 12: 5, 21: 9, 31: 4, 32: 4}
        return tti(20, slices, demands)

    def test_reregistered_name_takes_effect_on_the_next_call(self):
        registry = fssf.AlgorithmRegistry()
        inp = self._inp()
        before = fssf.run_tti(inp, registry)
        assert (before.per_drb_rb[11], before.per_drb_rb[12]) == (3, 1)  # weights 2:1

        def lowest_first(budget, drbs, history):
            out, left = {}, budget
            for d in sorted(drbs, key=lambda d: d.drb_id):
                out[d.drb_id] = min(d.demand_rb, left)
                left -= out[d.drb_id]
            return out

        registry.register("priority_weighted", lowest_first)
        after = fssf.run_tti(inp, registry)
        assert (after.per_drb_rb[11], after.per_drb_rb.get(12, 0)) == (4, 0)

    def test_equal_but_distinct_slices_tuple_gives_the_same_decision(self):
        registry = fssf.AlgorithmRegistry()
        inp = self._inp()
        twin = self._inp(slices=tuple(copy.deepcopy(list(inp.slices))))
        assert twin.slices == inp.slices and twin.slices is not inp.slices
        first = fssf.run_tti(inp, registry, {})
        assert fssf.run_tti(twin, registry, {}) == first
        assert fssf.run_tti(inp, registry, {}) == first

    def test_custom_algorithm_gets_algo_drbs_and_over_grant_raises(self):
        registry = fssf.AlgorithmRegistry()
        inp = self._inp()
        fssf.run_tti(inp, registry)  # warm the plan
        seen = []

        def greedy(budget, drbs, history):
            seen.append(list(drbs))
            return {d.drb_id: d.demand_rb + 1 for d in drbs}

        registry.register("round_robin", greedy)
        with pytest.raises(AlgorithmContractViolation):
            fssf.run_tti(inp, registry)
        assert seen and all(isinstance(d, fssf.AlgoDrb) for d in seen[0])
        assert [(d.drb_id, d.ue_id, d.demand_rb, d.bearer_priority) for d in seen[0]] == \
            [(31, 4, 4, 1), (32, 5, 4, 3)]

    def test_validate_still_runs_when_the_plan_is_warm(self):
        registry = fssf.AlgorithmRegistry()
        inp = self._inp()
        fssf.run_tti(inp, registry)
        slices = inp.slices
        with pytest.raises(ValueError, match="negative demand"):
            fssf.run_tti(self._inp({11: -1}, slices), registry)
        with pytest.raises(ValueError, match="no schedulable UE"):
            fssf.run_tti(self._inp({99: 3}, slices), registry)  # in no slice
        no_ue = tti(20, slices, {11: 3}, rates={2: R, 3: R, 4: R, 5: R})
        with pytest.raises(ValueError, match="no schedulable UE"):
            fssf.run_tti(no_ue, registry)

    def test_the_plan_is_stateless_only_when_every_algorithm_is(self):
        registry = fssf.AlgorithmRegistry()
        registry.register("plain", _lowest_first)  # no stateless attribute
        slices = self._inp().slices
        assert not fssf.epoch_plan(slices, registry).stateless  # round_robin on slice 3

        def with_scheduler(name):
            return tuple(dataclasses.replace(s, fd_scheduler=name) for s in slices)

        assert fssf.epoch_plan(with_scheduler("max_throughput"), registry).stateless
        assert not fssf.epoch_plan(with_scheduler("plain"), registry).stateless

    def test_a_reused_input_is_validated_again_after_its_demands_change(self):
        registry = fssf.AlgorithmRegistry()
        inp = self._inp()
        fssf.run_tti(inp, registry)
        inp.demands[11] = -4
        with pytest.raises(ValueError, match="negative demand"):
            fssf.run_tti(inp, registry)


class TestRegister:
    def test_bound_method_registers_unchanged_and_schedules(self):
        class LowestFirst:
            def allocate(self, budget, drbs, history):
                out, left = {}, budget
                for d in sorted(drbs, key=lambda d: d.drb_id):
                    out[d.drb_id] = min(d.demand_rb, left)
                    left -= out[d.drb_id]
                return out

        algo = LowestFirst().allocate
        registry = fssf.AlgorithmRegistry()
        registry.register("lowest_first", algo)
        assert registry.get("lowest_first") == algo
        assert not hasattr(algo, "stateless")
        s = slice_input(1, SliceState.SHARED, sched="lowest_first",
                        drbs=[(11, 1, 1), (12, 2, 1)])
        out = fssf.run_tti(tti(10, [s], {11: 6, 12: 6}), registry)
        assert out.per_drb_rb == {11: 6, 12: 4}

    def test_builtins_keep_their_stateless_flags(self):
        registry = fssf.AlgorithmRegistry()
        flags = {name: registry.get(name).stateless for name in
                 ("round_robin", "proportional_fair", "max_throughput", "priority_weighted")}
        assert flags == {"round_robin": False, "proportional_fair": False,
                         "max_throughput": True, "priority_weighted": True}
