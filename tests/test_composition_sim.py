"""Capacity model: routing, bottleneck throttling, autoscaling, the scaling run."""

import pytest

from hexsim.composition_sim import (
    BASELINE_CHAIN,
    SCALE_OUT_THRESHOLD,
    STANDARD_HU_TYPES,
    Flow,
    HuCluster,
    NfPool,
    build_cluster,
    run_scaling_experiment,
)
from hexsim.errors import UnknownChain


class TestTypesAndChains:
    def test_service_decomposition(self):
        assert STANDARD_HU_TYPES[1].services == ("low-phy", "high-phy")
        assert STANDARD_HU_TYPES[2].services == ("user-scheduling",)
        assert STANDARD_HU_TYPES[3].services == ("buffering", "segmentation")
        assert STANDARD_HU_TYPES[4].services == ("user-plane-encryption",)
        assert STANDARD_HU_TYPES[5].services == ("qos-enforcement",)
        assert not STANDARD_HU_TYPES[6].user_plane

    def test_user_plane_chain_must_include_phy(self):
        pools = {"hu2": NfPool("hu2", 100.0)}
        with pytest.raises(UnknownChain):
            HuCluster(pools, {"user": ("hu2",)})

    def test_unknown_hop_rejected(self):
        with pytest.raises(UnknownChain):
            HuCluster({"hu1": NfPool("hu1", 100.0)}, {"user": ("hu1", "ghost")})


class TestRouting:
    def test_ample_capacity_delivers_everything(self):
        cluster = build_cluster("hexran")
        routed = cluster.route_traffic([Flow("cell1", "user", 100.0)])
        assert routed.delivered["cell1"] == 100.0
        assert max(routed.utilization.values()) < 1.0

    def test_zero_flows_zero_utilization(self):
        cluster = build_cluster("hexran")
        routed = cluster.route_traffic([])
        assert routed.total_delivered == 0.0
        assert all(u == 0.0 for u in routed.utilization.values())

    def test_half_capacity_hop_halves_delivery(self):
        cluster = build_cluster("baseline", capacities={"du": 1000.0, "cu": 50.0})
        routed = cluster.route_traffic([Flow("f", "user", 100.0)])
        assert routed.delivered["f"] == pytest.approx(50.0)

    def test_bottleneck_algebra_on_multi_hop(self):
        # two hops at 80% and 50% of requirement compose multiplicatively
        cluster = HuCluster(
            {"hu1": NfPool("hu1", 80.0), "hu4": NfPool("hu4", 50.0)},
            {"user": ("hu1", "hu4")},
        )
        routed = cluster.route_traffic([Flow("f", "user", 100.0)])
        assert routed.delivered["f"] == pytest.approx(100.0 * 0.8 * 0.5)

    def test_control_plane_type_carries_no_user_traffic(self):
        cluster = build_cluster("hexran")
        cluster.route_traffic([Flow("f", "user", 500.0)])
        assert cluster.pools["hu6"].load_mbps == 0.0
        assert cluster.pools["hu6"].utilization == 0.0


class TestAutoscaling:
    def test_over_threshold_pool_gains_an_instance_and_rebalances(self):
        cluster = build_cluster("hexran")
        pool = cluster.pools["hu4"]
        pool.load_mbps = 0.95 * pool.total_capacity
        actions = cluster.autoscale_tick()
        assert ("hu4", 2) in actions
        assert pool.utilization <= SCALE_OUT_THRESHOLD

    def test_below_threshold_no_action(self):
        cluster = build_cluster("hexran")
        cluster.pools["hu4"].load_mbps = 0.9 * cluster.pools["hu4"].total_capacity
        assert cluster.autoscale_tick() == []

    def test_baseline_never_scales(self):
        cluster = build_cluster("baseline")
        cluster.pools["cu"].load_mbps = 1000.0
        assert cluster.autoscale_tick() == []
        assert cluster.pools["cu"].instances == 1

    def test_ramp_matches_hand_simulated_instance_schedule(self):
        """hu4 (300 Mbps/instance): scale-outs when load reaches 300/600/900."""
        result = run_scaling_experiment("hexran", max_cells=10, seconds_per_cell=5)
        by_cells = {}
        for sample in result.samples:
            by_cells[sample.cells] = sample.instance_counts  # last sample wins
        expected_hu4 = {1: 1, 2: 1, 3: 2, 4: 2, 5: 2, 6: 3, 7: 3, 8: 3, 9: 4, 10: 4}
        for cells, want in expected_hu4.items():
            assert by_cells[cells]["hu4"] == want, cells
        # per-cell types: one instance per cell plus one autoscaled spare
        for cells in range(1, 11):
            assert by_cells[cells]["hu1"] == cells + 1


class TestScalingExperiment:
    def test_hexran_delivers_the_full_gigabit_without_loss(self):
        result = run_scaling_experiment("hexran")
        final = result.per_cells[10]
        assert final.delivered_mbps == pytest.approx(1000.0, abs=1.0)
        assert final.loss == 0.0
        assert max(s.loss for s in result.samples) == 0.0
        assert result.settled_peak_utilization <= 0.90 + 1e-9
        assert result.transient_peak_utilization <= 1.0 + 1e-9

    def test_baseline_saturates_at_450_with_220_percent_peak(self):
        result = run_scaling_experiment("baseline")
        final = result.per_cells[10]
        assert final.delivered_mbps == pytest.approx(450.0, abs=1.0)
        assert final.loss == pytest.approx(0.55, abs=0.01)
        assert result.settled_peak_utilization == pytest.approx(2.222, abs=0.1)

    def test_modes_identical_up_to_four_cells(self):
        hexran = run_scaling_experiment("hexran", max_cells=4)
        baseline = run_scaling_experiment("baseline", max_cells=4)
        for n in range(1, 5):
            assert hexran.per_cells[n].delivered_mbps == baseline.per_cells[n].delivered_mbps
            assert hexran.per_cells[n].loss == baseline.per_cells[n].loss == 0.0

    def test_baseline_chain_loads_du_and_cu(self):
        cluster = build_cluster("baseline")
        assert cluster.chains["user"] == BASELINE_CHAIN
        cluster.pools["du"].instances = 10
        routed = cluster.route_traffic(
            [Flow(f"cell{i}", "user", 100.0) for i in range(1, 11)])
        assert routed.utilization["cu"] == pytest.approx(1000.0 / 450.0)
        assert routed.utilization["du"] == pytest.approx(1000.0 / 1100.0)
        assert routed.total_delivered == pytest.approx(450.0)
