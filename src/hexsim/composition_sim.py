"""Capacity/flow model for composable base-station units and their autoscaling.

Network functions are typed by the protocol services they carry. Six unit
types cover the decomposed stack: PHY split, user scheduling, buffering and
segmentation, user-plane encryption, QoS enforcement, and control-plane
management (type 6, which carries no user traffic). The monolithic comparison
mode models one DU per cell plus a single fixed-capacity CU.

Traffic is fluid: each flow loads every unit type on its service chain, load
is balanced equally across instances of a type, and a hop that is over
capacity throttles every flow proportionally. Utilization above the scale-out
threshold (90%) adds one instance of that type per evaluation tick in the
composable mode; the baseline never scales.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Sequence

from .errors import UnknownChain

SCALE_OUT_THRESHOLD = 0.90


class HuType(NamedTuple):
    type_id: int
    kind: str
    services: tuple[str, ...]
    user_plane: bool = True


STANDARD_HU_TYPES: dict[int, HuType] = {
    1: HuType(1, "hu1", ("low-phy", "high-phy")),
    2: HuType(2, "hu2", ("user-scheduling",)),
    3: HuType(3, "hu3", ("buffering", "segmentation")),
    4: HuType(4, "hu4", ("user-plane-encryption",)),
    5: HuType(5, "hu5", ("qos-enforcement",)),
    6: HuType(6, "hu6", ("cell-management", "user-management", "bearer-management"),
              user_plane=False),
}

# calibration defaults: unit capacity just above one cell's load for the
# per-cell types; 300 per instance for the aggregating types so a one-cell
# (100 Mbps) step from below the 90% trigger can reach at most exactly 100%
# of capacity before scale-out, i.e. the ramp never drops traffic; a single
# 450 Mbps user-plane CU pins the monolithic baseline's saturation point
DEFAULT_CAPACITIES: dict[str, float] = {
    "hu1": 110.0, "hu2": 110.0, "hu3": 110.0, "hu4": 300.0, "hu5": 300.0,
    "du": 110.0, "cu": 450.0,
}

USER_PLANE_CHAIN = ("hu1", "hu2", "hu3", "hu4", "hu5")
BASELINE_CHAIN = ("du", "cu")

# services bundled into the baseline NFs (chain validation needs low-phy)
BASELINE_SERVICES = {
    "du": STANDARD_HU_TYPES[1].services + STANDARD_HU_TYPES[2].services
          + STANDARD_HU_TYPES[3].services,
    "cu": STANDARD_HU_TYPES[4].services + STANDARD_HU_TYPES[5].services,
}
UNIT_SERVICES = {t.kind: t.services for t in STANDARD_HU_TYPES.values()} | BASELINE_SERVICES


class NfPool:
    """All instances of one unit kind; load is balanced equally across them."""

    __slots__ = ("kind", "capacity_mbps", "instances", "scalable", "user_plane", "load_mbps")

    def __init__(self, kind: str, capacity_mbps: float, instances: int = 1, scalable: bool = True,
                 user_plane: bool = True, load_mbps: float = 0.0):
        self.kind = kind
        self.capacity_mbps = capacity_mbps
        self.instances = instances
        self.scalable = scalable
        self.user_plane = user_plane
        self.load_mbps = load_mbps

    @property
    def total_capacity(self) -> float:
        return self.capacity_mbps * self.instances

    @property
    def utilization(self) -> float:
        if not self.user_plane or self.total_capacity == 0:
            return 0.0
        return self.load_mbps / self.total_capacity


class Flow(NamedTuple):
    flow_id: str
    chain: str
    offered_mbps: float


class RouteResult(NamedTuple):
    delivered: dict[str, float]
    utilization: dict[str, float]

    @property
    def total_delivered(self) -> float:
        return sum(self.delivered.values())


class HuCluster:
    """Instances, chains, routing, and threshold autoscaling for one deployment."""

    def __init__(self, pools: Mapping[str, NfPool], chains: Mapping[str, Sequence[str]]):
        self.pools = dict(pools)
        self.chains = {name: tuple(hops) for name, hops in chains.items()}
        for name, hops in self.chains.items():
            for hop in hops:
                if hop not in self.pools:
                    raise UnknownChain(f"chain {name!r} references unknown unit {hop!r}")
            carried = [s for hop in hops for s in UNIT_SERVICES.get(hop, ())]
            if "low-phy" not in carried:
                raise UnknownChain(f"user-plane chain {name!r} lacks a PHY hop")

    def route_traffic(self, flows: Sequence[Flow]) -> RouteResult:
        """Load every hop on each flow's chain and throttle at over-capacity hops."""
        for pool in self.pools.values():
            pool.load_mbps = 0.0
        for flow in flows:
            if flow.chain not in self.chains:
                raise UnknownChain(flow.chain)
            for hop in self.chains[flow.chain]:
                if self.pools[hop].user_plane:
                    self.pools[hop].load_mbps += flow.offered_mbps
        delivered = {}
        for flow in flows:
            share = 1.0
            for hop in self.chains[flow.chain]:
                pool = self.pools[hop]
                if pool.user_plane and pool.load_mbps > 0:
                    share *= min(1.0, pool.total_capacity / pool.load_mbps)
            delivered[flow.flow_id] = flow.offered_mbps * share
        return RouteResult(
            delivered=delivered,
            utilization={k: p.utilization for k, p in self.pools.items()},
        )

    def autoscale_tick(self) -> list[tuple[str, int]]:
        """Add one instance to each over-threshold scalable kind; rebalance is
        implicit in the equal-split load model."""
        actions = []
        for kind in sorted(self.pools):
            pool = self.pools[kind]
            if pool.scalable and pool.user_plane and pool.utilization > SCALE_OUT_THRESHOLD:
                pool.instances += 1
                actions.append((kind, pool.instances))
        return actions

    def instance_counts(self) -> dict[str, int]:
        return {k: p.instances for k, p in sorted(self.pools.items())}


def build_cluster(mode: str, capacities: Optional[Mapping[str, float]] = None) -> HuCluster:
    caps = dict(DEFAULT_CAPACITIES)
    if capacities:
        caps.update(capacities)
    if mode == "hexran":
        pools = {
            kind: NfPool(kind, caps[kind], instances=1, scalable=True)
            for kind in USER_PLANE_CHAIN
        }
        pools["hu6"] = NfPool("hu6", 0.0, instances=1, scalable=False, user_plane=False)
        return HuCluster(pools, {"user": USER_PLANE_CHAIN})
    if mode == "baseline":
        pools = {
            "du": NfPool("du", caps["du"], instances=1, scalable=False),
            "cu": NfPool("cu", caps["cu"], instances=1, scalable=False),
        }
        return HuCluster(pools, {"user": BASELINE_CHAIN})
    raise ValueError(f"unknown mode {mode!r}")


class ScalingSample(NamedTuple):
    t_s: int
    cells: int
    offered_mbps: float
    delivered_mbps: float
    loss: float
    utilization: dict[str, float]
    raw_peak_utilization: float
    instance_counts: dict[str, int]


class CellsSummary(NamedTuple):
    cells: int
    offered_mbps: float
    delivered_mbps: float
    loss: float
    settled_peak_utilization: float


class ScalingResult(NamedTuple):
    mode: str
    samples: list[ScalingSample]
    per_cells: dict[int, CellsSummary]

    @property
    def settled_peak_utilization(self) -> float:
        return max(s.settled_peak_utilization for s in self.per_cells.values())

    @property
    def transient_peak_utilization(self) -> float:
        return max(s.raw_peak_utilization for s in self.samples)


def run_scaling_experiment(
    mode: str,
    max_cells: int = 10,
    per_cell_mbps: float = 100.0,
    seconds_per_cell: int = 5,
    capacities: Optional[Mapping[str, float]] = None,
) -> ScalingResult:
    """Ramp the cell count and record delivered traffic, loss, and utilization.

    In the composable mode each new cell deploys one more instance of the
    per-cell types (1 through 3) and the aggregating types (4 and 5) follow by
    threshold autoscaling; the baseline deploys one DU per cell against a
    single fixed CU. Autoscaling is evaluated once per simulated second.
    """
    cluster = build_cluster(mode, capacities)
    samples: list[ScalingSample] = []
    per_cells: dict[int, CellsSummary] = {}
    t = 0
    for cells in range(1, max_cells + 1):
        if mode == "hexran":
            for kind in ("hu1", "hu2", "hu3"):
                pool = cluster.pools[kind]
                pool.instances = max(pool.instances, cells)
        else:
            cluster.pools["du"].instances = cells
        flows = [Flow(f"cell{i}", "user", per_cell_mbps) for i in range(1, cells + 1)]
        offered = per_cell_mbps * cells
        for _ in range(seconds_per_cell):
            routed = cluster.route_traffic(flows)
            raw_peak = max(routed.utilization.values()) if routed.utilization else 0.0
            delivered = routed.total_delivered
            cluster.autoscale_tick()
            settled = cluster.route_traffic(flows)
            samples.append(
                ScalingSample(
                    t_s=t,
                    cells=cells,
                    offered_mbps=offered,
                    delivered_mbps=delivered,
                    loss=0.0 if offered == 0 else 1.0 - delivered / offered,
                    utilization=dict(settled.utilization),
                    raw_peak_utilization=raw_peak,
                    instance_counts=cluster.instance_counts(),
                )
            )
            t += 1
        last = samples[-1]
        per_cells[cells] = CellsSummary(
            cells=cells,
            offered_mbps=offered,
            delivered_mbps=last.delivered_mbps,
            loss=last.loss,
            settled_peak_utilization=max(last.utilization.values()),
        )
    return ScalingResult(mode, samples, per_cells)
