"""hexsim: a desk-scale programmable base-station simulator.

Slice-aware three-stage frequency-domain scheduling, a mediation layer with
conflict-mitigated API dispatch, a control-plane agent speaking a compact
framed protocol, tick-driven cell emulation, and a capacity/autoscaling model,
plus a scripted controller harness that replays the bundled experiments.
"""

__version__ = "0.1.0"

from .slice_model import (  # noqa: F401
    Bearer,
    ChangeTrigger,
    ContextChangeRecord,
    RadioResourceConfig,
    SliceContext,
    SliceRegistry,
    SliceState,
    UEContext,
)
from .fssf import (  # noqa: F401
    AlgorithmRegistry,
    AllocationPlan,
    ScheduleDecision,
    SliceInput,
    TtiInput,
    VrbMap,
    run_tti,
)
from .e2lite import E2LiteFrame, MsgType, decode, encode  # noqa: F401
from .pml import FsApi, Pml, PluginManifest  # noqa: F401
from .agent import Agent, AgentConfig  # noqa: F401
from .radio_sim import Cell, CellConfig, LinkState  # noqa: F401
from .composition_sim import HuCluster, run_scaling_experiment  # noqa: F401
from .ric_harness import (  # noqa: F401
    BenchmarkConfig,
    MetricsTable,
    ScenarioScript,
    SimulatedPeer,
    benchmark_delay,
    benchmark_reliability,
    run_scenario,
)
