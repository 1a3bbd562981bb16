"""Command-line entry point: scenarios, agent benchmarks, scaling runs, selftest.

Exit codes: 0 success, 2 bad arguments, 3 scenario/runtime error, 4 selftest
failure. All outputs are CSV files (plus a human-readable summary on stdout)
so acceptance artifacts diff cleanly; a fixed script, seed, and version yield
byte-identical CSV. The scenario seed (``--seed``, else ``HEXSIM_SEED``, else
the script's own) is a label written to the CSV header only: no scenario code
draws random numbers, so it changes no metric row.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from pathlib import Path

from . import __version__, composition_sim, reference
from .errors import HexsimError, ScenarioError
from .ric_harness import (
    BenchmarkConfig,
    MetricRow,
    MetricsTable,
    ScenarioScript,
    benchmark_delay,
    benchmark_reliability,
    run_scenario,
)

EXIT_BAD_ARGS = 2
EXIT_SCENARIO_ERROR = 3
EXIT_ACCEPTANCE_FAIL = 4


def bundled_scenario_path(name: str) -> Path:
    """Resolve a scenario shipped with the package (fig15, fig16, fig17, ...)."""
    candidate = Path(name)
    if candidate.exists():
        return candidate
    stem = name if name.endswith(".json") else f"{name}.json"
    ref = resources.files("hexsim.scenarios").joinpath(stem)
    with resources.as_file(ref) as p:
        if p.exists():
            return Path(p)
    raise ScenarioError(f"scenario script not found: {name}")


def _cmd_scenario(args: argparse.Namespace) -> int:
    path = bundled_scenario_path(args.script)
    script = ScenarioScript.load(path)
    if os.environ.get("HEXSIM_SEED"):
        script = script._replace(seed=int(os.environ["HEXSIM_SEED"]))
    if args.seed is not None:
        script = script._replace(seed=args.seed)
    metrics, runner = run_scenario(script)
    out_dir = Path(args.out)
    out = metrics.write(out_dir / f"{script.name}_metrics.csv")
    slices = sorted({r.id for r in metrics.rows if r.scope == "slice"}, key=int)
    last = int(script.duration_s) - 1
    print(f"scenario {script.name}: {script.duration_s:.0f} s simulated, "
          f"{len(metrics.rows)} metric rows -> {out}")
    for sid in slices:
        series = metrics.series("slice", sid, "throughput_mbps", last, last + 1)
        if series:
            print(f"  slice {sid}: {series[-1]:.1f} Mbps at t={last} s")
    util = metrics.series("cell", "cell", "utilization", last, last + 1)
    if util:
        print(f"  cell utilization at t={last} s: {util[-1]:.2f}")
    return 0


def _cmd_bench_agent(args: argparse.Namespace) -> int:
    if args.config:
        cfg = BenchmarkConfig.from_dict(json.loads(Path(args.config).read_text()))
    else:
        cfg = BenchmarkConfig()
    cfg = cfg._replace(serialized=args.serialized, frame_gated=args.frame_gated)
    if args.quick:
        cfg = cfg._replace(instances=(10, 50, 100), run_s=0.5, duration_s=10.0)
    out_dir = Path(args.out)
    table = MetricsTable(name=f"bench_{args.mode}")
    if args.mode == "delay":
        results = benchmark_delay(cfg)
        for n, stats in sorted(results.items()):
            table.add(MetricRow(
                t_s=0, scope="agent", id=str(n),
                extra={"median_us": round(stats.median_us, 1),
                       "p95_us": round(stats.p95_us, 1),
                       "samples": stats.samples},
            ))
            print(f"  {n} instances: median {stats.median_us:.0f} us, "
                  f"p95 {stats.p95_us:.0f} us ({stats.samples} msgs)")
    else:
        results = benchmark_reliability(cfg)
        for rate, stats in sorted(results.items()):
            table.add(MetricRow(
                t_s=0, scope="agent", id=str(rate),
                extra={"received": stats.received, "executed": stats.executed,
                       "failed": stats.failed, "reliability": round(stats.ratio, 4)},
            ))
            print(f"  {rate} msg/s: reliability {stats.ratio:.2f} "
                  f"({stats.executed}/{stats.received})")
    mode_tags = []
    if cfg.serialized:
        mode_tags.append("serialized")
    if cfg.frame_gated:
        mode_tags.append("framegated")
    suffix = ("_" + "_".join(mode_tags)) if mode_tags else ""
    out = table.write(out_dir / f"bench_{args.mode}{suffix}.csv")
    print(f"bench {args.mode}{suffix}: -> {out}")
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    capacities = None
    if args.config:
        doc = json.loads(Path(args.config).read_text())
        capacities = doc.get("capacities")
    result = composition_sim.run_scaling_experiment(args.mode, max_cells=args.cells,
                                                    capacities=capacities)
    table = MetricsTable(name=f"scale_{args.mode}")
    for sample in result.samples:
        for kind, util in sorted(sample.utilization.items()):
            table.add(MetricRow(
                t_s=sample.t_s, scope="hu", id=kind, utilization=util,
                extra={"instances": sample.instance_counts[kind], "cells": sample.cells},
            ))
        table.add(MetricRow(
            t_s=sample.t_s, scope="cell", id="aggregate",
            throughput_mbps=sample.delivered_mbps,
            utilization=sample.raw_peak_utilization,
            extra={"cells": sample.cells, "offered_mbps": sample.offered_mbps,
                   "loss": round(sample.loss, 6)},
        ))
    out = table.write(Path(args.out) / f"scale_{args.mode}.csv")
    final = result.per_cells[args.cells]
    print(f"scale {args.mode}: {args.cells} cells, "
          f"delivered {final.delivered_mbps:.1f} Mbps, "
          f"loss {final.loss * 100:.1f}%, "
          f"settled peak utilization {result.settled_peak_utilization:.2f} -> {out}")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0

    print(f"oracle equivalence: {args.oracle_instances} random instances ... ",
          end="", flush=True)
    mismatches = reference.oracle_equivalence_run(args.oracle_instances, seed=args.seed)
    if mismatches:
        failures += 1
        print("FAIL")
        for m in mismatches:
            print("  " + m)
    else:
        print("ok")

    print("slice lifecycle transition table ... ", end="", flush=True)
    bad = _state_machine_check()
    if bad:
        failures += 1
        print("FAIL")
        for b in bad:
            print("  " + b)
    else:
        print("ok")

    if failures:
        print(f"selftest: {failures} suite(s) failed")
        return EXIT_ACCEPTANCE_FAIL
    print("selftest: all suites passed")
    return 0


def _state_machine_check() -> list[str]:
    from .slice_model import (
        ACTIVE_STATES,
        SliceState,
        state_after_drb_added,
        state_after_last_drb_removed,
    )

    problems = []
    for state in SliceState:
        for default in ACTIVE_STATES:
            got = state_after_drb_added(state, default)
            want = reference.expected_after_add(state, default)
            if got != want:
                problems.append(f"add: {state} default={default}: got {got}, want {want}")
        got_state, got_default = state_after_last_drb_removed(state)
        want_state, want_default = reference.expected_after_empty(state)
        if state is SliceState.IDLE:
            continue  # an idle slice has no bearer to remove
        if (got_state, got_default) != (want_state, want_default):
            problems.append(
                f"empty: {state}: got {(got_state, got_default)}, "
                f"want {(want_state, want_default)}"
            )
    return problems


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexsim",
        description="Slice-aware base-station simulator: scenarios, agent benchmarks, "
                    "scaling experiments.",
    )
    parser.add_argument("--version", action="version", version=f"hexsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenario", help="replay a scripted scenario and emit metrics CSV")
    p.add_argument("--script", required=True,
                   help="path to a scenario JSON, or a bundled name (fig15/fig16/fig17)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override the script seed (a CSV-header label only)")
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("bench-agent", help="run the agent message-pipeline benchmarks")
    p.add_argument("--mode", choices=("delay", "reliability"), required=True)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--config", default=None, help="benchmark config JSON")
    p.add_argument("--serialized", action="store_true",
                   help="reference mode: each action blocks the agent until it completes; "
                        "delay mode sends each period's controls in one burst")
    p.add_argument("--frame-gated", action="store_true", dest="frame_gated",
                   help="reference mode (reliability only): one-message queues, "
                        "one execution per frame")
    p.add_argument("--quick", action="store_true", help="reduced sweep for smoke runs")
    p.set_defaults(func=_cmd_bench_agent)

    p = sub.add_parser("scale", help="run the capacity-scaling experiment")
    p.add_argument("--mode", choices=("hexran", "baseline"), required=True)
    p.add_argument("--cells", type=int, default=10)
    p.add_argument("--config", default=None,
                   help="experiment config JSON (per-unit capacity overrides)")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser("selftest", help="run the oracle-equivalence and lifecycle suites")
    p.add_argument("--oracle-instances", type=int, default=2000)
    p.add_argument("--seed", type=int, default=20240)
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO_ERROR
    except HexsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO_ERROR


if __name__ == "__main__":
    sys.exit(main())
