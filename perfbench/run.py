"""hexsim benchmark: the replay, sched and control workloads in one command.

    python3 perfbench/run.py --workload replay|sched|control|all \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports hexsim from ``src/``. With
``--trace 0`` the last line of stdout is one JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run
instead (README.md lists both). Lines before it, starting with ``#``, give the
run's metadata and every metric under the names the workloads' own docs use.
A failed correctness gate makes the run exit 1.
"""

import time

T0 = time.perf_counter()  # process start for setup_s: before hexsim is imported

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("replay", "sched", "control")
SETUP_PROBES = 9  # fresh processes timed per run; setup_s is their median
TRACED_SECONDS = 5.0  # cap on the traced half: a traced replay pass holds ~2M spans
SPAN_DIR = ROOT / ".perfbench"


def _workload(name: str):
    if name == "replay":
        from workload_replay import Replay
        return Replay
    if name == "sched":
        from workload_sched import Sched
        return Sched
    from workload_control import Control
    return Control


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _setup_probe(args) -> int:
    """Child process: set the workload up, report the time since start, tear down."""
    w = _workload(args.workload)(args.seed)
    setup_s = time.perf_counter() - T0
    w.close()
    print(json.dumps({"setup_s": setup_s}))
    return 0


def _probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _say(label: str, values: dict) -> None:
    """Figures are named with their unit, as in ``ack_p50_us``."""
    for name, value in values.items():
        unit = "us" if name.endswith("_us") or "_us_" in name else ""
        print(f"# {label} {name} = {value:.4f} {unit}".rstrip())


def _run_one(args) -> int:
    from common import END_TO_END, metadata

    for d in (SRC / "hexsim", Path(__file__).resolve().parent):
        compileall.compile_dir(str(d), quiet=1)  # the build: later imports read bytecode
    print("# meta " + json.dumps(metadata(ROOT), sort_keys=True))
    setups = [] if args.trace else [_probe_setup(args) for _ in range(SETUP_PROBES)]
    w = _workload(args.workload)(args.seed)
    phases = []
    tracer = None
    try:
        if args.trace:
            from tracer import Tracer

            phases.append(w.measure(args.seconds / 2))
            tracer = Tracer()
            tracer.install()
            tracer.start()
            try:
                phases.append(w.measure(min(args.seconds / 2, TRACED_SECONDS), tracer=tracer))
            finally:
                tracer.stop()
                tracer.uninstall()
        else:
            phases.append(w.measure(args.seconds))
        failures = w.failures_by_cause()
    finally:
        w.close()

    errors = [e for p in phases for e in p.errors]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    units = {name: unit for name, unit, _, _ in END_TO_END}
    if tracer is None:
        phase = phases[0]
        metrics = dict(phase.e2e)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _say(args.workload, phase.named)
        _say(args.workload, phase.layer_extra)
    else:
        from layers import OVERHEAD_OF, UNITS, layer_metrics

        base, traced = phases
        extra = dict(traced.layer_extra)
        extra.update({k: v for k, v in base.layer_extra.items()
                      if k.startswith("ric_harness.scenario.")})
        extra["agent.failed.total"] = sum(failures.values())
        for cause, n in failures.items():
            if f"agent.failed.{cause}" in UNITS:
                extra[f"agent.failed.{cause}"] = n
        untraced_e2e, traced_e2e = base.e2e, traced.e2e
        for m in OVERHEAD_OF:
            extra[f"trace.overhead.{m}"] = traced_e2e[m] - untraced_e2e[m]
        _say(f"{args.workload} untraced", untraced_e2e)
        _say(f"{args.workload} traced", traced_e2e)
        metrics = layer_metrics(tracer, extra)
        units = UNITS
        path = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"# spans written to {path.relative_to(ROOT)}")
    for e in errors[:20]:
        print(f"perfbench: gate failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": units[name]}
                    for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


def _run_all(args) -> int:
    """Each workload in its own fresh process, then one table of every metric."""
    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        lines = done.stdout.strip().splitlines()
        if done.returncode == 0 and lines:
            result = json.loads(lines[-1])
            rows.append((name, "attempted", result["attempted"], ""))
            rows.append((name, "failed", result["failed"], ""))
            rows += [(name, m, v["value"], v["unit"]) for m, v in result["metrics"].items()]
    print()
    for name, metric, value, unit in rows:
        print(f"{name:8s} {metric:40s} {value:14.4f} {unit}")
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "hexsim" / "__init__.py").is_file():
        print(f"perfbench: no hexsim sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        return _setup_probe(args)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
