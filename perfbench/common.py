"""Shared pieces: percentiles, phase results, end-to-end metric names, run metadata."""

from __future__ import annotations

import math
import os
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path

ALGORITHMS = ("round_robin", "proportional_fair", "max_throughput", "priority_weighted")
SCRIPTS = ("fig15", "fig16", "fig17")  # the bundled scenarios the replay workload runs

# BENCHMARK.json gates every workload on every one of these, so each is defined
# on all three workloads; "op" is a simulated tick for replay and sched and a
# write request for control (see README.md for the per-workload meaning).
END_TO_END = [
    # (name, unit, better, bound)
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("op_mean_us", "us", "lower", 0.25),
    ("op_p50_us", "us", "lower", 0.25),
    ("op_p90_us", "us", "lower", 0.25),
    ("cpu_us_per_op", "us", "lower", 0.25),
]


def pct(values, q: float) -> float:
    """The q-th percentile, linearly interpolated between closest ranks; 0 if empty."""
    s = sorted(values)
    if not s:
        return 0.0
    k = (len(s) - 1) * q / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


@dataclass
class Phase:
    """What one measured phase of a workload produced."""

    e2e: dict = field(default_factory=dict)      # op_mean_us, op_p50_us, op_p90_us, cpu_us_per_op
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)   # failed correctness gates
    named: dict = field(default_factory=dict)    # the same figures under the workload's own names
    layer_extra: dict = field(default_factory=dict)  # per-layer figures measured directly


def metadata(root: Path) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": _git_commit(root),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset (random)"),
        "control_links": "in-process duplex links (function calls), no network link",
    }


def _git_commit(root: Path) -> str:
    """HEAD's commit read from .git without running git; a source export has none."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "not a git checkout"
