"""Command-line entry point: exit codes, outputs, summaries."""

import json
import math

import pytest

from hexsim.cli import main


def test_scenario_command_writes_csv(tmp_path, capsys):
    rc = main(["scenario", "--script", "fig17", "--out", str(tmp_path)])
    assert rc == 0
    out = tmp_path / "fig17_metrics.csv"
    assert out.exists()
    text = out.read_text()
    assert text.splitlines()[0].startswith("# hexsim metrics v1")
    assert "slice" in text and "ue" in text
    assert "scenario fig17" in capsys.readouterr().out


def test_scenario_seed_override_via_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HEXSIM_SEED", "77")
    rc = main(["scenario", "--script", "fig17", "--out", str(tmp_path)])
    assert rc == 0
    assert "seed=77" in (tmp_path / "fig17_metrics.csv").read_text().splitlines()[0]


def test_missing_script_is_scenario_error(tmp_path):
    rc = main(["scenario", "--script", "no-such-scenario", "--out", str(tmp_path)])
    assert rc == 3


@pytest.mark.parametrize("duration_s, t", [
    (math.nan, 0.0), (math.inf, 0.0), (2.0, math.nan), (math.inf, math.inf), (2.0, -1.0),
])
def test_a_non_finite_or_negative_scenario_time_is_a_scenario_error(tmp_path, capsys,
                                                                      duration_s, t):
    script = tmp_path / "times.json"
    script.write_text(json.dumps({
        "duration_s": duration_s,
        "slices": [{"slice_id": 1, "default_state": "shared"}],
        "events": [{"t": t, "action": "traffic", "params": {"drb_id": 11, "rate_mbps": 1.0}}],
    }))
    rc = main(["scenario", "--script", str(script), "--out", str(tmp_path)])
    assert rc == 3
    assert "scenario error" in capsys.readouterr().err


def test_bad_args_exit_code_two(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["scale", "--mode", "sideways", "--out", str(tmp_path)])
    assert err.value.code == 2


def test_scale_baseline_summary(tmp_path, capsys):
    rc = main(["scale", "--mode", "baseline", "--cells", "10", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "delivered 450.0 Mbps" in out
    assert (tmp_path / "scale_baseline.csv").exists()


def test_scale_hexran_summary(tmp_path, capsys):
    rc = main(["scale", "--mode", "hexran", "--cells", "10", "--out", str(tmp_path)])
    assert rc == 0
    assert "delivered 1000.0 Mbps" in capsys.readouterr().out


def test_selftest_passes(capsys):
    rc = main(["selftest", "--oracle-instances", "400"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "all suites passed" in out


def test_bench_reliability_quick(tmp_path, capsys):
    rc = main(["bench-agent", "--mode", "reliability", "--quick", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "reliability 1.00" in out
    data = (tmp_path / "bench_reliability.csv").read_text()
    assert "agent" in data


def test_bench_reliability_frame_gated_quick(tmp_path, capsys):
    rc = main(["bench-agent", "--mode", "reliability", "--quick", "--frame-gated",
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "bench_reliability_framegated.csv").exists()
