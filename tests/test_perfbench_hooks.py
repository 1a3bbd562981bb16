"""What ``perfbench/`` relies on in hexsim: the tracer's wrap points and the
positional ``run_tti`` call its ``sched`` workload captures.

The benchmark wraps hexsim from outside, by attribute name, so a renamed
function or a changed call form would otherwise show up only in a traced
benchmark run.
"""

from pathlib import Path

import pytest

from hexsim import agent, e2lite, fssf, pml, radio_sim, ric_harness, slice_model
from hexsim.ric_harness import ScenarioScript, run_scenario
from hexsim.slice_model import SliceState

SHORT_SCRIPT = {
    "duration_s": 2,
    "seed": 1,
    "cell": {"total_rb": 106, "max_dl_mbps": 130.0},
    "slices": [{"slice_id": 1, "default_state": "shared"}],
    "ues": [{"ue_id": 1}],
    "events": [
        {"t": 0.0, "action": "users_join",
         "params": {"slice_id": 1, "sessions": [{"ue_id": 1, "drb_id": 11}]}},
        {"t": 0.0, "action": "traffic", "params": {"drb_id": 11, "rate_mbps": 20.0}},
        {"t": 1.0, "action": "slice_control",
         "params": {"slice_id": 1, "state": "prioritized", "prioritized_rb": 10}},
    ],
}

# every object the tracer may patch an attribute of
OWNERS = (fssf, radio_sim.Cell, pml.Pml, slice_model.SliceRegistry, agent.Agent, e2lite,
          e2lite.FrameReader, ric_harness.SimulatedPeer)


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracer
    return tracer


def _one_tti():
    s = fssf.SliceInput(1, SliceState.SHARED, 0, 0, 1, "round_robin",
                        (fssf.DrbInput(11, 1, 1), fssf.DrbInput(12, 2, 1)))
    return fssf.TtiInput(0, 10, {1: 1000.0, 2: 1000.0}, {11: 4, 12: 9}, (s,))


def test_the_tracer_records_every_scheduler_stage_and_restores_what_it_patched(
        tracer_module):
    before = {owner: dict(vars(owner)) for owner in OWNERS}
    algorithms = {name: fssf.DEFAULT_REGISTRY.get(name) for name in tracer_module.ALGORITHMS}
    tr = tracer_module.Tracer()
    tr.install()
    try:
        assert {owner for owner, attr, _ in tr._patches if not isinstance(attr, tuple)} \
            <= set(OWNERS)
        tr.start()
        fssf.run_tti(_one_tti())
        run_scenario(ScenarioScript.from_dict(SHORT_SCRIPT, "short"))
        tr.stop()
    finally:
        tr.uninstall()
    for name in ("fssf.run_tti", "fssf.stage1", "fssf.stage2", "fssf.stage3",
                 "fssf.weighted_max_min", "fssf.algo.round_robin", "radio_sim.step_tti"):
        assert list(tr.spans(name)), name
    for owner, attrs in before.items():
        after = vars(owner)
        changed = [k for k in attrs.keys() | after.keys() if attrs.get(k) is not after.get(k)]
        assert changed == [], owner
    assert {name: fssf.DEFAULT_REGISTRY.get(name) for name in algorithms} == algorithms
    assert all(type(a) is fssf.BuiltinAlgorithm for a in algorithms.values())


def test_a_cell_calls_run_tti_with_positional_arguments_only(monkeypatch):
    run_tti = fssf.run_tti
    calls = []

    def positional_only(inp, *args):  # like the sched workload's capture wrapper
        calls.append(args)
        return run_tti(inp, *args)

    monkeypatch.setattr(fssf, "run_tti", positional_only)
    _, runner = run_scenario(ScenarioScript.from_dict(SHORT_SCRIPT, "short"))
    assert calls
    cell = runner.cell
    assert all(len(args) == 2 and args[0] is cell.algorithms and args[1] is cell.histories
               for args in calls)
