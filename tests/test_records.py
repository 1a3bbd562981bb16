"""hexsim's record types: NamedTuples where a record is never changed, plain
classes with ``__slots__`` where it is, and no dataclass.

Creating a dataclass runs its code generation at import, about half a
millisecond a class, and ``import dataclasses`` pulls in ``inspect``; with 43
records that was most of ``import hexsim``. The guard tests keep it out. The
rest pin what the dataclasses did that the replacements must still do.
"""

import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hexsim
from hexsim.agent import PeerContext
from hexsim.e2lite import E2LiteFrame, MsgType, decode, encode
from hexsim.pml import TelemetryRegistration
from hexsim.ric_harness import BenchmarkConfig, MetricRow
from hexsim.slice_model import Bearer, RadioResourceConfig, SliceContext, SliceState, UEContext

MODULES = [importlib.import_module(f"hexsim.{m.name}")
           for m in pkgutil.iter_modules(hexsim.__path__)]


def test_no_class_in_hexsim_is_a_dataclass():
    found = [f"{m.__name__}.{name}" for m in MODULES for name, obj in vars(m).items()
             if isinstance(obj, type) and dataclasses.is_dataclass(obj)]
    assert found == []


def test_importing_hexsim_leaves_dataclasses_unimported():
    src = str(Path(hexsim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, hexsim; print('dataclasses' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_a_frame_built_without_a_payload_gets_a_dict_of_its_own():
    first, second = E2LiteFrame(MsgType.INDICATION, 1), E2LiteFrame(MsgType.INDICATION, 2)
    first.payload["k"] = 1
    assert second.payload == {}
    assert decode(encode(second)) == second


def test_each_mutable_record_gets_fresh_containers():
    send = [].append
    for make, containers in [
        (lambda: Bearer(1, 1, 1), ("stats",)),
        (lambda: UEContext(1), ("bearers",)),
        (lambda: SliceContext(1, SliceState.IDLE, SliceState.SHARED, RadioResourceConfig(), "rr"),
         ("hu_associations", "bearers")),
        (lambda: PeerContext("link", "peer", "ric", send),
         ("reader", "activated", "refused", "locks")),
        (lambda: TelemetryRegistration(1, (1,), None), ("change_cursor",)),
    ]:
        a, b = make(), make()
        for name in containers:
            assert getattr(a, name) is not getattr(b, name), name


def test_a_row_without_extras_shares_a_read_only_empty_mapping():
    row = MetricRow(0, "cell", "cell")
    assert row.to_csv() == "0,cell,cell,,,,,,"
    assert not row.extra and MetricRow(1, "cell", "cell").extra is row.extra
    with pytest.raises(TypeError):
        row.extra["k"] = 1


def test_benchmark_config_from_dict_takes_known_keys_and_makes_lists_tuples():
    cfg = BenchmarkConfig.from_dict({"instances": [10, 20], "run_s": 2.0, "mode": "delay"})
    assert cfg == BenchmarkConfig(instances=(10, 20), run_s=2.0)
    assert BenchmarkConfig.from_dict({}) == BenchmarkConfig()
