"""Agent pipeline: catalog, setup/locks, dispatch, managers, telemetry, alarms."""

import copy
import gc
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import _report_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hexsim
from hexsim import e2lite
from hexsim.agent import RIC, SMO, Agent, AgentConfig, HaRepository, PeerContext, failure_cause
from hexsim.clocks import VirtualClock
from hexsim.e2lite import E2LiteFrame, FrameReader, MsgType
from hexsim.errors import (
    AgentError,
    BadJson,
    BadMagic,
    MalformedConfig,
    SchemaViolation,
    ShortFrame,
    UnknownFunction,
    UnknownId,
)
from hexsim.pml import Completion, FsApi, Pml
from hexsim.ric_harness import FS_FUNCTION_DOC, SimulatedPeer, connect_inproc
from hexsim.slice_model import (
    Bearer,
    ChangeTrigger,
    SliceRegistry,
    SliceState,
    UEContext,
)

T = ChangeTrigger("test", "unit")


def _raise_on_send(data: bytes) -> None:
    raise OSError("link down")


# Runs in a fresh interpreter so that PYTHONHASHSEED takes effect. Prints, for
# each sending order, every controller's (result, failure cause).
_CONTENTION_SCRIPT = """
import json
from hexsim.agent import RIC, Agent
from hexsim.clocks import VirtualClock
from hexsim.pml import FsApi, Pml
from hexsim.ric_harness import SimulatedPeer, connect_inproc
from hexsim.slice_model import SliceRegistry, SliceState

DOC = {"functions": [{"function_id": 1, "name": "fs", "kind": "ran",
                      "required_pml_plugins": ["fs"], "resources": []}]}


def contend(order):
    clock = VirtualClock()
    registry = SliceRegistry(106)
    pml = Pml(clock=clock)
    agent = Agent(registry, pml, FsApi(pml, registry), clock=clock)
    agent.load_configuration(DOC)
    for sid in (1, 2, 3):
        registry.create_slice(sid, SliceState.SHARED)
    peers = {}
    for name in ("ric-a", "ric-b"):
        peers[name] = SimulatedPeer(name, RIC)
        connect_inproc(agent, peers[name], "link-" + name)
    agent.pump()
    # uncontended writes, always a then b, so that each link's queue exists
    # before the contended round
    for sid, name in ((2, "ric-a"), (3, "ric-b")):
        peers[name].control_slice(1, {"slice_id": sid, "shared_priority": 2})
    agent.flush()
    corrs = {name: peers[name].control_slice(1, {"slice_id": 1, "shared_priority": 2 + i})
             for i, name in enumerate(order)}
    agent.flush()
    results = {}
    for name, corr in corrs.items():
        kind, payload = peers[name].control_results[corr]
        results[name] = [kind, payload.get("cause")]
    return results


print(json.dumps([contend(["ric-a", "ric-b"]), contend(["ric-b", "ric-a"])]))
"""

# Runs in a fresh interpreter, like _CONTENTION_SCRIPT. Drives one SMO and one
# controller with pump and prints, in order, every chunk of bytes the agent
# sent them, hex-encoded: a setup request, four subscription responses, a
# query response per service, periodic and event indications, a control ack
# and failure, config acks and a queue-overflow alarm.
_WIRE_SCRIPT = """
import json
from hexsim.agent import RIC, SMO, Agent
from hexsim.clocks import VirtualClock
from hexsim.pml import FsApi, Pml
from hexsim.ric_harness import FS_FUNCTION_DOC, SimulatedPeer, connect_inproc
from hexsim.slice_model import Bearer, ChangeTrigger, SliceRegistry, SliceState, UEContext

T = ChangeTrigger("script", "unit")
clock = VirtualClock()
registry = SliceRegistry(106)
pml = Pml(clock=clock)
agent = Agent(registry, pml, FsApi(pml, registry), clock=clock)
agent.load_configuration(FS_FUNCTION_DOC)
for sid in (1, 2, 3):
    registry.create_slice(sid, SliceState.SHARED, hu_associations={"hu-a", "hu-b", "hu-c"})
    registry.add_ue(UEContext(ue_id=sid * 10))
    registry.add_drb(sid, Bearer(drb_id=sid * 10, ue_id=sid * 10, slice_id=sid), T)
registry.publish()
sent = []


def attach(name, kind):
    peer = SimulatedPeer(name, kind)
    rx = peer.on_bytes

    def on_bytes(data):
        sent.append(data.hex())
        rx(data)

    peer.on_bytes = on_bytes
    connect_inproc(agent, peer, "link-" + name)
    return peer


def step(ms=1):
    for _ in range(ms):
        agent.pump()
        agent.step(clock.now_ns())
        clock.advance_ms(1)


smo = attach("smo-1", SMO)
ric = attach("ric-1", RIC)
step()
every_5ms = {"kind": "periodic", "period_ms": 5}
ric.subscribe(1, "slice_context", slice_ids=[1, 2, 3], trigger=every_5ms)
ric.subscribe(1, "ue_context", ue_ids=[10, 20, 30], trigger=every_5ms)
ric.subscribe(1, "context_change", trigger=every_5ms)
ric.subscribe(1, "context_change", trigger={"kind": "event", "event": "context_change"})
step()
ric.query(1, "slice_context", slice_ids=[3, 1, 2])
ric.query(1, "ue_context", ue_ids=[30, 10])
ric.query(1, "context_change")
ric.control_slice(1, {"slice_id": 2, "hu_associations": ["hu-z", "hu-y", "hu-x"]})
ric.control_slice(1, {"slice_id": 9, "shared_priority": 2})
smo.edit_config({"queue_depth": 512, "lockout_window_ms": 50.0})
step(6)
smo.edit_config({"queue_depth": 1})
step()
ric.query(1, "context_change")
ric.query(1, "context_change")  # over the queue depth: a failure and an alarm
step()
print(json.dumps(sent))
"""

# sha256 of _WIRE_SCRIPT's output (UTF-8), recorded while the agent still built
# every report as a dict tree and encoded it whole: report text assembled from
# cached fragments must leave every byte as it was
WIRE_SHA256 = "0736c97e4fe8141d923da7cf2990899ccb58af6565f970242a73dfa53b9cc5b3"


def _run_under_hash_seed(script: str, seed: int) -> str:
    """Run ``script`` in a fresh interpreter with PYTHONHASHSEED=seed; its stdout."""
    src = str(Path(hexsim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


class Stack:
    def __init__(self, config=None, doc=None, n_slices=2):
        self.clock = VirtualClock()
        self.registry = SliceRegistry(106)
        self.pml = Pml(clock=self.clock)
        self.fs = FsApi(self.pml, self.registry)
        self.agent = Agent(self.registry, self.pml, self.fs, config or AgentConfig(),
                           clock=self.clock)
        self.agent.load_configuration(doc or FS_FUNCTION_DOC)
        for sid in range(1, n_slices + 1):
            self.registry.create_slice(sid, SliceState.SHARED)
            self.registry.add_ue(UEContext(ue_id=sid * 10))
            self.registry.add_drb(sid, Bearer(drb_id=sid * 10, ue_id=sid * 10,
                                              slice_id=sid), T)
        self.registry.publish()

    def attach(self, peer_id="ric-1", kind=RIC, activate="all"):
        peer = SimulatedPeer(peer_id, kind, activate=activate)
        connect_inproc(self.agent, peer, f"link-{peer_id}")
        self.settle()
        return peer

    def settle(self, ms=1):
        for _ in range(ms):
            self.agent.pump()
            self.agent.step(self.clock.now_ns())
            self.clock.advance_ms(1)
        m = self.agent.metrics
        assert m.received == m.executed + m.failed

    def run_ms(self, ms):
        self.settle(ms)


class TestConfiguration:
    def test_function_with_registered_plugin_is_available(self):
        stack = Stack()
        entry = stack.agent.repository.catalog[e2lite.FS_RAN_FUNCTION_ID]
        assert entry.available

    def test_function_with_missing_plugin_is_unavailable_with_reason(self):
        doc = {"functions": [
            {"function_id": 9, "name": "x", "kind": "ran",
             "required_pml_plugins": ["nonexistent"]},
        ]}
        stack = Stack(doc=doc)
        entry = stack.agent.repository.catalog[9]
        assert not entry.available
        assert "missing_plugin" in entry.reason

    def test_empty_doc_gives_empty_catalog(self):
        stack = Stack(doc={"functions": []})
        assert stack.agent.repository.catalog == {}

    def test_malformed_doc_rejected(self):
        stack = Stack()
        with pytest.raises(MalformedConfig):
            stack.agent.load_configuration({"functions": [{"name": "no-id"}]})
        with pytest.raises(MalformedConfig):
            stack.agent.load_configuration({"functions": "nope"})

    def test_settings_applied_from_doc(self):
        doc = dict(FS_FUNCTION_DOC)
        doc.update({"queue_depth": 7, "lockout_window_ms": 55.0, "manager_instances": 3})
        stack = Stack(doc=doc)
        assert stack.agent.config.queue_depth == 7
        assert stack.pml.lockout.window_ms == 55.0

    @pytest.mark.parametrize("bad", [
        {"queue_depth": "deep"},
        {"lockout_window_ms": -1},
        {"functions": [{"name": "no-id"}]},
        {"queue_depth": 0},
        {"queue_depth": True},
        {"lockout_window_ms": "7"},
        {"functions": [dict(FS_FUNCTION_DOC["functions"][0], resources="slice/")]},
        {"functions": [dict(FS_FUNCTION_DOC["functions"][0], required_pml_plugins="fs")]},
        {"functions": [dict(FS_FUNCTION_DOC["functions"][0], function_id=True)]},
        {"plugins": "fs"},
        {"functions": [dict(FS_FUNCTION_DOC["functions"][0], kind="rt")]},
    ])
    def test_a_bad_document_commits_nothing(self, bad):
        stack = Stack()
        stack.pml.set_lockout_window(20.0)
        stack.agent.config.lockout_window_ms = 20.0
        config_before = replace(stack.agent.config)
        ran_state_before = copy.deepcopy(stack.agent.repository.ran_state)
        catalog_before = stack.agent.repository.catalog
        doc = {"plugins": ["fs"], "lockout_window_ms": 7, "queue_depth": 3,
               "functions": FS_FUNCTION_DOC["functions"], **bad}
        with pytest.raises(MalformedConfig):
            stack.agent.load_configuration(doc)
        assert stack.pml.lockout.window_ms == 20.0
        assert stack.agent.config == config_before
        assert stack.agent.repository.ran_state == ran_state_before
        assert stack.agent.repository.catalog is catalog_before


class TestSetupAndLocks:
    def test_setup_lists_available_functions_and_activates(self):
        stack = Stack()
        ric = stack.attach()
        assert [f["function_id"] for f in ric.available_functions] == [1]
        assert stack.agent.activation("ric-1") == {1}
        ctx = stack.agent.repository.peer("ric-1")
        assert "slice/" in ctx.locks

    def test_second_ric_is_refused_locked_function(self):
        stack = Stack()
        stack.attach("ric-a")
        stack.attach("ric-b")
        assert stack.agent.activation("ric-b") == set()
        assert "resource_locked" in stack.agent.repository.peer("ric-b").refused[1]

    def test_lock_scopes_match_on_whole_path_segments(self):
        repo = HaRepository()
        holder = PeerContext("link-a", "ric-a", RIC, send=_raise_on_send, locks={"slice/1"})
        repo.peers["link-a"] = holder
        for resource in ("slice/10", "slice/19", "slice/100", "slice/1x", "slice/2"):
            assert repo.lock_holder(resource) is None, resource
        for resource in ("slice/1", "slice/1/", "slice/1/rrc", "slice", "slice/"):
            assert repo.lock_holder(resource) == "ric-a", resource
        assert repo.lock_holder("slice/1/rrc", exclude="ric-a") is None
        holder.locks = {"slice/"}  # the bundled function's scope: every slice
        assert repo.lock_holder("slice/10") == "ric-a"
        assert repo.lock_holder("drb/10") is None

    def test_disconnect_releases_locks_for_the_next_ric(self):
        stack = Stack()
        stack.attach("ric-a")
        stack.agent.detach_link("link-ric-a")
        stack.attach("ric-b")
        assert stack.agent.activation("ric-b") == {1}

    def test_a_bad_setup_response_keeps_its_correlation_id_for_a_retry(self):
        stack = Stack()
        sent = []
        stack.agent.attach_link("link-x", "ric-x", RIC, send=sent.append)
        (setup,) = FrameReader().feed(b"".join(sent))
        for activate in (5, [1]):
            response = E2LiteFrame(MsgType.SETUP_RESPONSE, setup.correlation_id,
                                   {"activate": activate})
            stack.agent.receive("link-x", e2lite.encode(response))
            stack.settle()
        answers = FrameReader().feed(b"".join(sent))[1:]
        assert [f.payload["cause"] for f in answers] == ["schema_violation"]
        assert stack.agent.activation("ric-x") == {1}

    def test_subscriptions_dropped_on_disconnect(self):
        stack = Stack()
        ric = stack.attach("ric-a")
        ric.subscribe(1, "slice_context", slice_ids=[1],
                      trigger={"kind": "periodic", "period_ms": 10})
        stack.settle(2)
        stack.agent.detach_link("link-ric-a")
        before = len(ric.indications)
        stack.run_ms(50)
        assert len(ric.indications) == before


class TestOneRecordPerLink:
    """Each attached link has one record, and a detach releases everything
    the link owns: locks, subscriptions and queued messages."""

    def test_a_peer_id_attaches_once(self):
        stack = Stack()
        stack.attach("ric-a")
        with pytest.raises(AgentError):
            connect_inproc(stack.agent, SimulatedPeer("ric-a", RIC), "link-ric-a-again")
        with pytest.raises(AgentError):
            connect_inproc(stack.agent, SimulatedPeer("ric-b", RIC), "link-ric-a")
        assert list(stack.agent.repository.peers) == ["link-ric-a"]
        assert stack.agent.repository.lock_holder("slice/1") == "ric-a"
        assert stack.agent.activation("ric-a") == {1}

    def test_a_subscription_whose_link_detaches_before_the_boundary_is_dropped(self):
        stack = Stack()
        ric = stack.attach("ric-a")
        corr = ric.subscribe(1, "slice_context", slice_ids=[1],
                             trigger={"kind": "periodic", "period_ms": 10})
        stack.agent.pump()  # the registration waits for the boundary
        stack.agent.detach_link("link-ric-a")
        stack.agent.flush()
        assert not stack.pml._registrations
        assert not stack.agent._sub_by_reg
        assert corr not in ric.responses
        assert stack.agent.failures_by_cause == {"link_lost": 1}

    def test_messages_queued_on_a_detached_link_fail_as_link_lost(self):
        stack = Stack()
        ric = stack.attach("ric-a")
        ric.control_slice(1, {"slice_id": 1, "shared_priority": 3})
        ric.query(1, "slice_context", slice_ids=[1])
        stack.agent.detach_link("link-ric-a")
        stack.settle()
        assert stack.agent.failures_by_cause == {"link_lost": 2}
        m = stack.agent.metrics
        assert (m.received, m.executed, m.failed) == (1, 0, 1)
        assert stack.registry.get_slice(1).rrc.shared_priority != 3

    def test_a_control_in_mediation_fails_when_its_link_detaches(self):
        stack = Stack()
        ric = stack.attach("ric-a")
        before = stack.registry.get_slice(1).rrc.shared_priority
        corr = ric.control_slice(1, {"slice_id": 1, "shared_priority": 7})
        stack.agent.pump()  # handed to mediation; it waits for the boundary
        stack.agent.detach_link("link-ric-a")
        stack.attach("ric-b")  # takes slice/ and runs a boundary
        assert stack.agent.repository.lock_holder("slice/1") == "ric-b"
        stack.settle()
        assert stack.registry.published.slices[1].rrc.shared_priority == before != 7
        assert corr not in ric.control_results
        assert stack.agent.failures_by_cause == {"link_lost": 1}
        m = stack.agent.metrics
        assert (m.received, m.executed, m.failed) == (1, 0, 1)

    def test_a_control_cancelled_by_a_detach_locks_no_one_out(self):
        stack = Stack()
        ric_a = stack.attach("ric-a")
        ric_a.control_slice(1, {"slice_id": 1, "shared_priority": 7})
        stack.agent.pump()  # invoked: mediation recorded ric-a's write
        stack.agent.detach_link("link-ric-a")
        ric_b = stack.attach("ric-b")
        corr = ric_b.control_slice(1, {"slice_id": 1, "shared_priority": 5})
        stack.settle()
        assert ric_b.control_results[corr][0] == "ack"
        assert stack.registry.published.slices[1].rrc.shared_priority == 5
        assert stack.agent.failures_by_cause == {"link_lost": 1}

    def test_a_reused_link_id_serves_none_of_the_old_links_messages(self):
        stack = Stack()
        old = stack.attach("ric-a")
        corr = old.control_slice(1, {"slice_id": 1, "shared_priority": 3})
        stack.agent.detach_link("link-ric-a")
        new = SimulatedPeer("ric-c", RIC)
        connect_inproc(stack.agent, new, "link-ric-a")
        stack.settle()
        assert stack.agent.activation("ric-c") == {1}
        assert corr not in new.responses and corr not in old.responses
        assert stack.agent.failures_by_cause == {"link_lost": 1}
        assert stack.registry.get_slice(1).rrc.shared_priority != 3


class TestBooleanIds:
    """A JSON boolean is not an id: ``true`` would name slice or drb 1 to the
    registry while a lock or lockout path reads ``True``."""

    LOCKED = {"functions": [
        {"function_id": 1, "name": "fs1", "kind": "ran",
         "required_pml_plugins": ["fs"], "resources": ["slice/1"]},
        {"function_id": 2, "name": "fs2", "kind": "ran",
         "required_pml_plugins": ["fs"], "resources": ["slice/2"]},
    ]}

    def test_slice_id_true_does_not_pass_another_controllers_lock(self):
        stack = Stack(doc=self.LOCKED)
        stack.attach("ric-a", activate=[1])
        ric_b = stack.attach("ric-b", activate=[2])
        before = stack.registry.get_slice(1).rrc.shared_priority
        corr = ric_b.send_control(2, "slice_config", {"slice_id": True, "shared_priority": 3},
                                  "slice", [2])
        stack.settle()
        kind, payload = ric_b.control_results[corr]
        assert (kind, payload["cause"]) == ("failure", "schema_violation")
        assert stack.registry.get_slice(1).rrc.shared_priority == before != 3

    def test_drb_id_true_does_not_pass_another_controllers_lockout(self):
        stack = Stack(doc={"functions": [{"function_id": 1, "name": "fs", "kind": "ran",
                                          "required_pml_plugins": ["fs"], "resources": []}]})
        stack.registry.add_ue(UEContext(ue_id=1))
        stack.registry.add_drb(1, Bearer(drb_id=1, ue_id=1, slice_id=1), T)
        stack.registry.publish()
        ric_a, ric_b = stack.attach("ric-a"), stack.attach("ric-b")
        first = ric_a.control_ue(1, {"drb_id": 1, "bearer_priority": 2})
        stack.settle()
        results = []
        for drb in (1, True):  # the same write, its id an integer and then a boolean
            corr = ric_b.send_control(1, "ue_config", {"drb_id": drb, "bearer_priority": 3},
                                      "ue", [1])
            stack.settle()
            results.append(ric_b.control_results[corr])
        assert ric_a.control_results[first][0] == "ack"
        assert [(kind, payload["cause"]) for kind, payload in results] == [
            ("failure", "locked_out"), ("failure", "schema_violation")]
        assert stack.registry.get_bearer(1).bearer_priority == 2


class TestDispatch:
    def test_unknown_type_yields_failure_with_cause(self):
        stack = Stack()
        ric = stack.attach()
        ric._emit(E2LiteFrame(177, 42, {}))
        stack.settle()
        assert ric.responses[42].msg_type == MsgType.CONTROL_FAILURE
        assert ric.responses[42].payload["cause"] == "unknown_type"

    def test_inbound_indication_is_invalid_direction(self):
        stack = Stack()
        ric = stack.attach()
        ric._emit(E2LiteFrame(MsgType.INDICATION, 43, {}))
        stack.settle()
        assert ric.responses[43].payload["cause"] == "invalid_direction"

    def test_pump_takes_only_what_was_queued_when_it_was_called(self):
        """A peer that answers each query response with a new query keeps the
        queue busy; each pump still returns, so a driver reaches its step."""
        stack = Stack()
        ric = stack.attach()
        on_frame = ric.on_frame

        def ask_again(frame):
            on_frame(frame)
            if frame.msg_type == MsgType.QUERY_RESPONSE and len(ric.responses) < 5:
                ric.query(1, "slice_context", slice_ids=[1])

        ric.on_frame = ask_again
        ric.query(1, "slice_context", slice_ids=[1])
        assert [stack.agent.pump() for _ in range(6)] == [1, 1, 1, 1, 1, 0]
        assert len(ric.responses) == 5

    @pytest.mark.parametrize("msg_type, payload", [
        (MsgType.CONTROL_REQUEST, {"service": "slice_context", "targets": {"slice_ids": [1]}}),
        (MsgType.QUERY_REQUEST, {
            "control_header": {"target": "slice", "ids": [1]},
            "control_message": {"routine": "slice_config",
                                "params": {"slice_id": 1, "shared_priority": 2}},
        }),
        (MsgType.SUBSCRIPTION_REQUEST, {"service": "slice_context", "targets": {}}),
    ], ids=["control", "query", "subscription"])
    def test_a_payload_is_checked_against_its_own_types_schema(self, msg_type, payload):
        stack = Stack()
        ric = stack.attach()
        ric._emit(E2LiteFrame(msg_type, 44, dict(payload, ran_function_id=1)))
        stack.settle()
        assert ric.responses[44].msg_type == MsgType.CONTROL_FAILURE
        assert ric.responses[44].payload["cause"] == "schema_violation"

    def test_codec_garbage_answers_failure_frame(self):
        stack = Stack()
        ric = stack.attach()
        stack.agent.receive("link-ric-1", b"GARBAGE_BYTES_")
        assert any(f.payload.get("cause") == "codec"
                   for f in ric.responses.values()) or ric.responses == {}
        # the reader keeps the bytes buffered; a failure frame was emitted iff
        # the header was undecodable; the count uses the same cause as the frame
        assert stack.agent.failures_by_cause == {"codec": 1}

    def test_a_frame_before_a_bad_header_is_answered_and_the_link_kept(self):
        stack = Stack()
        ric = stack.attach()
        query = {"ran_function_id": 1, "service": "slice_context",
                 "targets": {"slice_ids": [1], "ue_ids": []}}
        good = e2lite.encode(E2LiteFrame(MsgType.QUERY_REQUEST, 5, query))
        assert stack.agent.receive("link-ric-1", good + b"XX" + bytes(10)) == 1
        assert ric.responses[0].payload["cause"] == "codec"
        stack.settle()
        assert ric.responses[5].msg_type == MsgType.QUERY_RESPONSE
        assert stack.agent.repository.peer("ric-1") is not None
        assert stack.agent.failures_by_cause == {"codec": 1}

    def test_every_codec_error_maps_to_the_codec_cause(self):
        for exc in (BadMagic("x"), ShortFrame("x"), BadJson("x"), UnknownFunction("x")):
            assert failure_cause(exc) == "codec", type(exc).__name__
        assert failure_cause(SchemaViolation("x")) == "schema_violation"

    def test_contended_write_goes_to_the_first_arrival_under_any_hash_seed(self):
        """Two controllers write one parameter path in the same tick; the
        lockout lets exactly one through. Whoever arrived first must win,
        whatever PYTHONHASHSEED says."""
        outcomes = [json.loads(_run_under_hash_seed(_CONTENTION_SCRIPT, seed))
                    for seed in range(6)]
        first_wins = [
            {"ric-a": ["ack", None], "ric-b": ["failure", "locked_out"]},
            {"ric-b": ["ack", None], "ric-a": ["failure", "locked_out"]},
        ]
        assert outcomes == [first_wins] * 6

    def test_every_message_the_agent_sends_has_the_same_bytes_under_any_hash_seed(self):
        outputs = [_run_under_hash_seed(_WIRE_SCRIPT, seed) for seed in (0, 1)]
        assert outputs[0] == outputs[1]
        frames = [frame for chunk in json.loads(outputs[0])
                  for frame in FrameReader().feed(bytes.fromhex(chunk))]
        assert {frame.msg_type for frame in frames} == {
            MsgType.SETUP_REQUEST, MsgType.SUBSCRIPTION_RESPONSE, MsgType.QUERY_RESPONSE,
            MsgType.INDICATION, MsgType.CONTROL_ACK, MsgType.CONTROL_FAILURE,
            MsgType.CONFIG_ACK, MsgType.ALARM_NOTIFICATION,
        }
        queried = {f.payload["service"] for f in frames if f.msg_type == MsgType.QUERY_RESPONSE}
        assert queried == e2lite.REPORT_SERVICES
        # subscriptions 1-3 are periodic, 4 is event-triggered
        indicated = {f.payload["sub_id"] for f in frames if f.msg_type == MsgType.INDICATION}
        assert indicated == {1, 2, 3, 4}

    def test_per_ric_control_order_is_preserved(self):
        stack = Stack()
        ric = stack.attach()
        for sp in (2, 3, 4):
            ric.control_slice(1, {"slice_id": 1, "shared_priority": sp})
        stack.settle()
        assert stack.registry.get_slice(1).rrc.shared_priority == 4
        records = stack.registry.records_since(1, 0)
        priorities = [
            o.after["rrc"]["shared_priority"]
            for r in records for o in r.outcomes
            if isinstance(o.after, dict) and "rrc" in o.after
        ]
        assert priorities == [2, 3, 4]


class TestControlPath:
    def test_slice_config_acked_and_applied_next_boundary(self):
        stack = Stack()
        ric = stack.attach()
        corr = ric.control_slice(1, {"slice_id": 2, "state": "dedicated",
                                     "dedicated_rb": 85})
        assert stack.registry.get_slice(2).state is SliceState.SHARED
        stack.settle()
        kind, _ = ric.control_results[corr]
        assert kind == "ack"
        assert stack.registry.get_slice(2).state is SliceState.DEDICATED
        assert stack.agent.metrics.executed == 1

    def test_ue_config_changes_bearer_priority(self):
        stack = Stack()
        ric = stack.attach()
        corr = ric.control_ue(1, {"drb_id": 20, "bearer_priority": 5})
        stack.settle()
        assert ric.control_results[corr][0] == "ack"
        assert stack.registry.get_bearer(20).bearer_priority == 5

    def test_the_ack_leaves_after_its_epoch_is_published(self):
        stack = Stack()
        ric = stack.attach()
        link = stack.agent.repository.peers["link-ric-1"]
        send = link.send
        seen_at_send = []

        def watching_send(data):
            seen_at_send.append(stack.registry.published.bearers[20].bearer_priority)
            send(data)

        link.send = watching_send
        corr = ric.control_ue(1, {"drb_id": 20, "bearer_priority": 5})
        stack.settle()
        assert ric.control_results[corr][0] == "ack"
        assert seen_at_send == [5]

    def test_not_activated_function_fails(self):
        stack = Stack()
        ric = stack.attach(activate=[])
        corr = ric.control_slice(1, {"slice_id": 1, "shared_priority": 2})
        stack.settle()
        kind, payload = ric.control_results[corr]
        assert (kind, payload["cause"]) == ("failure", "not_activated")

    def test_malformed_params_fail_and_count(self):
        stack = Stack()
        ric = stack.attach()
        corr = ric.control_slice(1, {"slice_id": 2, "dedicated_rb": -1})
        stack.settle()
        kind, payload = ric.control_results[corr]
        assert (kind, payload["cause"]) == ("failure", "schema_violation")
        assert stack.agent.metrics.failed == 1
        assert stack.agent.metrics.received == 1

    def test_non_holder_ric_gets_resource_locked(self):
        doc = {"functions": [
            {"function_id": 1, "name": "fs1", "kind": "ran",
             "required_pml_plugins": ["fs"], "resources": ["slice/1"]},
            {"function_id": 2, "name": "fs2", "kind": "ran",
             "required_pml_plugins": ["fs"], "resources": ["slice/2"]},
        ]}
        stack = Stack(doc=doc)
        stack.attach("ric-a", activate=[1])
        ric_b = stack.attach("ric-b", activate=[2])
        assert stack.agent.activation("ric-b") == {2}
        corr = ric_b.control_slice(2, {"slice_id": 1, "shared_priority": 3})
        stack.settle()
        kind, payload = ric_b.control_results[corr]
        assert (kind, payload["cause"]) == ("failure", "resource_locked")

    def test_exclusivity_over_all_small_interleavings(self):
        """No interleaving of two controllers' ops flips a locked resource."""
        doc = {"functions": [
            {"function_id": 1, "name": "fs1", "kind": "ran",
             "required_pml_plugins": ["fs"], "resources": ["slice/1"]},
            {"function_id": 2, "name": "fs2", "kind": "ran",
             "required_pml_plugins": ["fs"], "resources": ["slice/2"]},
        ]}
        a_ops = [3, 4]   # shared_priority values controller A writes to slice 1
        b_ops = [7, 8]   # values controller B attempts on the same slice
        for order in set(itertools.permutations(["a", "a", "b", "b"])):
            stack = Stack(doc=doc)
            ric_a = stack.attach("ric-a", activate=[1])
            ric_b = stack.attach("ric-b", activate=[2])
            ita, itb = iter(a_ops), iter(b_ops)
            for who in order:
                if who == "a":
                    ric_a.control_slice(1, {"slice_id": 1, "shared_priority": next(ita)})
                else:
                    ric_b.control_slice(2, {"slice_id": 1, "shared_priority": next(itb)})
                stack.settle()
            assert stack.registry.get_slice(1).rrc.shared_priority in a_ops
            assert all(k == "failure" for k, _ in ric_b.control_results.values())

    def test_exactly_one_response_per_request(self):
        stack = Stack()
        ric = stack.attach()
        corrs = []
        corrs.append(ric.control_slice(1, {"slice_id": 1, "shared_priority": 2}))
        corrs.append(ric.control_slice(1, {"slice_id": 9, "shared_priority": 2}))  # fails
        corrs.append(ric.query(1, "slice_context", slice_ids=[1]))
        corrs.append(ric.subscribe(1, "slice_context", slice_ids=[1]))
        stack.settle(2)
        for corr in corrs:
            assert corr in ric.responses
        assert len(set(corrs)) == len(corrs)

    def test_queue_overflow_answers_overloaded(self):
        stack = Stack(config=AgentConfig(queue_depth=4))
        ric = stack.attach()
        corrs = [ric.control_slice(1, {"slice_id": 1, "shared_priority": 2})
                 for _ in range(10)]
        stack.settle()
        causes = [ric.control_results[c] for c in corrs]
        overloaded = [1 for kind, p in causes
                      if kind == "failure" and p["cause"] == "overloaded"]
        assert len(overloaded) == 6
        m = stack.agent.metrics
        assert m.received == 10
        assert m.executed + m.failed == m.received

    def test_queue_depth_bounds_each_manager_over_all_links(self):
        doc = {"functions": [dict(FS_FUNCTION_DOC["functions"][0], resources=[])]}
        stack = Stack(config=AgentConfig(queue_depth=4), doc=doc)
        rics = [stack.attach("ric-a"), stack.attach("ric-b")]
        corrs = [(ric, ric.control_slice(1, {"slice_id": 1, "shared_priority": 2}))
                 for ric in rics for _ in range(5)]
        query = rics[1].query(1, "slice_context", slice_ids=[1])
        stack.settle()
        causes = [ric.control_results[c][1].get("cause") for ric, c in corrs]
        assert causes.count("overloaded") == 6
        assert rics[1].responses[query].msg_type == MsgType.QUERY_RESPONSE
        m = stack.agent.metrics
        assert (m.received, m.executed, m.failed) == (10, 4, 6)


class TestSubscriptionsAndQueries:
    def test_periodic_subscription_delivers_ten_reports_in_ten_seconds(self):
        stack = Stack()
        ric = stack.attach()
        corr = ric.subscribe(1, "slice_context", slice_ids=[1, 2],
                             trigger={"kind": "periodic", "period_ms": 1000})
        stack.settle()
        assert ric.responses[corr].msg_type == MsgType.SUBSCRIPTION_RESPONSE
        stack.run_ms(10_000)
        assert abs(len(ric.indications) - 10) <= 1
        report = ric.indications[0].payload["report"]
        assert [s["slice_id"] for s in report["slices"]] == [1, 2]

    def test_event_subscription_fires_per_context_change(self):
        stack = Stack()
        ric = stack.attach()
        ric.subscribe(1, "slice_context", slice_ids=[1],
                      trigger={"kind": "event", "event": "context_change"})
        stack.settle(2)
        ric.drain_indications()  # discard anything from setup history
        for k in range(3):
            stack.registry.update_slice(1, T, hu_associations={f"hu{k}"})
            stack.settle()
        changes = [f for f in ric.indications if f.payload["service"] == "slice_context"]
        assert len(changes) == 3
        assert changes[0].payload["report"]["records"][0]["outcomes"]

    def test_subscription_to_unknown_slice_fails(self):
        stack = Stack()
        ric = stack.attach()
        corr = ric.subscribe(1, "slice_context", slice_ids=[42])
        stack.settle(2)
        assert ric.responses[corr].msg_type == MsgType.CONTROL_FAILURE
        assert ric.responses[corr].payload["cause"] == "unknown_id"

    def test_query_returns_one_shot_report(self):
        stack = Stack()
        ric = stack.attach()
        corr = ric.query(1, "ue_context", ue_ids=[10])
        stack.settle()
        report = ric.responses[corr].payload["report"]
        assert report["ues"][0]["ue_id"] == 10

    def test_query_matches_next_periodic_indication_when_frozen(self):
        stack = Stack()
        ric = stack.attach()
        ric.subscribe(1, "slice_context", slice_ids=[1],
                      trigger={"kind": "periodic", "period_ms": 5})
        stack.settle(2)
        ric.drain_indications()
        corr = ric.query(1, "slice_context", slice_ids=[1])
        stack.run_ms(6)
        query_report = ric.responses[corr].payload["report"]
        indication = ric.indications[0].payload["report"]
        assert query_report == indication

    def test_empty_targets_give_empty_report(self):
        stack = Stack()
        ric = stack.attach()
        corr = ric.query(1, "slice_context", slice_ids=[])
        stack.settle()
        assert ric.responses[corr].payload["report"] == {"slices": [], "ues": []}


class TestOversizedReport:
    """A report too large for one frame fails its own request; the link that
    asked stays attached."""

    TARGETS = {"slice_ids": [1] * 2000}  # one 8-bearer slice, 2,000 times: over MAX_FRAME

    @staticmethod
    def stack():
        stack = Stack(n_slices=1)
        for drb in range(11, 18):
            stack.registry.add_drb(1, Bearer(drb_id=drb, ue_id=10, slice_id=1), T)
        stack.registry.publish()
        return stack

    def test_a_query_answers_a_codec_failure(self):
        stack = self.stack()
        ric = stack.attach()
        corr = ric.query(1, "slice_context", **self.TARGETS)
        stack.settle()
        failure = ric.responses[corr]
        assert failure.msg_type == MsgType.CONTROL_FAILURE
        assert failure.payload["cause"] == "codec"
        assert stack.agent.failures_by_cause == {"codec": 1}
        corr = ric.query(1, "slice_context", slice_ids=[1])
        stack.settle()
        assert len(ric.responses[corr].payload["report"]["slices"][0]["bearers"]) == 8

    def test_a_periodic_indication_ends_its_subscription_and_is_counted(self):
        """Its first oversized report ends the subscription, so the agent does
        not build a report over MAX_FRAME every period; the link stays."""
        stack = self.stack()
        ric = stack.attach()
        corr = ric.subscribe(1, "slice_context", trigger={"kind": "periodic", "period_ms": 5},
                             **self.TARGETS)
        stack.settle()
        assert ric.responses[corr].msg_type == MsgType.SUBSCRIPTION_RESPONSE
        built = []
        build = stack.agent._build_report
        stack.agent._build_report = lambda *args: built.append(args[0]) or build(*args)
        stack.run_ms(21)
        assert built == ["slice_context"]
        assert ric.indications == []
        assert stack.agent.failures_by_cause == {"codec": 1}
        assert not stack.agent._sub_by_reg and not stack.pml._registrations
        assert stack.agent.repository.peer("ric-1") is not None


# per service: the targets of a query and of a periodic subscription
_REPORT_TARGETS = [
    ("slice_context", {"slice_ids": [2, 1]}),
    ("ue_context", {"ue_ids": [20, 10]}),
    ("context_change", {"slice_ids": [2, 1]}),
    ("context_change", {}),
]


class TestOneReportBuilder:
    """Queries and periodic indications get their reports from one builder,
    over the published snapshot, with one unknown-id rule."""

    @pytest.mark.parametrize("service, targets", _REPORT_TARGETS)
    def test_a_query_reports_what_the_next_periodic_indication_does(self, service, targets):
        stack = Stack()
        ric = stack.attach()
        ric.subscribe(1, service, trigger={"kind": "periodic", "period_ms": 5}, **targets)
        stack.settle(2)
        ric.drain_indications()
        corr = ric.query(1, service, **targets)
        stack.run_ms(6)
        query_report = ric.responses[corr].payload["report"]
        indication = ric.indications[0].payload
        assert indication["service"] == service
        assert query_report == indication["report"]
        assert any(query_report.values())  # not trivially equal

    @pytest.mark.parametrize("service, targets, detail", [
        ("slice_context", {"slice_ids": [1, 9]}, "slice 9"),
        ("ue_context", {"ue_ids": [10, 99]}, "ue 99"),
        ("context_change", {"slice_ids": [1, 9]}, "slice 9"),
    ])
    def test_an_unknown_id_fails_the_query(self, service, targets, detail):
        stack = Stack()
        ric = stack.attach()
        corr = ric.query(1, service, **targets)
        stack.settle()
        failure = ric.responses[corr]
        assert failure.msg_type == MsgType.CONTROL_FAILURE
        assert failure.payload == {"cause": "unknown_id", "detail": detail}

    def test_a_slice_is_reported_once_it_is_published(self):
        stack = Stack()
        ric = stack.attach()
        stack.registry.create_slice(3, SliceState.SHARED)
        services = ("slice_context", "context_change")
        before = [ric.query(1, service, slice_ids=[3]) for service in services]
        every = ric.query(1, "context_change")
        stack.agent.pump()  # no boundary yet: slice 3 is unpublished
        for corr in before:
            assert ric.responses[corr].payload == {"cause": "unknown_id", "detail": "slice 3"}
        records = ric.responses[every].payload["report"]["records"]
        assert {r["slice_id"] for r in records} == {1, 2}
        stack.pml.tti_boundary(stack.registry)
        after = [ric.query(1, service, slice_ids=[3]) for service in services]
        every = ric.query(1, "context_change")
        stack.settle()
        slices = ric.responses[after[0]].payload["report"]["slices"]
        assert [s["slice_id"] for s in slices] == [3]
        records = ric.responses[after[1]].payload["report"]["records"]
        assert [(r["slice_id"], r["seq"]) for r in records] == [(3, 1)]
        records = ric.responses[every].payload["report"]["records"]
        assert {r["slice_id"] for r in records} == {1, 2, 3}


# text JSON escapes, or a format string would misread
_AWKWARD_TEXT = st.text(st.sampled_from('ab"\\%\u00e9\u4e2d\U0001f600\n\x00'), max_size=5)
# st.floats() draws NaN and both infinities too
_STAT = st.one_of(st.floats(), st.integers(-2**70, 2**70))
_EVERY_MS = {"kind": "periodic", "period_ms": 1}


class _RawPeer(SimulatedPeer):
    """A controller that also keeps every frame the agent sent it, as bytes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.raw: list[bytes] = []

    def on_bytes(self, data: bytes) -> None:
        self.raw.append(data)
        super().on_bytes(data)

    def sent(self, msg_type: int) -> list[bytes]:
        return [data for data in self.raw
                if e2lite.HEADER.unpack_from(data)[2] == msg_type]


class TestReportText:
    """Reports are assembled from text cached per published object; every
    byte on the wire stays what encoding the whole report as dicts gives."""

    def test_the_wire_bytes_match_the_digest_pinned_before_report_text(self):
        out = _run_under_hash_seed(_WIRE_SCRIPT, 0)
        assert hashlib.sha256(out.encode()).hexdigest() == WIRE_SHA256

    @settings(max_examples=60, deadline=None)
    @given(slices=st.lists(st.tuples(st.frozensets(_AWKWARD_TEXT, max_size=3), _AWKWARD_TEXT),
                           min_size=1, max_size=3),
           blers=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
           bearers=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=5),
           data=st.data())
    def test_report_frames_match_the_oracle_byte_for_byte(self, slices, blers, bearers, data):
        stack = Stack(n_slices=0)
        reg = stack.registry
        for sid, (hus, scheduler) in enumerate(slices, start=1):
            reg.create_slice(sid, SliceState.SHARED, fd_scheduler=scheduler,
                             hu_associations=hus)
        for uid, bler in enumerate(blers, start=1):
            reg.add_ue(UEContext(ue_id=uid, bler=bler))
        # added in falling drb order, so a report's sorting shows; some slices
        # and UEs are left with no bearer
        for k, (s, u) in enumerate(bearers):
            sid = s % len(slices) + 1
            reg.add_drb(sid, Bearer(drb_id=100 - k, ue_id=u % len(blers) + 1, slice_id=sid), T)
        reg.publish()
        ric = _RawPeer("ric-1", RIC)
        connect_inproc(stack.agent, ric, "link-ric-1")
        stack.settle()
        snap = reg.published
        targets = {
            "slice_context": {"slice_ids": data.draw(
                st.lists(st.sampled_from(sorted(snap.slices)), max_size=4))},
            "ue_context": {"ue_ids": data.draw(
                st.lists(st.sampled_from(sorted(snap.ues)), max_size=4))},
        }
        subs = {service: ric.subscribe(1, service, trigger=_EVERY_MS, **t)
                for service, t in targets.items()}
        stack.settle()
        sub_ids = {service: ric.responses[corr].payload["sub_id"]
                   for service, corr in subs.items()}
        # twice in one epoch: the second report reuses the first's plan
        for _ in range(2):
            for drb in snap.bearers:
                stats = data.draw(st.tuples(_STAT, _STAT, _STAT, _STAT))
                reg.get_bearer(drb).stats.__init__(*stats)
            ric.raw.clear()
            queries = {service: ric.query(1, service, **t) for service, t in targets.items()}
            stack.settle()
            assert reg.published is snap
            expected = []
            for service, t in targets.items():
                report = oracle.report(snap, **t)
                expected.append(oracle.frame_bytes(
                    MsgType.QUERY_RESPONSE, queries[service],
                    {"service": service, "report": report}))
                expected.append(oracle.frame_bytes(
                    MsgType.INDICATION, 0, {"ran_function_id": 1, "sub_id": sub_ids[service],
                                            "service": service, "report": report}))
            got = ric.sent(MsgType.QUERY_RESPONSE) + ric.sent(MsgType.INDICATION)
            assert sorted(got) == sorted(expected)

    def test_an_unknown_id_raises_before_anything_is_sent(self):
        stack = Stack()
        ric = _RawPeer("ric-1", RIC)
        connect_inproc(stack.agent, ric, "link-ric-1")
        stack.settle()
        with pytest.raises(UnknownId):
            stack.registry.report_plan(slice_ids=[1, 9])
        ric.subscribe(1, "ue_context", ue_ids=[10, 20], trigger=_EVERY_MS)
        stack.settle(2)
        assert ric.sent(MsgType.INDICATION)
        stack.registry.remove_drb(2, 20, T)
        stack.registry.remove_ue(20)
        stack.registry.publish()
        corr = ric.query(1, "ue_context", ue_ids=[10, 20])
        ric.raw.clear()
        stack.settle(3)
        assert ric.sent(MsgType.INDICATION) == []
        assert ric.sent(MsgType.QUERY_RESPONSE) == []
        assert ric.responses[corr].payload == {"cause": "unknown_id", "detail": "ue 20"}

    def test_detaching_a_link_drops_its_subscriptions_plans(self):
        stack = Stack()
        ric = stack.attach()
        ric.subscribe(1, "slice_context", slice_ids=[1, 2], trigger=_EVERY_MS)
        ric.subscribe(1, "ue_context", ue_ids=[10], trigger=_EVERY_MS)
        stack.settle(3)
        subs = list(stack.agent._sub_by_reg.values())
        assert len(subs) == 2 and all(s.plan is not None for s in subs)
        built_on = weakref.ref(stack.registry.published)
        del subs
        stack.agent.detach_link("link-ric-1")
        assert stack.agent._sub_by_reg == {}
        stack.registry.update_slice(1, T, hu_associations={"hu-x"})
        stack.registry.publish()
        gc.collect()
        assert built_on() is None  # no plan still holds the epoch it was built on


class TestOamPath:
    def test_edit_config_commits_and_changes_lockout_behavior(self):
        stack = Stack()
        ric = stack.attach()
        smo = stack.attach("smo-1", kind=SMO)
        corr = smo.edit_config({"lockout_window_ms": 50})
        stack.settle()
        assert smo.responses[corr].msg_type == MsgType.CONFIG_ACK
        assert stack.agent.repository.ran_state["config"]["lockout_window_ms"] == 50
        assert stack.pml.lockout.window_ms == 50
        # cross-entity rewrite not allowed inside 50 ms but fine after it
        stack.fs.fs_control_request("x", {"slices": [{"slice_id": 1, "shared_priority": 2}]})
        stack.clock.advance_ms(60)
        late = stack.fs.fs_control_request("y", {"slices": [{"slice_id": 1, "shared_priority": 3}]})
        stack.settle()
        assert late.error is None

    def test_malformed_edit_config_leaves_repository_unchanged(self):
        stack = Stack()
        smo = stack.attach("smo-1", kind=SMO)
        corr = smo.edit_config({"warp_factor": 9})
        stack.settle()
        assert smo.responses[corr].msg_type == MsgType.CONTROL_FAILURE
        assert "warp_factor" not in stack.agent.repository.ran_state["config"]

    def test_one_bad_setting_fails_validation_and_commits_nothing(self):
        stack = Stack()
        smo = stack.attach("smo-1", kind=SMO)
        config_before = dict(stack.agent.repository.ran_state["config"])
        window_before = stack.pml.lockout.window_ms
        corr = smo.edit_config({"lockout_window_ms": 5, "queue_depth": "deep"})
        stack.settle()
        assert smo.responses[corr].msg_type == MsgType.CONTROL_FAILURE
        assert smo.responses[corr].payload["cause"] == "validation_failed"
        assert stack.agent.repository.ran_state["config"] == config_before
        assert stack.pml.lockout.window_ms == window_before
        assert stack.agent.config == AgentConfig()

    def test_a_bool_queue_depth_fails_validation_and_commits_nothing(self):
        stack = Stack()
        smo = stack.attach("smo-1", kind=SMO)
        corr = smo.edit_config({"queue_depth": True})
        stack.settle()
        assert smo.responses[corr].payload["cause"] == "validation_failed"
        assert "queue_depth" not in stack.agent.repository.ran_state["config"]
        assert stack.agent.config == AgentConfig()

    def test_edit_config_from_ric_link_is_rejected(self):
        stack = Stack()
        ric = stack.attach()
        corr = ric.edit_config({"lockout_window_ms": 10})
        stack.settle()
        assert ric.responses[corr].msg_type == MsgType.CONTROL_FAILURE

    def test_queue_overflow_raises_alarm(self):
        stack = Stack(config=AgentConfig(queue_depth=2))
        smo1 = stack.attach("smo-1", kind=SMO)
        smo2 = stack.attach("smo-2", kind=SMO)
        ric = stack.attach()
        for _ in range(5):
            ric.control_slice(1, {"slice_id": 1, "shared_priority": 2})
        # every attached SMO gets the alarm
        for smo in (smo1, smo2):
            assert any(a.payload["condition"] == "queue_overflow" for a in smo.alarms)

    def test_indication_delivery_failure_raises_alarm(self):
        stack = Stack()
        smo = stack.attach("smo-1", kind=SMO)
        ric = stack.attach()
        ric.subscribe(1, "slice_context", slice_ids=[1],
                      trigger={"kind": "periodic", "period_ms": 5})
        stack.settle(2)
        # break the controller's link underneath the subscription
        stack.agent.repository.peers["link-ric-1"].send = _raise_on_send
        stack.run_ms(10)
        # the first failed send loses the link, and its subscription with it
        assert [a.payload["condition"] for a in smo.alarms] == ["link_lost"]
        assert stack.agent.repository.peer("ric-1") is None
        assert not stack.agent._sub_by_reg
        assert stack.agent.failures_by_cause == {"link_lost": 1}

    def test_expected_plugin_list_is_recorded(self):
        doc = dict(FS_FUNCTION_DOC, plugins=["fs", "ghost"])
        stack = Stack(doc=doc)
        status = stack.agent.repository.ran_state["operational"]["plugins"]
        assert status == {"fs": True, "ghost": False}


class TestPipelineMetricsInvariant:
    def test_timestamps_are_ordered_per_executed_message(self):
        stack = Stack()
        ric = stack.attach()
        for sp in (2, 3, 4, 5):
            ric.control_slice(1, {"slice_id": 1, "shared_priority": sp})
        stack.settle()
        with stack.agent.metrics.lock:
            records = list(stack.agent.metrics.records)
        assert records
        for r in records:
            assert r.receive_ns <= r.dispatch_ns <= r.invoke_ns


# one controller-or-driver action for TestNextWakeSoundness; peers are 0 and 1
_PEER = st.integers(0, 1)
_WAKE_OPS = st.one_of(
    st.tuples(st.just("control_slice"), _PEER, st.sampled_from([1, 2, 9]), st.integers(1, 4)),
    st.tuples(st.just("control_ue"), _PEER, st.sampled_from([10, 20, 99]), st.integers(1, 3)),
    st.tuples(st.just("query"), _PEER, st.sampled_from(["slice_context", "context_change"])),
    st.tuples(st.just("periodic"), _PEER, st.sampled_from([1, 3, 10, 50])),
    st.tuples(st.just("event"), _PEER, st.sampled_from([(), (1,), (2,)])),
    st.tuples(st.just("write"), st.sampled_from(["hu", "priority", "ue"]), st.integers(0, 9)),
    st.tuples(st.just("advance"), st.integers(0, 30)),
    st.tuples(st.just("run"), st.sampled_from(["pump", "boundary", "emit", "step"])),
)


class _CountingPeer(SimulatedPeer):
    """A controller that counts the bytes the agent sends it."""

    received = 0

    def on_bytes(self, data: bytes) -> None:
        self.received += len(data)
        super().on_bytes(data)


class TestNextWakeSoundness:
    """Before ``next_wake_ns``, the control step has nothing to do: a
    single-threaded driver that skips it loses no work."""

    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(_WAKE_OPS, max_size=40))
    def test_nothing_happens_before_the_wake_time(self, ops):
        doc = {"functions": [dict(FS_FUNCTION_DOC["functions"][0], resources=[])]}
        stack = Stack(doc=doc)
        agent, registry, clock = stack.agent, stack.registry, stack.clock
        peers = [_CountingPeer(f"ric-{k}", RIC) for k in range(2)]
        for peer in peers:
            connect_inproc(agent, peer, f"link-{peer.peer_id}")
        stack.settle()
        resolved = []
        original = Completion._resolve

        def counting(completion, *args, **kwargs):
            resolved.append(completion)
            return original(completion, *args, **kwargs)

        Completion._resolve = counting
        try:
            for op in ops:
                self._apply(op, stack, peers)
                now = clock.now_ns()
                if agent.next_wake_ns() <= now:
                    continue
                sent = [p.received for p in peers]
                epoch = registry.published.epoch
                n_resolved = len(resolved)
                assert agent.pump() == 0
                assert agent.step(now) > now
                assert registry.published.epoch == epoch
                assert [p.received for p in peers] == sent
                assert len(resolved) == n_resolved
        finally:
            Completion._resolve = original

    def test_wake_is_now_with_work_and_the_deadline_without(self):
        stack = Stack()
        agent, clock = stack.agent, stack.clock
        ric = stack.attach()
        ric.subscribe(1, "slice_context", slice_ids=[1],
                      trigger={"kind": "periodic", "period_ms": 20})
        assert agent.next_wake_ns() == 0  # a queued message
        stack.settle()
        deadline = agent.next_wake_ns()
        assert clock.now_ns() < deadline < math.inf
        stack.registry.update_slice(1, T, hu_associations={"hu1"})
        assert agent.next_wake_ns() == 0  # an unpublished write
        stack.pml.tti_boundary(stack.registry)
        assert agent.next_wake_ns() == 0  # a published epoch not yet scanned
        agent.emit_telemetry(clock.now_ns())
        assert agent.next_wake_ns() == deadline
        ric.control_slice(1, {"slice_id": 1, "shared_priority": 2})
        agent.pump()
        assert agent.next_wake_ns() == 0  # a queued mediation call
        stack.settle()
        clock.advance_ms(20)
        assert agent.next_wake_ns() == deadline <= clock.now_ns()
        assert len(ric.drain_indications()) == 0
        stack.settle()
        assert len(ric.drain_indications()) == 1
        assert agent.next_wake_ns() == deadline + 20_000_000

    @staticmethod
    def _apply(op, stack, peers):
        kind = op[0]
        if kind == "control_slice":
            peers[op[1]].control_slice(1, {"slice_id": op[2], "shared_priority": op[3]})
        elif kind == "control_ue":
            peers[op[1]].control_ue(1, {"drb_id": op[2], "bearer_priority": op[3]})
        elif kind == "query":
            peers[op[1]].query(1, op[2], slice_ids=[1])
        elif kind == "periodic":
            peers[op[1]].subscribe(1, "slice_context", slice_ids=[1],
                                   trigger={"kind": "periodic", "period_ms": op[2]})
        elif kind == "event":
            peers[op[1]].subscribe(1, "context_change", slice_ids=list(op[2]),
                                   trigger={"kind": "event", "event": "context_change"})
        elif kind == "write":
            registry, n = stack.registry, op[2]
            if op[1] == "hu":
                registry.update_slice(1 + n % 2, T, hu_associations={f"hu{n}"})
            elif op[1] == "priority":
                registry.set_bearer_priority(10, 1 + n, T)
            elif not registry.has_ue(100 + n):
                registry.add_ue(UEContext(ue_id=100 + n))
        elif kind == "advance":
            stack.clock.advance_ms(op[1])
        elif op[1] == "pump":
            stack.agent.pump()
        elif op[1] == "boundary":
            stack.pml.tti_boundary(stack.registry)
        elif op[1] == "emit":
            stack.agent.emit_telemetry(stack.clock.now_ns())
        else:
            stack.settle(ms=1)
