"""Transports: threaded pipeline wrapper and the TCP endpoint."""

import sys
import threading
import time

from hexsim import e2lite
from hexsim.agent import RIC, Agent, AgentConfig
from hexsim.e2lite import E2LiteFrame, MsgType
from hexsim.errors import CodecError
from hexsim.pml import FsApi, Pml
from hexsim.ric_harness import FS_FUNCTION_DOC, SimulatedPeer, connect_inproc, connect_tcp
from hexsim.slice_model import SliceRegistry, SliceState
from hexsim.transport import TcpAgentServer, ThreadedAgentServer


def make_agent(n_slices=3, doc=FS_FUNCTION_DOC):
    registry = SliceRegistry(106)
    pml = Pml()
    fs = FsApi(pml, registry)
    agent = Agent(registry, pml, fs, AgentConfig())
    agent.load_configuration(doc)
    for sid in range(1, n_slices + 1):
        registry.create_slice(sid, SliceState.SHARED)
    registry.publish()
    return agent


def wait_for(predicate, timeout=3.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestThreadedServer:
    def test_control_round_trip_over_inprocess_link(self):
        agent = make_agent()
        server = ThreadedAgentServer(agent).start()
        try:
            ric = SimulatedPeer("ric-1", RIC)
            connect_inproc(agent, ric, "link-1")
            assert wait_for(lambda: agent.activation("ric-1") == {1})
            corr = ric.control_slice(1, {"slice_id": 1, "shared_priority": 4})
            assert wait_for(lambda: corr in ric.control_results)
            assert ric.control_results[corr][0] == "ack"
            assert agent.registry.get_slice(1).rrc.shared_priority == 4
        finally:
            server.stop()

    def test_periodic_indications_flow_on_wall_clock(self):
        agent = make_agent()
        server = ThreadedAgentServer(agent).start()
        try:
            ric = SimulatedPeer("ric-1", RIC)
            connect_inproc(agent, ric, "link-1")
            assert wait_for(lambda: agent.activation("ric-1") == {1})
            ric.subscribe(1, "slice_context", slice_ids=[1],
                          trigger={"kind": "periodic", "period_ms": 50})
            assert wait_for(lambda: len(ric.indications) >= 3, timeout=2.0)
        finally:
            server.stop()

    def test_peer_decodes_each_frame_once_when_two_threads_feed_it(self):
        """The server's ticker and workers send on one link from different
        threads; the peer's reassembly must neither repeat nor lose a frame."""
        per_thread = 4000
        peer = SimulatedPeer("ric-1", RIC)
        seen, errors = [], []
        peer.on_frame = lambda frame: seen.append(frame.correlation_id)

        def feed(frames):
            try:
                for data in frames:
                    peer.on_bytes(data)
            except CodecError as exc:
                errors.append(exc)

        streams = [[e2lite.encode(E2LiteFrame(MsgType.QUERY_RESPONSE, corr, {"report": {}}))
                    for corr in range(1 + k * per_thread, 1 + (k + 1) * per_thread)]
                   for k in range(2)]
        threads = [threading.Thread(target=feed, args=(frames,)) for frames in streams]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert sorted(seen) == list(range(1, 2 * per_thread + 1))


class _GonePeer(SimulatedPeer):
    """A controller whose link breaks once ``gone`` is set, as a socket
    whose peer has closed does."""

    gone = False

    def on_bytes(self, data: bytes) -> None:
        if self.gone:
            raise BrokenPipeError("peer closed")
        super().on_bytes(data)


class TestBrokenAckSend:
    def test_a_failed_ack_leaves_the_ticker_running_for_other_links(self):
        doc = {"functions": [dict(FS_FUNCTION_DOC["functions"][0], resources=[])]}
        agent = make_agent(doc=doc)
        server = ThreadedAgentServer(agent).start()
        try:
            gone, live = _GonePeer("ric-a", RIC), SimulatedPeer("ric-b", RIC)
            connect_inproc(agent, gone, "link-a")
            connect_inproc(agent, live, "link-b")
            assert wait_for(lambda: agent.activation("ric-a") == agent.activation("ric-b") == {1})
            gone.gone = True
            gone.control_slice(1, {"slice_id": 1, "shared_priority": 2})
            assert wait_for(lambda: agent.metrics.executed == 1)
            corr = live.control_slice(1, {"slice_id": 2, "shared_priority": 3})
            assert wait_for(lambda: corr in live.control_results)
            assert live.control_results[corr][0] == "ack"
            ticker = [t for t in threading.enumerate() if t.name == "agent-ticker"]
            assert len(ticker) == 1 and ticker[0].is_alive()
            assert agent.registry.published.slices[2].rrc.shared_priority == 3
            m = agent.metrics
            assert (m.received, m.executed, m.failed) == (2, 2, 0)
            assert agent.pml.callback_errors == 1
        finally:
            server.stop()


class TestTcp:
    def test_setup_control_and_query_over_sockets(self):
        agent = make_agent()
        threads = ThreadedAgentServer(agent).start()
        tcp = TcpAgentServer(agent, kind=RIC).start()
        ric = SimulatedPeer("ric-tcp", RIC)
        close = connect_tcp(ric, tcp.host, tcp.port)
        try:
            assert wait_for(lambda: ric.setup_complete)
            assert wait_for(lambda: any(
                ctx.activated for ctx in agent.repository.ric_contexts.values()))
            corr = ric.control_slice(1, {"slice_id": 2, "state": "dedicated",
                                         "dedicated_rb": 40})
            assert wait_for(lambda: corr in ric.control_results)
            assert ric.control_results[corr][0] == "ack"
            # no bearers yet, so the slice stays idle and retargets its default
            ctx = agent.registry.get_slice(2)
            assert ctx.default_active_state is SliceState.DEDICATED
            assert ctx.rrc.dedicated_rb == 40
            q = ric.query(1, "slice_context", slice_ids=[2])
            assert wait_for(lambda: q in ric.responses)
            report = ric.responses[q].payload["report"]
            assert report["slices"][0]["rrc"]["dedicated_rb"] == 40
        finally:
            close()
            tcp.stop()
            threads.stop()

    def test_disconnect_releases_locks(self):
        agent = make_agent()
        threads = ThreadedAgentServer(agent).start()
        tcp = TcpAgentServer(agent, kind=RIC).start()
        ric_a = SimulatedPeer("ric-a", RIC)
        close_a = connect_tcp(ric_a, tcp.host, tcp.port)
        try:
            assert wait_for(lambda: ric_a.setup_complete)
            assert wait_for(lambda: any(
                ctx.activated for ctx in agent.repository.ric_contexts.values()))
            close_a()
            assert wait_for(lambda: not agent.repository.ric_contexts)
            ric_b = SimulatedPeer("ric-b", RIC)
            close_b = connect_tcp(ric_b, tcp.host, tcp.port)
            try:
                assert wait_for(lambda: any(
                    ctx.activated for ctx in agent.repository.ric_contexts.values()))
            finally:
                close_b()
        finally:
            tcp.stop()
            threads.stop()
