"""Transports: threaded pipeline wrapper and the TCP endpoint."""

import json
import socket
import sys
import threading
import time

from hexsim import e2lite
from hexsim.agent import RIC, Agent, AgentConfig
from hexsim.e2lite import E2LiteFrame, MsgType
from hexsim.errors import CodecError
from hexsim.pml import FsApi, Pml
from hexsim.ric_harness import FS_FUNCTION_DOC, SimulatedPeer, connect_inproc
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


def connect_tcp(peer: SimulatedPeer, host: str, port: int):
    """Attach a peer to a TCP agent endpoint; returns a closer callable."""
    sock = socket.create_connection((host, port))
    sock.settimeout(0.2)  # before close() can run under the read loop
    lock = threading.Lock()
    stop = threading.Event()

    def send(data: bytes) -> None:
        # the read loop may still be answering a frame (a setup request, say)
        # when close() shuts the socket under it
        with lock:
            try:
                sock.sendall(data)
            except OSError:
                if not stop.is_set():
                    raise

    def read_loop() -> None:
        while not stop.is_set():
            try:
                data = sock.recv(65536)
            except socket.timeout:  # an OSError too: a quiet link, not a closed one
                continue
            except OSError:
                break
            if not data:
                break
            peer.on_bytes(data)

    thread = threading.Thread(target=read_loop, daemon=True)
    peer.wire(send)
    thread.start()

    def close() -> None:
        stop.set()
        try:
            sock.close()
        except OSError:
            pass
        thread.join(timeout=1.0)

    return close


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

    def test_an_idle_server_sleeps_and_steps_only_for_work(self):
        """With no input the loop steps about once in 0.5 s, and with a 50 ms
        periodic subscription about once per indication, not once per 1 ms
        tick."""
        agent = make_agent()
        steps = []
        step = agent.step
        agent.step = lambda now: steps.append(now) or step(now)
        server = ThreadedAgentServer(agent).start()
        try:
            time.sleep(0.5)
            assert len(steps) <= 2
            ric = SimulatedPeer("ric-1", RIC)
            connect_inproc(agent, ric, "link-1")
            assert wait_for(lambda: agent.activation("ric-1") == {1})
            corr = ric.subscribe(1, "slice_context", slice_ids=[1],
                                 trigger={"kind": "periodic", "period_ms": 50})
            assert wait_for(lambda: corr in ric.responses)
            del steps[:]
            before = len(ric.indications)
            assert wait_for(lambda: len(ric.indications) - before >= 5)
            assert len(steps) <= 3 * (len(ric.indications) - before) + 3
        finally:
            server.stop()

    def test_peer_decodes_each_frame_once_when_two_threads_feed_it(self):
        """The server's loop and an I/O thread (a codec failure answer) send on
        one link from different threads; the peer's reassembly must neither
        repeat nor lose a frame."""
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
            assert agent.pml.callback_errors == 0  # the failed send lost the link
            assert agent.failures_by_cause == {"link_lost": 1}
        finally:
            server.stop()


# two functions that lock different slices, so two controllers can each hold one
_TWO_FUNCTIONS = {"functions": [
    dict(FS_FUNCTION_DOC["functions"][0], function_id=1, resources=["slice/1"]),
    dict(FS_FUNCTION_DOC["functions"][0], function_id=2, name="fs-2", resources=["slice/2"]),
]}


class TestDeadLink:
    def test_a_failed_query_answer_loses_the_link_not_the_loop(self):
        agent = make_agent(doc=_TWO_FUNCTIONS)
        server = ThreadedAgentServer(agent).start()
        try:
            dead = _GonePeer("ric-a", RIC, activate=[1])
            live = SimulatedPeer("ric-b", RIC, activate=[2])
            connect_inproc(agent, dead, "link-a")
            connect_inproc(agent, live, "link-b")
            assert wait_for(lambda: agent.activation("ric-a") == {1}
                            and agent.activation("ric-b") == {2})
            sub = dead.subscribe(1, "slice_context", slice_ids=[1])
            assert wait_for(lambda: sub in dead.responses)
            dead.gone = True
            dead.query(1, "slice_context", slice_ids=[1])
            assert wait_for(lambda: agent.repository.peer("ric-a") is None)
            query = live.query(2, "slice_context", slice_ids=[2])
            control = live.control_slice(2, {"slice_id": 2, "shared_priority": 3})
            assert wait_for(lambda: query in live.responses and control in live.control_results)
            assert live.responses[query].msg_type == MsgType.QUERY_RESPONSE
            assert live.control_results[control][0] == "ack"
            assert server._thread.is_alive()
            assert agent.repository.lock_holder("slice/1") is None
            assert not agent._sub_by_reg
            assert agent.failures_by_cause == {"link_lost": 1}
            m = agent.metrics
            assert m.received == m.executed + m.failed == 1
        finally:
            server.stop()

    def test_a_failure_answer_over_max_frame_loses_the_link_not_the_loop(self):
        """A failure answer repeats the peer's unknown service name. An astral
        character is 4 bytes of UTF-8 in the request and 12 once ASCII-escaped
        in the answer, so a 400 KB request gets an answer over MAX_FRAME."""
        agent = make_agent(doc=_TWO_FUNCTIONS)
        server = ThreadedAgentServer(agent).start()
        try:
            big = SimulatedPeer("ric-a", RIC, activate=[1])
            live = SimulatedPeer("ric-b", RIC, activate=[2])
            connect_inproc(agent, big, "link-a")
            connect_inproc(agent, live, "link-b")
            assert wait_for(lambda: agent.activation("ric-a") == {1}
                            and agent.activation("ric-b") == {2})
            payload = {"ran_function_id": 1, "service": "\U0001F600" * 100_000, "targets": {}}
            agent.receive("link-a", e2lite.pack(MsgType.QUERY_REQUEST, 99,
                                                json.dumps(payload, ensure_ascii=False)))
            assert wait_for(lambda: agent.repository.peer("ric-a") is None)
            corr = live.query(2, "slice_context", slice_ids=[2])
            assert wait_for(lambda: corr in live.responses)
            assert live.responses[corr].msg_type == MsgType.QUERY_RESPONSE
            assert server._thread.is_alive()
            assert 99 not in big.responses
            assert agent.failures_by_cause == {"schema_violation": 1, "link_lost": 1}
        finally:
            server.stop()


class TestAttachDetachChurn:
    def test_peers_that_subscribe_and_leave_in_a_loop_leave_nothing_behind(self):
        """Links attach, subscribe and detach while the server's threads run
        and another thread reads the repository; every registration goes."""
        doc = {"functions": [dict(FS_FUNCTION_DOC["functions"][0], resources=[])]}
        agent = make_agent(doc=doc)
        server = ThreadedAgentServer(agent).start()
        done, errors = threading.Event(), []

        def read_repository():
            try:
                while not done.is_set():
                    agent.activation("ric-0")
                    agent.repository.lock_holder("slice/1")
            except Exception as exc:
                errors.append(exc)

        reader = threading.Thread(target=read_repository)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader.start()
            for n in range(100):
                peer = SimulatedPeer(f"ric-{n % 3}", RIC)
                duplex = connect_inproc(agent, peer, f"link-{n}")
                peer.subscribe(1, "slice_context", slice_ids=[1],
                               trigger={"kind": "periodic", "period_ms": 1})
                time.sleep(0.001 * (n % 3))
                duplex.close()
        finally:
            done.set()
            reader.join(timeout=5.0)
            sys.setswitchinterval(interval)
            server.stop()
        assert not reader.is_alive() and errors == []
        assert not agent.repository.peers
        assert not agent.pml._registrations and not agent._sub_by_reg


class _AnswerLog(SimulatedPeer):
    """A controller that logs the correlation id of every answer it gets."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.answers = []

    def on_frame(self, frame: E2LiteFrame) -> None:
        if frame.msg_type not in (MsgType.SETUP_REQUEST, MsgType.INDICATION,
                                  MsgType.ALARM_NOTIFICATION):
            self.answers.append(frame.correlation_id)
        super().on_frame(frame)


class TestStop:
    def test_every_request_sent_before_stop_gets_one_answer(self):
        doc = {"functions": [dict(FS_FUNCTION_DOC["functions"][0], resources=[])]}
        agent = make_agent(doc=doc)
        server = ThreadedAgentServer(agent).start()
        ric = _AnswerLog("ric-1", RIC)
        connect_inproc(agent, ric, "link-1")
        assert wait_for(lambda: agent.activation("ric-1") == {1})
        sent = []
        for k in range(200):
            sent.append(ric.control_slice(1, {"slice_id": 1 + k % 3,
                                              "shared_priority": 1 + k % 4}))
            sent.append(ric.query(1, "slice_context", slice_ids=[1 + k % 3]))
        server.stop()
        assert sorted(ric.answers) == sorted(sent)
        m = agent.metrics
        assert m.received == m.executed + m.failed == 200


class TestSendersOnManyThreads:
    def test_every_request_is_answered_once_and_every_queue_count_returns_to_zero(self):
        """Three links send from their own threads while the loop drains the
        one queue; a lost update to a manager's count would leave it above 0."""
        doc = {"functions": [dict(FS_FUNCTION_DOC["functions"][0], resources=[])]}
        agent = make_agent(doc=doc)
        server = ThreadedAgentServer(agent).start()
        rics = [_AnswerLog(f"ric-{n}", RIC) for n in range(3)]
        for n, ric in enumerate(rics):
            connect_inproc(agent, ric, f"link-{n}")
        assert wait_for(lambda: all(agent.activation(r.peer_id) == {1} for r in rics))
        sent = {ric.peer_id: [] for ric in rics}

        def send(ric):
            for k in range(150):
                sent[ric.peer_id].append(ric.control_slice(1, {"slice_id": 1 + k % 3,
                                                               "shared_priority": 1 + k % 4}))
                sent[ric.peer_id].append(ric.query(1, "slice_context", slice_ids=[1]))

        threads = [threading.Thread(target=send, args=(ric,)) for ric in rics]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
            server.stop()
        assert not any(t.is_alive() for t in threads)
        for ric in rics:
            assert sorted(ric.answers) == sorted(sent[ric.peer_id])
        assert not agent._queue and not any(agent._depth.values())
        m = agent.metrics
        assert m.received == m.executed + m.failed == 450


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
                ctx.activated for ctx in list(agent.repository.peers.values())))
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
                ctx.activated for ctx in list(agent.repository.peers.values())))
            close_a()
            assert wait_for(lambda: not agent.repository.peers)
            ric_b = SimulatedPeer("ric-b", RIC)
            close_b = connect_tcp(ric_b, tcp.host, tcp.port)
            try:
                assert wait_for(lambda: any(
                    ctx.activated for ctx in list(agent.repository.peers.values())))
            finally:
                close_b()
        finally:
            tcp.stop()
            threads.stop()

    def test_closed_connections_are_forgotten(self):
        agent = make_agent()
        tcp = TcpAgentServer(agent, kind=RIC).start()
        socks = []
        try:
            for _ in range(4):
                socks.append(socket.create_connection((tcp.host, tcp.port)))
            assert wait_for(lambda: len(tcp._conns) == 4)
            for sock in socks:
                sock.close()
            assert wait_for(lambda: not tcp._conns)
            assert not agent.repository.peers
        finally:
            tcp.stop()

    def test_a_refused_connection_is_closed_and_the_listener_keeps_accepting(self):
        agent = make_agent()
        # takes the link id the listener gives its first connection
        agent.attach_link(f"{RIC}-tcp-1", "ric-local", RIC, send=lambda data: None)
        tcp = TcpAgentServer(agent, kind=RIC).start()
        refused = socket.create_connection((tcp.host, tcp.port))
        refused.settimeout(3.0)
        try:
            assert refused.recv(64) == b""  # closed without a setup request
            accepted = socket.create_connection((tcp.host, tcp.port))
            try:
                assert wait_for(lambda: len(tcp._conns) == 1)
                assert len(agent.repository.peers) == 2
            finally:
                accepted.close()
        finally:
            refused.close()
            tcp.stop()

    def test_one_thread_serves_every_connection_and_stop_ends_it(self):
        """Sixteen idle connections add one thread; stop() joins it within a
        second, closing every connection and detaching every link, so no
        thread of the server is left to call ``Agent.receive``."""
        agent = make_agent()
        before = set(threading.enumerate())
        tcp = TcpAgentServer(agent, kind=RIC).start()
        socks = [socket.create_connection((tcp.host, tcp.port)) for _ in range(16)]
        try:
            assert wait_for(lambda: len(tcp._conns) == len(agent.repository.peers) == 16)
            (added,) = set(threading.enumerate()) - before
            assert added.name == "agent-tcp"
            start = time.monotonic()
            tcp.stop()
            assert time.monotonic() - start < 1.0
            assert not added.is_alive()
            assert not tcp._conns and not agent.repository.peers
        finally:
            for sock in socks:
                sock.close()
            tcp.stop()

    def test_a_link_the_agent_dropped_ends_its_read_loop_quietly(self):
        agent = make_agent()
        tcp = TcpAgentServer(agent, kind=RIC).start()
        sock = socket.create_connection((tcp.host, tcp.port))
        try:
            assert wait_for(lambda: len(tcp._conns) == 1)
            (ctx,) = agent.repository.peers.values()
            agent.detach_link(ctx.link_id)  # as after a failed send
            sock.sendall(b"bytes on a dropped link")
            assert wait_for(lambda: not tcp._conns)
        finally:
            sock.close()
            tcp.stop()
