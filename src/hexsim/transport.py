"""Transports and execution wrappers for the agent pipeline.

The agent core is synchronous; this module supplies the two drive modes the
harness needs: an in-process duplex link (function-call transport, usable from
both deterministic and threaded drivers) and a TCP listener speaking the same
framing. :class:`ThreadedAgentServer` runs the core concurrently: its workers,
sharded by link so per-peer order survives, take the messages in place of
``Agent.pump``; its ticker calls ``Agent.step``; ``stop`` joins them and then
calls ``Agent.flush``, so every message received gets its one response.
"""

from __future__ import annotations

import socket
import threading
from typing import Callable, Optional

from .agent import RIC, Agent
from .errors import AgentError


class InProcessDuplex:
    """Synchronous two-way byte channel between a peer object and the agent."""

    def __init__(self, agent: Agent, link_id: str, peer_id: str, kind: str,
                 on_peer_rx: Callable[[bytes], None]):
        self.agent = agent
        self.link_id = link_id
        agent.attach_link(link_id, peer_id, kind, send=on_peer_rx)

    def to_agent(self, data: bytes) -> None:
        self.agent.receive(self.link_id, data)

    def close(self) -> None:
        self.agent.detach_link(self.link_id)


class ThreadedAgentServer:
    """Worker pools plus a tick thread driving an agent on wall time."""

    def __init__(self, agent: Agent, tick_ms: float = 1.0):
        self.agent = agent
        self.tick_ms = tick_ms
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()

    def start(self) -> "ThreadedAgentServer":
        for n, keys in enumerate(self.agent.worker_keys()):
            t = threading.Thread(target=self._worker, args=(keys,), name=f"agent-worker-{n}",
                                 daemon=True)
            t.start()
            self._threads.append(t)
        ticker = threading.Thread(target=self._ticker, name="agent-ticker", daemon=True)
        ticker.start()
        self._threads.append(ticker)
        return self

    def stop(self) -> None:
        """Join the threads, then ``Agent.flush``: every message gets its response."""
        self._stop.set()
        for t in self._threads:
            t.join(timeout=2.0)
        self._threads.clear()
        self.agent.flush()

    def _worker(self, keys) -> None:
        while not self._stop.is_set():
            msg = self.agent.wait_message(keys, timeout=0.05)
            if msg is not None:
                self.agent.process_message(msg)

    def _ticker(self) -> None:
        while not self._stop.is_set():
            self.agent.step(self.agent.clock.now_ns())
            self._stop.wait(self.tick_ms / 1000.0)


class TcpAgentServer:
    """Stream listener for one interface; every connection becomes a peer link."""

    def __init__(self, agent: Agent, kind: str = RIC, host: str = "127.0.0.1", port: int = 0):
        self.agent = agent
        self.kind = kind
        self._sock = socket.create_server((host, port))
        self.host, self.port = self._sock.getsockname()
        self._stop = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        # open connections; set add, discard and copy are atomic
        self._conns: set[socket.socket] = set()

    def start(self) -> "TcpAgentServer":
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        self._sock.settimeout(0.2)
        n = 0
        while not self._stop.is_set():
            try:
                conn, addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            n += 1
            link_id = f"{self.kind}-tcp-{n}"
            peer_id = f"{self.kind}-{addr[0]}:{addr[1]}"
            self._conns.add(conn)
            send_lock = threading.Lock()

            def sender(data: bytes, c=conn, lk=send_lock):
                with lk:
                    c.sendall(data)

            self.agent.attach_link(link_id, peer_id, self.kind, send=sender,
                                   endpoint=f"{addr[0]}:{addr[1]}")
            t = threading.Thread(target=self._read_loop, args=(conn, link_id), daemon=True)
            t.start()

    def _read_loop(self, conn: socket.socket, link_id: str) -> None:
        conn.settimeout(0.2)
        try:
            while not self._stop.is_set():
                try:
                    data = conn.recv(65536)
                except socket.timeout:
                    continue
                except OSError:
                    break
                if not data:
                    break
                try:
                    self.agent.receive(link_id, data)
                except AgentError:  # the agent detached the link: a send failed
                    break
        finally:
            self.agent.detach_link(link_id)
            self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def stop(self) -> None:
        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass
        for c in list(self._conns):
            try:
                c.close()
            except OSError:
                pass
        if self._accept_thread:
            self._accept_thread.join(timeout=1.0)
