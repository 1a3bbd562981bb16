"""Transports and execution wrappers for the agent pipeline.

The agent core is synchronous; this module supplies the two drive modes the
harness needs: an in-process duplex link (function-call transport, usable from
both deterministic and threaded drivers) and a TCP listener speaking the same
framing. :class:`ThreadedAgentServer` runs the core on one loop thread,
concurrently with the links' I/O threads: it calls ``Agent.pump``, then
``Agent.step`` on the ``TICK_MS`` grid when the agent has work, and otherwise
sleeps until a frame arrives or the next periodic report is due; ``stop``
joins it and then calls ``Agent.flush``, so every message received gets its
one response. :class:`TcpAgentServer` closes a connection the agent refuses
to attach (a link or peer id already attached) and keeps accepting.
"""

from __future__ import annotations

import math
import socket
import threading
from typing import Callable, Optional

from .agent import RIC, Agent
from .clocks import ms_to_ns
from .errors import AgentError

TICK_MS = 1.0  # the threaded server's step grid: at most one boundary per 1 ms


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
    """One loop thread driving an agent on wall time."""

    def __init__(self, agent: Agent):
        self.agent = agent
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    def start(self) -> "ThreadedAgentServer":
        self._thread = threading.Thread(target=self._loop, name="agent-ticker", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Join the loop, then ``Agent.flush``: every message gets its response."""
        self._stop.set()
        self.agent.wake()
        if self._thread:
            self._thread.join(timeout=2.0)
        self.agent.flush()

    def _loop(self) -> None:
        """Pump, then step once the agent's wake time and the next tick after
        the last step are both reached; until then, wait. Controls invoked
        within a tick of a step are applied together at the next one."""
        agent, tick_ns, last_step = self.agent, ms_to_ns(TICK_MS), -math.inf
        while not self._stop.is_set():
            agent.pump()
            now = agent.clock.now_ns()
            due = max(last_step + tick_ns, agent.next_wake_ns())
            if now >= due:
                agent.step(now)
                last_step = now
            else:
                agent.wait(None if due == math.inf else (due - now) / 1e9)


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
            # set before stop() can close the connection under its read loop
            conn.settimeout(0.2)
            n += 1
            link_id = f"{self.kind}-tcp-{n}"
            peer_id = f"{self.kind}-{addr[0]}:{addr[1]}"
            send_lock = threading.Lock()

            def sender(data: bytes, c=conn, lk=send_lock):
                with lk:
                    c.sendall(data)

            try:
                self.agent.attach_link(link_id, peer_id, self.kind, send=sender)
            except AgentError:  # a link or peer id already attached: refuse it
                conn.close()
                continue
            self._conns.add(conn)
            t = threading.Thread(target=self._read_loop, args=(conn, link_id), daemon=True)
            t.start()

    def _read_loop(self, conn: socket.socket, link_id: str) -> None:
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
