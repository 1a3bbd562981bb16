"""Transports and execution wrappers for the agent pipeline.

The agent core is synchronous; this module supplies the two drive modes the
harness needs: an in-process duplex link (function-call transport, usable from
both deterministic and threaded drivers) and a TCP listener speaking the same
framing. :class:`ThreadedAgentServer` runs the core on one loop thread: it
calls ``Agent.pump``, then ``Agent.step`` on the ``TICK_MS`` grid when the
agent has work, and otherwise sleeps until a frame arrives or the next
periodic report is due; ``stop`` joins it and then calls ``Agent.flush``, so
every message received gets its one response. :class:`TcpAgentServer` waits
in one selector on one thread, ``agent-tcp``: it attaches each connection as
a link (closing one the agent refuses) and hands each read to ``Agent.receive``.
"""

from __future__ import annotations

import math
import selectors
import socket
import threading
from typing import Callable, Optional

from .agent import RIC, Agent
from .clocks import ms_to_ns
from .errors import AgentError

TICK_MS = 1.0  # the threaded server's step grid: at most one boundary per 1 ms
SEND_TIMEOUT_S = 0.2  # a TCP send blocked longer fails; the agent detaches its link


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
        self.agent, self.kind = agent, kind
        self._sock = socket.create_server((host, port))
        self._sock.setblocking(False)  # accepts only when the selector reports a connection
        self.host, self.port = self._sock.getsockname()
        # stop() closes _waker, so _wake reads end of stream: a socket pair
        # wakes a selector on every platform, a shut listener only on some
        self._wake, self._waker = socket.socketpair()
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._sock, selectors.EVENT_READ, self._accept)
        self._sel.register(self._wake, selectors.EVENT_READ)
        self._thread: Optional[threading.Thread] = None
        self._accepted = 0
        self._conns: dict[socket.socket, str] = {}  # open connection -> link id

    def start(self) -> "TcpAgentServer":
        self._thread = threading.Thread(target=self._loop, name="agent-tcp", daemon=True)
        self._thread.start()
        return self

    def _loop(self) -> None:
        try:
            while True:
                for key, _ in self._sel.select():
                    if key.data is None:  # the wake socket: stop() was called
                        return
                    key.data(key.fileobj)
        finally:
            for conn in list(self._conns):
                self._drop(conn)

    def _accept(self, listener: socket.socket) -> None:
        try:
            conn, addr = listener.accept()
        except OSError as exc:  # BlockingIOError: nothing to accept after all
            if not isinstance(exc, BlockingIOError):
                self._sel.unregister(listener)  # the listener failed: keep serving the links
            return
        conn.settimeout(SEND_TIMEOUT_S)
        self._accepted += 1
        link_id, peer_id = f"{self.kind}-tcp-{self._accepted}", f"{self.kind}-{addr[0]}:{addr[1]}"
        send_lock = threading.Lock()

        def sender(data: bytes, c=conn, lk=send_lock):
            with lk:
                c.sendall(data)

        try:
            self.agent.attach_link(link_id, peer_id, self.kind, send=sender)
        except AgentError:  # a link or peer id already attached: refuse it
            conn.close()
            return
        self._conns[conn] = link_id
        self._sel.register(conn, selectors.EVENT_READ, self._read)

    def _read(self, conn: socket.socket) -> None:
        try:
            if data := conn.recv(65536):
                self.agent.receive(self._conns[conn], data)
                return
        except (OSError, AgentError):  # a reset, or the agent dropped the link
            pass
        self._drop(conn)

    def _drop(self, conn: socket.socket) -> None:
        self._sel.unregister(conn)
        self.agent.detach_link(self._conns[conn])
        del self._conns[conn]
        conn.close()

    def stop(self) -> None:
        """Wake the I/O thread and join it (its sends end within ``SEND_TIMEOUT_S``);
        it closes every connection and detaches its link, so once this returns
        no thread of this server calls ``Agent.receive``."""
        self._waker.close()
        if self._thread:
            self._thread.join()
        for resource in (self._sel, self._sock, self._wake):
            resource.close()
