"""control: open-loop load on the threaded agent pipeline.

One sender thread drives two in-process controller links (two, like the
host's two CPUs) into a ThreadedAgentServer. In-process links rather than TCP
loopback: with the agent behind TCP in a second process, ack medians of
identical runs were bimodal on a 2-CPU host, while the in-process variant
repeats within a few percent.

Each link owns four of the eight slices (64 UEs in all) through its own RAN
function, so no write is contended and any failure is a regression. Per link
and per 100 ms window the load is:

* one report-driven burst of BURST ue_config frames, written as one chunk so
  the agent's FrameReader decodes several frames per feed;
* SINGLE_WRITES writes (slice_config or ue_config), each its own frame;
* QUERIES slice_context queries, served from the published snapshot;

plus a standing 10 ms periodic subscription. Two links at 50 requests per
window make the reference rate of 1000 requests/s: 80 % writes (mediation
queue, boundary apply, a new epoch) and 20 % reads.
Every request is timed from the moment it was due, so a stalled sender or
pipeline shows as latency on the requests behind it.
"""

from __future__ import annotations

import random
import threading
import time

from hexsim import e2lite
from hexsim.agent import RIC, Agent, AgentConfig
from hexsim.e2lite import MsgType
from hexsim.pml import FsApi, Pml
from hexsim.ric_harness import SimulatedPeer, connect_inproc
from hexsim.slice_model import (
    Bearer,
    ChangeTrigger,
    RadioResourceConfig,
    SliceRegistry,
    SliceState,
    UEContext,
)
from hexsim.transport import ThreadedAgentServer

from common import ALGORITHMS, Phase, pct

WINDOW_S = 0.1
SLICE_S = 1.0  # figures are taken per slice of due times, see measure()
BURST = 8
SINGLE_WRITES = 32
QUERIES = 10
SLICES_PER_LINK = 4
UES_PER_SLICE = 8
SUB_PERIOD_MS = 10
ANSWER_TIMEOUT_S = 5.0
# the field each slice's state lets a slice_config write change, besides fd_scheduler
STATE_FIELD = (
    (SliceState.DEDICATED, "dedicated_rb", (2, 10)),
    (SliceState.PRIORITIZED, "prioritized_rb", (2, 10)),
    (SliceState.SHARED, "shared_priority", (1, 5)),
    (SliceState.SHARED, "shared_priority", (1, 5)),
)


class TimedPeer(SimulatedPeer):
    """A controller that stamps every answer on arrival instead of keeping it,
    and drops its subscription's indications."""

    def __init__(self, peer_id: str, function_id: int):
        super().__init__(peer_id, RIC, activate=[function_id])
        self.function_id = function_id
        self.answers: dict[int, list] = {}  # corr -> [(arrival ns, msg type, payload)]
        self.keep_queries = False
        self._rx = threading.Lock()

    def on_bytes(self, data: bytes) -> None:
        # The agent's workers and its ticker all send on this link, each from
        # its own thread, and SimulatedPeer's FrameReader is not safe to feed
        # concurrently (it can decode one frame twice). A controller reads its
        # stream from one thread, so the receive path is serialized here.
        # SimulatedPeer.on_bytes is looked up per call because the link holds
        # this bound method from before a traced phase wraps it.
        with self._rx:
            SimulatedPeer.on_bytes(self, data)

    def on_frame(self, frame) -> None:
        t = frame.msg_type
        if t == MsgType.SETUP_REQUEST:
            super().on_frame(frame)
        elif t != MsgType.INDICATION:
            keep = t == MsgType.CONTROL_FAILURE or self.keep_queries
            self.answers.setdefault(frame.correlation_id, []).append(
                (time.perf_counter_ns(), t, frame.payload if keep else None))


class Link:
    def __init__(self, index: int, agent: Agent):
        self.index = index
        self.slices = [index * SLICES_PER_LINK + k + 1 for k in range(SLICES_PER_LINK)]
        self.peer = TimedPeer(f"ric-{index}", index + 1)
        self.duplex = connect_inproc(agent, self.peer, f"link-{index}")
        self.last_slice: dict[tuple[int, str], object] = {}
        self.last_priority: dict[int, int] = {}


class Control:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.registry = SliceRegistry(106)
        self.pml = Pml()
        self.fs = FsApi(self.pml, self.registry)
        self.drbs: dict[int, list[int]] = {}
        n_slices = 2 * SLICES_PER_LINK
        for sid in range(1, n_slices + 1):
            state, fld, _ = STATE_FIELD[(sid - 1) % SLICES_PER_LINK]
            rrc = RadioResourceConfig(**({fld: 2} if state is not SliceState.SHARED else {}))
            self.registry.create_slice(sid, default_active_state=state, rrc=rrc)
            self.drbs[sid] = []
            for k in range(UES_PER_SLICE):
                uid = (sid - 1) * UES_PER_SLICE + k + 1
                self.registry.add_ue(UEContext(ue_id=uid, mcs=self.rng.randint(0, 28)))
                self.registry.add_drb(sid, Bearer(drb_id=1000 + uid, ue_id=uid, slice_id=sid),
                                      ChangeTrigger("DRB Setup", "ran"))
                self.drbs[sid].append(1000 + uid)
        self.agent = Agent(self.registry, self.pml, self.fs, AgentConfig())
        self.agent.load_configuration({"functions": [
            {"function_id": i + 1, "name": f"fs-{i}", "kind": "ran",
             "service_model": e2lite.FS_SERVICE_MODEL, "required_pml_plugins": ["fs"],
             "resources": [f"slice/{i * SLICES_PER_LINK + k + 1}"
                           for k in range(SLICES_PER_LINK)]}
            for i in range(2)
        ]})
        self.pml.tti_boundary(self.registry)
        self.server = ThreadedAgentServer(self.agent).start()
        self.links = [Link(i, self.agent) for i in range(2)]
        self._handshake()

    def _handshake(self) -> None:
        deadline = time.monotonic() + ANSWER_TIMEOUT_S
        for link in self.links:
            while link.peer.function_id not in self.agent.activation(link.peer.peer_id):
                if time.monotonic() > deadline:
                    raise RuntimeError(f"{link.peer.peer_id} was not activated")
                time.sleep(0.0005)
        corrs = [
            (link, link.peer.subscribe(link.peer.function_id, "slice_context",
                                       slice_ids=link.slices,
                                       trigger={"kind": "periodic", "period_ms": SUB_PERIOD_MS}))
            for link in self.links
        ]
        for link, corr in corrs:
            answer = self._await(link, corr, deadline)
            if answer[1] != MsgType.SUBSCRIPTION_RESPONSE:
                raise RuntimeError(f"subscription on {link.peer.peer_id} failed: {answer}")

    @staticmethod
    def _await(link: Link, corr: int, deadline: float):
        while corr not in link.peer.answers:
            if time.monotonic() > deadline:
                raise RuntimeError(f"no answer to {corr} on {link.peer.peer_id}")
            time.sleep(0.0005)
        return link.peer.answers[corr][0]

    # -- load generation -----------------------------------------------------------

    def _slice_write(self, link: Link) -> dict:
        sid = self.rng.choice(link.slices)
        _, fld, (lo, hi) = STATE_FIELD[(sid - 1) % SLICES_PER_LINK]
        if self.rng.random() < 0.5:
            return {"slice_id": sid, "fd_scheduler": self.rng.choice(ALGORITHMS)}
        return {"slice_id": sid, fld: self.rng.randint(lo, hi)}

    def _ue_write(self, link: Link) -> dict:
        drb = self.rng.choice(self.drbs[self.rng.choice(link.slices)])
        return {"drb_id": drb, "bearer_priority": self.rng.randint(1, 5)}

    def _schedule(self, seconds: float) -> list[tuple]:
        """(due offset s, link, kind, params) for every request, in due order."""
        items = []
        for w in range(max(1, round(seconds / WINDOW_S))):
            t0 = w * WINDOW_S
            for link in self.links:
                stagger = link.index * WINDOW_S / 2
                burst = [self._ue_write(link) for _ in range(BURST)]
                items.append((t0 + stagger, link, "burst", burst))
                for _ in range(SINGLE_WRITES):
                    kind = "slice" if self.rng.random() < 0.5 else "ue"
                    params = self._slice_write(link) if kind == "slice" else self._ue_write(link)
                    items.append((t0 + self.rng.random() * WINDOW_S, link, kind, params))
                for _ in range(QUERIES):
                    items.append((t0 + self.rng.random() * WINDOW_S, link, "query", None))
        items.sort(key=lambda it: it[0])
        return items

    def _send(self, link: Link, kind: str, params) -> list[tuple[int, str]]:
        peer, fid = link.peer, link.peer.function_id
        if kind == "query":
            return [(peer.query(fid, "slice_context", slice_ids=link.slices), "query")]
        if kind == "slice":
            for key, value in params.items():
                if key != "slice_id":
                    link.last_slice[(params["slice_id"], key)] = value
            return [(peer.control_slice(fid, params), "write")]
        if kind == "ue":
            link.last_priority[params["drb_id"]] = params["bearer_priority"]
            return [(peer.control_ue(fid, params), "write")]
        chunk: list[bytes] = []
        peer.wire(chunk.append)
        corrs = []
        for p in params:
            link.last_priority[p["drb_id"]] = p["bearer_priority"]
            corrs.append((peer.control_ue(fid, p), "write"))
        peer.wire(link.duplex.to_agent)
        link.duplex.to_agent(b"".join(chunk))
        return corrs

    # -- the timed phase -------------------------------------------------------------

    def measure(self, seconds: float, tracer=None) -> Phase:
        """Send the schedule for ``seconds``, then wait for every answer.

        The figures are taken per one-second slice of due times (latency mean,
        p50 and p90 of the writes due in it; process CPU per request) and the
        lower quartile over the slices is reported: host interference on a
        shared machine only ever adds time, and requests cannot be replayed
        identically the way the other workloads' ticks are.
        """
        phase = Phase()
        schedule = self._schedule(seconds)
        sent: list[tuple[Link, int, str, int]] = []
        late_us: list[float] = []
        clock_ns = time.perf_counter_ns
        cpu_marks = [time.process_time_ns()]
        base = clock_ns() + 2_000_000
        for offset, link, kind, params in schedule:
            if offset >= len(cpu_marks) * SLICE_S:
                cpu_marks.append(time.process_time_ns())
            due = base + int(offset * 1e9)
            wait = due - clock_ns()
            if wait > 0:
                time.sleep(wait / 1e9)
            late_us.append((clock_ns() - due) / 1000.0)
            for corr, what in self._send(link, kind, params):
                sent.append((link, corr, what, due))
        deadline = time.monotonic() + ANSWER_TIMEOUT_S
        while (any(corr not in link.peer.answers for link, corr, _, _ in sent)
               and time.monotonic() < deadline):
            time.sleep(0.001)
        cpu_marks.append(time.process_time_ns())

        n_slices = len(cpu_marks) - 1
        ack_us = [[] for _ in range(n_slices)]
        query_us = [[] for _ in range(n_slices)]
        for link, corr, what, due in sent:
            phase.attempted += 1
            answers = link.peer.answers.get(corr, [])
            if len(answers) != 1:
                phase.failed += 1
                phase.errors.append(f"{link.peer.peer_id} request {corr}: "
                                    f"{len(answers)} answers, expected exactly one")
                continue
            arrival, msg_type, payload = answers[0]
            expected = MsgType.CONTROL_ACK if what == "write" else MsgType.QUERY_RESPONSE
            if msg_type != expected:
                phase.failed += 1
                phase.errors.append(f"{link.peer.peer_id} request {corr}: {payload}")
                continue
            k = min(int((due - base) / 1e9 / SLICE_S), n_slices - 1)
            (ack_us if what == "write" else query_us)[k].append((arrival - due) / 1000.0)

        def lower_quartile(per_slice) -> float:
            return pct([v for v in per_slice if v is not None], 25)

        cpu_per_op = [(b - a) / 1000.0 / (len(acks) + len(queries))
                      if acks or queries else None
                      for a, b, acks, queries in zip(cpu_marks, cpu_marks[1:], ack_us, query_us)]
        phase.e2e = {
            "op_mean_us": lower_quartile([sum(a) / len(a) if a else None for a in ack_us]),
            "op_p50_us": lower_quartile([pct(a, 50) if a else None for a in ack_us]),
            "op_p90_us": lower_quartile([pct(a, 90) if a else None for a in ack_us]),
            "cpu_us_per_op": lower_quartile(cpu_per_op),
        }
        all_acks = [v for a in ack_us for v in a]
        all_queries = [v for q in query_us for v in q]
        phase.named = {
            "ack_p50_us": phase.e2e["op_p50_us"],
            "ack_p90_us": phase.e2e["op_p90_us"],
            "query_p50_us": lower_quartile([pct(q, 50) if q else None for q in query_us]),
            "query_p90_us": lower_quartile([pct(q, 90) if q else None for q in query_us]),
            "cpu_us_per_op": phase.e2e["cpu_us_per_op"],
            "ack_p50_us_all_samples": pct(all_acks, 50),
            "ack_p90_us_all_samples": pct(all_acks, 90),
            "query_p50_us_all_samples": pct(all_queries, 50),
            "query_p90_us_all_samples": pct(all_queries, 90),
        }
        phase.layer_extra = {
            "ric_harness.gen_late_us_p50": pct(late_us, 50),
            "ric_harness.gen_late_us_p99": pct(late_us, 99),
            "transport.workers": sum(1 for t in threading.enumerate()
                                     if t.name.startswith("agent-worker")),
        }
        self._read_back(phase)
        return phase

    def _read_back(self, phase: Phase) -> None:
        """A final query per link must show the last value written to each slice."""
        time.sleep(0.02)  # acks go out during a boundary, before its publish
        deadline = time.monotonic() + ANSWER_TIMEOUT_S
        for link in self.links:
            link.peer.keep_queries = True
            corr = link.peer.query(link.peer.function_id, "slice_context", slice_ids=link.slices)
            _, msg_type, payload = self._await(link, corr, deadline)
            link.peer.keep_queries = False
            if msg_type != MsgType.QUERY_RESPONSE:
                phase.errors.append(f"read-back on {link.peer.peer_id} failed: {payload}")
                continue
            seen_slice, seen_priority = {}, {}
            for entry in payload["report"]["slices"]:
                sid = entry["slice_id"]
                seen_slice[(sid, "fd_scheduler")] = entry["fd_scheduler"]
                for key, value in entry["rrc"].items():
                    seen_slice[(sid, key)] = value
                for b in entry["bearers"]:
                    seen_priority[b["drb_id"]] = b["bearer_priority"]
            for key, want in link.last_slice.items():
                if seen_slice.get(key) != want:
                    phase.errors.append(f"slice {key[0]} {key[1]} reads {seen_slice.get(key)}, "
                                        f"last written {want}")
            for drb, want in link.last_priority.items():
                if seen_priority.get(drb) != want:
                    phase.errors.append(f"drb {drb} priority reads {seen_priority.get(drb)}, "
                                        f"last written {want}")

    def failures_by_cause(self) -> dict[str, int]:
        return dict(self.agent.failures_by_cause)

    def close(self) -> None:
        self.server.stop()
        for link in self.links:
            link.duplex.close()
