"""Independent oracle for the agent's report frames.

It builds a report as a tree of dicts from a published snapshot, field by
field, and encodes it with ``json.dumps(sort_keys=True)``: the way reports
were made before the agent assembled them from text cached per object. Tests
compare the agent's bytes with these, so it shares no code with `slice_model`.
"""

import json

from hexsim import e2lite


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def frame_bytes(msg_type: int, corr: int, payload: dict) -> bytes:
    body = dumps(payload).encode("utf-8")
    return e2lite.HEADER.pack(b"E2", 1, msg_type, corr, len(body)) + body


def _bearer(snap, drb_id: int) -> dict:
    b = snap.bearers[drb_id]
    return {
        "drb_id": b.drb_id,
        "ue_id": b.ue_id,
        "slice_id": b.slice_id,
        "bearer_priority": b.bearer_priority,
        "qos_5qi": b.qos_5qi,
        "throughput_mbps": b.stats.throughput_mbps,
        "packet_delay_ms": b.stats.packet_delay_ms,
        "packet_loss_rate": b.stats.packet_loss_rate,
        "buffer_occupancy_bytes": b.stats.buffer_occupancy_bytes,
    }


def report(snap, slice_ids=(), ue_ids=()) -> dict:
    """The report of ``slice_ids`` and ``ue_ids``; every id must be in ``snap``."""
    slices = []
    for sid in slice_ids:
        s = snap.slices[sid]
        slices.append({
            "slice_id": s.slice_id,
            "state": s.state.value,
            "hu_associations": sorted(s.hu_associations),
            "fd_scheduler": s.fd_scheduler,
            "rrc": {
                "dedicated_rb": s.rrc.dedicated_rb,
                "prioritized_rb": s.rrc.prioritized_rb,
                "shared_priority": s.rrc.shared_priority,
            },
            "bearers": [_bearer(snap, d) for d in sorted(s.bearers)],
        })
    ues = []
    for uid in ue_ids:
        ue = snap.ues[uid]
        ues.append({
            "ue_id": ue.ue_id,
            "mcs": ue.mcs,
            "cqi": ue.cqi,
            "bler": ue.bler,
            "bearers": [_bearer(snap, d) for d in sorted(ue.bearers)],
        })
    return {"slices": slices, "ues": ues}
