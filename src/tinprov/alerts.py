"""Alerting over a proportional replay.

Flags destinations that accumulate a large buffered quantity none of which
originates from any of their in-neighbors (the vertices that have ever
transferred to them so far) — i.e. the neighbors only relay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import PROPORTIONAL_POLICIES, UNKNOWN, ConfigError, Interaction


@dataclass(frozen=True)
class Alert:
    index: int
    vertex: int
    total: float
    contributing_origins: int


def alert_scan(
    stream: Iterable[Interaction],
    engine,
    threshold: float,
) -> list[Alert]:
    """Replay the stream on a proportional engine, collecting alerts.

    After each interaction, the destination is flagged when its buffered
    total exceeds the threshold and its provenance holds no mass (beyond the
    engine's tolerance) attributable to any current in-neighbor.  Under a
    scope, origins are compared at slot granularity; aggregate slots (rest,
    UNKNOWN) are never counted as neighbor-attributable.
    """
    if getattr(engine, "policy", None) not in PROPORTIONAL_POLICIES:
        raise ConfigError("alert scan needs a proportional engine")
    scope = getattr(engine, "scope", None)
    slot_of = scope.slot_of if scope is not None else None
    rest_slot = scope.n_slots - 1 if scope is not None and scope.kind == "selective" else None
    eps = engine.epsilon
    in_neighbors: dict[int, set[int]] = {}
    alerts: list[Alert] = []
    for index, r in enumerate(stream):
        engine.process(r)
        d = r.dest
        neigh = in_neighbors.setdefault(d, set())
        neigh.add(r.source)
        total = engine.totals[d]
        if total <= threshold:
            continue
        if slot_of is not None:
            neigh_slots = {slot_of[u] for u in neigh}
            neigh_slots.discard(rest_slot)
        else:
            neigh_slots = neigh
        snap = engine.snapshot(d)
        from_neighbors = sum(q for o, q in snap if o in neigh_slots and o != UNKNOWN)
        if from_neighbors <= eps:
            contributing = sum(1 for _, q in snap if q > eps)
            alerts.append(Alert(index, d, total, contributing))
    return alerts
