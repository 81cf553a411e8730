"""Brute-force reference simulator for difference-testing the engines.

Deliberately naive: buffers are flat insertion-ordered lists scanned
linearly for every selection, proportional vectors are plain dense float
lists updated with index loops, and paths are materialized tuples.  No
heaps, no sorted merges, no dust dropping — structurally unrelated to the
production engines so that agreement between the two is meaningful.
Intended for small instances only.
"""

from __future__ import annotations

from .core import (
    ELEMENT_POLICIES,
    PROPORTIONAL_POLICIES,
    ConfigError,
    Interaction,
    Policy,
    vertex_error,
)


class Parcel:
    """One indivisible-until-split unit of buffered quantity."""

    __slots__ = ("origin", "birth_time", "quantity", "path", "seq")

    def __init__(self, origin, birth_time, quantity, path, seq):
        self.origin = origin
        self.birth_time = birth_time
        self.quantity = quantity
        self.path = path
        self.seq = seq


class Oracle:
    """Replays a stream under any policy with flat-list bookkeeping."""

    def __init__(self, n_vertices: int, policy: Policy, track_paths: bool = False):
        self.n_vertices = n_vertices
        self.policy = policy
        self.track_paths = track_paths
        if track_paths and policy not in ELEMENT_POLICIES:
            raise ConfigError("paths are only defined for element policies")
        self.totals = [0.0] * n_vertices
        self.generated = [0.0] * n_vertices
        self.buffers: list[list[Parcel]] = [[] for _ in range(n_vertices)]
        # n x n floats, so only the proportional policies get them
        rows = n_vertices if policy in PROPORTIONAL_POLICIES else 0
        self.vectors = [[0.0] * n_vertices for _ in range(rows)]
        self._seq = 0

    def process(self, r: Interaction) -> None:
        """Replay one record; a source or dest outside ``[0, n_vertices)``
        raises IndexError before anything changes, as in every engine."""
        if not (0 <= r.source < self.n_vertices and 0 <= r.dest < self.n_vertices):
            raise vertex_error(self.n_vertices)
        if self.policy in ELEMENT_POLICIES:
            self._process_element(r)
        elif self.policy in PROPORTIONAL_POLICIES:
            self._process_proportional(r)
        # totals follow the baseline rule for every policy
        bs = self.totals[r.source]
        q = min(r.quantity, bs)
        self.totals[r.source] = bs - q
        self.totals[r.dest] += r.quantity
        self.generated[r.source] += r.quantity - q

    def run(self, stream) -> "Oracle":
        for r in stream:
            self.process(r)
        return self

    def _select(self, buf: list[Parcel]) -> int:
        policy = self.policy
        if policy is Policy.FIFO:
            return 0
        if policy is Policy.LIFO:
            return len(buf) - 1
        # LRB takes the oldest birth, MRB the youngest; min keeps the first minimal index
        sign = 1.0 if policy is Policy.LEAST_RECENTLY_BORN else -1.0
        return min(
            range(len(buf)), key=lambda i: (sign * buf[i].birth_time, buf[i].origin, buf[i].seq)
        )

    def _process_element(self, r: Interaction) -> None:
        src = self.buffers[r.source]
        resq = r.quantity
        # selection ends before anything is delivered, so a self-interaction
        # chooses only among the parcels it found
        chosen: list[Parcel] = []
        while resq > 0.0 and src:
            i = self._select(src)
            p = src[i]
            if p.quantity > resq:
                # split: copy travels, the remainder stays in place
                p.quantity -= resq
                p = Parcel(p.origin, p.birth_time, resq, p.path, self._seq)
                self._seq += 1
            else:
                del src[i]
            chosen.append(p)
            resq -= p.quantity
        dst = self.buffers[r.dest]
        for p in chosen:
            if self.track_paths:
                p.path = p.path + (r.source,)  # every relayed parcel, copies too
            dst.append(p)
        if resq > 0.0:
            path = (r.source,) if self.track_paths else ()
            dst.append(Parcel(r.source, r.time, resq, path, self._seq))
            self._seq += 1

    def _process_proportional(self, r: Interaction) -> None:
        s, d, rq = r.source, r.dest, r.quantity
        bs = self.totals[s]
        vs = self.vectors[s]
        vd = self.vectors[d]
        if rq >= bs:
            moved = list(vs)  # vs is vd on a self-interaction
            for i in range(self.n_vertices):
                vs[i] = 0.0
                vd[i] += moved[i]
            vd[s] += rq - bs
        else:
            alpha = rq / bs
            for i in range(self.n_vertices):
                moved = vs[i] * alpha
                vd[i] += moved
                vs[i] -= moved

    # -- snapshots ---------------------------------------------------------

    def snapshot(self, v: int):
        """v's holdings: (origin, amount) for every non-zero vector entry under
        the proportional policies, (origin, quantity) parcels under FIFO/LIFO,
        (origin, birth_time, quantity) under LRB/MRB."""
        if self.policy in PROPORTIONAL_POLICIES:
            return [(i, q) for i, q in enumerate(self.vectors[v]) if q != 0.0]
        if self.policy in (Policy.FIFO, Policy.LIFO):
            return [(p.origin, p.quantity) for p in self.buffers[v]]
        return [(p.origin, p.birth_time, p.quantity) for p in self.buffers[v]]

    def snapshot_paths(self, v: int) -> list[tuple[int, float, tuple[int, ...]]]:
        return [(p.origin, p.quantity, p.path) for p in self.buffers[v]]
