"""Birth-time ordered selection: least- and most-recently-born policies.

Each buffer is a binary heap of parcels keyed on generation time (min-heap
for least-recently-born, max-heap for most-recently-born).  A transfer
drains parcels from the extreme of the source heap until the requested
quantity is covered; the last parcel may be split, and any shortfall is
generated as a newborn parcel at the source.

Heap entries are mutable lists ``[key, origin, seq, birth_time, quantity,
path]``.  ``key`` is the signed birth time, ``seq`` is a creation sequence
number that makes the ordering total (ties on birth time break on origin
index, then creation order).  A parcel moved whole keeps its ``seq``, and so
its place in the order.

``process()`` is the one per-interaction replay loop; ``run()`` reuses it,
or hands a long path-free replay to the C kernel in ``_kernels``, which
builds the same heaps.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

from . import _kernels
from .core import ConfigError, EngineBase, Interaction, Policy
from .paths import NO_PATH, PathStore

_KEY, _ORIGIN, _SEQ, _BIRTH, _QTY, _PATH = range(6)


class GenTimeEngine(EngineBase):
    """Provenance engine for the generation-time selection policies."""

    def __init__(
        self,
        n_vertices: int,
        most_recent: bool = False,
        epsilon: float = 1e-9,
        track_paths: bool = False,
        coalesce: bool = False,
        path_store: Optional[PathStore] = None,
    ) -> None:
        super().__init__(n_vertices, epsilon)
        if coalesce and track_paths:
            raise ConfigError("coalescing would merge parcels with distinct paths")
        self.policy = Policy.MOST_RECENTLY_BORN if most_recent else Policy.LEAST_RECENTLY_BORN
        self.coalesce = coalesce
        self._sign = -1.0 if most_recent else 1.0
        self.buffers: list[list[list]] = [[] for _ in range(n_vertices)]
        self.paths: Optional[PathStore] = None
        if track_paths:
            self.paths = path_store if path_store is not None else PathStore()
        self._merge_maps: Optional[list[dict]] = (
            [{} for _ in range(n_vertices)] if coalesce else None
        )
        self._seq = 0

    def _add(self, v: int, origin: int, birth: float, qty: float, path: int, seq: int = -1) -> None:
        if self._merge_maps is not None:
            live = self._merge_maps[v]
            existing = live.get((origin, birth))
            if existing is not None:
                existing[_QTY] += qty
                return
        if seq < 0:
            seq = self._seq
            self._seq += 1
        entry = [self._sign * birth, origin, seq, birth, qty, path]
        heappush(self.buffers[v], entry)
        if self._merge_maps is not None:
            self._merge_maps[v][(origin, birth)] = entry
        self.entries += 1

    def process(self, r: Interaction) -> None:
        s = r.source
        src = self.buffers[s]
        dst = self.buffers[r.dest]
        eps = self.epsilon
        paths = self.paths
        merge = self._merge_maps
        resq = r.quantity
        while resq > 0.0 and src:
            top = src[0]
            tq = top[_QTY]
            if tq - resq > eps:
                # split: the remainder stays at the source, the copy keeps
                # the parcel's (origin, birth) and route so far
                top[_QTY] = tq - resq
                self._add(r.dest, top[_ORIGIN], top[_BIRTH], resq, top[_PATH])
                resq = 0.0
            else:
                # whole move: the popped entry itself joins the destination
                heappop(src)
                resq -= tq
                if paths is not None:
                    top[_PATH] = paths.extend(top[_PATH], s)
                if merge is None:
                    heappush(dst, top)
                else:
                    del merge[s][(top[_ORIGIN], top[_BIRTH])]
                    self.entries -= 1
                    self._add(r.dest, top[_ORIGIN], top[_BIRTH], tq, top[_PATH], seq=top[_SEQ])
        if resq > 0.0:
            path = paths.birth(s) if paths is not None else NO_PATH
            self._add(r.dest, s, r.time, resq, path)
        self._settle(r)
        if self.entries > self.peak_entries:
            self.peak_entries = self.entries

    def run(self, stream) -> "GenTimeEngine":
        """Replay a whole stream; same semantics as repeated process() calls.

        Replays that :func:`_kernels.accepts` go to the compiled kernel.
        """
        if _kernels.accepts(self, stream):
            return self._run_kernel(stream)
        return super().run(stream)

    def _run_kernel(self, stream) -> "GenTimeEngine":
        """Replay via the compiled kernel and fill the buffer heaps.

        The kernel keeps each heap in the layout ``heapq`` builds, under the
        same (key, origin, seq) order, so its parcels are valid heaps as given.
        """
        (origins, births, quantities, seqs), counts = (
            _kernels.replay_gentime(self, stream, self._sign)
        )
        sign = self._sign
        parcels = [
            [sign * b, o, k, b, q, NO_PATH]
            for o, b, q, k in zip(origins, births, quantities, seqs)
        ]
        self.buffers = _kernels.by_vertex(parcels, counts)
        self._seq = self.entries
        return self

    def snapshot(self, v: int) -> list[tuple[int, float, float]]:
        """Current parcels of a buffer as (origin, birth_time, quantity)."""
        if not 0 <= v < self.n_vertices:
            return []
        return [(e[_ORIGIN], e[_BIRTH], e[_QTY]) for e in self.buffers[v]]

    def snapshot_paths(self, v: int) -> list[tuple[int, float, tuple[int, ...]]]:
        """Current parcels as (origin, quantity, route sequence)."""
        if self.paths is None:
            raise ConfigError("path tracking is not enabled")
        if not 0 <= v < self.n_vertices:
            return []
        return [(e[_ORIGIN], e[_QTY], self.paths.sequence(e[_PATH])) for e in self.buffers[v]]

    def average_path_length(self) -> float:
        """Mean route length (vertices, origin included) over resident parcels."""
        if self.paths is None:
            raise ConfigError("path tracking is not enabled")
        count = 0
        total = 0
        for buf in self.buffers:
            for e in buf:
                total += self.paths.length(e[_PATH])
                count += 1
        return total / count if count else 0.0
