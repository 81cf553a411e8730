"""Birth-time ordered selection: least- and most-recently-born policies.

Each buffer is a binary heap of parcels keyed on generation time (min-heap
for least-recently-born, max-heap for most-recently-born).  A transfer
drains parcels from the extreme of the source heap until the requested
quantity is covered; the last parcel may be split, and any shortfall is
generated as a newborn parcel at the source.  A self-interaction follows the
rule stated in ``receipt``: it selects only among the parcels held before it.

Heap entries are mutable lists ``[key, origin, seq, birth_time, quantity,
path]``.  ``key`` is the signed birth time, ``seq`` is a creation sequence
number that makes the ordering total (ties on birth time break on origin
index, then creation order).  A parcel moved whole keeps its ``seq``, and so
its place in the order.

``process()`` is the one per-interaction replay loop; ``run()`` reuses it,
or hands a path-free replay of a fresh engine to the C kernel in
``_kernels``, which builds the same heaps.
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
    ) -> None:
        super().__init__(n_vertices, epsilon)
        if coalesce and track_paths:
            raise ConfigError("coalescing would merge parcels with distinct paths")
        self.policy = Policy.MOST_RECENTLY_BORN if most_recent else Policy.LEAST_RECENTLY_BORN
        self.coalesce = coalesce
        self._sign = -1.0 if most_recent else 1.0
        self.buffers: list[list[list]] = [[] for _ in range(n_vertices)]
        self.paths: Optional[PathStore] = PathStore() if track_paths else None
        self._merge_maps: Optional[list[dict]] = (
            [{} for _ in range(n_vertices)] if coalesce else None
        )
        self._seq = 0

    def process(self, r: Interaction) -> None:
        s, d, t, rq = r
        src = self.buffers[s]
        eps = self.epsilon
        paths = self.paths
        merge = self._merge_maps
        moved = []
        resq = rq
        while resq > 0.0 and src:
            top = src[0]
            tq = top[_QTY]
            if tq - resq > eps:
                # split: the remainder keeps its heap slot, and a copy with the
                # parcel's (origin, birth) and route travels under a new seq
                top[_QTY] = tq - resq
                top = [top[_KEY], top[_ORIGIN], self._seq, top[_BIRTH], resq, top[_PATH]]
                self._seq += 1
                self.entries += 1
                tq = resq
            else:
                # whole move: the popped entry itself travels, keeping its seq
                heappop(src)
                if merge is not None:
                    del merge[s][top[_ORIGIN], top[_BIRTH]]
            if paths is not None:
                top[_PATH] = paths.extend(top[_PATH], s)
            moved.append(top)
            resq -= tq
        if resq > 0.0:
            path = paths.birth(s) if paths is not None else NO_PATH
            moved.append([self._sign * t, s, self._seq, t, resq, path])
            self._seq += 1
            self.entries += 1
        # the parcels join the destination only now, in selection order and
        # the newborn last, so a self-interaction selects among the parcels
        # present before it
        dst = self.buffers[d]
        live = merge[d] if merge is not None else None
        for entry in moved:
            if live is not None:
                # coalescing: merge into the parcel of equal (origin, birth)
                key = (entry[_ORIGIN], entry[_BIRTH])
                existing = live.get(key)
                if existing is not None:
                    existing[_QTY] += entry[_QTY]
                    self.entries -= 1
                    continue
                live[key] = entry
            heappush(dst, entry)
        self._settle(s, d, rq)
        if self.entries > self.peak_entries:
            self.peak_entries = self.entries

    def run(self, stream) -> "GenTimeEngine":
        """Replay a whole stream; same semantics as repeated process() calls.

        Replays that :func:`_kernels.accepts` go to the compiled kernel, which
        keeps each heap in the layout ``heapq`` builds, under the same (key,
        origin, seq) order, so its heaps become the buffers as given.
        """
        if not _kernels.accepts(self, stream):
            return super().run(stream)
        self.buffers = _kernels.replay(self, stream)
        self._seq = self.entries  # a parcel's seq is its creation index
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
        return self.paths.mean_length(e[_PATH] for buf in self.buffers for e in buf)
