"""Birth-time ordered selection: least- and most-recently-born policies.

Each buffer is a binary heap of parcels keyed on generation time (min-heap
for least-recently-born, max-heap for most-recently-born).  A transfer
drains parcels from the extreme of the source heap until the requested
quantity is covered; the last parcel may be split, and any shortfall is
generated as a newborn parcel at the source.  A self-interaction follows the
rule stated in ``receipt``: it selects only among the parcels held before it.

Heap entries are mutable lists ``[key, origin, seq, quantity, path]``.
``key`` is the signed birth time, ``sign * birth`` with sign ±1.0, so the
birth is ``sign * key`` exactly, a zero's sign too.  ``seq`` makes the
ordering total: ties on birth time break on origin index, then on ``seq``,
the number of parcels made before the parcel.  That is ``entries`` when the
parcel is made, and its index in the C kernel's parcel pool.  A parcel moved
whole keeps its ``seq``, and so its place in the order.  Coalescing lowers
``entries`` on a merge, so seqs can repeat, but it keeps ``(origin, key)``
unique within each heap, so ``seq`` then never decides an order.

``process()`` is the one per-interaction replay loop; ``run()`` reuses it,
or hands the replay of a fresh engine that does not coalesce to the C
kernel in ``_kernels``, which builds the same heaps and the same routes.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

from ._kernels import ElementEngine
from .core import Interaction, Policy, vertex_error
from .paths import NO_PATH

_KEY, _ORIGIN, _SEQ, _QTY, _PATH = range(5)


class GenTimeEngine(ElementEngine):
    """Provenance engine for the generation-time selection policies."""

    def __init__(
        self,
        n_vertices: int,
        most_recent: bool = False,
        epsilon: float = 1e-9,
        track_paths: bool = False,
        coalesce: bool = False,
    ) -> None:
        super().__init__(n_vertices, epsilon, track_paths, coalesce)
        self.policy = Policy.MOST_RECENTLY_BORN if most_recent else Policy.LEAST_RECENTLY_BORN
        self._sign = -1.0 if most_recent else 1.0
        self.buffers: list[list[list]] = [[] for _ in range(n_vertices)]
        self._merge_maps: Optional[list[dict]] = (
            [{} for _ in range(n_vertices)] if coalesce else None
        )

    def process(self, r: Interaction) -> None:
        s, d, t, rq = r
        if s < 0 or d < 0:
            raise vertex_error(self.n_vertices)
        src = self.buffers[s]
        dst = self.buffers[d]  # read before the first write
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
                # parcel's (origin, key) and route travels under a new seq
                top[_QTY] = tq - resq
                top = [top[_KEY], top[_ORIGIN], self.entries, resq, top[_PATH]]
                self.entries += 1
                tq = resq
            else:
                # whole move: the popped entry itself travels, keeping its seq
                heappop(src)
                if merge is not None:
                    del merge[s][top[_ORIGIN], top[_KEY]]
            if paths is not None:
                top[_PATH] = paths.extend(top[_PATH], s)
            moved.append(top)
            resq -= tq
        if resq > 0.0:
            path = paths.birth(s) if paths is not None else NO_PATH
            moved.append([self._sign * t, s, self.entries, resq, path])
            self.entries += 1
        # the parcels join the destination only now, in selection order and
        # the newborn last, so a self-interaction selects among the parcels
        # present before it
        live = merge[d] if merge is not None else None
        for entry in moved:
            if live is not None:
                # coalescing: merge into the parcel of equal origin and key (birth)
                key = (entry[_ORIGIN], entry[_KEY])
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

    def _parcels(self, v: int):
        return ((e[_ORIGIN], e[_QTY], e[_PATH]) for e in self.buffers[v])

    def snapshot(self, v: int) -> list[tuple[int, float, float]]:
        """Current parcels of a buffer as (origin, birth_time, quantity)."""
        if not 0 <= v < self.n_vertices:
            return []
        sign = self._sign
        return [(e[_ORIGIN], sign * e[_KEY], e[_QTY]) for e in self.buffers[v]]
