"""Receipt-order selection: FIFO and LIFO policies.

Buffers are insertion-ordered sequences of ``(origin, quantity, path)``
parcels: a deque for FIFO, which consumes from the front, and a list for
LIFO, which consumes from the back.  Transfer mechanics are the same
residue/split/newborn rule as the generation-time policies; selected parcels
are appended to the destination in selection order, with the newborn parcel
(if any) appended last.  When a parcel is split, the remainder keeps its
place at the end it was selected from.

A self-interaction selects only among the parcels present before it, so it
relays at most the buffer's total; the shortfall is a newborn, as for any
interaction.  Its selected parcels rejoin the buffer once selection ends, in
selection order, and each self-relayed route gains the vertex, as any relay's
does.  FIFO thus rotates the selected parcels to the back, and LIFO puts them
back on top in reverse.
"""

from __future__ import annotations

from collections import deque

from ._kernels import ElementEngine
from .core import Interaction, Policy, vertex_error
from .paths import NO_PATH


class ReceiptEngine(ElementEngine):
    """Provenance engine for the FIFO/LIFO selection policies."""

    def __init__(
        self,
        n_vertices: int,
        lifo: bool = False,
        epsilon: float = 1e-9,
        track_paths: bool = False,
    ) -> None:
        super().__init__(n_vertices, epsilon, track_paths, coalesce=False)
        self.policy = Policy.LIFO if lifo else Policy.FIFO
        # the selected end of a buffer and how to remove the parcel there
        self._end = -1 if lifo else 0
        self._take = list.pop if lifo else deque.popleft
        self.buffers: list = [[] if lifo else deque() for _ in range(n_vertices)]

    def process(self, r: Interaction) -> None:
        s, d, _, rq = r
        if s < 0 or d < 0:
            raise vertex_error(self.n_vertices)
        bs = self.buffers[s]
        # a self-interaction holds its selection apart until selection ends,
        # so it selects among the parcels present before it
        bd = self.buffers[d] if d != s else []
        end = self._end
        take = self._take
        paths = self.paths
        resq = rq
        while resq > 0.0 and bs:
            parcel = bs[end]
            tq = parcel[1]
            if tq - resq > self.epsilon:
                # split: the remainder stays at the selected end, a copy travels
                bs[end] = (parcel[0], tq - resq, parcel[2])
                parcel = (parcel[0], resq, parcel[2])
                tq = resq
                self.entries += 1
            else:
                take(bs)
            if paths is not None:
                parcel = (parcel[0], parcel[1], paths.extend(parcel[2], s))
            bd.append(parcel)
            resq -= tq
        if resq > 0.0:
            bd.append((s, resq, paths.birth(s) if paths is not None else NO_PATH))
            self.entries += 1
        if d == s:
            bs.extend(bd)  # the selection rejoins in selection order, newborn last
        if self.entries > self.peak_entries:
            self.peak_entries = self.entries
        self._settle(s, d, rq)

    def _adopt(self, buffers: list) -> None:
        self.buffers = buffers if self.policy is Policy.LIFO else [deque(b) for b in buffers]

    def _parcels(self, v: int):
        return self.buffers[v]

    def snapshot(self, v: int) -> list[tuple[int, float]]:
        """Buffer contents front-to-back as (origin, quantity) pairs."""
        if not 0 <= v < self.n_vertices:
            return []
        return [(o, q) for o, q, _ in self.buffers[v]]
