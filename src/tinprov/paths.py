"""Route tracking for buffered parcels (element policies only).

A parcel's route is the vertex sequence its quantity travelled: the origin,
then each vertex that relayed it.  One relay rule holds for every element
policy: a parcel that leaves vertex ``s``, moved whole or as a split copy,
gets ``s`` appended to its route (a self-interaction relays too).  Routes are
reversed parent chains in three append-only integer columns (vertex, parent,
depth); a handle is a node index.  Nothing is deduplicated: ``birth`` and
``extend`` each append exactly one node.  Prefixes are still shared through
parent links, so a split copy and its remainder share every node before the
split.  The compiled replay loop applies the same rule in the same order and
extends a new store's ``columns`` with its nodes.
"""

from __future__ import annotations

from typing import Iterable

NO_PATH = -1


class PathStore:
    """Append-only parent-chain storage of parcel routes."""

    __slots__ = ("_vertex", "_parent", "_depth")

    def __init__(self) -> None:
        # imported here: the extension module adds to the RSS of runs without routes
        from array import array

        self._vertex = array("q")
        self._parent = array("q")
        self._depth = array("q")

    def __len__(self) -> int:
        return len(self._vertex)

    def birth(self, origin: int) -> int:
        """Handle for a new length-1 path [origin]."""
        return self._append(origin, NO_PATH, 1)

    def extend(self, handle: int, relayer: int) -> int:
        """Handle for a new node: the given path extended with ``relayer``."""
        return self._append(relayer, handle, self._depth[handle] + 1)

    def _append(self, vertex: int, parent: int, depth: int) -> int:
        self._vertex.append(vertex)
        self._parent.append(parent)
        self._depth.append(depth)
        return len(self._vertex) - 1

    @property
    def columns(self) -> tuple:
        """The (vertex, parent, depth) arrays, which a kernel replay extends."""
        return self._vertex, self._parent, self._depth

    def mean_length(self, handles: Iterable[int]) -> float:
        """Mean route length (vertices, origin included) of ``handles``; 0.0 if none."""
        depth = self._depth
        count = 0
        total = 0
        for h in handles:
            total += depth[h]
            count += 1
        return total / count if count else 0.0

    def sequence(self, handle: int) -> tuple[int, ...]:
        """Materialize the logical vertex sequence, origin first."""
        out: list[int] = []
        node = handle
        while node != NO_PATH:
            out.append(self._vertex[node])
            node = self._parent[node]
        out.reverse()
        return tuple(out)
