"""Proportional selection: per-vertex origin→amount provenance vectors.

When a transfer does not drain the source buffer, every origin component of
the source vector contributes the same fraction of its mass.  Vectors come
in two representations with identical semantics:

* dense — a contiguous float array per vertex, one slot per tracked origin,
  updated with plain array arithmetic (data-parallel friendly); NumPy is
  imported when the first dense engine is built;
* sparse — a dict per vertex from origin slot to amount, updated in place;
  a snapshot lists its entries sorted by origin.

A sparse engine holds one bank of vectors, or under a window of W
interactions two banks, odd and even, that both take every update.  After
interaction n, a multiple of W, one bank is reset to ``{UNKNOWN: |B_v|}``
for every v: the odd bank at odd multiples, the even bank at even ones.
Snapshots read the least recently reset bank, so mass born within the last
W interactions is attributed to its true origin.

Entries whose amount falls to the dust threshold (``epsilon``) are dropped
from sparse vectors.  When a scope, budget or window is set the dropped mass
is folded into the UNKNOWN entry; otherwise it is only tracked as a
per-vertex diagnostic.
"""

from __future__ import annotations

from typing import Sequence

from .core import UNKNOWN, ConfigError, EngineBase, Interaction, Policy

SparseVec = dict  # dict[int, float]: origin slot -> amount


def densify(entries: Sequence[tuple[int, float]], n_slots: int) -> list[float]:
    """Expand a sparse vector to a dense amount list (UNKNOWN excluded)."""
    out = [0.0] * n_slots
    for o, amt in entries:
        if o != UNKNOWN:
            out[o] += amt
    return out


class ProportionalDenseEngine(EngineBase):
    """Proportional policy over dense per-vertex provenance arrays."""

    policy = Policy.PROP_DENSE

    def __init__(self, n_vertices: int, scope=None, epsilon: float = 1e-9) -> None:
        import numpy as np

        super().__init__(n_vertices, epsilon)
        self.scope = scope
        self.n_slots = scope.n_slots if scope is not None else n_vertices
        self._slot_of = scope.slot_of if scope is not None else list(range(n_vertices))
        self.vectors = np.zeros((n_vertices, self.n_slots), dtype=np.float64)
        self.entries = n_vertices * self.n_slots
        self.peak_entries = self.entries

    def process(self, r: Interaction) -> None:
        s, d, _, rq = r
        bs = self.totals[s]
        vs = self.vectors[s]
        vd = self.vectors[d]
        if rq >= bs - self.epsilon:
            moved = vs.copy()
            vs[:] = 0.0
            vd += moved
            newborn = rq - bs
            if newborn > 0.0:
                vd[self._slot_of[s]] += newborn
        else:
            alpha = rq / bs
            slice_ = vs * alpha
            vs -= slice_
            vd += slice_
        self._settle(s, d, rq)

    def snapshot(self, v: int) -> list[tuple[int, float]]:
        """Nonzero components of the vertex's provenance vector."""
        if not 0 <= v < self.n_vertices:
            return []
        row = self.vectors[v]
        return [(int(i), float(row[i])) for i in row.nonzero()[0]]


class ProportionalSparseEngine(EngineBase):
    """Proportional policy over sparse origin→amount provenance maps."""

    policy = Policy.PROP_SPARSE

    def __init__(
        self, n_vertices: int, scope=None, epsilon: float = 1e-9, budget=None, window=None
    ) -> None:
        super().__init__(n_vertices, epsilon)
        if window is not None:
            if window < 1:
                raise ConfigError("window must be a positive interaction count")
            if scope is not None or budget is not None:
                raise ConfigError("selective/grouped, window and budget are mutually exclusive")
        self.scope = scope
        self.budget = budget
        self.window = window
        self._slot_of = scope.slot_of if scope is not None else list(range(n_vertices))
        self._fold_dust = scope is not None or budget is not None or window is not None
        # a window resets bank 0 (odd) at odd multiples of W, bank 1 (even) at even ones
        self.banks: list[list[SparseVec]] = [
            [{} for _ in range(n_vertices)] for _ in range(1 if window is None else 2)
        ]
        self.reset_at = [0] * len(self.banks)  # interaction count at each bank's last reset
        self.dropped = [0.0] * n_vertices
        self.shrinks = [0] * n_vertices

    def process(self, r: Interaction) -> None:
        s, d, _, rq = r
        slot_source = self._slot_of[s]
        source_total = self.totals[s]
        for vectors in self.banks:
            self.entries += _transfer(
                vectors, self.dropped, r, slot_source, source_total, self.epsilon, self._fold_dust
            )
        budget = self.budget
        if budget is not None and len(self.banks[0][d]) > budget.capacity:
            vectors = self.banks[0]  # a budget excludes a window: one bank
            vd = vectors[d]
            vectors[d] = dict(budget.shrink(vd.items()))
            self.entries += len(vectors[d]) - len(vd)
            self.shrinks[d] += 1
        if self.entries > self.peak_entries:
            self.peak_entries = self.entries
        self._settle(s, d, rq)
        window = self.window
        if window is not None and self.interactions_processed % window == 0:
            # every vertex keeps its whole total, as UNKNOWN mass, in the reset
            # bank; UNKNOWN is exempt from dust, so sub-epsilon totals stay too
            b = self._oldest_bank()
            bank = self.banks[b]
            freed = sum(len(vec) for vec in bank)
            kept = 0
            for v, total in enumerate(self.totals):
                bank[v] = {UNKNOWN: total} if total > 0.0 else {}
                kept += len(bank[v])
            self.entries += kept - freed
            if self.entries > self.peak_entries:
                self.peak_entries = self.entries
            self.reset_at[b] = self.interactions_processed

    def _oldest_bank(self) -> int:
        """The least recently reset bank: snapshots read it, and it is reset next."""
        reset_at = self.reset_at
        return reset_at.index(min(reset_at))

    def snapshot(self, v: int) -> list[tuple[int, float]]:
        """The vertex's entries (origin, amount) in the bank snapshots read, sorted by origin."""
        if not 0 <= v < self.n_vertices:
            return []
        return sorted(self.banks[self._oldest_bank()][v].items())

    def total_dropped(self) -> float:
        return sum(self.dropped)


def _transfer(
    vectors: list[SparseVec],
    dropped: list[float],
    r: Interaction,
    slot_source: int,
    source_total: float,
    epsilon: float,
    fold_dust: bool,
) -> int:
    """Apply one interaction to a bank of sparse vectors; see module doc.

    Returns the change in the number of entries the bank holds.
    """
    s, d, _, rq = r
    vs = vectors[s]
    before = len(vs) + len(vectors[d]) if d != s else len(vs)
    if rq >= source_total - epsilon:
        vectors[s] = {}
        newborn = rq - source_total
        if newborn > 0.0:
            q = vs.get(slot_source, 0.0) + newborn
            if q > epsilon:
                vs[slot_source] = q
            else:
                _dust(vs, q, dropped, d, fold_dust)
        vd = vectors[d]
        for o, q in vs.items():
            vd[o] = vd.get(o, 0.0) + q
    else:
        alpha = rq / source_total
        keep = 1.0 - alpha
        residual: SparseVec = {}
        dust = 0.0
        for o, q in vs.items():
            q *= keep
            if q > epsilon or o == UNKNOWN:
                residual[o] = q
            else:
                dust += q
        _dust(residual, dust, dropped, s, fold_dust)
        vectors[s] = residual
        vd = vectors[d]  # the residual itself on a self-interaction
        dust = 0.0
        for o, q in vs.items():
            q = vd.get(o, 0.0) + q * alpha
            if q > epsilon or o == UNKNOWN:
                vd[o] = q
            else:
                dust += q
        _dust(vd, dust, dropped, d, fold_dust)
    # vd is vectors[d], and vectors[s] too on a self-interaction
    return (len(vectors[s]) + len(vd) if d != s else len(vd)) - before


def _dust(vec: SparseVec, mass: float, dropped: list[float], v: int, fold_dust: bool) -> None:
    """Fold dust into the vector's UNKNOWN entry, or book it as dropped at ``v``."""
    if not fold_dust:
        dropped[v] += mass
    elif mass > 0.0:
        vec[UNKNOWN] = vec.get(UNKNOWN, 0.0) + mass
