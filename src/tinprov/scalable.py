"""Mechanisms that bound the cost of proportional provenance tracking.

Four independent alternatives:

* selective — track only k chosen origin vertices; every other origin is
  folded into one trailing "rest" slot;
* grouped — track origins at the granularity of m vertex groups;
* windowing — two sparse vectors per vertex with alternating resets, which
  guarantees exact attribution for mass born within the last W interactions;
* budget — cap every sparse vector at C entries; on overflow keep the best
  ``⌊f·C⌋`` entries and fold the evicted mass into the UNKNOWN entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .core import (
    REST_LABEL,
    UNKNOWN,
    ConfigError,
    EngineBase,
    Interaction,
    Policy,
)
from .proportional import SparseVec, _transfer


class ScopeMap:
    """Maps every vertex to an origin slot (selective or grouped tracking)."""

    def __init__(self, kind: str, slot_of: list[int], n_slots: int, slot_labels: list[str]):
        self.kind = kind
        self.slot_of = slot_of
        self.n_slots = n_slots
        self.slot_labels = slot_labels

    @classmethod
    def selective(
        cls,
        tracked: Sequence[int],
        n_vertices: int,
        labels: Optional[Sequence[str]] = None,
    ) -> "ScopeMap":
        """Track the given vertices individually; all others share slot k."""
        k = len(tracked)
        if k == 0:
            raise ConfigError("selective tracking needs at least one vertex")
        if len(set(tracked)) != k:
            raise ConfigError("selective vertex set contains duplicates")
        slot_of = [k] * n_vertices
        slot_labels = []
        for slot, v in enumerate(tracked):
            if not 0 <= v < n_vertices:
                raise ConfigError(f"selective vertex {v} out of range")
            slot_of[v] = slot
            slot_labels.append(labels[v] if labels is not None else str(v))
        slot_labels.append(REST_LABEL)
        return cls("selective", slot_of, k + 1, slot_labels)

    @classmethod
    def grouped(
        cls,
        group_of: Mapping[int, int],
        n_vertices: int,
        group_labels: Optional[Sequence[str]] = None,
    ) -> "ScopeMap":
        """Track origins at the granularity of groups; every vertex must be mapped."""
        slot_of = [-1] * n_vertices
        n_groups = 0
        for v, g in group_of.items():
            if not 0 <= v < n_vertices:
                raise ConfigError(f"grouped vertex {v} out of range")
            slot_of[v] = g
            n_groups = max(n_groups, g + 1)
        missing = [v for v, g in enumerate(slot_of) if g < 0]
        if missing:
            raise ConfigError(f"group map missing {len(missing)} vertices (e.g. {missing[0]})")
        if group_labels is None:
            group_labels = [f"g{i}" for i in range(n_groups)]
        return cls("grouped", slot_of, n_groups, list(group_labels))


@dataclass
class BudgetSpec:
    """Per-vertex capacity for sparse provenance vectors.

    On overflow, ``⌊keep_fraction·capacity⌋`` real entries are retained (the
    UNKNOWN entry is always kept on top of that) and the evicted mass moves
    to UNKNOWN.  Entries are kept either by largest amount (default) or by an
    explicit origin priority ranking (lower rank kept first).
    """

    capacity: int
    keep_fraction: float = 0.7
    priority: Optional[Mapping[int, int]] = None

    def __post_init__(self) -> None:
        if self.capacity < 2:
            raise ConfigError("budget capacity must hold one real entry plus UNKNOWN")
        if not 0.0 < self.keep_fraction < 1.0:
            raise ConfigError("keep fraction must be in (0, 1)")

    def shrink(self, entries: Iterable[tuple[int, float]]) -> list[tuple[int, float]]:
        """Cut over-capacity pairs down to a sorted list; total mass is preserved exactly."""
        unknown_mass = 0.0
        real: list[tuple[int, float]] = []
        for o, q in entries:
            if o == UNKNOWN:
                unknown_mass += q
            else:
                real.append((o, q))
        keep = math.floor(self.keep_fraction * self.capacity)
        if self.priority is not None:
            ranked = sorted(real, key=lambda e: (self.priority.get(e[0], math.inf), e[0]))
        else:
            # largest amount first, smaller origin index on ties
            ranked = sorted(real, key=lambda e: (-e[1], e[0]))
        kept = ranked[:keep]
        unknown_mass += sum(q for _, q in ranked[keep:])
        out = sorted(kept)
        if unknown_mass > 0.0:
            out.insert(0, (UNKNOWN, unknown_mass))
        return out


def budget_shrink(
    p: Sequence[tuple[int, float]],
    new_entries: Sequence[tuple[int, float]],
    spec: BudgetSpec,
) -> list[tuple[int, float]]:
    """Merge new entries into a sparse vector under a capacity budget.

    A merge that fits within the capacity is returned sorted by origin;
    otherwise the result is shrunk per the spec's keep criterion.
    """
    merged = dict(p)
    for o, q in new_entries:
        merged[o] = merged.get(o, 0.0) + q
    if len(merged) <= spec.capacity:
        return sorted(merged.items())
    return spec.shrink(merged.items())


class WindowedProportionalEngine(EngineBase):
    """Sparse proportional tracking with the odd/even double-vector scheme.

    Both vector banks receive every update.  After interaction number n (a
    multiple of W) one bank is reset to ``{UNKNOWN: |B_v|}`` for all v: the
    odd bank at odd multiples of W, the even bank at even multiples.  Queries
    are served from the least recently reset bank, so mass born within the
    last W interactions is always attributed to its true origin.
    """

    policy = Policy.PROP_SPARSE

    def __init__(self, n_vertices: int, window: int, epsilon: float = 1e-9) -> None:
        super().__init__(n_vertices, epsilon)
        if window < 1:
            raise ConfigError("window must be a positive interaction count")
        self.window = window
        self.odd: list[SparseVec] = [{} for _ in range(n_vertices)]
        self.even: list[SparseVec] = [{} for _ in range(n_vertices)]
        self.dropped = [0.0] * n_vertices
        self.counter = 0
        self._odd_reset_at = 0
        self._even_reset_at = 0

    def process(self, r: Interaction) -> None:
        s, d, _, rq = r
        touched = {s, d}
        before = sum(len(self.odd[v]) + len(self.even[v]) for v in touched)
        bs = self.totals[s]
        _transfer(self.odd, self.dropped, r, s, bs, self.epsilon, True)
        _transfer(self.even, self.dropped, r, s, bs, self.epsilon, True)
        self._settle(s, d, rq)
        self.entries += sum(len(self.odd[v]) + len(self.even[v]) for v in touched) - before
        if self.entries > self.peak_entries:
            self.peak_entries = self.entries
        self.counter += 1
        if self.counter % self.window == 0:
            multiple = self.counter // self.window
            bank = self.odd if multiple % 2 == 1 else self.even
            freed = sum(len(x) for x in bank)
            kept = 0
            for v in range(self.n_vertices):
                total = self.totals[v]
                bank[v] = {UNKNOWN: total} if total > self.epsilon else {}
                kept += len(bank[v])
            self.entries += kept - freed
            if multiple % 2 == 1:
                self._odd_reset_at = self.counter
            else:
                self._even_reset_at = self.counter

    def query(self, v: int) -> list[tuple[int, float]]:
        """Provenance entries from the least recently reset vector bank, sorted by origin."""
        if not 0 <= v < self.n_vertices:
            return []
        if self._odd_reset_at <= self._even_reset_at:
            return sorted(self.odd[v].items())
        return sorted(self.even[v].items())

    snapshot = query

    def total_dropped(self) -> float:
        return sum(self.dropped)
