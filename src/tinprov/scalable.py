"""Mechanisms that bound the cost of proportional provenance tracking.

Four independent alternatives; this module holds the specs of three:

* selective — track only k chosen origin vertices; every other origin is
  folded into one trailing "rest" slot;
* grouped — track origins at the granularity of m vertex groups;
* budget — cap every sparse vector at C entries; on overflow keep the best
  ``⌊f·C⌋`` entries and fold the evicted mass into the UNKNOWN entry.

The fourth, windowing, is the ``window`` argument of
``ProportionalSparseEngine`` (see ``tinprov.proportional``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .core import REST_LABEL, UNKNOWN, ConfigError


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
        slot_of = [k] * n_vertices
        slot_labels = []
        for slot, v in enumerate(tracked):
            if not 0 <= v < n_vertices:
                raise ConfigError(f"selective vertex {v} out of range")
            label = labels[v] if labels is not None else str(v)
            if slot_of[v] != k:
                raise ConfigError(f"selective vertex set contains duplicates (e.g. {label!r})")
            slot_of[v] = slot
            slot_labels.append(label)
        slot_labels.append(REST_LABEL)
        return cls("selective", slot_of, k + 1, slot_labels)

    @classmethod
    def grouped(
        cls,
        group_of: Mapping[int, int],
        n_vertices: int,
        group_labels: Optional[Sequence[str]] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> "ScopeMap":
        """Track origins at the granularity of groups; every vertex must be mapped.

        ``labels`` names the vertices in error messages; each defaults to its index.
        """
        slot_of = [-1] * n_vertices
        n_groups = 0
        for v, g in group_of.items():
            if not 0 <= v < n_vertices:
                raise ConfigError(f"grouped vertex {v} out of range")
            slot_of[v] = g
            n_groups = max(n_groups, g + 1)
        missing = [v for v, g in enumerate(slot_of) if g < 0]
        if missing:
            v = missing[0]
            label = labels[v] if labels is not None else str(v)
            raise ConfigError(f"group map missing {len(missing)} vertices (e.g. {label!r})")
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
