"""Domain types, vertex interning, stream ingestion and the provenance-free
replay baseline.

A temporal interaction network is replayed as a time-ordered stream of
``Interaction`` records.  Every vertex owns a buffer; an interaction moves
quantity out of the source buffer (generating the shortfall at the source)
and into the destination buffer.  The engines in the sibling modules refine
this baseline with provenance bookkeeping; the totals they maintain must
always agree with :class:`NoProvEngine`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from math import inf, isfinite
from typing import Iterable, Optional, Sequence

logger = logging.getLogger(__name__)

#: Sentinel origin for mass whose true source has been forgotten
#: (window reset or budget eviction). Deliberately outside [0, |V|).
UNKNOWN = -1

UNKNOWN_LABEL = "<unknown>"
REST_LABEL = "<rest>"


class TinError(Exception):
    """Base class for all package errors."""


class ConfigError(TinError):
    """Invalid engine configuration (bad policy/scope combination etc.)."""


class Policy(str, Enum):
    NOPROV = "noprov"
    LEAST_RECENTLY_BORN = "lrb"
    MOST_RECENTLY_BORN = "mrb"
    FIFO = "fifo"
    LIFO = "lifo"
    PROP_DENSE = "prop-dense"
    PROP_SPARSE = "prop-sparse"


ELEMENT_POLICIES = frozenset(
    {Policy.LEAST_RECENTLY_BORN, Policy.MOST_RECENTLY_BORN, Policy.FIFO, Policy.LIFO}
)
PROPORTIONAL_POLICIES = frozenset({Policy.PROP_DENSE, Policy.PROP_SPARSE})


@dataclass(frozen=True, slots=True)
class Interaction:
    """One timestamped transfer: ``quantity`` units from ``source`` to ``dest``."""

    source: int
    dest: int
    time: float
    quantity: float


class VertexTable:
    """Bijection between external vertex labels and dense integer indices.

    Indices are assigned in first-seen order and are stable for the lifetime
    of the table.
    """

    __slots__ = ("labels", "_index")

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._index: dict[str, int] = {}

    def intern(self, label: str) -> int:
        idx = self._index.get(label)
        if idx is None:
            idx = len(self.labels)
            self._index[label] = idx
            self.labels.append(label)
        return idx

    def index_of(self, label: str) -> int:
        return self._index[label]

    def label_of(self, idx: int) -> str:
        if idx == UNKNOWN:
            return UNKNOWN_LABEL
        return self.labels[idx]

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index


@dataclass(frozen=True)
class RejectedRecord:
    """Diagnostic for an input line that could not be ingested."""

    line_no: int
    line: str
    reason: str


def _sniff_delimiter(line: str) -> str:
    return "\t" if "\t" in line else ","


def parse_stream(
    lines: Iterable[str],
    table: Optional[VertexTable] = None,
) -> tuple[VertexTable, list[Interaction], list[RejectedRecord]]:
    """Parse CSV/TSV interaction records into an interned stream.

    One interaction per line: ``source,dest,time,quantity``.  Lines starting
    with ``#`` and blank lines are ignored.  The first other line is skipped
    as a header if its time or quantity is not a number.  Records with
    unparseable or non-finite fields, a non-positive quantity or a negative
    time are skipped and reported; the rest of the stream is unaffected.
    """
    if table is None:
        table = VertexTable()
    stream: list[Interaction] = []
    rejected: list[RejectedRecord] = []
    delimiter: Optional[str] = None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        first = delimiter is None
        if first:
            delimiter = _sniff_delimiter(line)
        fields = [f.strip() for f in line.split(delimiter)]
        if len(fields) != 4:
            rejected.append(
                RejectedRecord(line_no, line, f"expected 4 fields, got {len(fields)}")
            )
            continue
        try:
            time = float(fields[2])
            quantity = float(fields[3])
        except ValueError:
            if not first:  # a header line is skipped silently
                rejected.append(RejectedRecord(line_no, line, "non-numeric time/quantity"))
            continue
        if not 0.0 < quantity < inf:
            reason = "non-finite" if not isfinite(quantity) else "non-positive"
            rejected.append(RejectedRecord(line_no, line, f"{reason} quantity {fields[3]}"))
            continue
        if not 0.0 <= time < inf:
            reason = "non-finite" if not isfinite(time) else "negative"
            rejected.append(RejectedRecord(line_no, line, f"{reason} time {fields[2]}"))
            continue
        stream.append(
            Interaction(table.intern(fields[0]), table.intern(fields[1]), time, quantity)
        )
    return table, stream, rejected


def sort_check(stream: Sequence[Interaction]) -> list[Interaction]:
    """Return the stream in nondecreasing time order.

    An already-ordered input is returned as-is (no copy).  Out-of-order input
    triggers a full stable sort (equal-time records keep their input order)
    and a warning is logged.
    """
    prev = float("-inf")
    for r in stream:
        if r.time < prev:
            logger.warning("input stream is out of time order; applying stable sort")
            return sorted(stream, key=lambda r: r.time)
        prev = r.time
    return stream if isinstance(stream, list) else list(stream)


class EngineBase:
    """Shared per-vertex total accounting (identical across all policies)."""

    policy: Policy

    def __init__(self, n_vertices: int, epsilon: float = 1e-9) -> None:
        if not (isfinite(epsilon) and epsilon >= 0):
            raise ConfigError("epsilon must be finite and non-negative")
        self.n_vertices = n_vertices
        self.epsilon = epsilon
        self.totals = [0.0] * n_vertices
        self.generated = [0.0] * n_vertices
        self.cumulative_newborn = 0.0
        self.interactions_processed = 0
        self.entries = 0
        self.peak_entries = 0

    def _settle(self, r: Interaction) -> tuple[float, float]:
        """Apply the baseline total update; returns (relayed, newborn)."""
        rq = r.quantity
        bs = self.totals[r.source]
        q = rq if rq < bs else bs
        self.totals[r.source] = bs - q
        self.totals[r.dest] += rq
        newborn = rq - q
        if newborn > 0.0:
            self.generated[r.source] += newborn
            self.cumulative_newborn += newborn
        self.interactions_processed += 1
        return q, newborn

    def process(self, r: Interaction) -> None:
        raise NotImplementedError

    def run(self, stream: Iterable[Interaction]) -> "EngineBase":
        for r in stream:
            self.process(r)
        return self

    def total(self, v: int) -> float:
        return self.totals[v]


class NoProvEngine(EngineBase):
    """Baseline replay: maintains per-vertex totals and generation only."""

    policy = Policy.NOPROV

    def process(self, r: Interaction) -> None:
        self._settle(r)

    def snapshot(self, v: int) -> list:
        return []


def generated_totals(stream: Iterable[Interaction], n_vertices: int) -> list[float]:
    """Total quantity generated by each vertex over the whole stream.

    Equals, per vertex, the sum over its outgoing interactions of the part of
    the transfer that exceeded its buffer at the time.
    """
    engine = NoProvEngine(n_vertices)
    engine.run(stream)
    return engine.generated
