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
import re
from dataclasses import dataclass
from enum import Enum
from itertools import chain, count, islice, repeat
from math import inf, isfinite
from typing import Iterable, NamedTuple, Optional, Sequence

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


class Interaction(NamedTuple):
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

    def intern_all(self, labels: Iterable[str]) -> None:
        """Intern every label in ``labels``, new ones in first-seen order."""
        index = self._index
        new = [label for label in dict.fromkeys(labels) if label not in index]
        index.update(zip(new, count(len(self.labels))))
        self.labels += new

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


#: lines per chunk of ``parse_stream``; bounds the memory a chunk holds
CHUNK_LINES = 8192

#: one line the bulk pass may take: four comma-separated fields, none holding
#: ``#`` or whitespace that ``str.strip`` would remove, and a final newline
_PLAIN_LINE = re.compile(r"[^,#\s]*,[^,#\s]*,[^,#\s]*,[^,#\s]*\n")


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

    Lines are read ``CHUNK_LINES`` at a time.  A chunk of plain records (every
    line four comma-separated fields and a newline, with no ``#``, no
    whitespace inside and every value accepted) is parsed in one bulk pass
    over the whole chunk.  Any other chunk, and every chunk once the input has
    been sniffed as TSV, goes through the per-line parser, which alone names
    rejected records; both give the same result.
    """
    if table is None:
        table = VertexTable()
    stream: list[Interaction] = []
    rejected: list[RejectedRecord] = []
    delimiter: Optional[str] = None
    lines = iter(lines)
    line_no = 0
    while chunk := list(islice(lines, CHUNK_LINES)):
        if delimiter != "\t" and _parse_plain(chunk, table, stream):
            delimiter = ","
        else:
            delimiter = _parse_lines(chunk, line_no, delimiter, table, stream, rejected)
        line_no += len(chunk)
    return table, stream, rejected


def _parse_plain(chunk: list[str], table: VertexTable, stream: list[Interaction]) -> bool:
    """Bulk-parse a chunk of plain records onto ``stream``.

    Returns False, having changed nothing, when the chunk is not all plain
    records.  Field by field, a plain line parses as ``_parse_lines`` parses it.
    """
    if not all(map(_PLAIN_LINE.fullmatch, chunk)):
        return False
    fields = "".join(chunk).replace("\n", ",").split(",")
    fields.pop()  # the empty field after the last newline
    try:
        times = list(map(float, fields[2::4]))
        quantities = list(map(float, fields[3::4]))
    except ValueError:
        return False
    # a sum is finite only if every term is; one that overflows is sent to
    # the per-line parser, which accepts it
    if not (
        isfinite(sum(quantities)) and min(quantities) > 0.0
        and isfinite(sum(times)) and min(times) >= 0.0
    ):
        return False
    sources, dests = fields[0::4], fields[1::4]
    table.intern_all(chain.from_iterable(zip(sources, dests)))
    index = table._index.__getitem__
    columns = zip(map(index, sources), map(index, dests), times, quantities)
    # tuple.__new__ builds each record in C; calling Interaction would run
    # the Python-level __new__ of a NamedTuple once per record
    stream += map(tuple.__new__, repeat(Interaction), columns)
    return True


def _parse_lines(
    lines: Iterable[str],
    line_no: int,
    delimiter: Optional[str],
    table: VertexTable,
    stream: list[Interaction],
    rejected: list[RejectedRecord],
) -> Optional[str]:
    """Parse ``lines``, numbered from ``line_no + 1``, one at a time.

    ``delimiter`` is None until the first record line has been seen.
    Returns the delimiter after these lines.
    """
    for line_no, raw in enumerate(lines, start=line_no + 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        first = delimiter is None
        if first:
            delimiter = "\t" if "\t" in line else ","
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
    return delimiter


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


def vertex_error(n_vertices: int) -> IndexError:
    """The error for a record whose source or dest is outside ``[0, n_vertices)``."""
    return IndexError(f"vertex index not an integer in [0, {n_vertices})")


class EngineBase:
    """Shared per-vertex total accounting (identical across all policies)."""

    policy: Policy
    #: how run() replayed: "compiled" (a C kernel) or "python"
    backend = "python"

    def __init__(self, n_vertices: int, epsilon: float = 1e-9) -> None:
        if n_vertices < 0:
            raise ConfigError(f"n_vertices must be non-negative, not {n_vertices}")
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

    def _settle(self, s: int, d: int, rq: float) -> None:
        """Apply the baseline total update for ``rq`` units from ``s`` to ``d``.

        Callers pass fields they have unpacked: reading an ``Interaction``
        costs more than reading locals.  A vertex outside ``[0, n_vertices)``
        raises IndexError before anything changes: a list takes -1 as its last
        item, and an index past the end fails at the first read.
        """
        if s < 0 or d < 0:
            raise vertex_error(self.n_vertices)
        totals = self.totals
        bs = totals[s]
        totals[d]  # read before the first write
        q = rq if rq < bs else bs
        totals[s] = bs - q
        totals[d] += rq
        newborn = rq - q
        if newborn > 0.0:
            self.generated[s] += newborn
            self.cumulative_newborn += newborn
        self.interactions_processed += 1

    def process(self, r: Interaction) -> None:
        raise NotImplementedError

    def run(self, stream: Iterable[Interaction]) -> "EngineBase":
        for r in stream:
            self.process(r)
        return self


class NoProvEngine(EngineBase):
    """Baseline replay: maintains per-vertex totals and generation only."""

    policy = Policy.NOPROV

    def process(self, r: Interaction) -> None:
        s, d, _, rq = r
        self._settle(s, d, rq)

    def run(self, stream: Iterable[Interaction]) -> "NoProvEngine":
        """Replay a whole stream, as repeated process() calls would."""
        settle = self._settle
        for s, d, _, rq in stream:
            settle(s, d, rq)
        return self

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
