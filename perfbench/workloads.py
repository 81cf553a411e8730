"""Benchmark workloads: the seeded input generator and the output checks.

The generator is the benchmark's own, not ``tinprov.synth``, so a change to
the package cannot change the inputs it is measured on.  It uses only
``random.Random.random()``, whose stream is fixed across Python versions.
Quantities are integers, so every element-policy sum below is exact.
"""

from __future__ import annotations

import csv
import hashlib
import os
import random
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

#: share of hub-shaped interactions that have vertex 0 as one endpoint
HUB_BIAS = 0.75
MAX_QUANTITY = 100
#: the CLI's default dust threshold; vertices at or below it are not emitted
EPSILON = 1e-9
#: relative tolerance for proportional sums, which are not exact
PROP_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str  # "uniform" or "hub"
    vertices: int
    interactions: int
    policy: str
    paths: bool = False

    @property
    def exact(self) -> bool:
        return not self.policy.startswith("prop")

    def cli_args(self, input_path: Path, output_path: Path) -> list[str]:
        args = ["run", str(input_path), "--policy", self.policy, "-o", str(output_path)]
        return args + ["--paths"] if self.paths else args


# Sizes are the ROADMAP shapes scaled so one CLI run takes 0.5-1.5 s on a
# 2-core machine, so a 16 s run takes a median over 10 or more runs.
WORKLOADS = {
    w.name: w
    for w in (
        # bulk receipt replay, a large emit and a large parse all carry weight
        Workload("fifo-uniform", "uniform", 1_000, 80_000, "fifo"),
        # same input, no provenance: ingest dominates; bypasses every engine
        Workload("noprov-uniform", "uniform", 1_000, 80_000, "noprov"),
        # deep hub heap, stepwise process() with PathStore, path strings out
        Workload("lrb-paths-hub", "hub", 400, 24_000, "lrb", paths=True),
        # long sparse lists at the hub: sparse_merge dominates
        Workload("prop-sparse-hub", "hub", 250, 6_000, "prop-sparse"),
    )
}


def generate(shape: str, n_vertices: int, n_interactions: int, seed: int) -> list[tuple[int, int, int]]:
    """(source, dest, quantity) triples; interaction i happens at time i + 1."""
    rng = random.Random(seed)
    rand = rng.random
    out = []
    for _ in range(n_interactions):
        if shape == "hub" and rand() < HUB_BIAS:
            other = 1 + int(rand() * (n_vertices - 1))
            s, d = (0, other) if rand() < 0.5 else (other, 0)
        else:
            s = int(rand() * n_vertices)
            d = int(rand() * (n_vertices - 1))
            if d >= s:
                d += 1
        out.append((s, d, 1 + int(rand() * MAX_QUANTITY)))
    return out


def write_input(path: Path, stream: list[tuple[int, int, int]]) -> None:
    """Write the stream as CSV with v<i> labels, atomically."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(f"v{s},v{d},{i},{q}\n" for i, (s, d, q) in enumerate(stream, start=1))
    os.replace(tmp, path)


def input_file(cache_dir: Path, w: Workload, seed: int, stream) -> tuple[Path, str]:
    """Path and sha256 of the stream's input file, written on first use."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"{w.shape}-{w.vertices}-{len(stream)}-{seed}.csv"
    if not path.exists():
        write_input(path, stream)
    return path, hashlib.sha256(path.read_bytes()).hexdigest()


def baseline(stream, n_vertices: int) -> tuple[list[float], float]:
    """Per-vertex totals and cumulative newborn mass of the plain replay."""
    totals = [0.0] * n_vertices
    newborn = 0.0
    for s, d, q in stream:
        held = totals[s]
        moved = q if q < held else held
        totals[s] = held - moved
        totals[d] += q
        newborn += q - moved
    return totals, newborn


def _close(a: float, b: float, exact: bool) -> bool:
    return a == b if exact else abs(a - b) <= PROP_TOLERANCE * max(1.0, abs(b))


def check_snapshot(path: Path, w: Workload, totals: list[float], newborn: float) -> Optional[str]:
    """Describe what is wrong with a CLI snapshot file, or return None.

    Per-vertex sums must equal the baseline totals, their sum the newborn
    mass, and every route must start at its origin.
    """
    sums: dict[str, float] = defaultdict(float)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                qty = float(row["quantity"])
                if not qty > 0.0:
                    return f"non-positive quantity in {row}"
                if w.paths and row["path"].split("|")[0] != row["origin"]:
                    return f"path {row['path']} does not start at origin {row['origin']}"
                sums[row["vertex"]] += qty
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return f"unreadable snapshot: {exc!r}"
    expected = {f"v{v}": t for v, t in enumerate(totals) if t > EPSILON}
    if sums.keys() != expected.keys():
        return f"snapshot lists {len(sums)} vertices, baseline has {len(expected)}"
    for label, total in expected.items():
        if not _close(sums[label], total, w.exact):
            return f"vertex {label} holds {sums[label]!r}, baseline total is {total!r}"
    if not _close(sum(sums.values()), newborn, w.exact):
        return f"snapshot holds {sum(sums.values())!r}, newborn mass is {newborn!r}"
    return None


def _rows_by_vertex(path: Path, w: Workload) -> dict[str, list]:
    rows: dict[str, list] = defaultdict(list)
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            item = (row["origin"], float(row["quantity"]))
            rows[row["vertex"]].append(item + (row["path"],) if w.paths else item)
    return rows


def oracle_mismatch(path: Path, w: Workload, stream) -> Optional[str]:
    """Compare a CLI snapshot of ``stream`` against ``tinprov.Oracle``."""
    from tinprov import Interaction, Oracle, Policy

    oracle = Oracle(w.vertices, Policy(w.policy), track_paths=w.paths)
    oracle.run(Interaction(s, d, float(i), float(q)) for i, (s, d, q) in enumerate(stream, start=1))
    try:
        got = _rows_by_vertex(path, w)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return f"unreadable snapshot: {exc!r}"
    for v in range(w.vertices):
        label = f"v{v}"
        if oracle.totals[v] <= EPSILON:
            expected = []
        elif w.policy == "noprov":
            expected = [("", oracle.totals[v])]
        elif w.paths:
            expected = [
                (f"v{o}", q, "|".join(f"v{x}" for x in route))
                for o, q, route in oracle.snapshot_paths(v)
            ]
        else:
            expected = [(f"v{item[0]}", item[-1]) for item in oracle.snapshot(v)]
        rows = got.pop(label, [])
        if w.exact:
            if sorted(rows) != sorted(expected):
                return f"vertex {label} differs from the oracle"
            continue
        want = {o: q for o, q in expected}
        have = {o: q for o, q in rows}
        for origin in want.keys() | have.keys():
            if not _close(have.get(origin, 0.0), want.get(origin, 0.0), exact=False):
                return f"vertex {label} origin {origin} differs from the oracle"
    if got:
        return f"snapshot lists vertices the oracle does not: {sorted(got)[:3]}"
    return None
