"""Run statistics emitted after a replay."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class RunReport:
    interactions: int
    wall_time_s: float
    peak_entries: int
    backend: str = "python"
    dropped_dust: float = 0.0
    shrink_avg: Optional[float] = None
    shrink_pct: Optional[float] = None
    avg_path_length: Optional[float] = None
    promoted_rows: Optional[int] = None
    alerts: int = 0

    def render(self) -> str:
        lines = [
            f"interactions: {self.interactions}",
            f"wall_time_s: {self.wall_time_s:.6f}",
            f"peak_entries: {self.peak_entries}",
            f"dropped_dust: {self.dropped_dust:.12g}",
            f"backend: {self.backend}",
        ]
        if self.shrink_avg is not None:
            lines.append(f"shrink_avg: {self.shrink_avg:.6g}")
        if self.shrink_pct is not None:
            lines.append(f"shrink_pct: {self.shrink_pct:.6g}")
        if self.avg_path_length is not None:
            lines.append(f"avg_path_length: {self.avg_path_length:.6g}")
        if self.promoted_rows is not None:
            lines.append(f"promoted_rows: {self.promoted_rows}")
        lines.append(f"alerts: {self.alerts}")
        return "\n".join(lines)


def build_report(engine, wall_time_s: float, alerts: int = 0) -> RunReport:
    """Derive the report statistics from a finished engine."""
    report = RunReport(
        interactions=engine.interactions_processed,
        wall_time_s=wall_time_s,
        peak_entries=engine.peak_entries,
        backend=engine.backend,
        promoted_rows=getattr(engine, "promoted_rows", None),
        alerts=alerts,
    )
    dropped = getattr(engine, "dropped", None)
    if dropped is not None:
        report.dropped_dust = sum(dropped)
    shrinks = getattr(engine, "shrinks", None)
    if shrinks is not None and getattr(engine, "budget", None) is not None:
        eps = engine.epsilon
        nonempty = [v for v in range(engine.n_vertices) if engine.totals[v] > eps]
        if nonempty:
            report.shrink_avg = sum(shrinks[v] for v in nonempty) / len(nonempty)
            report.shrink_pct = (
                100.0 * sum(1 for v in nonempty if shrinks[v] > 0) / len(nonempty)
            )
        else:
            report.shrink_avg = 0.0
            report.shrink_pct = 0.0
    if getattr(engine, "paths", None) is not None:
        report.avg_path_length = engine.average_path_length()
    return report
