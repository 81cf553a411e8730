"""Layer spans for a traced in-process ``tinprov.cli.main`` run.

The tracer wraps, from outside the package, the layer entry points that
``tinprov.cli`` calls: ``parse_stream``, ``sort_check``, ``build_engine``,
``_emit``, and the built engine's ``run``, ``snapshot`` and
``snapshot_paths``.  Each call becomes a span (name, start, end, parent)
kept in memory; the caller writes them out when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

# engine module -> span name of its replay
_REPLAY_SPAN = {
    "tinprov.core": "core.noprov_replay",
    "tinprov.receipt": "receipt.replay",
    "tinprov.gentime": "gentime.replay",
    "tinprov.proportional": "proportional.replay",
}
ROOT_SPAN = "cli.main"


def replay_span(engine) -> str:
    return _REPLAY_SPAN[type(engine).__module__]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.records = 0
        self.rejected = 0
        self.engine = None
        self._open: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self.spans.append(span)
            self._open.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _parsed(self, result) -> None:
        _, stream, rejected = result
        self.records = len(stream)
        self.rejected = len(rejected)

    def _built(self, engine) -> None:
        self.engine = engine
        engine.run = self.wrap(replay_span(engine), engine.run)
        engine.snapshot = self.wrap("cli.snapshot", engine.snapshot)
        if hasattr(engine, "snapshot_paths"):
            engine.snapshot_paths = self.wrap("cli.snapshot", engine.snapshot_paths)

    @contextlib.contextmanager
    def installed(self, cli):
        """Patch the layer entry points in the ``tinprov.cli`` module."""
        patches = {
            "parse_stream": self.wrap("core.parse", cli.parse_stream, self._parsed),
            "sort_check": self.wrap("core.sort_check", cli.sort_check),
            "build_engine": self.wrap("engines.build", cli.build_engine, self._built),
            "_emit": self.wrap("cli.emit", cli._emit),
        }
        saved = {attr: getattr(cli, attr) for attr in patches}
        for attr, fn in patches.items():
            setattr(cli, attr, fn)
        try:
            yield self.wrap(ROOT_SPAN, cli.main)
        finally:
            for attr, fn in saved.items():
                setattr(cli, attr, fn)

    def dump(self, run: int) -> list[dict]:
        return [
            {"run": run, "name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans
        ]


def self_times(spans: list[list]) -> dict[str, float]:
    """Summed self time per span name: duration minus direct children's.

    Children of one span never overlap (the traced program is sequential),
    so the part of a span they cover is the sum of their durations.
    """
    covered = defaultdict(float)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += end - start - covered[i]
    return dict(out)
