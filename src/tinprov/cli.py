"""Command-line front end: replay, snapshot reports, alerts, stream synthesis."""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from math import isfinite
from typing import Optional, Sequence, TextIO

from .alerts import alert_scan
from .core import (
    PROPORTIONAL_POLICIES,
    UNKNOWN_LABEL,
    ConfigError,
    Policy,
    VertexTable,
    generated_totals,
    parse_stream,
    sort_check,
)
from .engines import EngineConfig, build_engine
from .report import build_report
from .scalable import BudgetSpec, ScopeMap
from .synth import SHAPES, synth_stream, write_stream


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tinprov",
        description="Replay a temporal interaction stream and track quantity provenance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="replay a stream under a selection policy")
    run.add_argument("input", help="interaction CSV/TSV file, or - for stdin")
    run.add_argument(
        "--policy",
        choices=[p.value for p in Policy],
        default=Policy.NOPROV.value,
    )
    run.add_argument("--paths", action="store_true", help="track parcel routes")
    run.add_argument("--coalesce", action="store_true", help="merge equal (origin, birth) parcels")
    run.add_argument("--selective", metavar="FILE|topk=K", help="track only selected origins")
    run.add_argument("--groups", metavar="FILE", help="CSV vertex_label,group_label map")
    run.add_argument("--window", type=int, metavar="W")
    run.add_argument("--budget", metavar="C=<int>,f=<real>")
    run.add_argument("--epsilon", type=float, default=1e-9, metavar="E")
    run.add_argument("--snapshot-at", default="end", metavar="{end|every-k=N}")
    run.add_argument("--alert-threshold", type=float, metavar="T")
    run.add_argument("--format", choices=["csv", "json"], default="csv")
    run.add_argument("--strict", action="store_true", help="fail on any rejected record")
    run.add_argument("--output", "-o", default="-", help="snapshot destination (default stdout)")
    run.add_argument("--top", type=int, metavar="N", help="only snapshot the N largest buffers")
    run.set_defaults(func=cmd_run)

    synth = sub.add_parser("synth", help="generate a synthetic interaction stream")
    synth.add_argument("output", help="destination file, or - for stdout")
    synth.add_argument("--vertices", type=int, required=True)
    synth.add_argument("--interactions", type=int, required=True)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--shape", choices=SHAPES, default="uniform")
    synth.set_defaults(func=cmd_synth)
    return parser


def _parse_budget(text: str) -> BudgetSpec:
    capacity = None
    fraction = 0.7
    for part in text.split(","):
        key, _, value = part.partition("=")
        key = key.strip().lower()
        if key == "c":
            capacity = int(value)
        elif key == "f":
            fraction = float(value)
        else:
            raise ValueError(f"unknown budget field {key!r}")
    if capacity is None:
        raise ValueError("budget needs C=<int>")
    return BudgetSpec(capacity, fraction)


def _int_option(parser, name: str, text: str, least: int) -> int:
    """``text`` as an integer of at least ``least``, or a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < least:
        parser.error(f"{name} must be an integer >= {least}, got {text!r}")
    return value


def _open(parser, path: str, mode: str = "r") -> TextIO:
    """``path`` opened as UTF-8 text, or a usage error that names it.

    Reading drops a leading byte-order mark; writing puts none.
    """
    try:
        return open(path, mode, encoding="utf-8-sig" if mode == "r" else "utf-8")
    except OSError as exc:
        parser.error(f"cannot open {path}: {exc.strerror or exc}")


def _read_lines(parser, path: str) -> list[str]:
    """The lines of the UTF-8 text file ``path``, or a usage error that names it."""
    with _open(parser, path) as fh:
        try:
            return fh.readlines()
        except UnicodeDecodeError as exc:
            parser.error(f"cannot read {path}: not valid UTF-8 ({exc.reason})")


def _load_scope(
    args, parser, topk: Optional[int], table: VertexTable, stream
) -> Optional[ScopeMap]:
    if args.selective:
        if topk is not None:
            gen = generated_totals(stream, len(table))
            ranked = sorted(range(len(table)), key=lambda v: (-gen[v], v))
            tracked = ranked[:topk]
        else:
            lines = _read_lines(parser, args.selective)
            labels = [ln.strip() for ln in lines if ln.strip() and not ln.startswith("#")]
            for label in labels:
                if label not in table:
                    raise ConfigError(f"--selective label {label!r} does not occur in the input")
            tracked = [table.index_of(label) for label in labels]
        return ScopeMap.selective(tracked, len(table), labels=table.labels)
    if args.groups:
        group_names: dict[str, int] = {}
        group_of: dict[int, int] = {}
        rows = csv.reader(_read_lines(parser, args.groups))
        for row in rows:
            if not row or row[0].startswith("#"):
                continue
            if len(row) < 2:
                raise ConfigError(
                    f"--groups line {rows.line_num}: expected vertex_label,group_label"
                )
            label, group = row[0].strip(), row[1].strip()
            gid = group_names.setdefault(group, len(group_names))
            if label in table:
                group_of[table.index_of(label)] = gid
        return ScopeMap.grouped(group_of, len(table), group_labels=list(group_names))
    return None


def _snapshot_rows(engine, table: VertexTable, scope, with_paths: bool, top: Optional[int]):
    """The snapshot's column names, and its rows as a lazy iterable of tuples.

    The columns are vertex,origin,quantity, then birth_time under lrb/mrb, or
    path (the route's vertex labels joined by ``|``) with ``--paths``.
    """
    # UNKNOWN is -1, so it picks the sentinel label appended last.
    label = [*table.labels, UNKNOWN_LABEL]
    origin = label if scope is None else [*scope.slot_labels, UNKNOWN_LABEL]
    totals = engine.totals
    vertices = [v for v in range(engine.n_vertices) if totals[v] > engine.epsilon]
    if top is not None:
        vertices = sorted(vertices, key=lambda v: -totals[v])[:top]
    fields = ("vertex", "origin", "quantity")
    if engine.policy is Policy.NOPROV:
        rows = ((label[v], "", totals[v]) for v in vertices)
    elif with_paths:
        fields += ("path",)
        rows = (
            (label[v], origin[o], q, "|".join([label[x] for x in path]))
            for v in vertices
            for o, q, path in engine.snapshot_paths(v)
        )
    elif engine.policy in (Policy.LEAST_RECENTLY_BORN, Policy.MOST_RECENTLY_BORN):
        fields += ("birth_time",)
        rows = ((label[v], origin[o], q, b) for v in vertices for o, b, q in engine.snapshot(v))
    else:
        rows = ((label[v], origin[o], q) for v in vertices for o, q in engine.snapshot(v))
    return fields, rows


def _emit(snapshot, fmt: str, out: TextIO, header: Optional[str] = None) -> None:
    """Write a ``(fields, rows)`` snapshot as CSV, or as JSON objects keyed by field."""
    fields, rows = snapshot
    if fmt == "json":
        rows = [dict(zip(fields, row)) for row in rows]
        out.write(json.dumps({"after": header, "rows": rows} if header else rows))
        out.write("\n")
        return
    if header:
        out.write(f"# {header}\n")
    writer = csv.writer(out)
    writer.writerow(fields)
    writer.writerows(rows)


def cmd_run(args, parser) -> int:
    policy = Policy(args.policy)
    try:
        budget = _parse_budget(args.budget) if args.budget else None
    except (ValueError, ConfigError) as exc:
        parser.error(f"bad --budget: {exc}")

    every_k = None
    if args.snapshot_at != "end":
        if not args.snapshot_at.startswith("every-k="):
            parser.error("--snapshot-at takes 'end' or 'every-k=N'")
        every_k = _int_option(parser, "every-k", args.snapshot_at[8:], 1)
    topk = None
    if args.selective and args.selective.startswith("topk="):
        topk = _int_option(parser, "--selective topk", args.selective[5:], 1)
    if args.top is not None and args.top < 0:
        parser.error(f"--top must be an integer >= 0, got {args.top}")
    if args.alert_threshold is not None:
        if not isfinite(args.alert_threshold):
            parser.error(f"--alert-threshold must be finite, got {args.alert_threshold}")
        if policy not in PROPORTIONAL_POLICIES:
            parser.error("--alert-threshold requires a proportional policy")
        if every_k is not None:
            parser.error("--alert-threshold cannot be combined with every-k snapshots")
    cfg = EngineConfig(
        policy=policy,
        window=args.window,
        budget=budget,
        track_paths=args.paths,
        coalesce=args.coalesce,
        epsilon=args.epsilon,
    )
    try:
        cfg.validate()  # before the input is read; build_engine checks the scope
    except ConfigError as exc:
        parser.error(str(exc))

    try:
        if args.input == "-":
            # input is UTF-8 like a named file, whatever the locale's error handler
            sys.stdin.reconfigure(encoding="utf-8-sig", errors="strict")
            table, stream, rejected = parse_stream(sys.stdin)
        else:
            with _open(parser, args.input) as fh:
                table, stream, rejected = parse_stream(fh)
    except UnicodeDecodeError as exc:
        name = "standard input" if args.input == "-" else args.input
        parser.error(f"cannot read {name}: not valid UTF-8 ({exc.reason})")
    for rec in rejected:
        print(f"line {rec.line_no}: rejected ({rec.reason}): {rec.line}", file=sys.stderr)
    if rejected and args.strict:
        print(f"{len(rejected)} record(s) rejected (strict mode)", file=sys.stderr)
        return 1
    stream = sort_check(stream)

    try:
        scope = cfg.scope = _load_scope(args, parser, topk, table, stream)
        engine = build_engine(cfg, len(table))
    except ConfigError as exc:
        parser.error(str(exc))

    out = sys.stdout if args.output == "-" else _open(parser, args.output, "w")

    def emit(header: Optional[str] = None) -> None:
        _emit(_snapshot_rows(engine, table, scope, args.paths, args.top), args.format, out, header)

    try:
        alerts = []
        started = time.perf_counter()
        if args.alert_threshold is not None:
            alerts = alert_scan(stream, engine, args.alert_threshold)
        elif every_k is not None:
            for i, r in enumerate(stream, start=1):
                engine.process(r)
                if i % every_k == 0:
                    emit(f"after interaction {i}")
        else:
            engine.run(stream)
        wall = time.perf_counter() - started
        if every_k is None:
            emit()
        elif len(stream) % every_k:
            emit(f"after interaction {len(stream)}")
        for a in alerts:
            print(
                f"alert: index={a.index} vertex={table.label_of(a.vertex)} "
                f"total={a.total:g} origins={a.contributing_origins}",
                file=sys.stderr,
            )
        print(build_report(engine, wall, alerts=len(alerts)).render(), file=sys.stderr)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_synth(args, parser) -> int:
    try:
        stream = synth_stream(args.vertices, args.interactions, args.seed, args.shape)
    except ValueError as exc:
        parser.error(str(exc))
    if args.output == "-":
        write_stream(sys.stdout, stream)
    else:
        with _open(parser, args.output, "w") as fh:
            write_stream(fh, stream)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
