"""Benchmark of the ``tinprov run`` CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload fifo-uniform --seed 1 --seconds 20 --trace 0

The checkout that holds this directory must hold ``src/tinprov``.  With
``--trace 0`` it runs the real CLI (``python -m tinprov.cli run``, with
``src`` on ``PYTHONPATH``) as a closed loop: one client, one CLI child at a
time, the next started when the last has exited, until ``--seconds`` of CLI
time have been measured.  It reports the median CLI time and the median
import-only start-up time, both calibrated for machine speed (see
START_SHARE), the median peak RSS, and the share of failed children.
With ``--trace 1`` it alternates untraced and traced in-process calls of
``tinprov.cli.main`` and reports per-layer self times and counts from the
traced ones (see ``spans.py``).

Inputs are generated from ``--seed`` by ``workloads.py`` and cached under
``perfbench/.cache``; generation and every output check happen outside the
timed regions.  ``--workload all`` runs every workload in turn.  Each result
is also written, with the environment, under ``perfbench/.work/results``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Optional

import spans
from workloads import (
    WORKLOADS,
    Workload,
    baseline,
    check_snapshot,
    generate,
    input_file,
    oracle_mismatch,
    write_input,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"
RESULTS = HERE / ".work" / "results"

MIN_RUNS = 5
ORACLE_PREFIX = 2_000
CHILD_TIMEOUT_S = 60.0
#: a tail percentile is reported only with this many samples beyond it
TAIL_SAMPLES = 10
# The speed of a shared host drifts by up to 2x within minutes, in CPU time
# as much as in wall time, and start-up and computation drift by different
# amounts, so raw medians of runs made minutes apart do not agree.  Each
# iteration therefore runs a calibrate.py child just before its CLI child and
# its import-only child, and splits its wall time into start-up and work.
# setup_s is the median ratio of import time to calibration start-up; run_s
# is the median ratio of CLI time to a calibration time index weighted like a
# typical CLI run: START_SHARE start-up and the rest work.  Both are scaled to a
# machine on which calibrate.py starts in CALIBRATION_START_REF_S and works
# for CALIBRATION_WORK_REF_S.
CALIBRATION_INTERACTIONS = 80_000
CALIBRATION_START_REF_S = 0.2
CALIBRATION_WORK_REF_S = 0.2
START_SHARE = 0.2

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics, grouped by the end-to-end metric and workload each is
# expected to move.  Times are self times from the traced run.
PER_LAYER = {
    # run_s and peak_rss_mb on noprov-uniform (most of that run), and
    # run_s on fifo-uniform
    "core.parse_s": "s",
    "core.parse_records_per_s": "1/s",
    "core.rejected": "count",
    "core.sort_check_s": "s",
    # run_s everywhere; near zero, kept so work moved into construction shows
    "engines.build_s": "s",
    # run_s on noprov-uniform; the floor every provenance engine is held to
    "core.noprov_replay_s": "s",
    # run_s and peak_rss_mb on fifo-uniform
    "receipt.replay_s": "s",
    "receipt.us_per_interaction": "us",
    "receipt.peak_entries": "count",
    "receipt.final_entries": "count",
    # run_s on lrb-paths-hub
    "gentime.replay_s": "s",
    "gentime.us_per_interaction": "us",
    "gentime.peak_entries": "count",
    # peak_rss_mb on lrb-paths-hub
    "paths.nodes": "count",
    "paths.avg_length": "vertices",
    # run_s on prop-sparse-hub
    "proportional.replay_s": "s",
    "proportional.us_per_interaction": "us",
    "proportional.peak_entries": "count",
    "proportional.dropped_mass": "quantity",
    # run_s on fifo-uniform, lrb-paths-hub and prop-sparse-hub (large
    # snapshots); barely noprov-uniform
    "cli.snapshot_s": "s",
    "cli.emit_s": "s",
    "cli.rows": "count",
    "cli.bytes_out": "B",
    # traced wall time outside every layer span, and traced minus untraced
    "trace.uncovered_s": "s",
    "trace.overhead_s": "s",
}


class Tally:
    """Attempted and failed children or calls, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"FAILED {label}: {problem}", file=sys.stderr)


def run_child(argv: list[str], work: Path) -> tuple[float, Optional[str], float]:
    """Run ``python <argv>`` with ``src`` on the path; (wall s, problem, peak RSS MB).

    The child's standard output and error are left in ``work``.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    problem = None
    if timed_out:
        problem = f"timed out after {CHILD_TIMEOUT_S:.0f} s"
    elif proc.returncode != 0:
        tail = (work / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
        problem = f"exit code {proc.returncode}: {' '.join(tail)}"
    return elapsed, problem, usage.ru_maxrss / 1024.0


def run_cli(w: Workload, input_path: Path, out: Path, work: Path) -> tuple[float, Optional[str], float]:
    """One ``tinprov run`` child writing its snapshot to ``out``."""
    out.unlink(missing_ok=True)
    return run_child(["-m", "tinprov.cli", *w.cli_args(input_path, out)], work)


def tail_percentile(values: list[float]) -> Optional[tuple[int, float]]:
    """Highest whole percentile with at least TAIL_SAMPLES samples beyond it, if >= 50."""
    n = len(values)
    pct = int(100 * (1 - TAIL_SAMPLES / n)) if n else 0
    if pct < 50:
        return None
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def calibrate(work: Path, tally: Tally) -> tuple[float, float]:
    """Start-up and work time of a calibration child now, relative to the reference machine."""
    elapsed, problem, _ = run_child(
        [str(HERE / "calibrate.py"), str(work / "calibration.csv"), str(work / "calibration-out.csv")], work
    )
    try:
        working = float((work / "stdout.txt").read_text())
    except ValueError:
        problem = problem or "calibration printed no time"
        working = elapsed / 2
    tally.record("calibration", problem)
    return (elapsed - working) / CALIBRATION_START_REF_S, working / CALIBRATION_WORK_REF_S


def measure_cli(w, inp, expected, seconds, work, tally, lines):
    """Closed-loop CLI runs; end-to-end metrics with tracing off.

    Every iteration runs a calibration child, the CLI child and, every other
    time, an import-only child, so each ratio compares children run seconds
    apart.
    """
    write_input(work / "calibration.csv", generate("uniform", 1_000, CALIBRATION_INTERACTIONS, 0))
    run_child(["-c", "import tinprov.cli"], work)  # writes bytecode caches
    out = work / "out.csv"
    times, rss, run_ratios, setups, setup_ratios = [], [], [], [], []
    while sum(times) < seconds or len(times) < MIN_RUNS:
        start_factor, work_factor = calibrate(work, tally)
        elapsed, problem, peak = run_cli(w, inp, out, work)
        tally.record(f"{w.name} run {len(times) + 1}", problem or check_snapshot(out, w, *expected))
        times.append(elapsed)
        rss.append(peak)
        run_ratios.append(elapsed / (START_SHARE * start_factor + (1 - START_SHARE) * work_factor))
        if len(times) % 2:
            elapsed, problem, _ = run_child(["-c", "import tinprov.cli"], work)
            tally.record(f"{w.name} import {len(setups) + 1}", problem)
            setups.append(elapsed)
            setup_ratios.append(elapsed / start_factor)

    run_s = statistics.median(run_ratios)
    setup_s = statistics.median(setup_ratios)
    tail = tail_percentile(run_ratios)
    tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else f"no percentile above the median has {TAIL_SAMPLES} runs beyond it"
    lines.append(f"{w.name} run_s = {run_s:.4f} s (median of {len(times)} runs, calibrated; {tail_text}; raw median {statistics.median(times):.4f} s)")
    lines.append(f"{w.name} setup_s = {setup_s:.4f} s (median of {len(setups)} import-only children, calibrated; raw median {statistics.median(setups):.4f} s)")
    lines.append(f"{w.name} peak_rss_mb = {statistics.median(rss):.1f} MB (median; range {min(rss):.1f}-{max(rss):.1f})")
    metrics = {"run_s": run_s, "setup_s": setup_s, "peak_rss_mb": statistics.median(rss)}
    samples = {"run_raw_s": times, "run_s": run_ratios, "setup_raw_s": setups, "setup_s": setup_ratios, "peak_rss_mb": rss}
    return metrics, samples


def call_main(main, args: list[str]) -> tuple[float, Optional[str]]:
    """Call ``main(args)`` in this process, its report silenced; (wall s, problem)."""
    gc.collect()
    crash = None
    with contextlib.redirect_stderr(io.StringIO()):
        started = time.perf_counter()
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is one failed run, not the end of the benchmark
            code, crash = repr(exc), traceback.format_exc()
        elapsed = time.perf_counter() - started
    if crash is not None:
        print(crash, file=sys.stderr)
    return elapsed, None if code == 0 else f"main returned {code}"


def layer_metrics(tracer: spans.Tracer, out: Path) -> dict[str, float]:
    """Per-layer self times and counts of one traced run (overhead aside)."""
    own = spans.self_times(tracer.spans)
    m = dict.fromkeys(PER_LAYER, 0.0)
    parse = own.get("core.parse", 0.0)
    m["core.parse_s"] = parse
    m["core.parse_records_per_s"] = tracer.records / parse if parse else 0.0
    m["core.rejected"] = tracer.rejected
    m["core.sort_check_s"] = own.get("core.sort_check", 0.0)
    m["engines.build_s"] = own.get("engines.build", 0.0)

    engine = tracer.engine
    replay = spans.replay_span(engine)
    m[f"{replay}_s"] = own.get(replay, 0.0)
    family = replay.split(".")[0]
    if family != "core":
        m[f"{family}.us_per_interaction"] = 1e6 * own.get(replay, 0.0) / engine.interactions_processed
        m[f"{family}.peak_entries"] = engine.peak_entries
    if family == "receipt":
        m["receipt.final_entries"] = engine.entries
    if family == "proportional":
        m["proportional.dropped_mass"] = engine.total_dropped()
    if getattr(engine, "paths", None) is not None:
        m["paths.nodes"] = len(engine.paths)
        m["paths.avg_length"] = engine.average_path_length()

    m["cli.snapshot_s"] = own.get("cli.snapshot", 0.0)
    m["cli.emit_s"] = own.get("cli.emit", 0.0)
    with open(out, "rb") as fh:
        m["cli.rows"] = sum(1 for _ in fh) - 1  # minus the header
    m["cli.bytes_out"] = out.stat().st_size
    m["trace.uncovered_s"] = own.get(spans.ROOT_SPAN, 0.0)
    return m


def measure_traced(w, inp, expected, seconds, work, tally, lines, spans_path):
    """Untraced and traced in-process runs, alternating which goes first."""
    import tinprov.cli as cli

    out = work / "out.csv"
    args = w.cli_args(inp, out)
    plain, traced = [], []
    samples = defaultdict(list)
    dumped: list[dict] = []

    def plain_run():
        out.unlink(missing_ok=True)
        elapsed, problem = call_main(cli.main, args)
        tally.record(f"{w.name} untraced run", problem or check_snapshot(out, w, *expected))
        plain.append(elapsed)

    def traced_run():
        out.unlink(missing_ok=True)
        tracer = spans.Tracer()
        with tracer.installed(cli) as traced_main:
            elapsed, problem = call_main(traced_main, args)
        problem = problem or check_snapshot(out, w, *expected)
        tally.record(f"{w.name} traced run", problem)
        traced.append(elapsed)
        if problem is None:
            for name, value in layer_metrics(tracer, out).items():
                samples[name].append(value)
            dumped.extend(tracer.dump(run=len(traced)))

    while sum(plain) + sum(traced) < seconds:
        for step in (plain_run, traced_run) if len(plain) % 2 == 0 else (traced_run, plain_run):
            step()

    spans_path.write_text(json.dumps(dumped))
    n = len(samples["cli.rows"])
    lines.append(f"{w.name}: {n} traced runs; times are self times (median), spans in {spans_path}")
    metrics = {name: statistics.median(samples[name]) if n else 0.0 for name in PER_LAYER}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    for name, value in metrics.items():
        lines.append(f"{w.name} {name} = {value:.6g} {PER_LAYER[name]}")
    return metrics, {**samples, "untraced_s": plain, "traced_s": traced}


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    from tinprov import _kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_kernels": _kernels.AVAILABLE,
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": git_commit(),
    }


def bench(w: Workload, seed: int, seconds: float, trace: bool, work: Path, tally: Tally, env: dict) -> dict[str, float]:
    """Prepare, check against the oracle, and measure one workload."""
    lines: list[str] = []
    attempted, failed = tally.attempted, tally.failed
    started = time.perf_counter()
    stream = generate(w.shape, w.vertices, w.interactions, seed)
    prefix = stream[:ORACLE_PREFIX]
    inp, digest = input_file(CACHE, w, seed, stream)
    prefix_path, _ = input_file(CACHE, w, seed, prefix)
    expected = baseline(stream, w.vertices)
    lines.append(
        f"input {w.name}: {w.shape} {w.vertices} vertices x {w.interactions} interactions, "
        f"seed {seed}, sha256 {digest} ({time.perf_counter() - started:.2f} s to prepare, not measured)"
    )

    out = work / "out.csv"
    _, problem, _ = run_cli(w, prefix_path, out, work)
    problem = problem or oracle_mismatch(out, w, prefix)
    tally.record(f"{w.name} oracle check", problem)
    lines.append(f"oracle {w.name}: first {len(prefix)} interactions {'differ' if problem else 'match'}")

    stamp = f"{w.name}-seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    if trace:
        metrics, samples = measure_traced(w, inp, expected, seconds, work, tally, lines, RESULTS / f"spans-{stamp}.json")
    else:
        metrics, samples = measure_cli(w, inp, expected, seconds, work, tally, lines)
    attempted, failed = tally.attempted - attempted, tally.failed - failed
    lines.append(f"{w.name} failed_runs = {failed / attempted:.4f} share ({failed} of {attempted} children or calls)")
    record = {"workload": w.name, "trace": trace, "input_sha256": digest, "env": env, "metrics": metrics, "samples": samples}
    (RESULTS / f"result-{stamp}.json").write_text(json.dumps(record, indent=1))
    print("\n".join(lines), flush=True)
    return metrics


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tinprov" / "cli.py").is_file():
        print(f"no tinprov package under {SRC}; run from a tinprov checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RESULTS.mkdir(parents=True, exist_ok=True)
    env = environment(args.seed)
    print("env " + json.dumps(env), flush=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    tally = Tally()
    metrics = {}
    work = HERE / ".work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            got = bench(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), work, tally, env)
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in got.items()})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
