"""Fixed job that gauges how fast the machine runs a CLI-shaped program now.

    python3 perfbench/calibrate.py INPUT.csv OUTPUT.csv

Like ``tinprov run`` it starts an interpreter, imports NumPy, parses an
interaction CSV, replays per-vertex totals and writes CSV rows, but it uses
no tinprov code, so its time depends on the machine and never on the program
under test.  It prints the seconds spent after start-up, so the caller can
split its wall time into start-up and work.
"""

import csv
import sys
import time

import numpy  # noqa: F401  imported for its start-up cost, as the CLI does


def main(src: str, dst: str) -> None:
    index: dict[str, int] = {}
    rows = []
    with open(src, encoding="utf-8") as fh:
        for line in fh:
            a, b, t, q = line.strip().split(",")
            rows.append((index.setdefault(a, len(index)), index.setdefault(b, len(index)), float(t), float(q)))
    totals = [0.0] * len(index)
    for s, d, _, q in rows:
        held = totals[s]
        moved = q if q < held else held
        totals[s] = held - moved
        totals[d] += q
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for s, d, t, q in rows:
            writer.writerow((s, d, t, repr(totals[s] + q)))


if __name__ == "__main__":
    started = time.perf_counter()
    main(sys.argv[1], sys.argv[2])
    print(time.perf_counter() - started)
