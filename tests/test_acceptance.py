"""Acceptance gate: twelve checked criteria plus one documented scope note.

Each test prints a single PASS/FAIL line for its criterion (visible with
``pytest -s`` or in the captured output of a failing run).
"""

import functools
import time

import pytest
from conftest import EXAMPLE, multiset, prop_dense, rand_stream
from test_gentime import OLDEST_FIRST_ROWS
from test_proportional import TABLE_ROWS, exact_replay
from test_receipt import LIFO_ROWS

from tinprov import (
    UNKNOWN,
    BudgetSpec,
    GenTimeEngine,
    Interaction,
    NoProvEngine,
    Oracle,
    Policy,
    ProportionalSparseEngine,
    ReceiptEngine,
    build_report,
    densify,
    synth_stream,
)
from tinprov import _kernels

NEWBORN_BY_ROW = [3.0, 2.0, 0.0, 4.0, 0.0, 0.0]
TOTALS_BY_ROW = [
    [0.0, 0.0, 3.0],
    [5.0, 0.0, 0.0],
    [2.0, 3.0, 0.0],
    [2.0, 0.0, 7.0],
    [2.0, 2.0, 5.0],
    [3.0, 2.0, 4.0],
]


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d}: FAIL  {description}")
                raise
            print(f"criterion {number:2d}: PASS  {description}")
            return result

        return wrapper

    return decorate


@criterion(1, "baseline totals and newborn annotations on the running example")
def test_criterion_1_baseline_totals():
    started = time.perf_counter()
    NoProvEngine(3).run(EXAMPLE)
    elapsed = time.perf_counter() - started
    e = NoProvEngine(3)
    newborn_seen = 0.0
    for r, totals, newborn in zip(EXAMPLE, TOTALS_BY_ROW, NEWBORN_BY_ROW):
        e.process(r)
        assert e.totals == totals
        assert e.cumulative_newborn - newborn_seen == newborn
        newborn_seen = e.cumulative_newborn
    assert elapsed < 1e-3


@criterion(2, "oldest-first buffer sets on the running example")
def test_criterion_2_oldest_first_buffers():
    started = time.perf_counter()
    GenTimeEngine(3).run(EXAMPLE)
    elapsed = time.perf_counter() - started
    e = GenTimeEngine(3)
    for r, row in zip(EXAMPLE, OLDEST_FIRST_ROWS):
        e.process(r)
        assert [multiset(e.snapshot(v)) for v in range(3)] == [sorted(x) for x in row]
    assert elapsed < 1e-3


@criterion(3, "last-receipt buffer multisets on the running example")
def test_criterion_3_lifo_buffers():
    started = time.perf_counter()
    ReceiptEngine(3, lifo=True).run(EXAMPLE)
    elapsed = time.perf_counter() - started
    e = ReceiptEngine(3, lifo=True)
    for r, row in zip(EXAMPLE, LIFO_ROWS):
        e.process(r)
        assert [multiset(e.snapshot(v)) for v in range(3)] == [sorted(x) for x in row]
    assert elapsed < 1e-3


@criterion(4, "proportional vectors on the running example (0.01 / 1e-9)")
def test_criterion_4_proportional_vectors():
    e = prop_dense(3)
    for i, (r, row) in enumerate(zip(EXAMPLE, TABLE_ROWS), start=1):
        e.process(r)
        exact = exact_replay(EXAMPLE[:i], 3)
        for v in range(3):
            got = densify(e.snapshot(v), 3)
            assert got == pytest.approx([float(x) for x in row[v]], abs=0.01)
            assert got == pytest.approx([float(x) for x in exact[v]], abs=1e-9)


@criterion(5, "budget shrink worked example")
def test_criterion_5_budget_shrink():
    v, u, w, x, y, z = range(6)
    merged = {v: 1.0, u: 3.0, w: 2.0, z: 1.0}
    for o, q in [(x, 2.0), (w, 1.0), (y, 4.0)]:
        merged[o] = merged.get(o, 0.0) + q
    shrunk = BudgetSpec(5, 0.6).shrink(merged.items())
    assert sorted(shrunk) == sorted([(UNKNOWN, 4.0), (u, 3.0), (w, 3.0), (y, 4.0)])


@criterion(6, "dense/sparse agreement on 100 random streams (1e-6, <10s)")
def test_criterion_6_dense_sparse_equivalence():
    streams = [rand_stream(30, 500, seed) for seed in range(100)]
    elapsed = 0.0
    for stream in streams:
        dense = prop_dense(30)
        sparse = ProportionalSparseEngine(30)
        started = time.perf_counter()
        dense.run(stream)
        sparse.run(stream)
        elapsed += time.perf_counter() - started
        # untimed verification replay; only the two touched buffers change,
        # so checking those per step plus everything at the end covers all
        dense, sparse = prop_dense(30), ProportionalSparseEngine(30)
        for r in stream:
            dense.process(r)
            sparse.process(r)
            for v in {r.source, r.dest}:
                dv = densify(dense.snapshot(v), 30)
                sv = densify(sparse.snapshot(v), 30)
                assert dv == pytest.approx(sv, abs=1e-6)
        for v in range(30):
            assert densify(dense.snapshot(v), 30) == pytest.approx(
                densify(sparse.snapshot(v), 30), abs=1e-6
            )
    assert elapsed < 10.0


def _engine_oracle(policy, n):
    if policy is Policy.LEAST_RECENTLY_BORN:
        return GenTimeEngine(n), Oracle(n, policy)
    if policy is Policy.MOST_RECENTLY_BORN:
        return GenTimeEngine(n, most_recent=True), Oracle(n, policy)
    if policy is Policy.FIFO:
        return ReceiptEngine(n), Oracle(n, policy)
    if policy is Policy.LIFO:
        return ReceiptEngine(n, lifo=True), Oracle(n, policy)
    return prop_dense(n), Oracle(n, policy)


def _assert_same(policy, engine, oracle, v, n):
    if policy is Policy.PROP_DENSE:
        got = densify(engine.snapshot(v), n)
        want = densify(oracle.snapshot(v), n)
        assert got == pytest.approx(want, abs=1e-9)
    elif policy in (Policy.LEAST_RECENTLY_BORN, Policy.MOST_RECENTLY_BORN):
        assert multiset(engine.snapshot(v)) == multiset(oracle.snapshot(v))
    else:
        assert engine.snapshot(v) == oracle.snapshot(v)


ORACLE_POLICIES = [
    Policy.LEAST_RECENTLY_BORN,
    Policy.MOST_RECENTLY_BORN,
    Policy.FIFO,
    Policy.LIFO,
    Policy.PROP_DENSE,
]


@criterion(7, "engine/oracle agreement: 5 policies x 50 random streams")
def test_criterion_7_oracle_differencing():
    n = 20
    streams = [rand_stream(n, 300, seed) for seed in range(50)]
    for policy in ORACLE_POLICIES:
        for stream in streams:
            engine, oracle = _engine_oracle(policy, n)
            for r in stream:
                engine.process(r)
                oracle.process(r)
                for v in {r.source, r.dest}:
                    _assert_same(policy, engine, oracle, v, n)
            for v in range(n):
                _assert_same(policy, engine, oracle, v, n)


ALL_ENGINES = [
    lambda n: NoProvEngine(n),
    lambda n: GenTimeEngine(n),
    lambda n: GenTimeEngine(n, most_recent=True),
    lambda n: ReceiptEngine(n),
    lambda n: ReceiptEngine(n, lifo=True),
    prop_dense,
    lambda n: ProportionalSparseEngine(n),
]


@criterion(8, "conservation: per-vertex totals match baseline, sum equals newborn mass")
def test_criterion_8_conservation():
    suites = [(20, [rand_stream(20, 300, seed) for seed in range(50)])]
    suites.append((30, [rand_stream(30, 500, seed) for seed in range(100)]))
    for n, streams in suites:
        for stream in streams:
            engines = [make(n) for make in ALL_ENGINES]
            reference = engines[0]
            for r in stream:
                for e in engines:
                    e.process(r)
                # integer quantities keep all of this arithmetic exact
                for e in engines[1:]:
                    assert e.totals == reference.totals
                    assert sum(e.totals) == e.cumulative_newborn


@criterion(9, "window guarantee on 20 constructed streams, W in {10, 100}")
def test_criterion_9_window_guarantee():
    import random

    for seed in range(20):
        for w in (10, 100):
            rng = random.Random(seed)
            n_before = rng.randrange(5, 2 * w)
            engine = ProportionalSparseEngine(10, window=w)
            t = 0
            # background traffic among vertices 1..7; 0 and 9 stay idle
            for _ in range(n_before):
                s, d = rng.sample(range(1, 8), 2)
                t += 1
                engine.process(Interaction(s, d, float(t), float(rng.randrange(1, 20))))
            t += 1
            engine.process(Interaction(0, 9, float(t), 1000.0))  # marked generation
            birth_index = engine.interactions_processed

            def advance(until):
                nonlocal t
                while engine.interactions_processed < until:
                    s, d = rng.sample(range(1, 8), 2)
                    t += 1
                    engine.process(Interaction(s, d, float(t), float(rng.randrange(1, 20))))

            advance(birth_index + w - 1)
            explicit = dict(engine.snapshot(9)).get(0, 0.0)
            assert explicit == pytest.approx(1000.0, abs=1e-6)
            advance(birth_index + 2 * w + 1)
            held = dict(engine.snapshot(9))
            assert held.get(0, 0.0) + held.get(UNKNOWN, 0.0) == pytest.approx(
                1000.0, abs=1e-6
            )


@criterion(10, "budget bounds: length cap, lower-bound soundness, shrink stats (<30s)")
def test_criterion_10_budget_bounds():
    elapsed = 0.0
    for cap in (10, 50):
        stream = synth_stream(1000, 100_000, seed=cap, shape="hub")
        timed = ProportionalSparseEngine(1000, budget=BudgetSpec(cap))
        started = time.perf_counter()
        timed.run(stream)
        elapsed += time.perf_counter() - started
        assert timed.shrinks and sum(timed.shrinks) > 0
        report = build_report(timed, elapsed)
        assert report.shrink_avg is not None and report.shrink_avg > 0
        assert report.shrink_pct is not None and 0 < report.shrink_pct <= 100
        checked = ProportionalSparseEngine(1000, budget=BudgetSpec(cap))
        for r in stream:
            checked.process(r)
            assert len(checked.snapshot(r.source)) <= cap
            assert len(checked.snapshot(r.dest)) <= cap
        assert all(len(checked.snapshot(v)) <= cap for v in range(1000))
    assert elapsed < 30.0

    # lower-bound soundness against the exact dense attribution, downscaled
    stream = synth_stream(50, 5000, seed=7, shape="hub")
    capped = ProportionalSparseEngine(50, budget=BudgetSpec(10))
    exact = prop_dense(50)
    for r in stream:
        capped.process(r)
        exact.process(r)
        for v in {r.source, r.dest}:
            dense_row = densify(exact.snapshot(v), 50)
            for origin, qty in capped.snapshot(v):
                if origin != UNKNOWN:
                    assert qty <= dense_row[origin] + 1e-9


@criterion(11, "route tracking matches the oracle; chain route is v0,v1,v2")
def test_criterion_11_path_oracle():
    for seed in range(50):
        stream = rand_stream(15, 200, seed)
        engine = ReceiptEngine(15, lifo=True, track_paths=True)
        oracle = Oracle(15, Policy.LIFO, track_paths=True)
        for r in stream:
            engine.process(r)
            oracle.process(r)
        for v in range(15):
            assert multiset(engine.snapshot_paths(v)) == multiset(oracle.snapshot_paths(v))
    chain = [
        Interaction(0, 1, 1.0, 5.0),
        Interaction(1, 2, 2.0, 5.0),
        Interaction(2, 3, 3.0, 5.0),
    ]
    engine = ReceiptEngine(4, lifo=True, track_paths=True).run(chain)
    assert engine.snapshot_paths(3) == [(0, 5.0, (0, 1, 2))]


@criterion(12, "throughput: 1M interactions over 10K vertices (fifo/lifo <5s, lrb <30s)")
def test_criterion_12_throughput():
    stream = synth_stream(10_000, 1_000_000, seed=1)
    backend = "compiled" if _kernels.warmup() else "pure Python"  # build outside the timed region

    def timed(engine, limit):
        started = time.perf_counter()
        engine.run(stream)
        elapsed = time.perf_counter() - started
        assert elapsed < limit, f"{type(engine).__name__} ({backend}): {elapsed:.2f}s >= {limit}s"

    timed(ReceiptEngine(10_000), 5.0)
    timed(ReceiptEngine(10_000, lifo=True), 5.0)
    timed(GenTimeEngine(10_000), 30.0)


@criterion(13, "published large-scale benchmarks are out of scope by design")
def test_criterion_13_scope_note():
    # Those results depend on external datasets and specific hardware; this
    # suite substitutes the golden examples, oracle differencing, invariant
    # checks and the scaled throughput tripwire above.
    assert True
