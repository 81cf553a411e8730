"""Least/most-recently-born policies: golden table, oracle agreement, coalescing."""

import random
from collections import defaultdict
from math import copysign

import pytest
from conftest import multiset, rand_stream

from tinprov import GenTimeEngine, Interaction, Oracle, Policy, ReceiptEngine
from tinprov import _kernels

# (origin, birth_time, quantity) multisets after each example interaction
OLDEST_FIRST_ROWS = [
    ([], [], [(1, 1.0, 3.0)]),
    ([(1, 1.0, 3.0), (2, 3.0, 2.0)], [], []),
    ([(2, 3.0, 2.0)], [(1, 1.0, 3.0)], []),
    ([(2, 3.0, 2.0)], [], [(1, 1.0, 3.0), (1, 5.0, 4.0)]),
    ([(2, 3.0, 2.0)], [(1, 1.0, 2.0)], [(1, 1.0, 1.0), (1, 5.0, 4.0)]),
    ([(1, 1.0, 1.0), (2, 3.0, 2.0)], [(1, 1.0, 2.0)], [(1, 5.0, 4.0)]),
]


def test_example_least_recent_row_by_row(example_stream):
    e = GenTimeEngine(3)
    for r, row in zip(example_stream, OLDEST_FIRST_ROWS):
        e.process(r)
        assert [multiset(e.snapshot(v)) for v in range(3)] == [sorted(x) for x in row]


def test_example_most_recent_differs(example_stream):
    # first divergence from oldest-first is interaction 3: v0 relays its
    # youngest parcel (born t=3) whole and splits the t=1 parcel
    e = GenTimeEngine(3, most_recent=True)
    for r in example_stream[:3]:
        e.process(r)
    assert multiset(e.snapshot(0)) == [(1, 1.0, 2.0)]
    assert multiset(e.snapshot(1)) == [(1, 1.0, 1.0), (2, 3.0, 2.0)]
    for r in example_stream[3:5]:
        e.process(r)
    assert multiset(e.snapshot(1)) == [(1, 5.0, 2.0)]
    assert multiset(e.snapshot(2)) == [(1, 1.0, 1.0), (1, 5.0, 2.0), (2, 3.0, 2.0)]


@pytest.mark.parametrize("most_recent", [False, True])
def test_oracle_agreement(most_recent):
    policy = Policy.MOST_RECENTLY_BORN if most_recent else Policy.LEAST_RECENTLY_BORN
    for seed in range(15):
        stream = rand_stream(10, 300, seed, self_loops=True)
        eng = GenTimeEngine(10, most_recent=most_recent)
        orc = Oracle(10, policy)
        for r in stream:
            eng.process(r)
            orc.process(r)
            for v in range(10):
                assert multiset(eng.snapshot(v)) == multiset(orc.snapshot(v))
            assert eng.totals == orc.totals


def assert_run_matches_process(most_recent, backend):
    """run() on a fresh engine, through ``backend``, builds the same heaps, in
    the same layout, as stepwise process(), and stays in step after the
    replay."""
    for seed in range(5):
        stream = rand_stream(12, 400, seed, self_loops=True)
        ref = GenTimeEngine(12, most_recent=most_recent)
        for r in stream:
            ref.process(r)
        e = GenTimeEngine(12, most_recent=most_recent).run(stream)
        assert e.backend == backend
        assert e.buffers == ref.buffers
        assert e.totals == ref.totals
        assert e.generated == ref.generated
        assert e.entries == ref.entries
        assert e.peak_entries == ref.peak_entries
        assert e.cumulative_newborn == ref.cumulative_newborn
        e.process(Interaction(0, 1, 9999.0, 5.0))
        ref.process(Interaction(0, 1, 9999.0, 5.0))
        assert e.buffers == ref.buffers


@pytest.mark.parametrize("most_recent", [False, True])
def test_run_paths_agree(most_recent, pure_python):
    """The pure-Python run() loop gives the same heaps as stepwise process()."""
    assert_run_matches_process(most_recent, "python")


@pytest.mark.parametrize("most_recent", [False, True])
def test_kernel_agrees_with_process(most_recent, compiled):
    """The compiled kernel gives the same heaps as process()."""
    assert_run_matches_process(most_recent, "compiled")


# births at 0 and -0, births repeated at one time, self-loops on vertices 0 and 2
SIGNED_BIRTHS = [
    Interaction(0, 1, 0.0, 2.0),
    Interaction(1, 2, -0.0, 1.0),
    Interaction(2, 2, -0.0, 3.0),
    Interaction(0, 0, 0.0, 1.0),
    Interaction(3, 1, 1.0, 2.0),
    Interaction(3, 1, 1.0, 2.0),
    Interaction(1, 3, 1.0, 4.0),
    Interaction(2, 0, 2.0, 5.0),
    Interaction(0, 0, 2.0, 2.0),
]


def signed(snapshot):
    """A gentime snapshot with the sign of each birth, which == ignores for zeros."""
    return [(o, copysign(1.0, b), b, q) for o, b, q in snapshot]


@pytest.mark.parametrize("most_recent", [False, True])
def test_birth_times_keep_their_sign(most_recent, compiled):
    """Birth times read back from the signed key are the records' times, bit
    for bit, in the kernel's heaps and in process()'s."""
    policy = Policy.MOST_RECENTLY_BORN if most_recent else Policy.LEAST_RECENTLY_BORN
    ref = GenTimeEngine(4, most_recent=most_recent)
    orc = Oracle(4, policy)
    for r in SIGNED_BIRTHS:
        ref.process(r)
        orc.process(r)
    e = GenTimeEngine(4, most_recent=most_recent).run(SIGNED_BIRTHS)
    assert e.backend == "compiled"
    for v in range(4):
        assert signed(e.snapshot(v)) == signed(ref.snapshot(v))
        assert sorted(signed(ref.snapshot(v))) == sorted(signed(orc.snapshot(v)))
    assert (2, -1.0, 0.0, 2.0) in signed(e.snapshot(0))  # the newborn of t = -0


class FakeKernels:
    """The module binding's interface without a compiler: an empty replay."""

    @staticmethod
    def replay(stream, nv, policy, eps, routes):
        return [0.0] * nv, [0.0] * nv, 0.0, 0, [[] for _ in range(nv)]


def test_kernel_takes_only_fresh_plain_replays(monkeypatch):
    """The kernels start empty and keep no merge maps, so run() hands them
    materialized streams, of any length, for fresh engines that do not
    coalesce, routes or not."""
    monkeypatch.setattr(_kernels, "warmup", lambda: True)
    monkeypatch.setattr(_kernels, "_lib", FakeKernels)
    stream = rand_stream(5, 3, 0)
    used = GenTimeEngine(5)
    used.process(stream[0])
    assert GenTimeEngine(5).run(stream).backend == "compiled"
    assert ReceiptEngine(5, lifo=True).run(tuple(stream)).backend == "compiled"
    assert GenTimeEngine(5).run(stream[:1]).backend == "compiled"
    assert GenTimeEngine(5).run(iter(stream)).backend == "python"
    assert GenTimeEngine(5, coalesce=True).run(stream).backend == "python"
    assert GenTimeEngine(5, track_paths=True).run(stream).backend == "compiled"
    assert ReceiptEngine(5, track_paths=True).run(stream).backend == "compiled"
    assert used.run(stream).backend == "python"


def test_split_keeps_remainder_at_source():
    e = GenTimeEngine(2)
    e.process(Interaction(0, 1, 1.0, 5.0))  # newborn 5 at v0 lands at v1
    e.process(Interaction(1, 0, 2.0, 2.0))  # splits the parcel
    assert e.snapshot(0) == [(0, 1.0, 2.0)]
    assert e.snapshot(1) == [(0, 1.0, 3.0)]


def test_dust_remainder_moves_whole():
    e = GenTimeEngine(2, epsilon=1e-6)
    e.process(Interaction(0, 1, 1.0, 5.0))
    e.process(Interaction(1, 0, 2.0, 5.0 - 1e-9))  # remainder below epsilon
    assert e.snapshot(1) == []
    assert e.snapshot(0) == [(0, 1.0, 5.0)]  # whole parcel transferred
    assert e.entries == 1


def test_coalesce_merges_equal_origin_birth():
    stream = [
        Interaction(0, 1, 1.0, 3.0),
        Interaction(0, 1, 1.0, 2.0),  # same (origin, birth): merged when coalescing
    ]
    plain = GenTimeEngine(2).run(stream)
    merged = GenTimeEngine(2, coalesce=True).run(stream)
    assert len(plain.snapshot(1)) == 2
    assert merged.snapshot(1) == [(0, 1.0, 5.0)]
    assert merged.totals == plain.totals


def by_origin_birth(snapshot):
    """Quantity per (origin, birth) of a gentime snapshot."""
    held = defaultdict(float)
    for origin, birth, qty in snapshot:
        held[origin, birth] += qty
    return dict(held)


@pytest.mark.parametrize("most_recent", [False, True])
def test_coalesce_holds_what_plain_holds(most_recent):
    """Coalescing merges parcels but moves the same mass: after every step
    the touched buffers hold the same quantity per (origin, birth) as without
    it, and run() builds the same heaps as stepwise process()."""
    for seed in range(15):
        stream = rand_stream(10, 300, seed, self_loops=True)
        plain = GenTimeEngine(10, most_recent=most_recent)
        merged = GenTimeEngine(10, most_recent=most_recent, coalesce=True)
        for r in stream:
            plain.process(r)
            merged.process(r)
            for v in (r.source, r.dest):
                assert by_origin_birth(merged.snapshot(v)) == by_origin_birth(plain.snapshot(v))
            assert merged.totals == plain.totals
        ran = GenTimeEngine(10, most_recent=most_recent, coalesce=True).run(stream)
        assert ran.buffers == merged.buffers
        assert ran.entries == merged.entries
        assert ran.peak_entries == merged.peak_entries


@pytest.mark.parametrize("most_recent", [False, True])
def test_coalesce_keeps_origin_and_key_unique_in_every_heap(most_recent):
    """No heap of a coalescing engine holds two entries of equal (origin, key),
    so seq, which repeats under coalescing, never decides a heap order."""
    for seed in range(20):
        rng = random.Random(seed)
        e = GenTimeEngine(6, most_recent=most_recent, coalesce=True)
        t = 0.0
        for _ in range(300):
            t += rng.choice((0.0, 0.0, 1.0, 2.5))  # runs of repeated times
            q = rng.randint(1, 20) if rng.random() < 0.5 else rng.uniform(0.01, 20.0)
            e.process(Interaction(rng.randrange(6), rng.randrange(6), t, float(q)))
            for heap in e.buffers:
                keys = [(entry[1], entry[0]) for entry in heap]
                assert len(set(keys)) == len(keys)


def test_coalesce_with_paths_rejected():
    from tinprov import ConfigError

    with pytest.raises(ConfigError):
        GenTimeEngine(2, coalesce=True, track_paths=True)


def test_peak_entries_tracks_high_water():
    e = GenTimeEngine(3)
    e.process(Interaction(0, 1, 1.0, 4.0))
    e.process(Interaction(1, 2, 2.0, 1.0))  # split: two parcels live
    assert e.peak_entries == 2
    e.process(Interaction(1, 2, 3.0, 3.0))  # whole move: still two
    assert e.entries == 2
    assert e.peak_entries == 2
