"""Route tracking: parent-chain store and engine-level path semantics."""

import pytest
from conftest import rand_stream

from tinprov import (
    ConfigError,
    GenTimeEngine,
    Interaction,
    Oracle,
    PathStore,
    Policy,
    ReceiptEngine,
)


def test_store_birth_and_extend():
    ps = PathStore()
    a = ps.birth(3)
    assert ps.sequence(a) == (3,)
    assert len(ps.sequence(a)) == 1
    b = ps.extend(a, 7)
    assert ps.sequence(b) == (3, 7)
    assert len(ps.sequence(b)) == 2


def test_store_extend_appends_one_node():
    ps = PathStore()
    a = ps.birth(0)
    assert len(ps) == 1
    for n in (2, 3):
        b = ps.extend(a, 1)  # no dedup: an equal route is a new node
        assert len(ps) == n
        assert b == n - 1
        assert ps._parent[b] == a
        assert ps.sequence(b) == (0, 1)
    assert ps.birth(0) == 3


def test_full_relay_chain_path():
    # v0 -> v1 -> v2 -> v3, each relaying everything: the arriving parcel's
    # route is origin plus every transmitter
    stream = [
        Interaction(0, 1, 1.0, 5.0),
        Interaction(1, 2, 2.0, 5.0),
        Interaction(2, 3, 3.0, 5.0),
    ]
    e = ReceiptEngine(4, lifo=True, track_paths=True).run(stream)
    assert e.snapshot_paths(3) == [(0, 5.0, (0, 1, 2))]
    assert e.average_path_length() == 3.0


def test_split_copy_route_gains_relayer():
    stream = [
        Interaction(0, 1, 1.0, 5.0),
        Interaction(1, 2, 2.0, 2.0),  # split: the copy leaves v1
    ]
    for e in (GenTimeEngine(3, track_paths=True), ReceiptEngine(3, track_paths=True)):
        e.run(stream)
        assert e.snapshot_paths(1) == [(0, 3.0, (0,))]
        # a split copy gains its relayer, as a whole move does
        assert e.snapshot_paths(2) == [(0, 2.0, (0, 1))]


def test_paths_match_oracle_lifo():
    for seed in range(10):
        stream = rand_stream(8, 200, seed, self_loops=True)
        eng = ReceiptEngine(8, lifo=True, track_paths=True).run(stream)
        orc = Oracle(8, Policy.LIFO, track_paths=True).run(stream)
        for v in range(8):
            assert eng.snapshot_paths(v) == orc.snapshot_paths(v)


def test_paths_match_oracle_gentime():
    for seed in range(6):
        stream = rand_stream(8, 150, seed)
        eng = GenTimeEngine(8, track_paths=True).run(stream)
        orc = Oracle(8, Policy.LEAST_RECENTLY_BORN, track_paths=True).run(stream)
        for v in range(8):
            assert sorted(eng.snapshot_paths(v)) == sorted(orc.snapshot_paths(v))


def test_paths_require_opt_in():
    e = ReceiptEngine(2)
    with pytest.raises(ConfigError):
        e.snapshot_paths(0)
    with pytest.raises(ConfigError):
        e.average_path_length()
