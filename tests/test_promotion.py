"""Dict → row promotion in the proportional engine: both forms must agree exactly."""

import math
from unittest import mock

import pytest
from conftest import prop_dense
from hypothesis import given, settings
from hypothesis import strategies as st

from tinprov import (
    UNKNOWN,
    BudgetSpec,
    Interaction,
    Oracle,
    Policy,
    ProportionalSparseEngine,
    ScopeMap,
    build_engine,
    densify,
)
from tinprov import proportional

N = 6


def engine(fraction, n=N, **kw):
    """An engine whose dicts transfer into a row once they hold ``fraction · n_slots`` entries."""
    with mock.patch.multiple(proportional, PROMOTE_FRACTION=fraction, PROMOTE_MIN=0):
        return ProportionalSparseEngine(n, **kw)


def is_row(vec):
    return type(vec) is not dict


NEAR_DRAIN = [Interaction(0, 1, 1.0, 3.0), Interaction(1, 0, 2.0, 2.7)]


@pytest.mark.parametrize("scoped", [False, True], ids=["plain", "selective"])
@pytest.mark.parametrize(
    "make",
    [
        lambda **kw: engine(math.inf, 2, **kw),
        lambda **kw: engine(0.0, 2, **kw),
        lambda **kw: build_engine(Policy.PROP_DENSE, 2, **kw),
    ],
    ids=["dicts", "rows", "prop-dense"],
)
def test_near_drain_moves_only_the_transfer(make, scoped):
    # 2.7 < |B_1| = 3 is a partial transfer, even though 2.7 >= 3 - epsilon:
    # v0 receives exactly 2.7 and v1's residual 0.3 (at most epsilon) is dust
    scope = ScopeMap.selective([0], 2) if scoped else None
    e = make(scope=scope, epsilon=0.5).run(NEAR_DRAIN)
    assert e.totals == [2.7, pytest.approx(0.3)]
    assert e.snapshot(0) == [(0, 2.7)]
    for v in range(2):
        held = sum(q for _, q in e.snapshot(v))
        assert held + e.dropped[v] == pytest.approx(e.totals[v], rel=1e-12)
    if scoped:  # a scope folds the dust into UNKNOWN
        assert [o for o, _ in e.snapshot(1)] == [UNKNOWN]
    else:
        assert e.snapshot(1) == [] and e.dropped[1] == pytest.approx(0.3)


def test_rows_snapshot_like_dicts_and_count_their_entries():
    e = engine(0.0, 3, scope=ScopeMap.selective([0, 2], 3), epsilon=0.5)
    e.run([Interaction(0, 1, 1.0, 3.0), Interaction(2, 1, 2.0, 0.25), Interaction(1, 2, 3.0, 1.0)])
    assert all(is_row(vec) for vec in e.banks[0][1:])
    # v1 got 3 from slot 0 and 0.25 of dust from slot 1, folded into UNKNOWN
    assert e.snapshot(1) == sorted(e.banks[0][1].items())
    assert [o for o, _ in e.snapshot(1)] == [UNKNOWN, 0]
    assert e.entries == sum(map(len, e.banks[0])) == 4
    assert e.promoted_rows == 2


def test_prop_dense_rows_every_vector_with_an_entry():
    e = prop_dense(4).run([Interaction(0, 1, 1.0, 3.0), Interaction(1, 2, 2.0, 1.0)])
    assert [is_row(vec) for vec in e.banks[0]] == [False, True, True, False]
    assert e.peak_entries == e.entries == 2  # the amounts held, not n × n_slots


def test_budget_vectors_never_promote():
    e = engine(0.0, budget=BudgetSpec(3))
    e.run([Interaction(s, 5, float(s + 1), 1.0) for s in range(5)])
    assert not any(is_row(vec) for vec in e.banks[0])
    assert e.promoted_rows == 0


def test_window_reset_turns_rows_back_into_dicts():
    e = engine(0.0, window=2)
    e.run([Interaction(0, 1, 1.0, 3.0)])
    assert all(is_row(bank[1]) for bank in e.banks)
    e.run([Interaction(2, 3, 2.0, 1.0)])
    assert e.banks[0][1] == {UNKNOWN: 3.0}
    assert e.entries == sum(len(vec) for bank in e.banks for vec in bank)


# -- dicts and rows give identical results -----------------------------------

quantities = st.one_of(
    st.integers(1, 20).map(float),
    st.floats(0.001, 20.0, allow_nan=False, allow_infinity=False),
)
# (source, other vertex, quantity, loop flag): flags 0 and 1 of 0..4 make a
# self-loop, so about 40% of the interactions are self-loops
streams = st.lists(
    st.tuples(st.integers(0, N - 1), st.integers(0, N - 2), quantities, st.integers(0, 4)),
    max_size=40,
).map(
    lambda rows: [
        Interaction(s, s if loop < 2 else (s + 1 + o) % N, float(t), q)
        for t, (s, o, q, loop) in enumerate(rows, 1)
    ]
)
MECHANISMS = {
    "plain": {},
    "selective": {"scope": ScopeMap.selective([0, 1], N)},
    "window": {"window": 3},
    "budget": {"budget": BudgetSpec(3)},
}


def state(e):
    return [e.snapshot(v) for v in range(N)], e.dropped, e.entries, e.peak_entries, e.totals


@settings(deadline=None, max_examples=60)
@given(streams, st.sampled_from([0.0, 1e-9, 0.05]), st.sampled_from(sorted(MECHANISMS)))
def test_rows_and_dicts_agree_exactly(stream, epsilon, mechanism):
    kw = MECHANISMS[mechanism]
    dicts = engine(math.inf, epsilon=epsilon, **kw)
    rows = engine(0.0, epsilon=epsilon, **kw)  # every destination becomes a row
    mixed = engine(0.5, epsilon=epsilon, **kw)  # rows once two dicts hold 3 entries, mid-stream
    oracle = Oracle(N, Policy.PROP_SPARSE) if epsilon == 0.0 and mechanism == "plain" else None
    scale = 1e-9 * sum(r.quantity for r in stream)
    for r in stream:
        for e in (dicts, rows, mixed):
            e.process(r)
        assert state(rows) == state(dicts)
        assert state(mixed) == state(dicts)
        if oracle is not None:
            oracle.process(r)
            for v in range(N):
                assert densify(rows.snapshot(v), N) == pytest.approx(
                    oracle.vectors[v], rel=1e-9, abs=scale
                )
    if mechanism == "budget":
        assert rows.promoted_rows == 0
