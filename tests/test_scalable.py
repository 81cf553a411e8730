"""Memory-bounding mechanisms: scoped slots, windowing, capacity budgets."""

import pytest
from conftest import prop_dense, rand_stream

from tinprov import (
    REST_LABEL,
    UNKNOWN,
    BudgetSpec,
    ConfigError,
    Interaction,
    ProportionalSparseEngine,
    ScopeMap,
    densify,
    synth_stream,
)


# -- scope maps ---------------------------------------------------------------


def test_selective_scope_slots():
    m = ScopeMap.selective([3, 1], 5)
    assert m.n_slots == 3
    assert m.slot_of == [2, 1, 2, 0, 2]  # untracked vertices share the rest slot
    assert m.slot_labels == ["3", "1", REST_LABEL]


def test_selective_scope_validation():
    with pytest.raises(ConfigError):
        ScopeMap.selective([], 3)
    with pytest.raises(ConfigError):
        ScopeMap.selective([0, 0], 3)
    with pytest.raises(ConfigError):
        ScopeMap.selective([7], 3)


def test_grouped_scope_requires_total_map():
    with pytest.raises(ConfigError, match="missing"):
        ScopeMap.grouped({0: 0}, 3)
    m = ScopeMap.grouped({0: 0, 1: 1, 2: 0}, 3, group_labels=["a", "b"])
    assert m.slot_of == [0, 1, 0]
    assert m.n_slots == 2


def _project(dense_snapshot, slot_of, n_slots):
    out = [0.0] * n_slots
    for origin, q in dense_snapshot:
        out[slot_of[origin]] += q
    return out


@pytest.mark.parametrize(
    "make", [prop_dense, ProportionalSparseEngine], ids=["prop-dense", "prop-sparse"]
)
def test_scoped_run_equals_projected_full_run(make):
    """Tracking k slots gives exactly the slot-sums of full tracking."""
    scope = ScopeMap.selective([0, 4], 9)
    grouped = ScopeMap.grouped({v: v % 3 for v in range(9)}, 9)
    for seed in range(5):
        stream = rand_stream(9, 250, seed)
        full = prop_dense(9)
        sel = make(9, scope=scope)
        grp = make(9, scope=grouped)
        for r in stream:
            full.process(r)
            sel.process(r)
            grp.process(r)
            for v in range(9):
                base = full.snapshot(v)
                assert densify(sel.snapshot(v), scope.n_slots) == pytest.approx(
                    _project(base, scope.slot_of, scope.n_slots), abs=1e-6
                )
                assert densify(grp.snapshot(v), grouped.n_slots) == pytest.approx(
                    _project(base, grouped.slot_of, grouped.n_slots), abs=1e-6
                )


# -- budget -------------------------------------------------------------------


def test_budget_shrink_worked_example():
    v, u, w, x, y, z = range(6)
    merged = {v: 1.0, u: 3.0, w: 2.0, z: 1.0}
    for o, q in [(x, 2.0), (w, 1.0), (y, 4.0)]:
        merged[o] = merged.get(o, 0.0) + q
    out = BudgetSpec(5, 0.6).shrink(merged.items())
    assert out == [(UNKNOWN, 4.0), (u, 3.0), (w, 3.0), (y, 4.0)]


def test_budget_shrink_fits_without_shrinking():
    e = ProportionalSparseEngine(3, budget=BudgetSpec(5, 0.6))
    e.run([Interaction(1, 0, 1.0, 1.0), Interaction(2, 0, 2.0, 2.0)])
    assert e.snapshot(0) == [(1, 1.0), (2, 2.0)]
    assert e.shrinks[0] == 0


def test_budget_mass_conserved_and_unknown_exempt():
    spec = BudgetSpec(4, 0.5)
    entries = [(UNKNOWN, 10.0)] + [(o, float(o)) for o in range(1, 7)]
    out = spec.shrink(entries)
    assert sum(q for _, q in out) == sum(q for _, q in entries)
    # UNKNOWN kept on top of the floor(0.5*4)=2 kept real entries
    assert [o for o, _ in out] == [UNKNOWN, 5, 6]


def test_budget_priority_ranking():
    spec = BudgetSpec(4, 0.5, priority={2: 0, 1: 1})
    out = spec.shrink([(1, 9.0), (2, 1.0), (3, 5.0), (4, 5.0), (5, 5.0)])
    kept = [o for o, _ in out if o != UNKNOWN]
    assert kept == [1, 2]  # ranked by priority, not amount


def test_budget_config_errors():
    with pytest.raises(ConfigError):
        BudgetSpec(1)
    with pytest.raises(ConfigError):
        BudgetSpec(5, 1.0)


def test_budget_engine_caps_length_and_bounds_dense():
    spec = BudgetSpec(6, 0.5)
    for seed in range(4):
        stream = rand_stream(30, 400, seed)
        eng = ProportionalSparseEngine(30, budget=spec)
        full = prop_dense(30)
        for r in stream:
            eng.process(r)
            full.process(r)
            for v in (r.source, r.dest):
                snap = eng.snapshot(v)
                assert len(snap) <= spec.capacity
                exact = densify(full.snapshot(v), 30)
                for o, q in snap:
                    if o != UNKNOWN:
                        # explicit attributions never exceed the true value
                        assert q <= exact[o] + 1e-9
                assert sum(q for _, q in snap) == pytest.approx(eng.totals[v], abs=1e-6)
        assert any(s > 0 for s in eng.shrinks)


# -- windowing ----------------------------------------------------------------


def test_window_resets_alternate_banks():
    e = ProportionalSparseEngine(2, window=2)
    odd, even = e.banks
    stream = [Interaction(0, 1, float(t), 1.0) for t in range(1, 7)]
    for i, r in enumerate(stream, start=1):
        e.process(r)
        if i == 2:  # first (odd) multiple resets the odd bank
            assert odd[1] == {UNKNOWN: e.totals[1]}
            assert even[1] != odd[1]
        if i == 4:  # second (even) multiple resets the even bank
            assert even[1] == {UNKNOWN: e.totals[1]}


def test_window_recent_mass_attributed():
    # origin 0 generates at interaction n; a query at n+W-1 still sees it
    W = 10
    for seed in range(5):
        background = rand_stream(6, 3 * W, seed, max_q=5)
        # make vertices 0..5 busy, then a marked generation from vertex 0
        n = len(background) + 1
        stream = background + [Interaction(0, 1, float(n), 100.0)]
        # relay some of it onward for W-2 more interactions
        follow = rand_stream(6, W - 2, seed + 1000, max_q=5)
        stream += [
            Interaction(r.source, r.dest, float(n + i + 1), r.quantity)
            for i, r in enumerate(follow)
        ]
        e = ProportionalSparseEngine(6, window=W)
        for r in stream:
            e.process(r)
        marked = sum(q for o, q in e.snapshot(1) if o == 0)
        assert marked > 0.0


def test_window_query_serves_least_recently_reset():
    e = ProportionalSparseEngine(2, window=3)
    for t in range(1, 10):
        e.process(Interaction(0, 1, float(t), 1.0))
    # after 9 = 3 odd multiples, odd bank (0) reset at 9, even bank (1) at 6
    assert e.reset_at == [9, 6]
    assert e.snapshot(1) == sorted(e.banks[1][1].items())


def test_window_reset_counts_the_entries_it_adds():
    # 1->0 moves 2.7 of v1's 3, a partial transfer; v1's residual 0.3 is at
    # most epsilon and is folded into UNKNOWN in both banks.  The reset of the
    # odd bank then replaces each vector with {UNKNOWN: total}
    e = ProportionalSparseEngine(2, window=2, epsilon=0.5)
    e.run([Interaction(0, 1, 1.0, 3.0), Interaction(1, 0, 2.0, 2.7)])
    assert e.banks[0] == [{UNKNOWN: e.totals[0]}, {UNKNOWN: e.totals[1]}]
    assert e.banks[1] == [{0: 2.7}, {UNKNOWN: pytest.approx(e.totals[1])}]
    assert e.entries == sum(len(vec) for bank in e.banks for vec in bank) == 4
    assert e.peak_entries == 4


def test_window_validation():
    with pytest.raises(ConfigError):
        ProportionalSparseEngine(2, window=0)
    with pytest.raises(ConfigError):
        ProportionalSparseEngine(2, scope=ScopeMap.selective([0], 2), window=3)
    with pytest.raises(ConfigError):
        ProportionalSparseEngine(2, budget=BudgetSpec(4), window=3)


def test_engine_refuses_scope_with_budget():
    with pytest.raises(ConfigError, match="mutually exclusive"):
        ProportionalSparseEngine(3, scope=ScopeMap.selective([0], 3), budget=BudgetSpec(4))
