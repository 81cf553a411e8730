"""Engine configuration validation and construction."""

import pytest

from tinprov import (
    BudgetSpec,
    ConfigError,
    GenTimeEngine,
    Interaction,
    NoProvEngine,
    Policy,
    ProportionalSparseEngine,
    ReceiptEngine,
    ScopeMap,
    build_engine,
)


def test_builds_expected_engine_types():
    cases = [
        (Policy.NOPROV, {}, NoProvEngine),
        (Policy.LEAST_RECENTLY_BORN, {}, GenTimeEngine),
        (Policy.MOST_RECENTLY_BORN, {}, GenTimeEngine),
        (Policy.FIFO, {}, ReceiptEngine),
        (Policy.LIFO, {}, ReceiptEngine),
        (Policy.PROP_DENSE, {}, ProportionalSparseEngine),
        (Policy.PROP_SPARSE, {}, ProportionalSparseEngine),
        (Policy.PROP_SPARSE, {"window": 5}, ProportionalSparseEngine),
    ]
    for policy, options, cls in cases:
        assert type(build_engine(policy, 4, **options)) is cls


def test_policy_variants_configured():
    lrb = build_engine(Policy.LEAST_RECENTLY_BORN, 3)
    mrb = build_engine(Policy.MOST_RECENTLY_BORN, 3)
    assert lrb.policy is Policy.LEAST_RECENTLY_BORN
    assert mrb.policy is Policy.MOST_RECENTLY_BORN
    fifo = build_engine(Policy.FIFO, 3)
    lifo = build_engine(Policy.LIFO, 3)
    assert fifo.policy is Policy.FIFO
    assert lifo.policy is Policy.LIFO
    dense = build_engine(Policy.PROP_DENSE, 3)
    sparse = build_engine(Policy.PROP_SPARSE, 3)
    assert dense.policy is Policy.PROP_DENSE
    assert sparse.policy is Policy.PROP_SPARSE


def test_mechanisms_mutually_exclusive():
    scope = ScopeMap.selective([0], 3)
    with pytest.raises(ConfigError):
        build_engine(Policy.PROP_SPARSE, 0, scope=scope, window=4)
    with pytest.raises(ConfigError):
        build_engine(Policy.PROP_SPARSE, 0, window=4, budget=BudgetSpec(4))
    with pytest.raises(ConfigError):
        build_engine(Policy.PROP_SPARSE, 0, scope=scope, budget=BudgetSpec(4))


def test_mechanisms_require_proportional_policies():
    scope = ScopeMap.selective([0], 3)
    with pytest.raises(ConfigError):
        build_engine(Policy.FIFO, 0, scope=scope)
    with pytest.raises(ConfigError):
        build_engine(Policy.LIFO, 0, window=4)
    with pytest.raises(ConfigError):
        build_engine(Policy.PROP_DENSE, 0, window=4)
    with pytest.raises(ConfigError):
        build_engine(Policy.PROP_DENSE, 0, budget=BudgetSpec(4))
    build_engine(Policy.PROP_DENSE, 0, scope=scope)


def test_tracking_option_constraints():
    with pytest.raises(ConfigError):
        build_engine(Policy.PROP_SPARSE, 0, track_paths=True)
    with pytest.raises(ConfigError):
        build_engine(Policy.FIFO, 0, coalesce=True)
    with pytest.raises(ConfigError):
        build_engine(Policy.LEAST_RECENTLY_BORN, 0, track_paths=True, coalesce=True)
    build_engine(Policy.LEAST_RECENTLY_BORN, 0, coalesce=True)
    build_engine(Policy.LIFO, 0, track_paths=True)


@pytest.mark.parametrize("policy", list(Policy))
def test_negative_vertex_count_rejected(policy):
    with pytest.raises(ConfigError):
        build_engine(policy, -1)


def test_scalar_validation():
    with pytest.raises(ConfigError):
        build_engine(Policy.PROP_SPARSE, 0, window=0)
    with pytest.raises(ConfigError):
        build_engine(Policy.NOPROV, 0, epsilon=-1e-9)


OPTIONS = [
    (Policy.NOPROV, {}),
    (Policy.FIFO, {}),
    (Policy.FIFO, {"track_paths": True}),
    (Policy.LIFO, {"track_paths": True}),
    (Policy.LEAST_RECENTLY_BORN, {"track_paths": True}),
    (Policy.LEAST_RECENTLY_BORN, {"coalesce": True}),
    (Policy.MOST_RECENTLY_BORN, {"track_paths": True}),
    (Policy.PROP_DENSE, {}),
    (Policy.PROP_SPARSE, {}),
    (Policy.PROP_SPARSE, {"window": 2}),
]


def _state(e):
    snapshots = [e.snapshot(v) for v in range(e.n_vertices)]
    if getattr(e, "paths", None) is not None:
        snapshots += [e.snapshot_paths(v) for v in range(e.n_vertices)]
    counters = (e.cumulative_newborn, e.entries, e.peak_entries, e.interactions_processed)
    return list(e.totals), list(e.generated), counters, snapshots


@pytest.mark.parametrize(
    "bad",
    [
        Interaction(-1, 2, 9.0, 4.0),
        Interaction(2, -1, 9.0, 4.0),
        Interaction(2, 3, 9.0, 4.0),
        Interaction(3, 2, 9.0, 4.0),
    ],
    ids=["source-1", "dest-1", "dest=n", "source=n"],
)
@pytest.mark.parametrize("via", ["process", "run"])
@pytest.mark.parametrize(
    "policy, options", OPTIONS, ids=[f"{p.value}-{'-'.join(o) or 'plain'}" for p, o in OPTIONS]
)
def test_vertex_outside_range_changes_nothing(policy, options, via, bad, example_stream, pure_python):
    """A source or dest outside [0, n) raises IndexError before the engine changes."""
    prefix = example_stream[:4]
    ref = build_engine(policy, 3, **options).run(prefix)
    e = build_engine(policy, 3, **options)
    if via == "process":
        e.run(prefix)
        with pytest.raises(IndexError):
            e.process(bad)
    else:
        with pytest.raises(IndexError):
            e.run([*prefix, bad])
    assert _state(e) == _state(ref)
