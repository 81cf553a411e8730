"""Engine configuration validation and construction."""

import pytest

from tinprov import (
    BudgetSpec,
    ConfigError,
    EngineConfig,
    GenTimeEngine,
    NoProvEngine,
    Policy,
    ProportionalSparseEngine,
    ReceiptEngine,
    ScopeMap,
    build_engine,
)


def test_builds_expected_engine_types():
    cases = [
        (EngineConfig(Policy.NOPROV), NoProvEngine),
        (EngineConfig(Policy.LEAST_RECENTLY_BORN), GenTimeEngine),
        (EngineConfig(Policy.MOST_RECENTLY_BORN), GenTimeEngine),
        (EngineConfig(Policy.FIFO), ReceiptEngine),
        (EngineConfig(Policy.LIFO), ReceiptEngine),
        (EngineConfig(Policy.PROP_DENSE), ProportionalSparseEngine),
        (EngineConfig(Policy.PROP_SPARSE), ProportionalSparseEngine),
        (EngineConfig(Policy.PROP_SPARSE, window=5), ProportionalSparseEngine),
    ]
    for cfg, cls in cases:
        assert type(build_engine(cfg, 4)) is cls


def test_policy_variants_configured():
    lrb = build_engine(EngineConfig(Policy.LEAST_RECENTLY_BORN), 3)
    mrb = build_engine(EngineConfig(Policy.MOST_RECENTLY_BORN), 3)
    assert lrb.policy is Policy.LEAST_RECENTLY_BORN
    assert mrb.policy is Policy.MOST_RECENTLY_BORN
    fifo = build_engine(EngineConfig(Policy.FIFO), 3)
    lifo = build_engine(EngineConfig(Policy.LIFO), 3)
    assert fifo.policy is Policy.FIFO
    assert lifo.policy is Policy.LIFO
    dense = build_engine(EngineConfig(Policy.PROP_DENSE), 3)
    sparse = build_engine(EngineConfig(Policy.PROP_SPARSE), 3)
    assert dense.policy is Policy.PROP_DENSE
    assert sparse.policy is Policy.PROP_SPARSE


def test_mechanisms_mutually_exclusive():
    scope = ScopeMap.selective([0], 3)
    with pytest.raises(ConfigError):
        EngineConfig(Policy.PROP_SPARSE, scope=scope, window=4).validate()
    with pytest.raises(ConfigError):
        EngineConfig(Policy.PROP_SPARSE, window=4, budget=BudgetSpec(4)).validate()
    with pytest.raises(ConfigError):
        EngineConfig(Policy.PROP_SPARSE, scope=scope, budget=BudgetSpec(4)).validate()


def test_mechanisms_require_proportional_policies():
    scope = ScopeMap.selective([0], 3)
    with pytest.raises(ConfigError):
        EngineConfig(Policy.FIFO, scope=scope).validate()
    with pytest.raises(ConfigError):
        EngineConfig(Policy.LIFO, window=4).validate()
    with pytest.raises(ConfigError):
        EngineConfig(Policy.PROP_DENSE, window=4).validate()
    with pytest.raises(ConfigError):
        EngineConfig(Policy.PROP_DENSE, budget=BudgetSpec(4)).validate()
    EngineConfig(Policy.PROP_DENSE, scope=scope).validate()


def test_tracking_option_constraints():
    with pytest.raises(ConfigError):
        EngineConfig(Policy.PROP_SPARSE, track_paths=True).validate()
    with pytest.raises(ConfigError):
        EngineConfig(Policy.FIFO, coalesce=True).validate()
    with pytest.raises(ConfigError):
        EngineConfig(Policy.LEAST_RECENTLY_BORN, track_paths=True, coalesce=True).validate()
    EngineConfig(Policy.LEAST_RECENTLY_BORN, coalesce=True).validate()
    EngineConfig(Policy.LIFO, track_paths=True).validate()


@pytest.mark.parametrize("policy", list(Policy))
def test_negative_vertex_count_rejected(policy):
    with pytest.raises(ConfigError):
        build_engine(EngineConfig(policy), -1)


def test_scalar_validation():
    with pytest.raises(ConfigError):
        EngineConfig(Policy.PROP_SPARSE, window=0).validate()
    with pytest.raises(ConfigError):
        EngineConfig(Policy.NOPROV, epsilon=-1e-9).validate()
