"""Alert scan: buffered mass with no in-neighbor attribution."""

import pytest
from conftest import prop_dense

from tinprov import (
    ConfigError,
    GenTimeEngine,
    Interaction,
    NoProvEngine,
    ProportionalSparseEngine,
    ReceiptEngine,
    ScopeMap,
    alert_scan,
)


def chain_stream():
    # a -> b (20000), b -> c (20000): c's mass originates from a, which never
    # sent to c directly
    return [
        Interaction(0, 1, 1.0, 20000.0),
        Interaction(1, 2, 2.0, 20000.0),
    ]


def test_two_vertex_stream_never_alerts():
    stream = [Interaction(0, 1, float(t), 100.0) for t in range(1, 6)]
    assert alert_scan(stream, ProportionalSparseEngine(2), 50.0) == []


def test_chain_alert():
    alerts = alert_scan(chain_stream(), ProportionalSparseEngine(3), 10000.0)
    assert len(alerts) == 1
    a = alerts[0]
    assert a.vertex == 2
    assert a.index == 1
    assert a.total == 20000.0
    assert a.contributing_origins == 1  # all of it from vertex 0


def test_infinite_threshold_never_alerts():
    assert alert_scan(chain_stream(), ProportionalSparseEngine(3), float("inf")) == []


def test_threshold_monotonicity():
    from conftest import rand_stream

    stream = rand_stream(6, 300, seed=3)
    low = alert_scan(stream, ProportionalSparseEngine(6), 50.0)
    high = alert_scan(stream, ProportionalSparseEngine(6), 200.0)
    low_keys = {(a.index, a.vertex) for a in low}
    assert all((a.index, a.vertex) in low_keys for a in high)


def test_dense_engine_supported():
    alerts = alert_scan(chain_stream(), prop_dense(3), 10000.0)
    assert [a.vertex for a in alerts] == [2]


def test_scoped_scan_compares_slots():
    # under a selective scope tracking only vertex 0, the chain alert survives:
    # c's mass sits in slot 0 while its only in-neighbor b is in the rest slot
    scope = ScopeMap.selective([0], 3)
    engine = ProportionalSparseEngine(3, scope=scope)
    alerts = alert_scan(chain_stream(), engine, 10000.0)
    assert [a.vertex for a in alerts] == [2]


def test_rejects_engine_without_snapshot():
    with pytest.raises(ConfigError):
        alert_scan([], object(), 1.0)
    # every engine has a snapshot(), but only a proportional one carries
    # origin amounts; the others would alert on every large buffer or crash
    stream = [Interaction(0, 1, 1.0, 5.0), Interaction(1, 2, 2.0, 3.0)]
    for engine in (NoProvEngine(3), ReceiptEngine(3), GenTimeEngine(3)):
        with pytest.raises(ConfigError):
            alert_scan(stream, engine, 1.0)
