"""Hand-checks of the reference simulator itself (it guards everything else)."""

import pytest

from tinprov import Interaction, Oracle, Policy


def test_oracle_least_recent_hand_trace(example_stream):
    o = Oracle(3, Policy.LEAST_RECENTLY_BORN).run(example_stream)
    assert sorted(o.snapshot_gentime(0)) == [(1, 1.0, 1.0), (2, 3.0, 2.0)]
    assert sorted(o.snapshot_gentime(1)) == [(1, 1.0, 2.0)]
    assert sorted(o.snapshot_gentime(2)) == [(1, 5.0, 4.0)]


def test_oracle_lifo_hand_trace(example_stream):
    o = Oracle(3, Policy.LIFO).run(example_stream)
    assert o.snapshot_receipt(0) == [(1, 2.0), (1, 1.0)]
    assert o.snapshot_receipt(1) == [(1, 2.0)]
    assert o.snapshot_receipt(2) == [(1, 1.0), (2, 2.0), (1, 1.0)]


def test_oracle_fifo_two_steps():
    o = Oracle(2, Policy.FIFO)
    o.process(Interaction(0, 1, 1.0, 3.0))
    o.process(Interaction(0, 1, 2.0, 2.0))
    o.process(Interaction(1, 0, 3.0, 4.0))  # front parcel (3) whole + split (1)
    assert o.snapshot_receipt(0) == [(0, 3.0), (0, 1.0)]
    assert o.snapshot_receipt(1) == [(0, 1.0)]


def test_oracle_proportional_hand_trace(example_stream):
    import pytest

    o = Oracle(3, Policy.PROP_DENSE).run(example_stream[:3])
    assert o.vectors[0] == pytest.approx([0.0, 1.2, 0.8], abs=1e-12)
    assert o.vectors[1] == pytest.approx([0.0, 1.8, 1.2], abs=1e-12)


def test_oracle_totals_follow_baseline(example_stream):
    for policy in (Policy.LIFO, Policy.LEAST_RECENTLY_BORN, Policy.PROP_DENSE):
        o = Oracle(3, policy).run(example_stream)
        assert o.totals == [3.0, 2.0, 4.0]
        assert o.generated == [0.0, 7.0, 2.0]


@pytest.mark.parametrize(
    "policy", [p for p in Policy if p not in (Policy.PROP_DENSE, Policy.PROP_SPARSE)]
)
def test_only_proportional_policies_get_vectors(policy):
    assert Oracle(3, policy).vectors == []
    assert len(Oracle(3, Policy.PROP_SPARSE).vectors) == 3
