"""Shared fixtures: the running example and random integer-quantity streams.

Random streams use integer-valued quantities throughout: splits of integers
stay integral, so element-policy parcels never hit the dust threshold and
engine-vs-reference comparisons can use exact equality.
"""

import random

import pytest

from tinprov import EngineConfig, Interaction, Policy, build_engine

# the six-interaction example used by all the golden tables (v0, v1, v2 = 0, 1, 2)
EXAMPLE = [
    Interaction(1, 2, 1.0, 3.0),
    Interaction(2, 0, 3.0, 5.0),
    Interaction(0, 1, 4.0, 3.0),
    Interaction(1, 2, 5.0, 7.0),
    Interaction(2, 1, 7.0, 2.0),
    Interaction(2, 0, 8.0, 1.0),
]


@pytest.fixture
def example_stream():
    return list(EXAMPLE)


def rand_stream(n_vertices, n_interactions, seed, self_loops=False, max_q=50):
    """Random integer-quantity stream with strictly increasing integer times."""
    rng = random.Random(seed)
    out = []
    for i in range(n_interactions):
        s = rng.randrange(n_vertices)
        if self_loops:
            d = rng.randrange(n_vertices)
        else:
            d = rng.randrange(n_vertices - 1)
            if d >= s:
                d += 1
        out.append(Interaction(s, d, float(i + 1), float(rng.randint(1, max_q))))
    return out


def prop_dense(n_vertices, scope=None):
    """The prop-dense engine: every vector that holds an entry is a NumPy row."""
    return build_engine(EngineConfig(Policy.PROP_DENSE, scope=scope), n_vertices)


def multiset(snapshot):
    """Order-insensitive view of a snapshot for set-valued golden tables."""
    return sorted(snapshot)
