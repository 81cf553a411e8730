"""Shared fixtures: the running example and random integer-quantity streams.

Random streams use integer-valued quantities throughout: splits of integers
stay integral, so element-policy parcels never hit the dust threshold and
engine-vs-reference comparisons can use exact equality.
"""

import os
import random
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import tinprov
from tinprov import Interaction, Policy, _kernels, build_engine

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


@pytest.fixture
def pure_python(monkeypatch):
    """Keep every engine's run() on its pure-Python loop."""
    monkeypatch.setattr(_kernels, "AVAILABLE", False)


def kernels_missing():
    """What the kernels need to build and cannot find: a C compiler, the Python headers."""
    python_h = Path(sysconfig.get_paths()["include"]) / "Python.h"
    needs = [("a C compiler (cc on PATH)", _kernels._CC), (str(python_h), python_h.exists())]
    return [name for name, found in needs if not found]


def kernels_buildable():
    """Whether a C compiler and the Python headers, which the kernels need, exist."""
    return not kernels_missing()


def pytest_report_header(config):
    """Say whether the replay kernels can be built, without loading them here:
    the kernel tests time the first load of a process."""
    missing = kernels_missing()
    if not missing:
        return f"replay kernels: buildable with {_kernels._CC}"
    return [
        f"replay kernels: not buildable, missing {' and '.join(missing)}",
        "  the kernel tests skip, and criterion 12 times the pure-Python replay",
    ]


def pytest_sessionstart(session):
    """Build the kernels' cached module in a child process, as the first run
    after a checkout does, so that no timed test includes the one-off compile.

    The test process itself has not loaded the module: the first kernel run
    of a test still pays the load, as the first run of any process does.
    """
    if kernels_buildable():
        src = str(Path(tinprov.__file__).resolve().parents[1])
        subprocess.run(
            [sys.executable, "-c", "from tinprov import _kernels; _kernels.warmup()"],
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )


@pytest.fixture
def compiled():
    """Load the C kernels; skip the test only when they cannot be built here.

    With a compiler and headers present, a failed build or load fails the test.
    """
    if not kernels_buildable():
        pytest.skip("no C compiler or Python headers to build the replay kernels")
    assert _kernels.warmup()


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
    return build_engine(Policy.PROP_DENSE, n_vertices, scope=scope)


def multiset(snapshot):
    """Order-insensitive view of a snapshot for set-valued golden tables."""
    return sorted(snapshot)
