"""Self-interactions under the element policies, in process() and the kernels.

The rule: a self-interaction selects only among the parcels present before
it, so it relays at most min(rq, bs); the shortfall is a newborn at the
source; the selected parcels rejoin the buffer once selection ends, in
selection order; and a self-relayed parcel's route gains the vertex.
"""

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import multiset
from hypothesis import given, settings
from hypothesis import strategies as st

import tinprov
from tinprov import GenTimeEngine, Interaction, NoProvEngine, Oracle, Policy, ReceiptEngine

ENGINES = {
    "fifo": lambda n, **kw: ReceiptEngine(n, **kw),
    "lifo": lambda n, **kw: ReceiptEngine(n, lifo=True, **kw),
    "lrb": lambda n, **kw: GenTimeEngine(n, **kw),
    "mrb": lambda n, **kw: GenTimeEngine(n, most_recent=True, **kw),
}
POLICIES = {
    "fifo": Policy.FIFO,
    "lifo": Policy.LIFO,
    "lrb": Policy.LEAST_RECENTLY_BORN,
    "mrb": Policy.MOST_RECENTLY_BORN,
}

# 0 -> 1 q=3, then 1 -> 1 q=5: v1 relays its 3 to itself and generates 2
LITERAL = [Interaction(0, 1, 1.0, 3.0), Interaction(1, 1, 2.0, 5.0)]
EXPECTED = {
    "fifo": [(0, 3.0), (1, 2.0)],
    "lifo": [(0, 3.0), (1, 2.0)],
    "lrb": [(0, 1.0, 3.0), (1, 2.0, 2.0)],
    "mrb": [(0, 1.0, 3.0), (1, 2.0, 2.0)],
}


@pytest.mark.parametrize("name", list(ENGINES))
def test_literal_case_process(name, pure_python):
    """process(), the pure-Python run() loop and the Oracle."""
    e = ENGINES[name](2)
    for r in LITERAL:
        e.process(r)
    assert multiset(e.snapshot(1)) == EXPECTED[name]
    assert e.totals[1] == 5.0
    e = ENGINES[name](2).run(LITERAL)
    assert e.backend == "python"
    assert multiset(e.snapshot(1)) == EXPECTED[name]
    assert e.totals[1] == 5.0
    assert multiset(Oracle(2, POLICIES[name]).run(LITERAL).snapshot(1)) == EXPECTED[name]


@pytest.mark.parametrize("most_recent", [False, True])
def test_literal_case_coalesce(most_recent):
    e = GenTimeEngine(2, most_recent=most_recent, coalesce=True).run(LITERAL)
    assert multiset(e.snapshot(1)) == EXPECTED["lrb"]


@pytest.mark.parametrize("name", list(ENGINES))
def test_literal_case_kernel(name, compiled):
    e = ENGINES[name](2).run(LITERAL)
    assert e.backend == "compiled"
    assert multiset(e.snapshot(1)) == EXPECTED[name]
    assert e.totals[1] == 5.0


def test_self_relay_extends_route():
    stream = [Interaction(0, 1, 1.0, 3.0), Interaction(1, 1, 2.0, 2.0)]
    for name in ENGINES:
        e = ENGINES[name](2, track_paths=True).run(stream)
        # the split copy leaves v1 for v1, so its route gains v1
        assert multiset(e.snapshot_paths(1)) == [(0, 1.0, (0,)), (0, 2.0, (0, 1))]


def test_lifo_self_interaction_rejoins_in_selection_order():
    stream = [Interaction(0, 1, float(t), q) for t, q in ((1, 1.0), (2, 2.0), (3, 4.0))]
    stream.append(Interaction(1, 1, 4.0, 6.0))  # selects 4 then 2 from the top
    e = ReceiptEngine(2, lifo=True).run(stream)
    assert e.snapshot(1) == [(0, 1.0), (0, 4.0), (0, 2.0)]
    assert e.snapshot(1) == Oracle(2, Policy.LIFO).run(stream).snapshot(1)


# A dust-only buffer once made a self-interaction loop forever, in process()
# and in the kernel.  Neither a signal handler (the C loop holds the
# interpreter) nor a hypothesis deadline (it fires only after an example
# returns) can stop that, so the case runs in a child process with a timeout.
DUST_SCRIPT = """
from tinprov import GenTimeEngine, Interaction, ReceiptEngine
stream = [Interaction(0, 1, 1.0, 1e-20), Interaction(1, 1, 2.0, 1.0)]
makes = [
    lambda: ReceiptEngine(2),
    lambda: ReceiptEngine(2, lifo=True),
    lambda: GenTimeEngine(2),
    lambda: GenTimeEngine(2, most_recent=True),
]
for make in makes:
    stepped = make()
    for r in stream:
        stepped.process(r)
    print(repr((sorted(stepped.snapshot(1)), sorted(make().run(stream).snapshot(1)))))
"""


def test_dust_self_interaction_returns():
    src = str(Path(tinprov.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", DUST_SCRIPT],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    lines = [ast.literal_eval(line) for line in done.stdout.splitlines()]
    receipt = [(0, 1e-20), (1, 1.0)]
    gentime = [(0, 1.0, 1e-20), (1, 2.0, 1.0)]
    assert lines == [(receipt, receipt)] * 2 + [(gentime, gentime)] * 2


EPS = 1e-9
N = 4
CONFIGS = [(name, {}) for name in ENGINES]
CONFIGS += [(name, {"track_paths": True}) for name in ENGINES]
CONFIGS += [(name, {"coalesce": True}) for name in ("lrb", "mrb")]

steps = st.lists(
    st.tuples(
        st.integers(0, N - 1),
        st.integers(0, N - 1),
        st.booleans(),  # advance the clock; False repeats the last timestamp
        st.one_of(
            st.integers(1, 10).map(float),
            st.floats(-2 * EPS, 2 * EPS).map(lambda delta: ("near", delta)),
            st.just(1e-20),
        ),
    ),
    max_size=40,
)


def build_stream(spec):
    """Interactions from ``spec``; ("near", delta) asks for the source's total
    plus delta, so quantities land within epsilon of the buffer total."""
    base = NoProvEngine(N)
    stream = []
    t = 0.0
    for s, d, tick, q in spec:
        t += tick
        if isinstance(q, tuple):
            q = max(base.totals[s] + q[1], 1e-20)
        r = Interaction(s, d, t, q)
        base.process(r)
        stream.append(r)
    return stream


@settings(max_examples=150, deadline=5000)
@given(steps)
def test_snapshots_sum_to_totals(spec):
    """After every step each snapshot sums to totals[v].  A whole move may
    carry up to epsilon more than asked, so after k steps the sums may be off
    by k * epsilon, plus float rounding on the mass moved so far."""
    stream = build_stream(spec)
    for name, options in CONFIGS:
        e = ENGINES[name](N, epsilon=EPS, **options)
        mass = 0.0
        for k, r in enumerate(stream, start=1):
            e.process(r)
            mass += r.quantity
            tol = k * EPS + 1e-12 * mass
            for v in range(N):
                held = sum(p[-1] for p in e.snapshot(v))
                assert abs(held - e.totals[v]) <= tol, (name, options, k, v)
                if e.paths is not None:
                    assert all(route[0] == o for o, _, route in e.snapshot_paths(v))


def self_loop_stream(n_vertices, n_interactions, seed):
    """Half self-loops; quantities are integers, the source's whole total, or
    that total give or take a little."""
    rng = random.Random(seed)
    base = NoProvEngine(n_vertices)
    out = []
    for i in range(n_interactions):
        s = rng.randrange(n_vertices)
        d = s if rng.random() < 0.5 else rng.randrange(n_vertices)
        held = base.totals[s]
        q = rng.choice([float(rng.randint(1, 20)), held, held + 0.5, held * 0.75])
        r = Interaction(s, d, float(i // 3), q if q > 0.0 else 1.0)
        base.process(r)
        out.append(r)
    return out


@pytest.mark.parametrize("name", list(ENGINES))
def test_kernel_agrees_with_process_on_self_loops(name, compiled):
    stream = self_loop_stream(30, 5_000, seed=7)
    ref = ENGINES[name](30)
    for r in stream:
        ref.process(r)
    e = ENGINES[name](30).run(stream)
    assert e.backend == "compiled"
    assert [e.snapshot(v) for v in range(30)] == [ref.snapshot(v) for v in range(30)]
    assert e.totals == ref.totals
    assert e.entries == ref.entries
    assert e.peak_entries == ref.peak_entries
