"""The compiled replay loop: its record reader, vertex check, buffers and module cache."""

import json
import os
import random
import subprocess
import sys
import sysconfig
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest
from conftest import kernels_buildable, rand_stream

import tinprov
from tinprov import GenTimeEngine, Interaction, ReceiptEngine, _kernels
from tinprov.paths import NO_PATH

KERNELS = {"receipt": ReceiptEngine, "gentime": GenTimeEngine}


@pytest.mark.parametrize(
    "field, bad", [("source", -1), ("dest", 5), ("dest", float("nan")), ("source", 1.5)]
)
@pytest.mark.parametrize("kernel", list(KERNELS))
def test_vertex_outside_range_raises(kernel, field, bad, compiled):
    stream = rand_stream(5, 10, seed=1)
    stream[7] = stream[7]._replace(**{field: bad})
    e = KERNELS[kernel](5)
    with pytest.raises(IndexError):
        e.run(stream)
    assert e.interactions_processed == 0


def replays_like_process(make, form=list):
    """Whether ``make().run()`` of a stream in ``form`` replays in a kernel
    with the snapshots of ``process()``."""
    stream = rand_stream(12, 400, seed=3, self_loops=True)
    ref = make()
    for r in stream:
        ref.process(r)
    e = make().run(form(stream))
    assert e.backend == "compiled"
    return [e.snapshot(v) for v in range(12)] == [ref.snapshot(v) for v in range(12)]


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_record_forms_replay_like_process(kernel, compiled):
    assert replays_like_process(lambda: KERNELS[kernel](12), tuple)
    assert replays_like_process(lambda: KERNELS[kernel](12), lambda s: [list(r) for r in s])
    stream = rand_stream(12, 40, seed=4)
    stream[9] = stream[9][:3]
    e = KERNELS[kernel](12)
    with pytest.raises(ValueError):
        e.run(stream)
    with pytest.raises(TypeError):  # the module takes no other iterable
        _kernels._lib.replay(iter(stream), 12, e.policy.value, e.epsilon, NO_PATH)
    assert e.interactions_processed == 0


def test_source_builds_without_warnings(tmp_path, compiled):
    """The loader's build, with every common warning made an error."""
    include = "-I" + sysconfig.get_paths()["include"]
    so = str(tmp_path / f"_replay{EXTENSION_SUFFIXES[0]}")
    flags = [*_kernels._FLAGS, "-Wall", "-Werror", include]
    done = subprocess.run(
        [_kernels._CC, *flags, "-o", so, str(_kernels._SOURCE)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch, compiled):
    """Kernels not yet loaded in this process, cached under ``tmp_path``."""
    monkeypatch.setattr(_kernels, "_CACHE_DIR", tmp_path)
    monkeypatch.setattr(_kernels, "_lib", None)
    monkeypatch.setattr(_kernels, "AVAILABLE", True)
    return tmp_path


WARM_SCRIPT = """
import sys
from pathlib import Path
from tinprov import ReceiptEngine, Interaction, _kernels
_kernels._CACHE_DIR = Path(sys.argv[1])
_kernels._CC = "/bin/false"  # any compile attempt fails
e = ReceiptEngine(2).run([Interaction(0, 1, 1.0, 3.0), Interaction(1, 0, 2.0, 2.0)])
print(e.backend, e.snapshot(0))
"""


def test_warm_cache_loads_without_compiling(fresh_cache):
    assert _kernels.warmup()
    assert list(fresh_cache.iterdir()) == [_kernels._cache_path()]
    src = str(Path(tinprov.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", WARM_SCRIPT, str(fresh_cache)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "compiled [(0, 2.0)]"


def test_unwritable_cache_builds_per_process(fresh_cache, monkeypatch):
    # tests may run as root, for whom no mode bit blocks a write, but nothing
    # can create a directory beneath a regular file
    blocker = fresh_cache / "file"
    blocker.write_bytes(b"")
    monkeypatch.setattr(_kernels, "_CACHE_DIR", blocker / "cache")
    assert _kernels.warmup()
    assert list(fresh_cache.iterdir()) == [blocker] and blocker.read_bytes() == b""
    assert replays_like_process(lambda: ReceiptEngine(12, lifo=True))
    assert replays_like_process(lambda: GenTimeEngine(12))


def test_garbage_cache_file_is_rebuilt(fresh_cache):
    cached = _kernels._cache_path()
    cached.write_bytes(b"not a shared library")
    assert _kernels.warmup()
    assert cached.read_bytes() != b"not a shared library"
    assert list(fresh_cache.iterdir()) == [cached]  # no temporary file left
    assert replays_like_process(lambda: ReceiptEngine(12))
    assert replays_like_process(lambda: GenTimeEngine(12, most_recent=True))


def test_fresh_build_prunes_stale_modules(fresh_cache):
    suffix = EXTENSION_SUFFIXES[0]
    stale = fresh_cache / f"_replay.deadbeef{suffix}"
    in_flight = fresh_cache / "_replay.abc123.tmp"
    foreign = fresh_cache / "_replay.deadbeef.cpython-00-foreign.so"
    for f in (stale, in_flight, foreign):
        f.write_bytes(b"")
    undeletable = fresh_cache / f"_replay.cafe{suffix}"
    undeletable.mkdir()  # a failed removal leaves the new module usable
    assert _kernels.warmup()
    kept = [_kernels._cache_path(), in_flight, foreign, undeletable]
    assert sorted(fresh_cache.iterdir()) == sorted(kept)


def hub_stream(seed=5):
    """A 3-vertex stream of 22,000 interactions that drives vertex 0's buffer
    through many doublings, FIFO slides and long self-loop runs.

    Spokes 1 and 2 first fill the hub with 8,000 one-to-three-unit parcels,
    then the hub rotates them in a run of 3,000 self-loops, then it sends to
    and receives from the spokes in turn, so its queue's front moves while
    its back grows.  A last 3,000 interactions are random, self-loops
    included, in runs of up to 40 equal records.  Quantities are integers,
    so no split ever leaves dust.
    """
    rng = random.Random(seed)
    pairs = [(rng.choice((1, 2)), 0, rng.randint(1, 3)) for _ in range(8000)]
    pairs += [(0, 0, rng.randint(1, 5)) for _ in range(3000)]
    for _ in range(4000):
        spoke = rng.choice((1, 2))
        pairs += [(spoke, 0, 1), (0, spoke, rng.randint(1, 4))]
    while len(pairs) < 22000:
        s, d = rng.randrange(3), rng.randrange(3)
        pairs += [(s, d, rng.randint(1, 60))] * rng.randint(1, 40)
    return [Interaction(s, d, float(t), float(q)) for t, (s, d, q) in enumerate(pairs[:22000])]


ELEMENT_ENGINES = {
    "fifo": lambda: ReceiptEngine(3),
    "lifo": lambda: ReceiptEngine(3, lifo=True),
    "lrb": lambda: GenTimeEngine(3),
    "mrb": lambda: GenTimeEngine(3, most_recent=True),
}


@pytest.mark.parametrize("name", list(ELEMENT_ENGINES))
def test_long_hub_buffer_replays_like_process(name, compiled):
    stream = hub_stream()
    ref = ELEMENT_ENGINES[name]()
    for r in stream:
        ref.process(r)
    e = ELEMENT_ENGINES[name]().run(stream)
    assert e.backend == "compiled"
    assert ref.peak_entries >= 8000  # the hub held 8,000 parcels at once
    assert [e.snapshot(v) for v in range(3)] == [ref.snapshot(v) for v in range(3)]
    assert e.totals == ref.totals
    assert e.generated == ref.generated
    assert e.cumulative_newborn == ref.cumulative_newborn
    assert (e.entries, e.peak_entries) == (ref.entries, ref.peak_entries)


SANITIZED_SCRIPT = """
import json, sys
from tinprov import GenTimeEngine, Interaction, ReceiptEngine, _kernels
_kernels._lib = _kernels._open(sys.argv[1])
makes = [
    lambda n: ReceiptEngine(n),
    lambda n: ReceiptEngine(n, lifo=True),
    lambda n: GenTimeEngine(n),
    lambda n: GenTimeEngine(n, most_recent=True),
]
with open(sys.argv[2]) as fh:
    cases = json.load(fh)
for n, records, error in cases:
    stream = [Interaction(*r) if len(r) == 4 else tuple(r) for r in records]
    for make in makes:
        if error:
            try:
                make(n).run(stream)
            except Exception as exc:
                assert type(exc).__name__ == error, exc
            else:
                raise AssertionError(f"no {error}")
            continue
        ref = make(n)
        for r in stream:
            ref.process(r)
        e = make(n).run(stream)
        assert e.backend == "compiled"
        assert [e.snapshot(v) for v in range(n)] == [ref.snapshot(v) for v in range(n)]
        assert (e.totals, e.generated, e.entries) == (ref.totals, ref.generated, ref.entries)
print("replayed", len(cases) * len(makes))
"""


def sanitizer_runtimes():
    """The compiler's ASan and UBSan runtime libraries, or None if either is missing."""
    paths = []
    for lib in ("libasan.so", "libubsan.so"):
        done = subprocess.run(
            [_kernels._CC, f"-print-file-name={lib}"], capture_output=True, text=True
        )
        path = Path(done.stdout.strip())
        if not (path.is_absolute() and path.exists()):
            return None
        paths.append(str(path))
    return paths


def test_replay_is_clean_under_sanitizers(tmp_path):
    """Built with AddressSanitizer and UndefinedBehaviorSanitizer, the module
    replays random streams, the long hub stream and the three malformed
    records of the record reader like process(), with no report."""
    runtimes = kernels_buildable() and sanitizer_runtimes()
    if not runtimes:
        pytest.skip("no C compiler, Python headers or sanitizer runtimes")
    so = tmp_path / f"_replay{EXTENSION_SUFFIXES[0]}"
    sanitize = ["-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=undefined"]
    include = "-I" + sysconfig.get_paths()["include"]
    done = subprocess.run(
        [_kernels._CC, *_kernels._FLAGS, *sanitize, include, "-o", str(so), str(_kernels._SOURCE)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    cases = [(0, [], None), (1, [], None)]
    for seed in range(30):
        cases.append((5, rand_stream(5, 300, seed, self_loops=True), None))
        # fractional quantities, down to about 1e-12, so epsilon decides some moves
        scale = 7.0 ** (seed % 15)
        stream = rand_stream(12, 300, seed, self_loops=True)
        stream = [r._replace(quantity=r.quantity / scale) for r in stream]
        cases.append((12, stream, None))
    cases.append((3, hub_stream(), None))
    bad = rand_stream(5, 20, seed=1)
    cases += [
        (5, [*bad[:9], bad[9][:3], *bad[10:]], "ValueError"),
        (5, [*bad[:9], bad[9]._replace(dest=5), *bad[10:]], "IndexError"),
        (5, [*bad[:9], [*bad[9][:3], "x"], *bad[10:]], "TypeError"),
    ]
    (tmp_path / "cases.json").write_text(json.dumps(cases))
    src = str(Path(tinprov.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": src,
        "LD_PRELOAD": " ".join(runtimes),
        "ASAN_OPTIONS": "detect_leaks=0",
    }
    done = subprocess.run(
        [sys.executable, "-c", SANITIZED_SCRIPT, str(so), str(tmp_path / "cases.json")],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    assert "Sanitizer" not in done.stderr and "runtime error" not in done.stderr, done.stderr
    assert done.stdout.strip() == f"replayed {4 * len(cases)}"
