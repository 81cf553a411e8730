"""The compiled kernels' input buffer, their vertex check and the library cache."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import rand_stream

import tinprov
from tinprov import GenTimeEngine, ReceiptEngine, _kernels

KERNELS = {"receipt": ReceiptEngine, "gentime": GenTimeEngine}


def test_stream_arrays_are_the_flat_records(monkeypatch):
    monkeypatch.setattr(_kernels, "_BLOCK", 3)  # several blocks, the last one short
    stream = rand_stream(5, 10, seed=2)
    records = _kernels.stream_arrays(stream)
    assert records.typecode == "d"
    assert records.tolist() == [x for r in stream for x in r]


@pytest.mark.parametrize("field, bad", [("source", -1), ("dest", 5), ("dest", float("nan"))])
@pytest.mark.parametrize("kernel", list(KERNELS))
def test_vertex_outside_range_raises(kernel, field, bad, compiled):
    stream = rand_stream(5, 10, seed=1)
    stream[7] = stream[7]._replace(**{field: bad})
    e = KERNELS[kernel](5)
    with pytest.raises(IndexError):
        e.run(stream)
    assert e.interactions_processed == 0


def replays_like_process(make):
    stream = rand_stream(12, 400, seed=3, self_loops=True)
    ref = make()
    for r in stream:
        ref.process(r)
    e = make().run(stream)
    assert e.backend == "compiled"
    return [e.snapshot(v) for v in range(12)] == [ref.snapshot(v) for v in range(12)]


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
