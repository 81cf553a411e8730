"""The compiled kernels' record reader, their vertex check and the module cache."""

import os
import subprocess
import sys
import sysconfig
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest
from conftest import rand_stream

import tinprov
from tinprov import GenTimeEngine, ReceiptEngine, _kernels
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
