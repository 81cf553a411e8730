"""Compiled replay kernels (C, built as an extension module).

Path-free replays are dominated by per-parcel interpreter overhead, so the
element engines' ``run()`` hands every stream that :func:`accepts` allows to
these kernels, whatever its length.  :func:`replay_receipt` and
:func:`replay_gentime` copy a kernel's totals and counters into the engine
and return its parcels, from which the engine rebuilds its buffers.

The C source ships inside the package (``_replay.c``) and builds as a
Python extension module: loading one costs a fraction of a millisecond,
where importing ``ctypes`` alone costs about 3 ms.  The first kernel use in
a process, or :func:`warmup`, loads the module cached beside the source as
``__pycache__/_replay.<key><suffix>``, where the key hashes the source and
the compiler flags, and the suffix is the interpreter's extension suffix
(``.cpython-311-x86_64-linux-gnu.so``).  Only when no cached module loads
is the source compiled, once, with the system ``cc`` and the interpreter's
headers (about 0.6 s), under a unique temporary name that is then moved
into place, so a concurrent process never loads a partial file.  Where that
directory cannot be written, each process builds its own copy in a
temporary directory.  Deleting the cached files forces a rebuild.

Importing the package loads neither a compiler nor NumPy, and the kernels
read and write ``array`` buffers, passed by address, so a replay never
loads NumPy either.  Vertex indices are checked in C before a replay starts.

Semantics are identical to the engines' ``process()`` paths: the same
selection rule, split/dust rule, newborn rule, baseline total arithmetic and,
for the generation-time heaps, the same ``heapq`` layout.  Results are
bit-identical to the pure-Python path, and the engines' tests difference the
two.  Without a C compiler or the Python headers the engines run pure
Python.
"""

from __future__ import annotations

import gc
import logging
import os
import shutil
from itertools import chain, islice
from pathlib import Path

logger = logging.getLogger(__name__)

_SOURCE = Path(__file__).with_name("_replay.c")
_CACHE_DIR = _SOURCE.with_name("__pycache__")
_CC = shutil.which("cc")
_FLAGS = ("-O2", "-shared", "-fPIC")

#: True while the C kernels can be used: a C compiler is on PATH and no
#: build or load has failed in this process.  Setting it False keeps the
#: engines on pure Python.
AVAILABLE = _CC is not None

#: records per block of ``stream_arrays``
_BLOCK = 1 << 16

_lib = None


def stream_arrays(stream):
    """The records of a materialized stream as one flat ``array('d')``.

    Each record contributes its source, dest, time and quantity in turn.  The
    buffer is built one block of ``_BLOCK`` records at a time, so the
    temporary list stays small next to it.  Vertex indices, all below 2**53,
    are exact as doubles.
    """
    from array import array  # imported late: runs without a kernel never need it

    records = array("d")
    for start in range(0, len(stream), _BLOCK):
        records += array("d", list(chain.from_iterable(stream[start:start + _BLOCK])))
    return records


def _cache_path() -> Path:
    """Where the module built from the current source is cached.

    The key is a CRC-32 of the source and the compiler flags, and the suffix
    is the interpreter's extension-module suffix, which names its ABI and
    platform.  A SHA-256 would need a module whose load alone, 0.5 ms
    (CPython's own) or 3.4 MB of resident memory (OpenSSL's), outweighs a
    short replay.
    """
    import zlib
    from importlib.machinery import EXTENSION_SUFFIXES

    key = zlib.crc32(" ".join(_FLAGS).encode(), zlib.crc32(_SOURCE.read_bytes()))
    return _CACHE_DIR / f"_replay.{key:08x}{EXTENSION_SUFFIXES[0]}"


def _compile(so) -> None:
    """Compile ``_replay.c`` to ``so``; a failed compile raises OSError."""
    import subprocess
    import sysconfig

    include = "-I" + sysconfig.get_paths()["include"]
    done = subprocess.run(
        [_CC, *_FLAGS, include, "-o", str(so), str(_SOURCE)], capture_output=True, text=True
    )
    if done.returncode:
        raise OSError(f"{_CC} exited with {done.returncode}: {done.stderr.strip()}")


def _open(so):
    """The extension module in the file ``so``; ImportError if it does not load."""
    from importlib.machinery import ExtensionFileLoader, ModuleSpec

    loader = ExtensionFileLoader("tinprov._replay", str(so))
    return loader.create_module(ModuleSpec(loader.name, loader, origin=loader.path))


def _load():
    """Load the cached module, compiling it when none loads."""
    cached = _cache_path()
    try:
        return _open(cached)
    except ImportError:
        pass  # not built yet, or not a loadable module: build it
    import tempfile

    try:
        cached.parent.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_replay.", suffix=".tmp", dir=cached.parent)
    except OSError as exc:
        logger.info("cannot cache the replay kernels (%s); building for this process", exc)
        with tempfile.TemporaryDirectory(prefix="tinprov-") as tmp:
            so = Path(tmp) / cached.name
            _compile(so)
            return _open(so)  # stays mapped after the file is removed
    os.close(fd)
    try:
        _compile(tmp)
        os.chmod(tmp, 0o755)  # mkstemp makes it private; other users load it too
        os.replace(tmp, cached)
    except BaseException:
        os.unlink(tmp)
        raise
    return _open(cached)


def warmup() -> bool:
    """Load the kernels unless done already; returns whether they are available.

    A process loads the cached module, which takes under a millisecond, or
    compiles it first (about 0.6 s) when none loads.  Call this once to keep
    either out of a timing.  A failed build is logged once and leaves the
    engines on pure Python.
    """
    global _lib, AVAILABLE
    if _lib is None and AVAILABLE:
        try:
            _lib = _load()
        except (OSError, ImportError) as exc:
            logger.warning("C replay kernels unavailable, using pure Python: %s", exc)
            AVAILABLE = False
    return AVAILABLE and _lib is not None


def accepts(engine, stream) -> bool:
    """Whether ``engine.run(stream)`` should replay ``stream`` in a kernel.

    The kernels start from empty buffers and keep neither routes nor merged
    parcels, so the engine must be fresh, with route tracking and coalescing
    off.  The stream must be a list or tuple, and the kernels must load.
    """
    return (
        engine.paths is None
        and not engine.coalesce
        and engine.interactions_processed == 0
        and engine.entries == 0
        and isinstance(stream, (list, tuple))
        and warmup()
    )


def by_vertex(make, items, counts: list[int]) -> list:
    """``make`` applied to consecutive runs of the iterable ``items``,
    ``counts[v]`` long for vertex v.

    The cyclic garbage collector is paused meanwhile.  The buffers are new
    containers without cycles, and the collections that building a million
    of them would trigger, each scanning the stream, cost several times the
    build itself.
    """
    items = iter(items)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return [make(islice(items, c)) for c in counts]
    finally:
        if enabled:
            gc.enable()


def _zeros(typecode: str, n: int):
    """An ``array`` of ``n`` zeros of an 8-byte ``typecode``."""
    from array import array

    return array(typecode, bytes(8 * n))


def _address(buf) -> int:
    return buf.buffer_info()[0]


def _replay(kernel, engine, stream, setting, parcel_types):
    """Run ``kernel`` over ``stream`` into a fresh ``engine``.

    Copies the kernel's totals, generated mass, cumulative newborn mass,
    entry counts and interaction count into the engine.  Returns the live
    parcels as one list per parcel field, in buffer order, vertex by vertex,
    and the per-vertex parcel counts, which :func:`by_vertex` cuts them by.
    """
    records = stream_arrays(stream)
    n, nv = len(stream), engine.n_vertices
    totals, generated, cum_nb = _zeros("d", nv), _zeros("d", nv), _zeros("d", 1)
    # at most one split copy and one newborn per interaction
    parcels = [_zeros(t, 2 * n + 1) for t in parcel_types]
    counts = _zeros("q", nv)
    outputs = (totals, generated, cum_nb, *parcels, counts)
    entries = kernel(n, _address(records), nv, setting, engine.epsilon, *map(_address, outputs))
    del records  # freed before the parcel lists are built
    if entries == -2:
        raise IndexError(f"vertex index outside [0, {nv})")
    if entries < 0:
        raise MemoryError("replay kernel could not allocate its parcel pools")
    engine.totals = totals.tolist()
    engine.generated = generated.tolist()
    engine.cumulative_newborn = cum_nb[0]
    engine.entries = entries
    engine.peak_entries = max(engine.peak_entries, entries)
    engine.interactions_processed = n
    engine.backend = "compiled"
    return [p[:entries].tolist() for p in parcels], counts.tolist()


def replay_receipt(engine, stream, lifo: bool):
    """Replay ``stream`` under FIFO/LIFO into a fresh ``engine``.

    Returns ``[origins, quantities], counts``: every live parcel in buffer
    order (front to back, FIFO and LIFO alike).
    """
    return _replay(_lib.replay_receipt, engine, stream, int(lifo), "qd")


def replay_gentime(engine, stream, sign: float):
    """Replay ``stream`` under LRB (sign 1) or MRB (sign -1) into a fresh ``engine``.

    Returns ``[origins, births, quantities, seqs], counts``: every live parcel
    in heap-array order.  A parcel's sequence number is its creation index,
    so the next free one is ``engine.entries``.
    """
    return _replay(_lib.replay_gentime, engine, stream, sign, "qddq")
