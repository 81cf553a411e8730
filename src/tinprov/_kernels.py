"""Compiled replay kernels (C, loaded with ctypes).

Long path-free replays are dominated by per-parcel interpreter overhead, so
the element engines' ``run()`` hands whole streams of ``MIN_STREAM`` or more
interactions to these kernels; :func:`accepts` holds that rule for both
engines.  :func:`replay_receipt` and :func:`replay_gentime` copy a kernel's
totals and counters into the engine and return its parcels, from which the
engine rebuilds its buffers.  The C source ships inside the package
(``_replay.c``).  It is compiled with the system ``cc`` on the first kernel
use, or by :func:`warmup`, into a per-process temporary directory, and the
library is loaded from there.  NumPy, which holds the arrays a kernel
reads and writes, is imported by the functions that build those arrays, so
importing the package loads neither a compiler nor NumPy.  Call
:func:`warmup` once to keep the build (about 0.2 s) out of timings.

Semantics are identical to the engines' ``process()`` paths: the same
selection rule, split/dust rule, newborn rule, baseline total arithmetic and,
for the generation-time heaps, the same ``heapq`` layout.  Results are
bit-identical to the pure-Python path, and the engines' tests difference the
two.  Without a C compiler the engines run pure Python.
"""

from __future__ import annotations

import ctypes
import logging
import shutil
import tempfile
from itertools import accumulate, chain
from pathlib import Path

logger = logging.getLogger(__name__)

_SOURCE = Path(__file__).with_name("_replay.c")
_CC = shutil.which("cc")

#: True while the C kernels can be built: a C compiler is on PATH and no
#: build has failed in this process.
AVAILABLE = _CC is not None

#: streams shorter than this are not worth the array conversion
MIN_STREAM = 100_000

#: records per block of ``stream_arrays``
_BLOCK = 1 << 16

_lib = None


def stream_arrays(stream):
    """Column arrays (source, dest, time, quantity) for a materialized stream.

    Records are read as float64 in one pass per block of ``_BLOCK``, so the
    temporary rows stay small next to the columns.  Vertex indices, all
    below 2**53, come back exact as int64.
    """
    import numpy as np

    n = len(stream)
    columns = [np.empty(n, np.int64), np.empty(n, np.int64), np.empty(n), np.empty(n)]
    for start in range(0, n, _BLOCK):
        block = stream[start:start + _BLOCK]
        rows = np.fromiter(chain.from_iterable(block), np.float64, 4 * len(block))
        for column, values in zip(columns, rows.reshape(-1, 4).T):
            column[start:start + len(block)] = values
    return columns


def _build():
    """Compile ``_replay.c`` in a temporary directory and load the library."""
    import subprocess

    import numpy as np

    with tempfile.TemporaryDirectory(prefix="tinprov-") as tmp:
        so = str(Path(tmp) / "replay.so")
        subprocess.run(
            [_CC, "-O2", "-shared", "-fPIC", "-o", so, str(_SOURCE)],
            check=True,
            capture_output=True,
            text=True,
        )
        lib = ctypes.CDLL(so)  # stays mapped after the file is removed

    def arr(dtype):
        return np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")

    i64, f64 = arr(np.int64), arr(np.float64)
    c_i64, c_f64 = ctypes.c_int64, ctypes.c_double
    lib.replay_receipt.restype = c_i64
    lib.replay_receipt.argtypes = [
        c_i64, i64, i64, f64, c_i64, ctypes.c_int, c_f64,  # stream and settings
        f64, f64, f64, i64, f64, i64,  # totals, generated, cum_nb, parcels, counts
    ]
    lib.replay_gentime.restype = c_i64
    lib.replay_gentime.argtypes = [
        c_i64, i64, i64, f64, f64, c_i64, c_f64, c_f64,  # stream and settings
        f64, f64, f64, i64, f64, f64, i64, i64,  # totals, generated, cum_nb, parcels, counts
    ]
    return lib


def warmup() -> bool:
    """Build and load the kernels unless done already; returns availability.

    A failed build is logged once and leaves the engines on pure Python.
    """
    global _lib, AVAILABLE
    if _lib is None and AVAILABLE:
        import subprocess  # imported late: it is only needed for the build

        try:
            _lib = _build()
        except (OSError, subprocess.CalledProcessError) as exc:
            detail = getattr(exc, "stderr", None) or exc
            logger.warning("C replay kernels unavailable, using pure Python: %s", detail)
            AVAILABLE = False
    return _lib is not None


def accepts(engine, stream) -> bool:
    """Whether ``engine.run(stream)`` should replay ``stream`` in a kernel.

    The kernels start from empty buffers and keep neither routes nor merged
    parcels, so the engine must be fresh, with route tracking and coalescing
    off.  The stream must be a list or tuple of ``MIN_STREAM`` or more
    interactions, and the kernels must build.
    """
    return (
        engine.paths is None
        and not engine.coalesce
        and engine.interactions_processed == 0
        and engine.entries == 0
        and isinstance(stream, (list, tuple))
        and len(stream) >= MIN_STREAM
        and warmup()
    )


def by_vertex(items: list, counts: list[int]) -> list[list]:
    """Cut ``items`` into consecutive lists, ``counts[v]`` long for vertex v."""
    bounds = [0, *accumulate(counts)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _replay(kernel, engine, columns, setting, parcel_dtypes):
    """Run ``kernel`` over the stream ``columns`` into a fresh ``engine``.

    Copies the kernel's totals, generated mass, cumulative newborn mass,
    entry counts and interaction count into the engine.  Returns the live
    parcels as one list per parcel field, in buffer order, vertex by vertex,
    and the per-vertex parcel counts.
    """
    import numpy as np

    src, dst = columns[0], columns[1]
    n, nv = src.size, engine.n_vertices
    if n and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= nv):
        raise IndexError(f"vertex index outside [0, {nv})")
    totals = np.zeros(nv)
    generated = np.zeros(nv)
    cum_nb = np.zeros(1)
    # at most one split copy and one newborn per interaction
    parcels = [np.empty(2 * n + 1, dtype) for dtype in parcel_dtypes]
    counts = np.empty(nv, np.int64)
    entries = kernel(
        n, *columns, nv, setting, engine.epsilon,
        totals, generated, cum_nb, *parcels, counts,
    )
    if entries < 0:
        raise MemoryError("replay kernel could not allocate its parcel pools")
    engine.totals = totals.tolist()
    engine.generated = generated.tolist()
    engine.cumulative_newborn = float(cum_nb[0])
    engine.entries = entries
    engine.peak_entries = max(engine.peak_entries, entries)
    engine.interactions_processed = n
    return [p[:entries].tolist() for p in parcels], counts.tolist()


def replay_receipt(engine, stream, lifo: bool):
    """Replay ``stream`` under FIFO/LIFO into a fresh ``engine``.

    Returns ``[origins, quantities], counts``: every live parcel in buffer
    order (front to back, FIFO and LIFO alike).
    """
    src, dst, _, qty = stream_arrays(stream)
    return _replay(_lib.replay_receipt, engine, (src, dst, qty), int(lifo), ("int64", "float64"))


def replay_gentime(engine, stream, sign: float):
    """Replay ``stream`` under LRB (sign 1) or MRB (sign -1) into a fresh ``engine``.

    Returns ``[origins, births, quantities, seqs], counts``: every live parcel
    in heap-array order.  A parcel's sequence number is its creation index,
    so the next free one is ``engine.entries``.
    """
    return _replay(
        _lib.replay_gentime, engine, stream_arrays(stream), sign,
        ("int64", "float64", "float64", "int64"),
    )
