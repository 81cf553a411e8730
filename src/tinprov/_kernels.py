"""Compiled replay kernels (C, built as an extension module), and the element
engines' base class, :class:`ElementEngine`, whose ``run()`` hands them every
replay of a fresh engine that does not coalesce, routes or not, whatever its
length, in one call into the module.  The module reads the ``Interaction``
records, replays them and returns the engine's totals and its buffers, built
as the engine keeps them; with routes it fills the route store's node columns.

The C source ships inside the package (``_replay.c``) and builds as a
Python extension module: loading one costs a fraction of a millisecond,
where importing ``ctypes`` alone costs about 3 ms.  The first kernel use in
a process, or :func:`warmup`, loads the module cached beside the source as
``__pycache__/_replay.<key><suffix>``, where the key hashes the source and
the compiler flags, and the suffix is the interpreter's extension suffix
(``.cpython-311-x86_64-linux-gnu.so``).  Only when no cached module loads
is the source compiled, once, with the system ``cc`` and the interpreter's
headers (about 0.6 s), under a unique temporary name that is then moved
into place, so a concurrent process never loads a partial file, and the
modules this interpreter built from older sources are deleted.  Where that
directory cannot be written, each process builds its own copy in a
temporary directory.  Deleting the cached files forces a rebuild.

Importing the package loads neither a compiler nor NumPy, and a replay
never loads NumPy either.  Records are checked in C before a replay starts.

Semantics are identical to the engines' ``process()`` paths: the same
selection rule, split/dust rule, newborn rule, relay rule for routes,
baseline total arithmetic and, for the generation-time heaps, the same
``heapq`` layout.  Results are bit-identical to the pure-Python path, and the
engines' tests difference the two.  Without a C compiler or the Python
headers the engines run pure Python.
"""

from __future__ import annotations

import logging
import os
import shutil
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from typing import Optional

from .core import ConfigError, EngineBase
from .paths import PathStore

logger = logging.getLogger(__name__)

_SOURCE = Path(__file__).with_name("_replay.c")
_CACHE_DIR = _SOURCE.with_name("__pycache__")
_CC = shutil.which("cc")
_FLAGS = ("-O2", "-shared", "-fPIC")

#: True while the C kernels can be used: a C compiler is on PATH and no
#: build or load has failed in this process.  Setting it False keeps the
#: engines on pure Python.
AVAILABLE = _CC is not None

_lib = None


def _cache_path() -> Path:
    """Where the module built from the current source is cached.

    The key is a CRC-32 of the source and the compiler flags, and the suffix
    is the interpreter's extension-module suffix, which names its ABI and
    platform.  A SHA-256 would need a module whose load alone, 0.5 ms
    (CPython's own) or 3.4 MB of resident memory (OpenSSL's), outweighs a
    short replay.
    """
    import zlib

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
    # modules this interpreter built from older sources are never loaded again;
    # temporary files of builds in flight and other interpreters' modules stay
    for stale in cached.parent.glob("_replay.*" + EXTENSION_SUFFIXES[0]):
        if stale != cached:
            try:
                stale.unlink()
            except OSError:
                pass  # removed meanwhile, or not this user's to remove
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


class ElementEngine(EngineBase):
    """Routes and the kernel hand-off of the FIFO/LIFO and LRB/MRB engines.

    A subclass keeps vertex v's parcels in ``buffers[v]`` and defines
    ``process()``, ``snapshot()`` and ``_parcels(v)``, v's parcels as
    ``(origin, quantity, path)``.
    """

    def __init__(self, n_vertices: int, epsilon: float, track_paths: bool, coalesce: bool) -> None:
        if coalesce and track_paths:
            raise ConfigError("coalescing would merge parcels with distinct paths")
        super().__init__(n_vertices, epsilon)
        self.coalesce = coalesce
        self.paths: Optional[PathStore] = PathStore() if track_paths else None

    def run(self, stream) -> "ElementEngine":
        """Replay a whole stream; same semantics as repeated process() calls.

        The kernels start from empty buffers and an empty route store, and
        merge no parcels, so a fresh engine that does not coalesce replays a
        list or tuple in them when they load.  A record that is not four fields
        raises ValueError, and a source or dest that is not an integer in
        ``[0, n_vertices)`` raises IndexError, before the engine changes.
        """
        if (
            self.coalesce
            or self.interactions_processed
            or self.entries
            or not isinstance(stream, (list, tuple))
            or not warmup()
        ):
            return super().run(stream)
        # a new store, kept only once the replay succeeds
        paths = None if self.paths is None else PathStore()
        columns = None if paths is None else paths.columns
        self.totals, self.generated, self.cumulative_newborn, self.entries, buffers = (
            _lib.replay(stream, self.n_vertices, self.policy.value, self.epsilon, columns)
        )
        self.paths = paths
        self.peak_entries = max(self.peak_entries, self.entries)
        self.interactions_processed = len(stream)
        self.backend = "compiled"
        self._adopt(buffers)
        return self

    def _adopt(self, buffers: list) -> None:
        """Take a kernel replay's buffers, vertex v's parcels in buffer order:
        ``(origin, quantity, path)`` tuples under FIFO/LIFO, heap entries
        ``[key, origin, seq, quantity, path]`` in ``heapq`` layout under
        LRB/MRB, the path a handle into ``paths``, or NO_PATH without routes.
        They become ``buffers`` as given unless a subclass overrides this."""
        self.buffers = buffers

    def snapshot_paths(self, v: int) -> list[tuple[int, float, tuple[int, ...]]]:
        """Current parcels as (origin, quantity, route sequence)."""
        if self.paths is None:
            raise ConfigError("path tracking is not enabled")
        if not 0 <= v < self.n_vertices:
            return []
        return [(o, q, self.paths.sequence(p)) for o, q, p in self._parcels(v)]

    def average_path_length(self) -> float:
        """Mean route length (vertices, origin included) over resident parcels."""
        if self.paths is None:
            raise ConfigError("path tracking is not enabled")
        return self.paths.mean_length(
            p for v in range(self.n_vertices) for _, _, p in self._parcels(v)
        )
