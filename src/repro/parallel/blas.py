"""Single-threaded BLAS for mining.

Step 2's BLAS and LAPACK calls are narrow: Gram products, Cholesky,
``dtrcon``, ``dpotri`` and ``lstsq`` on tens of columns by at most a few
thousand rows.  That is below OpenBLAS's threading break-even, yet by
default every OpenBLAS copy in the process (numpy's and scipy's wheels
each bundle one) wakes a thread per CPU for each call.  On a 2-CPU VM a
serial StackOverflow export (6,000 rows) spent 39.9 s of CPU in 21.3 s of
wall clock; with BLAS capped at one thread it took 12.6 s of CPU in
11.7 s, and ``_finish_gram`` fell from 3.4 s to 0.27 s under cProfile.
Thread count also changes GEMM reduction order, so an uncapped run's
utilities depended in the last ulp on the caller's BLAS setting.

Mining gets its parallelism from :mod:`repro.parallel.executors` instead,
so there is deliberately no knob: :func:`single_threaded_blas` wraps every
:meth:`repro.core.faircap.FairCap.run` and Step 2's entry point
(:func:`repro.core.intervention.mine_interventions_for_groups`), and
process workers call :func:`cap_blas_threads` once at start-up.

Libraries are found on first use by scanning ``/proc/self/maps`` for
OpenBLAS and looking up its thread getter/setter with :mod:`ctypes`.
Where none is found (MKL, Accelerate, non-Linux) both helpers do nothing.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

#: (getter, setter) symbol pairs, tried in order on each mapped library.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@dataclass(frozen=True)
class BlasLibrary:
    """One loaded OpenBLAS copy and its thread-count controls."""

    name: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


_lock = threading.Lock()
_depth = 0
_saved: list[tuple[BlasLibrary, int]] = []
_loaded: dict[str, BlasLibrary | None] = {}


def _load(path: str) -> BlasLibrary | None:
    import ctypes

    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for get_name, set_name in _SYMBOLS:
        getter = getattr(lib, get_name, None)
        setter = getattr(lib, set_name, None)
        if getter is not None and setter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return BlasLibrary(os.path.basename(path), getter, setter)
    return None


def blas_libraries() -> tuple[BlasLibrary, ...]:
    """Every OpenBLAS copy currently mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({
                line.split()[-1]
                for line in maps
                if "openblas" in line.rsplit("/", 1)[-1].lower()
            })
    except OSError:
        return ()
    for path in paths:
        if path not in _loaded:
            _loaded[path] = _load(path)
    return tuple(lib for path in paths if (lib := _loaded[path]) is not None)


def blas_info() -> list[dict]:
    """``[{"library", "threads"}, ...]`` for the run report's ``meta.blas``."""
    return [
        {"library": lib.name, "threads": lib.get_threads()}
        for lib in blas_libraries()
    ]


def cap_blas_threads() -> None:
    """Set every OpenBLAS copy to one thread for the rest of the process."""
    for lib in blas_libraries():
        lib.set_threads(1)


@contextmanager
def single_threaded_blas() -> Iterator[None]:
    """Run the body with every OpenBLAS copy at one thread.

    Reference-counted: concurrent and nested entries share one cap, and
    the previous thread counts come back only when the last one exits, so
    one run finishing never changes another's GEMM bits mid-mine.
    """
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = [(lib, lib.get_threads()) for lib in blas_libraries()]
            for lib, _ in _saved:
                lib.set_threads(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for lib, threads in _saved:
                    lib.set_threads(threads)
                _saved = []
