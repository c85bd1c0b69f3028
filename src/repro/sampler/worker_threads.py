"""Native-thread budget of pool workers: usable CPUs and BLAS thread caps.

NumPy's OpenBLAS starts one thread per core in *every* process that loads
it.  A pool of ``w`` workers on ``c`` cores therefore runs ``w * c`` BLAS
threads next to its ``w`` Python threads, and on a small box the workers
spend their time contending for cores instead of sampling.  Each pool
worker instead gets a budget of :func:`worker_thread_budget` threads —
its share of the usable CPUs — applied by the pool initializer before it
runs any task.

The helper is stdlib-only (``threadpoolctl`` is not a dependency): it
reads the shared objects mapped into this process from
``/proc/self/maps``, keeps the OpenBLAS builds among them (NumPy's and,
when loaded, SciPy's), and calls each one's thread setter through
:mod:`ctypes`.  It only ever *lowers* a thread count, so a smaller
setting made beforehand (say with ``OPENBLAS_NUM_THREADS=1``) is kept,
and it is a silent no-op where no library matches or ``/proc`` does not
exist (non-Linux platforms).

A capped worker applies gates to the same bits as the parent: BLAS
splits a matrix product over output blocks, never along the summed
index, so its result does not depend on the thread count (pinned by
``tests/test_worker_threads.py``).  OpenBLAS does split *dot products*
of more than 10 000 elements, so a state-vector norm or Kraus weight at
14 or more qubits can round differently in the last bits; a sample
changes only if a uniform draw lands within that rounding of a branch
boundary.
"""

from __future__ import annotations

import ctypes
import os
from typing import Callable, Dict, List, Tuple

#: Where the mapped shared objects of this process are listed (Linux).
_MAPS = "/proc/self/maps"

#: ``(getter, setter)`` symbol pairs, tried in order.  OpenBLAS builds
#: rename their exports: NumPy's bundled 64-bit-integer build exports
#: ``scipy_openblas_set_num_threads64_``, SciPy's bundled build
#: ``scipy_openblas_set_num_threads``, a system build the plain name.
_CONTROLS = [
    (f"{prefix}openblas_get_num_threads{suffix}",
     f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("", "scipy_")
    for suffix in ("", "64_", "_64")
]

_Control = Tuple[str, Callable[[], int], Callable[[int], None]]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one (``taskset``, container cpusets), else ``os.cpu_count()``.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def worker_thread_budget(num_workers: int) -> int:
    """Native threads each of ``num_workers`` pool workers may use."""
    return max(1, usable_cpus() // max(1, num_workers))


def _blas_paths() -> List[str]:
    """Paths of the loaded shared objects named like an OpenBLAS build."""
    try:
        with open(_MAPS) as maps:
            lines = maps.readlines()
    except OSError:
        return []
    paths = set()
    for line in lines:
        fields = line.split(None, 5)
        if len(fields) < 6:
            continue
        path = fields[5].strip()
        name = os.path.basename(path).lower()
        if ".so" in name and "openblas" in name:
            paths.add(path)
    return sorted(paths)


def _blas_controls() -> List[_Control]:
    """``(path, get, set)`` for every loaded BLAS library with a setter."""
    controls = []
    for path in _blas_paths():
        try:
            # RTLD_NOLOAD: only ever a handle on a library already loaded.
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except (OSError, AttributeError):
            continue
        for get_name, set_name in _CONTROLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype = ctypes.c_int
                get.argtypes = []
                set_.restype = None
                set_.argtypes = [ctypes.c_int]
                controls.append((path, get, set_))
                break
    return controls


def blas_thread_counts() -> Dict[str, int]:
    """The current thread count of every loaded BLAS library, by path."""
    return {path: get() for path, get, _ in _blas_controls()}


def limit_blas_threads(limit: int) -> Dict[str, int]:
    """Lower every loaded BLAS library's thread count to ``limit``.

    Never raises a count that is already at or below ``limit``.  Returns
    the counts afterwards, by path.
    """
    counts = {}
    for path, get, set_ in _blas_controls():
        current = get()
        if current > limit:
            set_(int(limit))
            current = get()
        counts[path] = current
    return counts


__all__ = [
    "blas_thread_counts",
    "limit_blas_threads",
    "usable_cpus",
    "worker_thread_budget",
]
