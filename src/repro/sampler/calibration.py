"""Persisted per-backend timing calibration for adaptive scheduling.

The :class:`~repro.sampler.schedule.AdaptiveScheduler`'s static cost
model (``qubits x ops x reps``) is *relative*: it ranks entries of one
batch correctly when they share a backend and width, but it knows
nothing about absolute speed — and its cross-width/cross-backend ratios
are systematically wrong (a state-vector op costs ``2^n`` work, a
tableau op ``n^2``; the model charges both ``n``).  Every process also
used to start **cold**: ``seconds_per_cost`` was re-measured from
scratch on every run.

This module closes that loop across processes:

* :class:`CalibrationTable` is a keyed store of measured
  ``seconds_per_cost`` samples — keyed by **backend type name x
  qubit-width bucket** (buckets are powers of two via
  :func:`width_bucket`, so widths 13 and 16 share an entry and sparse
  measurements generalize).  Samples blend by exponential moving
  average, so a stale entry converges to current hardware within a few
  runs.
* The table persists as JSON under a cache directory
  (``$BGLS_CALIBRATION_DIR``, else ``$XDG_CACHE_HOME/bgls``, else
  ``~/.cache/bgls``) — **load-on-construct** with an in-memory
  fallback: a missing, corrupt, or unreadable file yields an empty
  table and never raises, and write failures are swallowed (calibration
  is an optimization, never a correctness dependency).  Writes are
  atomic (temp file + ``os.replace``), so a crashed process cannot
  leave a torn file behind.
* :func:`shared_calibration_table` is the process-wide default used by
  schedulers constructed with ``calibration="auto"``.  Set
  ``BGLS_CALIBRATION=0`` to keep the shared table memory-only
  (hermetic test runs, read-only filesystems).

Determinism note: a loaded table may change *scheduling geometry* for
mixed-backend/mixed-width batches (calibrated costs reweight the
fair-share split decisions), which changes the deterministic seed
recipe exactly like any other scheduler configuration change.  Output
remains a pure function of (batch, seed, scheduler config, table
content) — never of runtime timing; measurements recorded *during* a
run only affect later ``schedule()`` calls, never the one in flight.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from typing import Dict, Optional, Tuple

#: Sub-resolution clamp for timing samples: ``time.perf_counter`` deltas
#: on tiny tasks can quantize to exactly 0.0, and a zero sample would
#: poison ``seconds_per_cost`` (every estimate becomes 0).  One hundred
#: nanoseconds is below any real task and above every clock resolution.
MIN_CALIBRATION_SECONDS = 1e-7

#: EMA blend factor for new samples (0 < alpha <= 1): the first sample
#: is taken verbatim, later ones move the stored value 30% of the way.
EMA_ALPHA = 0.3

_FILENAME = "calibration.json"
_VERSION = 1


def default_calibration_path() -> str:
    """The JSON path the shared table persists to.

    ``$BGLS_CALIBRATION_DIR`` overrides the directory; otherwise the
    XDG cache convention applies (``$XDG_CACHE_HOME/bgls``, defaulting
    to ``~/.cache/bgls``).
    """
    root = os.environ.get("BGLS_CALIBRATION_DIR")
    if not root:
        cache_home = os.environ.get("XDG_CACHE_HOME") or os.path.join(
            os.path.expanduser("~"), ".cache"
        )
        root = os.path.join(cache_home, "bgls")
    return os.path.join(root, _FILENAME)


def width_bucket(num_qubits: int) -> int:
    """The qubit-width bucket of a measurement: the next power of two.

    Bucketing keeps the table dense (widths 9-16 share one entry) while
    still separating the regimes where per-cost-unit time genuinely
    differs (a 4-qubit state vector and a 32-qubit one are different
    machines as far as ``seconds_per_cost`` is concerned).
    """
    n = max(1, int(num_qubits))
    return 1 << (n - 1).bit_length()


class CalibrationTable:
    """Keyed ``seconds_per_cost`` store: backend type x width bucket.

    Args:
        path: JSON file backing the table.  ``None`` uses
            :func:`default_calibration_path`.
        persist: When False the table is memory-only — :meth:`flush`
            becomes a no-op and nothing is read from or written to disk.

    Thread-safe: recording from an executor's collection loop and
    reading from a scheduler in another thread serialize on one lock.
    """

    def __init__(self, path: Optional[str] = None, persist: bool = True):
        self.path = path if path is not None else default_calibration_path()
        self.persist = bool(persist)
        self.load_error: Optional[str] = None
        self._lock = threading.Lock()
        # (backend, bucket) -> {"seconds_per_cost": float, "samples": int}
        self._entries: Dict[Tuple[str, int], Dict[str, float]] = {}
        self._dirty = False
        if self.persist:
            self._load()

    # -- persistence -------------------------------------------------------
    def _load(self) -> None:
        """Read the backing JSON; any failure leaves an empty table."""
        try:
            with open(self.path) as f:
                raw = json.load(f)
            entries = {}
            for backend, buckets in raw["entries"].items():
                for bucket, entry in buckets.items():
                    spc = float(entry["seconds_per_cost"])
                    if spc <= 0:
                        raise ValueError(f"non-positive sample for {backend}")
                    entries[(str(backend), int(bucket))] = {
                        "seconds_per_cost": spc,
                        "samples": int(entry.get("samples", 1)),
                    }
            self._entries = entries
        except FileNotFoundError:
            pass
        except Exception as exc:  # corrupt/unreadable: in-memory fallback
            self.load_error = f"{type(exc).__name__}: {exc}"

    def flush(self) -> bool:
        """Atomically write the table if it changed; True on a write.

        Failures (read-only filesystem, missing permissions) are
        swallowed: a table that cannot persist still calibrates the
        current process.
        """
        with self._lock:
            if not (self.persist and self._dirty):
                return False
            payload = {
                "version": _VERSION,
                "entries": self._serialize(),
            }
            self._dirty = False
        try:
            directory = os.path.dirname(self.path) or "."
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=".calibration-", suffix=".tmp", dir=directory
            )
            try:
                with os.fdopen(fd, "w") as f:
                    json.dump(payload, f, indent=2, sort_keys=True)
                os.replace(tmp, self.path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            return True
        except OSError:
            return False

    def _serialize(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        out: Dict[str, Dict[str, Dict[str, float]]] = {}
        for (backend, bucket), entry in sorted(self._entries.items()):
            out.setdefault(backend, {})[str(bucket)] = {
                "seconds_per_cost": entry["seconds_per_cost"],
                "samples": int(entry["samples"]),
            }
        return out

    # -- recording and lookup ----------------------------------------------
    def record(
        self, backend: str, num_qubits: int, seconds_per_cost: float
    ) -> None:
        """Blend one measured ``seconds_per_cost`` sample into the table.

        Non-finite or non-positive samples are rejected (the
        sub-resolution clamp belongs to the *measurement* site —
        :meth:`AdaptiveScheduler.calibrate` — which never hands a zero
        down here).
        """
        spc = float(seconds_per_cost)
        if not (spc > 0.0) or spc != spc or spc == float("inf"):
            return
        key = (str(backend), width_bucket(num_qubits))
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._entries[key] = {"seconds_per_cost": spc, "samples": 1}
            else:
                blended = (
                    (1.0 - EMA_ALPHA) * entry["seconds_per_cost"]
                    + EMA_ALPHA * spc
                )
                entry["seconds_per_cost"] = blended
                entry["samples"] = int(entry["samples"]) + 1
            self._dirty = True

    def seconds_per_cost_for(
        self, backend: Optional[str], num_qubits: Optional[int]
    ) -> Optional[float]:
        """The stored rate for (backend, width), or None.

        Falls back to the nearest bucket of the *same backend* (cost
        rates drift smoothly with width within one backend), never
        across backends.
        """
        if backend is None or num_qubits is None:
            return None
        bucket = width_bucket(num_qubits)
        with self._lock:
            entry = self._entries.get((str(backend), bucket))
            if entry is not None:
                return entry["seconds_per_cost"]
            same_backend = [
                (abs(b - bucket), b, e)
                for (name, b), e in self._entries.items()
                if name == str(backend)
            ]
        if not same_backend:
            return None
        _, _, nearest = min(same_backend, key=lambda item: (item[0], item[1]))
        return nearest["seconds_per_cost"]

    def sample_count(self, backend: str, num_qubits: int) -> int:
        """How many samples the exact (backend, bucket) entry has seen."""
        key = (str(backend), width_bucket(num_qubits))
        with self._lock:
            entry = self._entries.get(key)
            return int(entry["samples"]) if entry is not None else 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"CalibrationTable(path={self.path!r}, entries={len(self)}, "
            f"persist={self.persist})"
        )


_SHARED: Optional[CalibrationTable] = None
_SHARED_LOCK = threading.Lock()


def shared_calibration_table() -> CalibrationTable:
    """The process-wide default table (``calibration="auto"``).

    Created on first use; persistence follows ``BGLS_CALIBRATION``
    (``0``/``false``/``off`` keeps it memory-only).  The path is
    resolved once — point ``BGLS_CALIBRATION_DIR`` somewhere hermetic
    *before* the first scheduler is built (the test suite does).
    """
    global _SHARED
    with _SHARED_LOCK:
        if _SHARED is None:
            persist = os.environ.get("BGLS_CALIBRATION", "1").lower() not in (
                "0",
                "false",
                "off",
            )
            _SHARED = CalibrationTable(persist=persist)
        return _SHARED


def reset_shared_calibration_table() -> None:
    """Drop the shared table (tests); the next use rebuilds and reloads."""
    global _SHARED
    with _SHARED_LOCK:
        _SHARED = None


def resolve_calibration(spec) -> Optional[CalibrationTable]:
    """Normalize a scheduler's ``calibration`` argument.

    ``None`` disables calibration, ``"auto"`` selects the shared table,
    and a :class:`CalibrationTable` is used as-is.
    """
    if spec is None:
        return None
    if spec == "auto":
        return shared_calibration_table()
    if isinstance(spec, CalibrationTable):
        return spec
    raise ValueError(
        "calibration must be None, 'auto', or a CalibrationTable, got "
        f"{spec!r}"
    )


__all__ = [
    "CalibrationTable",
    "MIN_CALIBRATION_SECONDS",
    "default_calibration_path",
    "reset_shared_calibration_table",
    "resolve_calibration",
    "shared_calibration_table",
    "width_bucket",
]
