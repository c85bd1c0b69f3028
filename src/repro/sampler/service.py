"""Warm-pool execution service: persistent workers, one pull-based path.

A process pool pays its worker-startup cost — spawning, shipping the
compiled unit and the packed initial state, restoring that state — per
*pool*.  Building one per ``execute`` call made a parameter sweep pay it
at every sweep point, which is exactly the overhead the paper's
gate-by-gate scaling argument says should be paid once.  This module is
the lifecycle and dispatch layer under
:class:`~repro.sampler.executors.ProcessPoolExecutor`:

* :class:`PoolManager` owns one process pool and keeps it — workers,
  shipped unit table, restored initial state and all — alive across
  ``execute`` / ``run_sweep`` / ``run_batch`` calls.  Workers are
  re-initialized **only when the execution key changes** (or a worker
  has died): the key combines the identity of the compiled units (a
  specialized :class:`~repro.sampler.plan.ExecutionPlan` or the
  :class:`~repro.sampler.program.Program` table of a batch), the
  initial-state payload (the registry ``snapshot`` payload for backends
  that declare one, object identity otherwise), the simulator
  configuration, and the pool geometry.  Because
  :meth:`Program.specialize` memoizes per resolved parameter tuple and
  the Program cache is process-wide, repeated runs of the same circuit
  reach the manager with the *same* unit objects and reuse the warm pool
  with zero re-initializations.
* :meth:`PoolManager.pull` is the one dispatch path of every pooled run.
  Tasks go onto the pool's shared task queue and each worker runs
  :func:`_task_loop`, pulling the next task as it frees up and reporting
  its result with a measured duration.  Every task runs the one body
  :func:`_run_task`: ``(unit_index, resolver, size, entropy, ctx[,
  slot])`` against the worker's unit table, seeded
  ``default_rng(SeedSequence(entropy))`` — a repetition chunk's integer
  seed or a batch task's ``[base, point(, chunk)]`` — and either
  written into a shared-memory result-plane slot or returned as
  ``(records, bits)``.
* Every worker gets a native-thread budget of ``max(1, usable_cpus //
  num_workers)`` (:mod:`~repro.sampler.worker_threads`), applied by the
  pool initializer :func:`_init_pool_worker` before the worker runs any
  task: it lowers, never raises, the thread count of each OpenBLAS
  library loaded in the worker.  Left at OpenBLAS's default of one
  thread per core, a 2-worker pool on 2 cores ran 4 BLAS threads beside
  its 2 Python threads and ran slower than the in-process run.  The budget
  follows from ``num_workers``, which the pool key already holds; the
  parent's own BLAS setting is never touched.
* A new pool starts cheaply under ``forkserver``:
  :func:`_pool_context` starts the forkserver with this package
  preloaded, so every worker forks from a process that has already
  imported it, and :meth:`PoolManager._ensure` pickles the worker
  payload once per pool instead of once per worker.  Neither changes
  when a pool is rebuilt.
* :func:`shared_pool_manager` is the default process-wide manager used by
  ``ProcessPoolExecutor(reuse_pool=True)``; it is shut down automatically
  at interpreter exit (``atexit``), and :class:`PoolManager` doubles as a
  context manager for scoped lifetimes.  ``shutdown()`` joins every
  worker, so no child processes outlive the manager.

Determinism contracts (pinned by ``tests/test_pool_service.py``):

* chunk ``i`` always receives ``SeedSequence([seed, i])`` — warm, scoped,
  and serial chunked runs of equal geometry are bit-for-bit identical;
* sweep point ``i`` always receives ``SeedSequence([seed, i])`` and runs
  as one stream — pooled point scope reproduces a serial ``run_sweep``
  exactly, on every backend;
* batched trajectory mode (``trajectory_mode="batched"``) anchors
  trajectory ``r`` of point ``p`` to ``SeedSequence([base, p, rep_base +
  r])``, where ``rep_base`` is the task's global repetition offset (the
  prefix sum of earlier chunks) — pooled batched output is a pure
  function of the global repetition index, invariant to worker count and
  chunk geometry (``tests/test_trajectory_batch.py``);
* which worker pulls which task never changes the output;
* the initial state is treated as immutable (the sampler only ever copies
  it); mutating it in place between calls is outside the contract.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import queue as _queue
import sys
import threading
import time
import weakref
from concurrent import futures as _cf
from multiprocessing.reduction import ForkingPickler
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..states.registry import capabilities_for
from .result_planes import SlotDescriptor, write_chunk_to_slot
from .worker_threads import limit_blas_threads, worker_thread_budget

RunParts = Tuple[Dict[str, np.ndarray], np.ndarray]

# The pid of the process that imported this module: a forkserver worker
# whose pid differs inherited the package from the preloaded server.
_IMPORT_PID = os.getpid()


# ----------------------------------------------------------------------
# chunk geometry and deterministic seeding (shared by every strategy)
# ----------------------------------------------------------------------

def _chunk_sizes(repetitions: int, num_chunks: int) -> List[int]:
    """Split ``repetitions`` into at most ``num_chunks`` near-equal parts.

    ``repetitions == 0`` yields no chunks (``[]``) rather than dividing
    by the zero-clamped chunk count; negative repetitions and a
    non-positive ``num_chunks`` are caller errors and raise ``ValueError``
    naming the offending argument (the service tier feeds this geometry
    straight off user input).
    """
    if repetitions < 0:
        raise ValueError(f"repetitions must be >= 0, got {repetitions}")
    if num_chunks < 1:
        raise ValueError(f"num_chunks must be >= 1, got {num_chunks}")
    if repetitions == 0:
        return []
    num_chunks = min(num_chunks, repetitions)
    base, extra = divmod(repetitions, num_chunks)
    return [base + (1 if i < extra else 0) for i in range(num_chunks)]


def _chunk_seeds(
    seed: Union[int, np.random.Generator, None], num_chunks: int
) -> List[int]:
    """Per-chunk seeds derived deterministically from the user seed.

    Chunk ``i`` receives the first word of ``SeedSequence([base, i])`` —
    a stable function of the user seed and the chunk *index* alone, so
    identically seeded runs hand every chunk the same stream, streams of
    different chunks are statistically independent, and chunk ``i``'s
    seed does not shift when the total chunk count changes.  ``None``
    draws a fresh entropy base; passing a Generator consumes one draw
    from it for the base.
    """
    return _chunk_seeds_from_base(_base_seed(seed), num_chunks)


def _chunk_seeds_from_base(base: int, num_chunks: int) -> List[int]:
    """:func:`_chunk_seeds` with the integer base already collapsed.

    Split out so callers that also need ``base`` itself (the batched
    engine's ctx anchor) derive seeds and ctx from one draw instead of
    consuming the source generator twice.
    """
    return [
        int(np.random.SeedSequence([base, i]).generate_state(1, np.uint64)[0])
        >> 2
        for i in range(num_chunks)
    ]


def _base_seed(seed: Union[int, np.random.Generator, None]) -> int:
    """Collapse a user seed argument to one non-negative integer base.

    A negative integer seed would surface much later as an opaque NumPy
    error from ``SeedSequence([base, i])`` inside a worker, so it is
    rejected here (the backstop behind the ``Simulator`` constructor's
    own boundary check) with a ``ValueError`` naming ``seed``.
    """
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(2**62))
    if seed is None:
        return int(np.random.SeedSequence().entropy) % 2**62
    base = int(seed)
    if base < 0:
        raise ValueError(f"seed must be non-negative, got seed={base}")
    return base


def _merge_parts(parts: List[RunParts]) -> RunParts:
    """Concatenate per-chunk (records, bits) outputs in chunk order."""
    if len(parts) == 1:
        return parts[0]
    all_bits = np.concatenate([bits for _, bits in parts], axis=0)
    keys = parts[0][0].keys()
    records = {
        key: np.concatenate([rec[key] for rec, _ in parts], axis=0)
        for key in keys
    }
    return records, all_bits


def _dispatch(simulator, plan, repetitions: int, rng, ctx=None) -> RunParts:
    """Run one chunk through the plan's required mode.

    ``ctx = (base_seed, point_index, rep_base)`` anchors the batched
    trajectory engine's per-repetition seed streams (ignored in serial
    mode); threading it here keeps pooled chunks of one point on the
    same global repetition indices regardless of chunk geometry.
    """
    return simulator._run_plan(plan, repetitions, rng, ctx)


def _main_is_importable() -> bool:
    """Whether ``__main__`` can be re-imported by a forkserver/spawn child.

    Both start methods replay the parent's ``__main__`` from its file
    path; interactive sessions and stdin scripts have none (or a
    placeholder like ``<stdin>``), which kills the worker at startup.
    """
    main = sys.modules.get("__main__")
    path = getattr(main, "__file__", None)
    return path is not None and os.path.exists(path)


def _pool_context(start_method: Optional[str]):
    """A multiprocessing context for the requested start method.

    A requested method that the platform does not provide raises a
    ``ValueError`` naming it and the available alternatives — silently
    substituting a different method would mask platform differences (a
    ``forkserver`` config "passing" on a fork-only box tests nothing).
    The one deliberate substitution that remains: ``forkserver``/``spawn``
    fall back to ``fork`` (when available) if ``__main__`` cannot be
    re-imported (REPL / stdin parents), because those methods *cannot*
    work there at all.  ``None`` selects ``fork`` when available, else the
    platform default.
    """
    available = multiprocessing.get_all_start_methods()
    if start_method is not None and start_method not in available:
        raise ValueError(
            f"Start method {start_method!r} is not available on this "
            f"platform (available: {', '.join(available)}); pass one of "
            "those or start_method=None for the platform default."
        )
    if (
        start_method in ("forkserver", "spawn")
        and "fork" in available
        and not _main_is_importable()
    ):
        ctx = multiprocessing.get_context("fork")
    elif start_method is not None:
        ctx = multiprocessing.get_context(start_method)
    elif "fork" in available:
        ctx = multiprocessing.get_context("fork")
    else:
        ctx = multiprocessing.get_context()
    if ctx.get_start_method() == "forkserver":
        _start_preloaded_forkserver()
    return ctx


# Serializes the scoped PYTHONPATH export of _start_preloaded_forkserver.
_FORKSERVER_LOCK = threading.Lock()


def _start_preloaded_forkserver() -> None:
    """Make sure the forkserver runs, with this package preloaded.

    A forkserver worker forks from the server process, so whatever the
    server has imported the worker inherits instead of importing it
    again, SciPy included.  The package is *added* to the server's preload list.  The server's
    ``main()`` ignores the ``sys_path`` it is handed, so the package
    root reaches it on ``PYTHONPATH``, exported for the server start
    only and restored afterwards.  A server that is already running —
    started by user code, say — is reused as it is, never restarted.
    """
    from multiprocessing import forkserver

    package = __name__.split(".")[0]
    root = os.path.dirname(os.path.abspath(sys.modules[package].__path__[0]))
    with _FORKSERVER_LOCK:
        preload = list(
            getattr(forkserver._forkserver, "_preload_modules", ["__main__"])
        )
        if package not in preload:
            forkserver.set_forkserver_preload(preload + [package])
        saved = os.environ.get("PYTHONPATH")
        entries = [p for p in (saved or "").split(os.pathsep) if p]
        if root not in (os.path.abspath(p) for p in entries):
            os.environ["PYTHONPATH"] = os.pathsep.join(entries + [root])
        try:
            forkserver.ensure_running()
        finally:
            if saved is None:
                os.environ.pop("PYTHONPATH", None)
            else:
                os.environ["PYTHONPATH"] = saved


# ----------------------------------------------------------------------
# worker-side plumbing: payload shipped once, one task body
# ----------------------------------------------------------------------

class _WorkerPayload:
    """Everything a pool worker needs, shipped once per pool.

    The initial state travels as its registry ``snapshot`` payload when
    the backend declares one *for exactly this type* (restored via the
    matching ``restore`` hook; a subclass inheriting its parent's
    descriptor falls back to object pickling so the worker state keeps
    the subclass type), else as the state object itself.  Under
    ``forkserver``/``spawn`` the whole payload is pickled once per *pool*
    (:meth:`PoolManager._ensure`) and every worker's initializer
    unpickles the same bytes; under ``fork`` it is inherited and never
    pickled.  Never per task.
    ``programs`` is the worker's *unit table*: the compiled Programs of a
    whole (possibly heterogeneous) batch — a sweep is a one-entry table —
    or, for a repetition-scope run, the one specialized ``plan``.  Tasks
    select a unit by index and specialize it in-worker (memoized, so
    revisited grid points skip even the param-slot rebuild; a plan is its
    own specialization).
    """

    __slots__ = (
        "plan",
        "programs",
        "state_payload",
        "restore",
        "apply_op",
        "compute_probability",
        "user_candidates",
        "skip_diagonal_updates",
        "fuse_moments",
        "trajectory_mode",
        "trajectory_tile",
    )

    def __init__(self, simulator, plan=None, *, program=None, programs=None):
        caps = capabilities_for(type(simulator.initial_state))
        if (
            caps.snapshot is not None
            and caps.state_type is type(simulator.initial_state)
        ):
            self.state_payload = _snapshot_payload(
                simulator.initial_state, caps
            )
            self.restore = caps.restore
        else:
            self.state_payload = simulator.initial_state
            self.restore = None
        if program is not None and programs is not None:
            raise ValueError("Pass either program or programs, not both")
        self.plan = plan
        if programs is None:
            programs = [u for u in (plan, program) if u is not None]
        self.programs = tuple(programs)
        self.apply_op = simulator.apply_op
        self.compute_probability = simulator.compute_probability
        self.user_candidates = simulator.user_candidate_function
        self.skip_diagonal_updates = simulator.skip_diagonal_updates
        self.fuse_moments = simulator.fuse_moments
        self.trajectory_mode = simulator.trajectory_mode
        self.trajectory_tile = simulator.trajectory_tile

    def build_simulator(self):
        from .simulator import Simulator

        state = (
            self.restore(self.state_payload)
            if self.restore is not None
            else self.state_payload
        )
        return Simulator(
            state,
            self.apply_op,
            self.compute_probability,
            compute_candidate_probabilities=self.user_candidates,
            skip_diagonal_updates=self.skip_diagonal_updates,
            fuse_moments=self.fuse_moments,
            trajectory_mode=self.trajectory_mode,
            trajectory_tile=self.trajectory_tile,
        )


# The worker's simulator and compiled-unit table — built once by the pool
# initializer — and its end of the pool's shared work queues,
# ``(task_queue, result_queue)``.  Queues ride the *process-creation*
# channel (initializer args), the one place a multiprocessing.Queue is
# picklable, so this works identically under fork, forkserver, and spawn.
_WORKER: Optional[Tuple[object, Tuple]] = None
_WORKER_QUEUES: Optional[Tuple[object, object]] = None


def _init_pool_worker(
    payload: Union[_WorkerPayload, bytes],
    queues: Tuple[object, object],
    threads: int,
) -> None:
    """Pool initializer: cap the worker's BLAS threads at its ``threads``
    budget (:func:`~repro.sampler.worker_threads.worker_thread_budget`),
    then build the worker-local simulator + unit table from the payload
    (pickled ``bytes`` unless the worker was forked)."""
    global _WORKER, _WORKER_QUEUES
    limit_blas_threads(threads)
    if isinstance(payload, bytes):
        payload = pickle.loads(payload)
    _WORKER = (payload.build_simulator(), payload.programs)
    _WORKER_QUEUES = queues


def _task_entropy(
    base: int, point_index: int, num_chunks: int, chunk_index: int
) -> Tuple[int, ...]:
    """The ``SeedSequence`` entropy of one scheduled batch task.

    Whole points (``num_chunks == 1``) keep the serial ``run_sweep`` /
    ``run_batch`` recipe — one stream off ``SeedSequence([base, point])``
    — so unsplit scheduling is bit-for-bit identical to the serial path.
    Chunks of a split point draw from ``SeedSequence([base, point,
    chunk])``: a stable function of the indices alone, so the output
    never depends on worker count, pull order, or timing.
    """
    if num_chunks == 1:
        return (base, point_index)
    return (base, point_index, chunk_index)


def _run_task(
    simulator,
    units: Sequence,
    unit_index: int,
    resolver,
    size: int,
    entropy,
    ctx: Tuple[int, int, int],
    slot: Optional[SlotDescriptor] = None,
):
    """The one task body of every pooled (and in-process) run.

    Selects the compiled unit from the table — a Program, specialized for
    the task's resolver (memoized, so revisited grid points skip the
    rebuild), or an already-specialized plan — and runs ``size``
    repetitions off ``default_rng(SeedSequence(entropy))``.  ``entropy``
    is a repetition chunk's integer seed or a batch task's
    :func:`_task_entropy`; ``default_rng(s)`` and
    ``default_rng(SeedSequence(s))`` are the same stream, so one body
    serves both without changing either.  ``ctx = (base, point,
    rep_base)`` anchors the batched trajectory engine's per-repetition
    seeds, which is what makes batched output independent of chunk
    geometry.

    With a shared-memory ``slot`` the samples land in the parent's
    result plane and only the row count travels back; without one the
    ``(records, bits)`` tuple is returned.
    """
    plan = units[unit_index].specialize(resolver)
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    records, bits = _dispatch(simulator, plan, size, rng, ctx)
    if slot is None:
        return records, bits
    return write_chunk_to_slot(plan, slot, records, bits)


def _picklable_error(exc: BaseException) -> BaseException:
    """An exception safe to send through a multiprocessing queue.

    An unpicklable exception would kill the queue's feeder thread
    silently and the parent would never hear about the failure, so probe
    the pickle round-trip here and degrade to a RuntimeError carrying the
    repr."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(
            f"pool task failed with unpicklable "
            f"{type(exc).__name__}: {exc!r}"
        )


def _task_loop() -> int:
    """Worker body of every pooled run: pull tasks until a sentinel.

    Each pool worker runs exactly one of these per run.  It pulls
    ``(task_id, args)`` items off the shared task queue — *placement* is
    whichever worker gets there first — runs :func:`_run_task`, and
    reports ``(task_id, seconds, error, payload)`` on the result queue
    with a worker-side ``perf_counter`` duration for calibration.  A
    ``None`` sentinel (one per worker, enqueued after all tasks) ends the
    loop; the return value is how many tasks this worker ran.  Task
    errors are reported per task, never raised — the parent decides
    whether to abandon the run.
    """
    task_queue, result_queue = _WORKER_QUEUES
    simulator, units = _WORKER
    ran = 0
    while True:
        item = task_queue.get()
        if item is None:
            return ran
        task_id, args = item
        start = time.perf_counter()
        error = payload = None
        try:
            payload = _run_task(simulator, units, *args)
        except BaseException as exc:
            error = _picklable_error(exc)
        seconds = time.perf_counter() - start
        result_queue.put((task_id, seconds, error, payload))
        ran += 1


# ----------------------------------------------------------------------
# execution keys: when may a warm pool be reused?
# ----------------------------------------------------------------------

# Snapshot payloads memoized per state object: building the execution key
# on every pooled call must not re-serialize the state each time.  Keyed
# weakly — a collected state drops its entry — and sound because the
# initial state is immutable by contract while in sampler hands (the
# sampler only ever copies it).
_SNAPSHOT_CACHE: "weakref.WeakKeyDictionary[object, Tuple]" = (
    weakref.WeakKeyDictionary()
)


def _snapshot_payload(state, caps) -> Tuple:
    """``caps.snapshot(state)``, computed once per state object."""
    try:
        payload = _SNAPSHOT_CACHE.get(state)
    except TypeError:  # unhashable/unweakrefable state: just recompute
        return caps.snapshot(state)
    if payload is None:
        payload = caps.snapshot(state)
        try:
            _SNAPSHOT_CACHE[state] = payload
        except TypeError:  # pragma: no cover - unweakrefable state
            pass
    return payload


def _state_token(state) -> Tuple:
    """The initial-state component of an execution key.

    Backends with registry ``snapshot`` hooks key on the payload *content*
    (two equal-content states share a warm pool); everything else keys on
    object identity.  Identity is safe from id-reuse aliasing because the
    manager holds the keyed payload — and therefore the state — alive for
    as long as the key is current.
    """
    caps = capabilities_for(type(state))
    if caps.snapshot is not None and caps.state_type is type(state):
        return ("payload", type(state), _snapshot_payload(state, caps))
    return ("object", id(state))


def execution_key(simulator, *, plan=None, program=None, programs=None) -> Tuple:
    """The warm-pool reuse key for one simulator + compiled unit(s).

    Combines the compiled unit's identity (the memoized ``specialize`` /
    Program caches make repeated identical work arrive as the *same*
    object), the initial-state payload token, and every simulator knob
    the worker payload ships.  ``programs`` keys a whole *program table*
    — the execution key of a heterogeneous batch covers every compiled
    Program in it, so ``run_batch`` over N circuits is one key (one pool
    init) and re-initializes only when the table's content changes.  Any
    change re-initializes workers; equal keys reuse them untouched.
    """
    units = [u for u in (plan, program, programs) if u is not None]
    if len(units) != 1:
        raise ValueError("Provide exactly one of plan, program, or programs")
    if programs is not None:
        kind = "batch"
        identity: Union[int, Tuple[int, ...]] = tuple(id(p) for p in programs)
    else:
        kind = "chunks" if plan is not None else "points"
        identity = id(units[0])
    return (
        kind,
        identity,
        _state_token(simulator.initial_state),
        simulator.apply_op,
        simulator.compute_probability,
        simulator.user_candidate_function,
        simulator.skip_diagonal_updates,
        simulator.fuse_moments,
        simulator.trajectory_mode,
        simulator.trajectory_tile,
    )


# ----------------------------------------------------------------------
# the warm pool itself
# ----------------------------------------------------------------------

class TaskTimeoutError(RuntimeError):
    """No pool task completed within the executor's ``task_timeout``.

    Raised by pooled runs when the completion *gap* — the time since the
    last task finished (or since dispatch) — exceeds
    ``ProcessPoolExecutor(task_timeout=...)``.  A wedged worker cannot
    be interrupted, so before raising, the manager **poisons the pool**:
    worker processes are killed, the pool is torn down, and every
    in-flight shared-memory result plane is released.  The next pooled
    call rebuilds a fresh pool.
    """


#: How often the collect loop wakes to check for dead workers and the
#: task_timeout gap while the result queue is empty.  Purely a liveness
#: poll — results are picked up the moment they arrive.
_POLL_SECONDS = 0.05


def _raise_if_broken(pullers: Sequence[_cf.Future]) -> None:
    """Re-raise a puller's failure (``BrokenProcessPool`` when a worker
    died), which would otherwise starve the result queue silently."""
    for puller in pullers:
        if puller.done() and puller.exception() is not None:
            puller.result()


def _pool_broken(pool: _cf.ProcessPoolExecutor) -> bool:
    """Whether any worker of ``pool`` has died (killed, OOM, crashed)."""
    if getattr(pool, "_broken", False):
        return True
    processes = dict(getattr(pool, "_processes", None) or {})
    return any(proc.exitcode is not None for proc in processes.values())


class PoolManager:
    """Owns one process pool and reuses its initialized workers.

    The manager lazily builds a pool for the first execution key it sees
    and keeps it warm: subsequent calls with an equal key dispatch
    straight to the live workers (``stats["reuses"]``), while a different
    key — new compiled unit, new initial-state payload, changed simulator
    config or pool geometry — shuts the old pool down cleanly and builds
    a fresh one (``stats["key_changes"]`` + ``stats["inits"]``).  A pool
    with a dead worker (killed while idle, say) is rebuilt the same way
    instead of being reused.  The worker-initialization counter the
    lifecycle tests pin is ``stats["inits"]``: two consecutive
    ``run_sweep`` calls over one compiled Program must leave it at 1.

    Every pooled run goes through :meth:`pull`.  Lifecycle: use as a
    context manager for scoped pools, call :meth:`shutdown` explicitly,
    or rely on the shared manager's ``atexit`` hook.  ``shutdown`` joins
    every worker (no leaked processes) and is idempotent; the manager is
    reusable afterwards (the next call simply builds a new pool).  Any
    task failure — including a broken pool — tears the pool down before
    the exception propagates, so a poisoned pool is never reused.
    """

    def __init__(self):
        self._pool: Optional[_cf.ProcessPoolExecutor] = None
        self._key: Optional[Tuple] = None
        self._payload: Optional[_WorkerPayload] = None
        self._queues: Optional[Tuple] = None
        self._last_pids: List[int] = []
        self._lock = threading.RLock()
        # One run at a time: every run shares the pool's two queues, so
        # a run owns them from dispatch until its last result is in (or
        # it is abandoned).  Other threads wait their turn; ``_runner``
        # is the owning thread's ident.
        self._turn = threading.Condition(self._lock)
        self._runner: Optional[int] = None
        # Shared-memory result planes currently in flight on this pool.
        # The manager is the lifecycle backstop the executor's own
        # try/finally cannot cover: a poisoned pool shuts down through
        # here, and any plane not yet retired (viewed or released) is
        # unlinked with it — no segment survives a pool reset.  WeakSet:
        # retired planes just fall out.
        self._planes: "weakref.WeakSet" = weakref.WeakSet()
        self.stats = {"inits": 0, "reuses": 0, "key_changes": 0}

    # -- lifecycle ---------------------------------------------------------
    @property
    def init_count(self) -> int:
        """How many times a pool (and its workers) was initialized."""
        return self.stats["inits"]

    def worker_pids(self) -> List[int]:
        """PIDs of the current pool's workers (last pool's if shut down)."""
        if self._pool is not None and getattr(self._pool, "_processes", None):
            return sorted(self._pool._processes)
        return list(self._last_pids)

    def shutdown(self) -> None:
        """Join all workers and drop the pool; idempotent, reusable after.

        Also the segment backstop: any adopted, still-live shared-memory
        result plane is released once the workers are gone (after the
        join, so no in-flight task writes to an already-unlinked name).
        """
        with self._lock:
            pool, self._pool = self._pool, None
            queues, self._queues = self._queues, None
            self._key = None
            self._payload = None
            if pool is not None:
                if getattr(pool, "_processes", None):
                    self._last_pids = sorted(pool._processes)
                pool.shutdown(wait=True)
            if queues is not None:
                # After the join: no worker is left to read or write them.
                # cancel_join_thread so undelivered items (a run torn down
                # mid-flight) cannot block interpreter exit on the feeder
                # thread.
                for q in queues:
                    q.close()
                    q.cancel_join_thread()
            planes, self._planes = list(self._planes), weakref.WeakSet()
            for plane in planes:
                plane.release()

    def terminate(self) -> None:
        """Kill the pool's workers, then clean up as :meth:`shutdown`.

        The teardown of a failed run: ``shutdown`` joins workers, which
        blocks behind a hung task (and behind every task still queued),
        so a failed run kills the worker processes first and then runs
        the normal teardown (queue close, plane release) against the
        already-dead pool.
        """
        with self._lock:
            pool = self._pool
            if pool is not None:
                processes = dict(getattr(pool, "_processes", None) or {})
                if processes:
                    self._last_pids = sorted(processes)
                for proc in processes.values():
                    proc.kill()
                for proc in processes.values():
                    proc.join()
            self.shutdown()

    def __enter__(self) -> "PoolManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- execution ---------------------------------------------------------
    def pull(
        self,
        key: Tuple,
        num_workers: int,
        start_method: Optional[str],
        payload_factory: Callable[[], _WorkerPayload],
        argses: Sequence[Tuple],
        planes: Sequence = (),
        task_timeout: Optional[float] = None,
    ) -> Iterator[Tuple[int, float, object]]:
        """Run :func:`_run_task` for every args tuple on the warm pool.

        Every task is enqueued on the pool's shared task queue, followed
        by one ``None`` sentinel per worker, and every worker is handed
        one :func:`_task_loop`; workers then *pull* tasks as they free
        up.  Yields ``(task_id, seconds, payload)`` in completion order,
        ``seconds`` being the worker-measured task duration.  Lazy: the
        pool is ensured and the tasks are enqueued on the first
        ``next()``.  Runs share the pool's queues, so one run holds them
        at a time: a run from another thread waits for the current one
        to finish or be closed, and a second open run in the same thread
        raises ``RuntimeError``.

        ``planes`` are this run's shared-memory result planes: the
        manager **adopts** them — becomes their lifecycle backstop — so
        that if this pool is shut down (poisoned pool, key change,
        explicit reset) before a plane is retired, :meth:`shutdown`
        releases it and no segment outlives the pool filling it.

        Failure paths: a task error, a dead worker, or an interrupt
        kills the pool (:meth:`terminate`) before the exception
        propagates; a completion gap over ``task_timeout`` does the same
        and raises :class:`TaskTimeoutError`.  An abandoned iterator
        (``close()``) keeps the pool warm: see :meth:`_abandon`.
        """
        self._take_turn()
        turn = True
        try:
            with self._lock:
                pool = self._ensure(
                    key, num_workers, start_method, payload_factory
                )
                self._planes.update(planes)
                task_queue, result_queue = self._queues
                try:
                    for item in enumerate(argses):
                        task_queue.put(item)
                    for _ in range(num_workers):
                        task_queue.put(None)
                    pullers = [
                        pool.submit(_task_loop) for _ in range(num_workers)
                    ]
                except BaseException:
                    self.shutdown()
                    raise
                if getattr(pool, "_processes", None):
                    self._last_pids = sorted(pool._processes)
            outstanding = len(argses)
            last = time.monotonic()
            try:
                while outstanding:
                    try:
                        task_id, seconds, error, payload = result_queue.get(
                            timeout=_POLL_SECONDS
                        )
                    except _queue.Empty:
                        _raise_if_broken(pullers)
                        if (
                            task_timeout is not None
                            and time.monotonic() - last > task_timeout
                        ):
                            raise TaskTimeoutError(
                                "no pool task completed within "
                                f"task_timeout={task_timeout}s "
                                f"({outstanding} of {len(argses)} tasks "
                                "outstanding); killing the worker pool"
                            )
                        continue
                    last = time.monotonic()
                    outstanding -= 1
                    if error is not None:
                        raise error
                    if not outstanding:
                        # Done once every worker has taken its sentinel:
                        # hand the queues on before the last yield, so a
                        # consumer that stops reading here holds nothing.
                        for puller in pullers:
                            puller.result()
                        self._end_turn()
                        turn = False
                    yield task_id, seconds, payload
            except GeneratorExit:
                if outstanding:
                    self._abandon(
                        task_queue, result_queue, pullers, outstanding,
                        task_timeout,
                    )
                raise
            except BaseException:
                self.terminate()
                raise
        finally:
            if turn:
                self._end_turn()

    def _take_turn(self) -> None:
        """Wait until no other thread's run holds the shared queues."""
        me = threading.get_ident()
        with self._turn:
            while self._runner is not None:
                if self._runner == me:
                    raise RuntimeError(
                        "this thread already has a pooled run open on this "
                        "PoolManager; exhaust or close() it first"
                    )
                self._turn.wait()
            self._runner = me

    def _end_turn(self) -> None:
        """Release the shared queues to the next run."""
        with self._turn:
            self._runner = None
            self._turn.notify_all()

    def _abandon(
        self,
        task_queue,
        result_queue,
        pullers: Sequence[_cf.Future],
        outstanding: int,
        task_timeout: Optional[float],
    ) -> None:
        """Retire an abandoned run and keep the pool warm.

        The parent takes the run's unstarted items off the shared task
        queue itself and awaits only the in-flight results, by count —
        every outstanding task is either removed here or reports a
        result.  Sentinels it removed on the way go back, so each worker
        still ends its loop and the queues are clean for the next run.
        Waiting on the pool's own shutdown instead would run every
        unstarted task first.  If a worker dies or the ``task_timeout``
        gap passes meanwhile, the pool is killed instead.
        """
        sentinels = 0
        last = time.monotonic()
        try:
            while outstanding:
                try:
                    item = task_queue.get(timeout=_POLL_SECONDS / 5)
                except _queue.Empty:
                    pass
                else:
                    if item is None:
                        sentinels += 1
                    else:
                        outstanding -= 1
                    continue
                while outstanding:
                    try:
                        result_queue.get_nowait()
                    except _queue.Empty:
                        break
                    outstanding -= 1
                    last = time.monotonic()
                _raise_if_broken(pullers)
                if (
                    task_timeout is not None
                    and time.monotonic() - last > task_timeout
                ):
                    self.terminate()
                    return
        except BaseException as exc:
            self.terminate()
            if not isinstance(exc, Exception):
                raise
            return
        for _ in range(sentinels):
            task_queue.put(None)

    def _ensure(
        self, key, num_workers, start_method, payload_factory
    ) -> _cf.ProcessPoolExecutor:
        full_key = (key, num_workers, start_method)
        if self._pool is not None:
            if _pool_broken(self._pool):
                self.shutdown()
            elif full_key == self._key:
                self.stats["reuses"] += 1
                return self._pool
            else:
                self.stats["key_changes"] += 1
                self.shutdown()
        payload = payload_factory()
        ctx = _pool_context(start_method)
        # Start methods that pickle the initargs would pickle the payload
        # once per worker, each time inside the parent's pool.submit:
        # pickle it once here and hand every worker the same bytes.
        shipped = (
            payload
            if ctx.get_start_method() == "fork"
            else bytes(ForkingPickler.dumps(payload))
        )
        # Work queues are born with the pool (same mp context, shipped
        # through the initializer — the one channel Queues may travel).
        self._queues = (ctx.Queue(), ctx.Queue())
        self._pool = _cf.ProcessPoolExecutor(
            max_workers=num_workers,
            mp_context=ctx,
            initializer=_init_pool_worker,
            initargs=(
                shipped, self._queues, worker_thread_budget(num_workers)
            ),
        )
        # The payload ref keeps every id()-keyed object (plan, every
        # Program of the table, initial state) alive while the key is
        # current, so ids in the key cannot alias recycled addresses.
        self._payload = payload
        self._key = full_key
        self.stats["inits"] += 1
        return self._pool


_SHARED: Optional[PoolManager] = None


def shared_pool_manager() -> PoolManager:
    """The process-wide default :class:`PoolManager`.

    Created on first use and registered with ``atexit`` so its workers
    are joined at interpreter exit even when no one calls ``shutdown``.
    """
    global _SHARED
    if _SHARED is None:
        _SHARED = PoolManager()
        atexit.register(_SHARED.shutdown)
    return _SHARED


def shutdown_shared_pool() -> None:
    """Shut the shared manager's pool down now (tests, session teardown)."""
    if _SHARED is not None:
        _SHARED.shutdown()


__all__ = [
    "PoolManager",
    "TaskTimeoutError",
    "execution_key",
    "shared_pool_manager",
    "shutdown_shared_pool",
]
