"""Pluggable execution strategies: serial, chunked, and process-pooled.

The :class:`~repro.sampler.simulator.Simulator` owns the *algorithm*
(parallel-front evolution or quantum trajectories over a compiled
:class:`~repro.sampler.plan.ExecutionPlan`); an :class:`Executor` owns the
*strategy* — where and in how many pieces that algorithm runs:

* :class:`SerialExecutor` — in-process.  With ``chunks > 1`` the
  repetitions split into deterministic chunks whose RNGs derive from
  ``SeedSequence([base_seed, chunk_index])`` (the PR-2 worker-seed
  scheme), which makes its output bit-for-bit identical to a pooled run
  with the same chunk count — the executor-parity contract the test suite
  pins.
* :class:`ProcessPoolExecutor` — independent seeded tasks fanned over a
  warm process pool through **one pull-based dispatch path**.  Every
  pooled call — a repetition-scope ``execute`` (one point split into
  ``num_workers * chunks_per_worker`` chunks) or a sweep/batch
  (``execute_batch_iter``; a sweep is a one-program batch) — becomes a
  list of tasks, and that list is all that differs between calls and
  schedulers.  The tasks go onto the pool's shared work queue and idle
  workers pull the next one
  (:meth:`~repro.sampler.service.PoolManager.pull`).  The compiled
  unit table (the plan, or every distinct Program of a batch), a packed
  snapshot of the initial state, and the simulator configuration ship
  to each worker once, through the pool *initializer*; a task carries
  only ``(unit_index, resolver, size, seed entropy, ctx)`` and, under
  shared-memory transport, the result-plane slot it writes into.
  ``reuse_pool=True`` (default) keeps the pool warm in a
  :class:`~repro.sampler.service.PoolManager` across calls;
  ``reuse_pool=False`` runs the same path on a scoped manager shut down
  when the call ends.  The pool is sized to the CPUs this process may
  use (its affinity set, :func:`~repro.sampler.worker_threads.usable_cpus`)
  unless ``num_workers`` says otherwise, and each worker caps its BLAS
  threads at its share of them, so a default-sized pool runs one
  compute thread per usable CPU.

Seeding is deterministic and independent of placement: with an integer
simulator seed, repetition chunk ``i`` always receives
``SeedSequence([seed, i])`` and batch point ``p`` ``SeedSequence([seed,
p])`` (chunk ``c`` of a split point ``SeedSequence([seed, p, c])``),
whichever worker pulls it — so identically seeded runs reproduce
bit-for-bit, serial or pooled (the same contract as
:func:`repro.sampler.parallel.sample_trajectories_parallel`).

Pooled execution requires picklable components: a module-level
``apply_op`` and ``compute_probability`` (the shipped ``act_on`` and
``born`` functions qualify) and a state whose registry descriptor either
pickles directly or provides ``snapshot``/``restore`` hooks (the packed
tableau/CH backends ship raw ``uint64`` words this way).
"""

from __future__ import annotations

import abc
import multiprocessing
import pickle
from concurrent import futures as _cf
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .requests import normalize_repetitions
from .result_planes import PointPlanes, shm_available
from .schedule import (
    BatchEntry,
    FifoScheduler,
    ScheduledTask,
    Scheduler,
    estimate_cost,
)
from .service import (
    PoolManager,
    RunParts,
    TaskTimeoutError,
    _WorkerPayload,
    _base_seed,
    _chunk_seeds,
    _chunk_seeds_from_base,
    _chunk_sizes,
    _dispatch,
    _merge_parts,
    _pool_context,
    _run_task,
    _task_entropy,
    execution_key,
    shared_pool_manager,
)
from .worker_threads import usable_cpus


# ----------------------------------------------------------------------
# the executor interface
# ----------------------------------------------------------------------

class Executor(abc.ABC):
    """Strategy object deciding where a compiled plan's repetitions run."""

    #: Whether the executor fans whole sweep/batch points across parallel
    #: workers (``execute_batch_iter``, one seeded stream per point).
    #: Executors that leave this False run sweeps and batches point by
    #: point through :meth:`execute` with their own repetition geometry.
    supports_point_scope = False

    @abc.abstractmethod
    def execute(
        self,
        simulator,
        plan,
        repetitions: int,
        rng: Optional[np.random.Generator] = None,
        ctx: Optional[Tuple[int, int, int]] = None,
    ) -> RunParts:
        """Produce ``(records, bits)`` for ``repetitions`` of ``plan``.

        ``ctx = (base_seed, point_index, rep_base)`` is the batched
        trajectory engine's seeding anchor (see
        :mod:`repro.sampler.trajectory_batch`); executors offset
        ``rep_base`` per repetition chunk so batched output never
        depends on chunk geometry.  Serial mode ignores it.
        """


class SerialExecutor(Executor):
    """In-process execution, optionally in deterministic seeded chunks.

    ``chunks=1`` (default) runs exactly like a bare simulator — one
    stream off the simulator's own RNG.  ``chunks=k`` reproduces the
    pooled executor's chunk geometry in-process: the output for a given
    (seed, chunk count) is bit-for-bit identical to
    :class:`ProcessPoolExecutor` with the same total chunk count.
    """

    def __init__(self, chunks: int = 1):
        if chunks < 1:
            raise ValueError(f"chunks must be >= 1, got {chunks}")
        self.chunks = chunks

    def execute(self, simulator, plan, repetitions, rng=None, ctx=None):
        normalize_repetitions(repetitions)
        if self.chunks == 1:
            return _dispatch(
                simulator,
                plan,
                repetitions,
                rng if rng is not None else simulator._rng,
                ctx,
            )
        argses = _chunk_task_args(
            simulator, repetitions, self.chunks, rng, ctx
        )
        return _merge_parts(
            [_run_task(simulator, (plan,), *args) for args in argses]
        )


def _chunk_task_args(simulator, repetitions, num_chunks, rng, ctx) -> List:
    """The :func:`~repro.sampler.service._run_task` args of a
    repetition-scope run split into ``num_chunks`` seeded chunks.

    Chunk ``i`` runs off the integer seed ``SeedSequence([base, i])``
    (:func:`~repro.sampler.service._chunk_seeds`), ``base`` drawn from
    ``rng`` or the simulator seed.  Each chunk's batched-engine anchor
    offsets ``rep_base`` by the chunk's global starting row, so batched
    output is a pure function of (base, point, global repetition index) —
    invariant under worker count and chunk geometry.  Both executors
    build their chunks here, which is what makes a pooled run and
    ``SerialExecutor`` with the same chunk count bit-for-bit equal.
    """
    sizes = _chunk_sizes(repetitions, num_chunks)
    base = _base_seed(simulator.seed if rng is None else rng)
    seeds = _chunk_seeds_from_base(base, len(sizes))
    if ctx is None:
        ctx = (base, 0, 0)
    argses, offset = [], 0
    for size, seed in zip(sizes, seeds):
        argses.append((0, None, size, seed, (ctx[0], ctx[1], ctx[2] + offset)))
        offset += size
    return argses


# ----------------------------------------------------------------------
# pooled execution: one pull-based path, warm or scoped pool
# ----------------------------------------------------------------------

class ProcessPoolExecutor(Executor):
    """Fan repetition chunks or whole sweep/batch points over a pool.

    Args:
        num_workers: Pool size; defaults to the CPUs this process may
            use (:func:`~repro.sampler.worker_threads.usable_cpus`).
        chunks_per_worker: >1 gives smaller repetition-scope tasks
            (better load balance).
        start_method: ``"fork"``, ``"forkserver"``, or ``"spawn"``.  An
            *explicitly requested* method the platform does not provide
            raises at pool construction (no silent substitution; see
            :func:`repro.sampler.service._pool_context`).  The default
            sentinel ``"auto"`` resolves to ``forkserver`` where
            available and the platform default elsewhere (Windows has
            only ``spawn``), so default-configured executors work on
            every platform.  With ``fork`` the shared unit table and
            packed state are inherited copy-on-write; with
            ``forkserver``/``spawn`` they are pickled once per pool and
            every worker's initializer unpickles the same bytes.  The
            forkserver is started with this package preloaded, so its
            workers inherit the import instead of repeating it.
        reuse_pool: True (default) keeps the pool **warm** through a
            :class:`~repro.sampler.service.PoolManager`: consecutive
            calls with an unchanged execution key dispatch straight to
            the already-initialized workers.  False runs each call on a
            scoped manager that is shut down when the call ends — same
            path, same output, more startup cost.
        pool_manager: The manager owning the warm pool.  None (default)
            uses the process-wide shared manager; pass a dedicated
            :class:`~repro.sampler.service.PoolManager` for scoped
            lifetimes or isolated init counters.
        scheduler: The task list of a batch/sweep.  None (default) is
            FIFO — one task per point in point order, bit-for-bit
            identical to the serial path.  An
            :class:`~repro.sampler.schedule.AdaptiveScheduler` orders
            tasks largest-first by the static cost model and splits
            oversized points into repetition sub-chunks (seeds
            ``SeedSequence([seed, point, chunk])``, merged in chunk
            order); a
            :class:`~repro.sampler.schedule.WorkStealingScheduler`
            additionally pre-splits every point into fine chunks.
            Placement is always dynamic — idle workers pull the next
            task — and every task's measured duration feeds
            :meth:`~repro.sampler.schedule.Scheduler.calibrate`; the
            output is exactly what the task list fixes.
        task_timeout: Optional liveness bound (seconds) for pooled
            execution: if no task completes for this long, the executor
            assumes a wedged worker, kills the pool (running tasks
            cannot be cancelled), releases all in-flight result planes,
            and raises :class:`TaskTimeoutError`.  It is a
            completion-*gap* bound, not a per-task or total bound — set
            it above the longest expected single task.  ``None``
            (default) waits indefinitely.
        result_transport: How worker results travel back to the parent.
            ``"shm"`` writes samples into pre-allocated
            :mod:`~repro.sampler.result_planes` shared-memory segments —
            each task returns only a row count, and the parent's results
            are read-only zero-copy views over the filled planes.
            ``"pickle"`` is the fallback: each task returns its
            ``(records, bits)`` tuple through the pool's result queue.
            ``"auto"`` (default) resolves to ``"shm"`` where
            ``multiprocessing.shared_memory`` works, else ``"pickle"``;
            requesting ``"shm"`` explicitly on a platform without it
            raises.  The two transports are bit-for-bit identical —
            only the number of bytes crossing the result queue changes.

    The repetition-scope chunk count is ``num_workers *
    chunks_per_worker``; given the same simulator seed and total chunk
    count, :class:`SerialExecutor` produces bit-for-bit identical output.
    Warm and scoped pools are bit-for-bit identical too — reuse changes
    only where the startup cost is paid.

    Attributes:
        measure_result_bytes: When True, every parent↔worker result
            payload is serialized once more in the parent and its size
            accumulated into ``last_result_bytes`` — benchmark
            instrumentation for the transport comparison, off by
            default (it re-pickles results).  Reset
            ``last_result_bytes`` to 0 between measured sections.
    """

    supports_point_scope = True

    def __init__(
        self,
        num_workers: Optional[int] = None,
        chunks_per_worker: int = 1,
        start_method: Optional[str] = "auto",
        reuse_pool: bool = True,
        pool_manager: Optional[PoolManager] = None,
        scheduler: Optional[Scheduler] = None,
        result_transport: str = "auto",
        task_timeout: Optional[float] = None,
    ):
        self.num_workers = max(1, int(num_workers or usable_cpus()))
        self.chunks_per_worker = max(1, int(chunks_per_worker))
        if start_method == "auto":
            available = multiprocessing.get_all_start_methods()
            start_method = "forkserver" if "forkserver" in available else None
        self.start_method = start_method
        self.reuse_pool = reuse_pool
        self._pool_manager = pool_manager
        self.scheduler = scheduler if scheduler is not None else FifoScheduler()
        if result_transport not in ("auto", "shm", "pickle"):
            raise ValueError(
                "result_transport must be 'auto', 'shm', or 'pickle', got "
                f"{result_transport!r}"
            )
        if result_transport == "auto":
            result_transport = "shm" if shm_available() else "pickle"
        elif result_transport == "shm" and not shm_available():
            raise ValueError(
                "result_transport='shm' requested but shared memory is not "
                "functional on this platform; use 'pickle' or 'auto'."
            )
        self.result_transport = result_transport
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be positive or None, got {task_timeout}"
            )
        self.task_timeout = task_timeout
        self.measure_result_bytes = False
        self.last_result_bytes = 0

    @property
    def pool_manager(self) -> PoolManager:
        """The manager owning this executor's warm pool."""
        if self._pool_manager is None:
            self._pool_manager = shared_pool_manager()
        return self._pool_manager

    def _record_result_bytes(self, payloads) -> None:
        """Accumulate the pickled size of result payloads (bench probe)."""
        if self.measure_result_bytes:
            self.last_result_bytes += sum(
                len(pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL))
                for p in payloads
            )

    def execute(self, simulator, plan, repetitions, rng=None, ctx=None):
        """Repetition scope: one point, split into seeded chunks
        (:func:`_chunk_task_args`, the geometry :class:`SerialExecutor`
        reproduces in-process)."""
        normalize_repetitions(repetitions)
        argses = _chunk_task_args(
            simulator,
            repetitions,
            self.num_workers * self.chunks_per_worker,
            rng,
            ctx,
        )
        tasks = [
            ScheduledTask(0, 0, None, chunk, len(argses), args[2], 0)
            for chunk, args in enumerate(argses)
        ]
        (parts,) = self._run(simulator, (plan,), tasks, argses, repetitions)
        return parts

    def execute_batch_iter(self, simulator, programs, resolvers, repetitions):
        """Fan a (possibly heterogeneous) batch across the pool, streaming.

        The batch's distinct compiled Programs form one **program
        table** shipped to every worker by the pool initializer — the
        execution key covers the whole table, so ``run_batch`` over N
        different circuits performs **one** pool initialization instead
        of N, and repeated identical batches reuse the warm workers with
        zero re-initializations (the process-wide Program cache hands
        the manager the same table objects).  A sweep is a one-program
        batch.  The configured scheduler maps entries to tasks: FIFO
        (default) is one task per point, bit-for-bit identical to the
        serial ``run_batch``; adaptive scheduling reorders largest-first
        and splits oversized points into deterministic repetition
        sub-chunks.

        Collection is **completion-ordered** (chunks merge by chunk
        index, never by arrival) and the yields are **point-ordered**:
        each point's ``(records, bits)`` is released once its last chunk
        lands and all earlier points are out.  Validation and scheduling
        happen eagerly, at call time; only the execution is lazy.
        """
        programs = list(programs)
        resolvers = list(resolvers)
        if len(programs) != len(resolvers):
            raise ValueError(
                f"Got {len(programs)} programs but {len(resolvers)} resolvers"
            )
        normalize_repetitions(repetitions)
        base = _base_seed(simulator.seed)
        # Dedupe by identity: a batch repeating a circuit (the Program
        # cache returns the same object) ships each distinct Program once.
        table: List = []
        table_index: Dict[int, int] = {}
        entries = []
        backend = type(simulator.initial_state).__name__
        for point, (program, resolver) in enumerate(zip(programs, resolvers)):
            index = table_index.setdefault(id(program), len(table))
            if index == len(table):
                table.append(program)
            entries.append(
                BatchEntry(
                    index,
                    point,
                    resolver,
                    estimate_cost(program, repetitions),
                    backend=backend,
                    num_qubits=program.num_qubits,
                )
            )
        tasks = self.scheduler.schedule(entries, repetitions, self.num_workers)
        argses = [_batch_task_args(t, base, repetitions) for t in tasks]

        def calibrate(task, seconds):
            entry = entries[task.point_index]
            self.scheduler.calibrate(
                task.cost,
                seconds,
                backend=entry.backend,
                num_qubits=entry.num_qubits,
            )

        return self._run(
            simulator, table, tasks, argses, repetitions, calibrate
        )

    def _run(
        self, simulator, table, tasks, argses, repetitions, calibrate=None
    ):
        """The one execution path: yield each point's ``RunParts`` in order.

        ``tasks[j]`` (a :class:`~repro.sampler.schedule.ScheduledTask`)
        places task ``j`` in its point; ``argses[j]`` is its
        :func:`~repro.sampler.service._run_task` arguments.  A
        single-worker executor or a single task runs in the parent with
        the same task body and seeds (output never depends on worker
        count); shared memory would only add copies there.  Otherwise
        the tasks are pulled by the pool's workers: shared-memory
        transport allocates one
        :class:`~repro.sampler.result_planes.PointPlanes` per point up
        front (row bands from the deterministic chunk geometry) and
        turns each finished point into zero-copy views; pickle transport
        merges chunk tuples in chunk order.  Every pulled task's
        measured duration is passed to ``calibrate``.

        Error paths: an abandoned iterator (``close()``) retires the
        run's unstarted tasks and keeps the pool warm; a failure tears
        the pool down.  Either way every unviewed plane is released —
        and the manager's own shutdown backstop unlinks any plane it
        adopted, so segments never outlive their pool.
        """
        collector = _PointCollector(tasks)
        if self.num_workers == 1 or len(tasks) <= 1:
            for task, args in zip(tasks, argses):
                part = _run_task(simulator, table, *args)
                yield from collector.feed(task, part, _merge_chunks)
            return
        shm = self.result_transport == "shm"
        planes: Dict[int, PointPlanes] = {}

        def finalize(point, chunks):
            if shm:
                return planes.pop(point).views()
            return _merge_chunks(point, chunks)

        manager = self.pool_manager if self.reuse_pool else PoolManager()
        pulled = None
        try:
            if shm:
                for task in tasks:
                    if task.point_index not in planes:
                        unit = table[task.program_index]
                        planes[task.point_index] = PointPlanes(
                            unit.key_axes, unit.num_qubits, repetitions
                        )
                slots = [
                    planes[t.point_index].slot(_rep_offset(t, repetitions))
                    for t in tasks
                ]
                argses = [args + (slot,) for args, slot in zip(argses, slots)]
            pulled = manager.pull(
                execution_key(simulator, programs=tuple(table)),
                min(self.num_workers, len(tasks)),
                self.start_method,
                lambda: _WorkerPayload(simulator, programs=table),
                argses,
                planes=tuple(planes.values()),
                task_timeout=self.task_timeout,
            )
            for task_id, seconds, payload in pulled:
                task = tasks[task_id]
                if calibrate is not None:
                    calibrate(task, seconds)
                self._record_result_bytes([payload])
                yield from collector.feed(task, payload, finalize)
            calibration = getattr(self.scheduler, "calibration", None)
            if calibrate is not None and calibration is not None:
                calibration.flush()
        finally:
            if pulled is not None:
                pulled.close()
            if not self.reuse_pool:
                manager.shutdown()
            for plane in planes.values():
                plane.release()


def _rep_offset(task, repetitions: int) -> int:
    """A task's first repetition within its point.

    0 for unsplit points, else the prefix sum of the deterministic
    near-equal chunk split — the shm row offset of the task's slot and,
    for batch tasks, the batched trajectory engine's ``rep_base``.
    """
    if task.num_chunks == 1:
        return 0
    return sum(_chunk_sizes(repetitions, task.num_chunks)[: task.chunk_index])


def _batch_task_args(task, base: int, repetitions: int) -> Tuple:
    """The :func:`~repro.sampler.service._run_task` args of a batch task.

    ``rep_base`` anchors the batched trajectory engine's per-repetition
    seed streams at the task's global starting repetition, so split
    points produce the same batched output as unsplit ones.
    """
    return (
        task.program_index,
        task.resolver,
        task.repetitions,
        _task_entropy(
            base, task.point_index, task.num_chunks, task.chunk_index
        ),
        (base, task.point_index, _rep_offset(task, repetitions)),
    )


def _merge_chunks(point, chunks) -> RunParts:
    """Merge one point's ``(chunk_index, (records, bits))`` in chunk order."""
    chunks = sorted(chunks, key=lambda chunk: chunk[0])
    return _merge_parts([part for _, part in chunks])


class _PointCollector:
    """Completion-ordered input, point-ordered output.

    Tasks finish in any order; :meth:`feed` banks each task's payload
    under its point, finalizes a point the moment its last chunk lands,
    and releases finished points **strictly in point order** — so a
    streaming consumer sees exactly the list API's sequence, one point
    early instead of all points late.
    """

    def __init__(self, tasks):
        self._remaining: Dict[int, int] = {}
        for task in tasks:
            self._remaining[task.point_index] = (
                self._remaining.get(task.point_index, 0) + 1
            )
        self._chunks: Dict[int, List[Tuple[int, object]]] = {}
        self._ready: Dict[int, object] = {}
        self._next = 0

    def feed(self, task, payload, finalize) -> List:
        """Bank one task's payload; return the newly releasable points.

        ``finalize(point_index, [(chunk_index, payload), ...])`` turns a
        completed point's banked payloads into its ``(records, bits)``
        (merge for pickled chunks, zero-copy views for planes).
        """
        point = task.point_index
        self._chunks.setdefault(point, []).append((task.chunk_index, payload))
        self._remaining[point] -= 1
        if self._remaining[point] == 0:
            self._ready[point] = finalize(point, self._chunks.pop(point))
        out = []
        while self._next in self._ready:
            out.append(self._ready.pop(self._next))
            self._next += 1
        return out


def _run_task_in_process(simulator, table, args) -> RunParts:
    """Replay one scheduled batch task in the parent process.

    ``args = (program_index, point_index, resolver, size, num_chunks,
    chunk_index, base[, rep_base])`` names the task the way a schedule
    does; the replay runs the pooled task body with the same seeds, so a
    schedule replayed here is bit-for-bit the pooled output.
    """
    program_index, point, resolver, size, num_chunks, chunk, base, *rest = args
    return _run_task(
        simulator,
        table,
        program_index,
        resolver,
        size,
        _task_entropy(base, point, num_chunks, chunk),
        (base, point, rest[0] if rest else 0),
    )


# ----------------------------------------------------------------------
# legacy factory-based fan-out (sampler/parallel.py compatibility)
# ----------------------------------------------------------------------

def run_factory_chunks(
    factory: Callable,
    circuit,
    sizes: List[int],
    seeds: List[int],
    num_workers: int,
    start_method: Optional[str] = None,
) -> List[RunParts]:
    """The pre-executor cost model: one (factory, circuit) pickle per task.

    Each task rebuilds its simulator via ``factory(seed)`` and recompiles
    the circuit in the worker.  Kept as the engine behind the legacy
    :func:`repro.sampler.parallel.sample_trajectories_parallel` API (whose
    factories may close over unpicklable pieces and rely on ``fork``);
    new code should prefer :class:`ProcessPoolExecutor`, which ships the
    compiled plan and packed state once per pool instead of per task.
    """
    if num_workers == 1 or len(sizes) == 1:
        return [
            _run_factory_chunk(factory, circuit, size, seed)
            for size, seed in zip(sizes, seeds)
        ]
    with _cf.ProcessPoolExecutor(
        max_workers=num_workers, mp_context=_pool_context(start_method)
    ) as pool:
        pending = [
            pool.submit(_run_factory_chunk, factory, circuit, size, seed)
            for size, seed in zip(sizes, seeds)
        ]
        return [f.result() for f in pending]


def _run_factory_chunk(factory, circuit, repetitions: int, seed: int) -> RunParts:
    """Worker body: build a simulator and run one chunk of repetitions."""
    simulator = factory(seed)
    return simulator._execute(circuit, repetitions, None)


__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "PoolManager",
    "TaskTimeoutError",
    "run_factory_chunks",
    "shared_pool_manager",
]
