"""Cost-weighted adaptive scheduling for warm-pool batches and sweeps.

Point-scope execution (PR 4) fans whole sweep points across the warm pool
— one task per point, submitted in point order.  That is optimal when
every point costs the same, and pathological when it does not: a
heterogeneous ``run_batch`` whose one deep circuit sits at the end of the
queue leaves ``workers - 1`` processes idle while the last task grinds,
and a 2-point sweep on an 8-worker pool uses a quarter of the machine.

This module is the scheduling seam between the executor and the pool:

* :func:`estimate_cost` gives every batch entry a static cost —
  ``qubits x resolved-op count x repetitions`` — computable from the
  compiled :class:`~repro.sampler.program.Program` alone (no
  specialization, no timing).  It is a *relative* model: doubling the
  depth doubles the cost, which is all ordering and splitting need.
* :class:`FifoScheduler` reproduces the PR-4 geometry exactly: one task
  per point, submission order, one stream seeded
  ``SeedSequence([seed, point])`` — the bit-for-bit serial contract.
* :class:`AdaptiveScheduler` orders the task queue **largest-first**
  (classic LPT list scheduling) and **splits oversized points** — those
  whose cost exceeds a worker's fair share of the batch — into
  repetition sub-chunks so one deep circuit spreads across every worker
  instead of serializing the tail.  Chunk ``c`` of split point ``i`` is
  seeded ``SeedSequence([seed, i, c])`` and chunks merge back in chunk
  order, so the output is a deterministic function of (batch, seed,
  scheduler config) alone — never of worker count, submission order, or
  timing.  Unsplit points keep the exact FIFO/serial seed recipe, so a
  batch with no oversized point is bit-for-bit identical to the serial
  path.
* :class:`WorkStealingScheduler` keeps the adaptive geometry rules but
  pre-splits every point into a small deterministic number of chunks
  (``granularity``), so an idle worker can take over the tail of a
  straggling point.
* A :class:`~repro.sampler.calibration.CalibrationTable` (``calibration=
  "auto"`` or an explicit table) persists measured ``seconds_per_cost``
  per backend x width bucket across processes, weighting split/order
  decisions for mixed-backend batches and seeding ``estimated_seconds``
  before any task of the run has reported.  Calibration is opt-in
  precisely because a loaded table is an input to the (deterministic)
  geometry function.

Schedulers differ only in the task list they emit.  Placement is the
executor's: every pooled run goes onto the pool's shared task queue and
idle workers pull the next task at runtime, absorbing cost-model error
and stragglers.  Each pulled task reports its measured duration to
:meth:`Scheduler.calibrate`, which anchors the cost model's scale
(``seconds_per_cost``) and turns the static costs into wall-clock
estimates (``estimated_seconds`` in
:attr:`AdaptiveScheduler.last_schedule`).  Calibration never changes the
chunk geometry of a run — geometry must stay a deterministic function of
the static model for reproducibility.

Determinism contract (pinned by ``tests/test_schedule.py``): for a fixed
scheduler configuration, the task set (point, chunk, size, seed recipe)
depends only on the batch's static costs — two runs of the same batch
produce identical samples on every backend, pooled or in-process.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from .calibration import MIN_CALIBRATION_SECONDS, resolve_calibration


#: Relative cost of one trajectory-mode repetition versus one
#: measurement-only resample of the same record.  Trajectory mode runs
#: every repetition through the full gate-by-gate loop (state mutation +
#: candidate resampling per record) where measurement-only mode evolves
#: the state once and resamples bits; 16x matches the measured order of
#: magnitude and, being uniform per entry, only matters for batches
#: mixing trajectory and non-trajectory entries.
TRAJECTORY_COST_MULTIPLIER = 16


def estimate_cost(program, repetitions: int) -> int:
    """Static relative cost of one batch entry: qubits x ops x reps.

    Reads only the compiled Program's structure counters (parameter slots
    count as one op each — their resolved records exist in every
    specialization), so costing a 24-point batch touches no plan builds.
    Trajectory-mode entries (``Program.needs_trajectories``) are weighted
    by :data:`TRAJECTORY_COST_MULTIPLIER`, since each repetition replays
    the whole circuit instead of resampling a single evolved state.
    The unit is arbitrary; only ratios matter to the scheduler; measured
    task durations (:meth:`AdaptiveScheduler.calibrate`) anchor it to
    seconds.
    """
    ops = program.shared_record_count + program.param_slot_count
    cost = max(1, program.num_qubits) * max(1, ops) * max(1, int(repetitions))
    if getattr(program, "needs_trajectories", False):
        cost *= TRAJECTORY_COST_MULTIPLIER
    return cost


def estimate_job_cost(program, num_points: int, repetitions: int) -> int:
    """Static cost of a whole sweep *job*: per-point cost x point count.

    The sampling service's accounting unit — one submitted job is a
    sweep of ``num_points`` resolvers over one compiled Program, each
    point running ``repetitions`` — read off the same structure counters
    as :func:`estimate_cost`, so quota fair-share and the scheduler
    price work in one currency.  An empty sweep still costs one point's
    worth (admission is never free).
    """
    return estimate_cost(program, repetitions) * max(1, int(num_points))


class ScheduledTask:
    """One pool task of a scheduled batch: a point, or one chunk of it.

    ``num_chunks == 1`` means the whole point runs as one stream with the
    serial seed recipe ``SeedSequence([seed, point_index])``; split points
    carry ``chunk_index`` and use ``SeedSequence([seed, point_index,
    chunk_index])``.  ``repetitions`` is this task's share of the point's
    repetitions (chunk sizes follow the near-equal split of
    :func:`repro.sampler.service._chunk_sizes`).
    """

    __slots__ = (
        "program_index",
        "point_index",
        "resolver",
        "chunk_index",
        "num_chunks",
        "repetitions",
        "cost",
    )

    def __init__(
        self,
        program_index: int,
        point_index: int,
        resolver,
        chunk_index: int,
        num_chunks: int,
        repetitions: int,
        cost: float,
    ):
        self.program_index = program_index
        self.point_index = point_index
        self.resolver = resolver
        self.chunk_index = chunk_index
        self.num_chunks = num_chunks
        self.repetitions = repetitions
        self.cost = cost

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        chunk = (
            f", chunk {self.chunk_index}/{self.num_chunks}"
            if self.num_chunks > 1
            else ""
        )
        return (
            f"ScheduledTask(point {self.point_index}{chunk}, "
            f"reps={self.repetitions}, cost={self.cost:g})"
        )


class BatchEntry:
    """One (program, resolver) pair of a heterogeneous batch, pre-costed.

    ``backend`` (simulation-state type name) and ``num_qubits`` identify
    the calibration bucket this entry's timings belong to; both are
    optional — an entry without them simply never matches a calibration
    table and keeps its raw static cost.
    """

    __slots__ = (
        "program_index",
        "point_index",
        "resolver",
        "cost",
        "backend",
        "num_qubits",
    )

    def __init__(
        self,
        program_index: int,
        point_index: int,
        resolver,
        cost: float,
        backend: Optional[str] = None,
        num_qubits: Optional[int] = None,
    ):
        self.program_index = program_index
        self.point_index = point_index
        self.resolver = resolver
        self.cost = cost
        self.backend = backend
        self.num_qubits = num_qubits


class Scheduler:
    """Maps a costed batch to an ordered list of pool tasks."""

    def schedule(
        self,
        entries: Sequence[BatchEntry],
        repetitions: int,
        num_workers: int,
    ) -> List[ScheduledTask]:
        raise NotImplementedError

    def calibrate(
        self,
        cost: float,
        seconds: float,
        backend: Optional[str] = None,
        num_qubits: Optional[int] = None,
    ) -> None:
        """Record a measured (cost, seconds) sample; default: ignore."""

    @staticmethod
    def merge(
        tasks: Sequence[ScheduledTask], parts: Sequence, num_points: int
    ) -> List:
        """Reassemble per-task results into one result per point.

        ``parts[j]`` is the ``(records, bits)`` output of ``tasks[j]``.
        Split points merge their chunks in **chunk order** regardless of
        the order tasks ran in, so scheduling (and worker racing) can
        never change the output.
        """
        from .service import _merge_parts

        by_point: Dict[int, List[Tuple[int, object]]] = {}
        for task, part in zip(tasks, parts):
            by_point.setdefault(task.point_index, []).append(
                (task.chunk_index, part)
            )
        out = []
        for point in range(num_points):
            chunks = sorted(by_point[point], key=lambda item: item[0])
            out.append(_merge_parts([part for _, part in chunks]))
        return out


class FifoScheduler(Scheduler):
    """One task per point, submission order — the PR-4 point-scope shape.

    This is the default: it preserves the serial bit-for-bit contract
    (every point is one stream seeded ``SeedSequence([seed, point])``)
    and adds no scheduling assumptions.  Use
    :class:`AdaptiveScheduler` when per-point costs are uneven.
    """

    def schedule(self, entries, repetitions, num_workers):
        return [
            ScheduledTask(
                e.program_index,
                e.point_index,
                e.resolver,
                0,
                1,
                repetitions,
                e.cost,
            )
            for e in entries
        ]


class AdaptiveScheduler(Scheduler):
    """Largest-first ordering + repetition-splitting of oversized points.

    Args:
        oversubscribe: How many chunks a worker's fair share of the batch
            is divided into when splitting (default 4).  Higher values
            give smaller chunks — better load balance, more merge/seed
            overhead.
        min_chunk_repetitions: Never create chunks smaller than this many
            repetitions (default 4); a point also never splits unless it
            can yield at least two such chunks.
        calibration: ``None`` (default — geometry depends on static
            costs alone), ``"auto"`` (the process-wide persisted
            :func:`~repro.sampler.calibration.shared_calibration_table`),
            or an explicit
            :class:`~repro.sampler.calibration.CalibrationTable`.  With
            a table attached, entries whose (backend, width bucket) has
            a stored ``seconds_per_cost`` are weighted by it for
            ordering/splitting — correcting the static model's
            cross-backend bias — and measured timings are recorded back
            (keyed per backend x width) for future processes.  A
            uniform rate (same backend, same bucket across the batch)
            scales all weights equally and never changes geometry.

    Splitting rule (deterministic, static): with ``total`` the summed
    batch cost and ``fair = total / num_workers``, a point of cost ``c >
    fair`` is split into ``ceil(c / (fair / oversubscribe))`` repetition
    chunks (bounded by ``repetitions // min_chunk_repetitions`` and by
    ``num_workers * oversubscribe``); every other point stays whole and
    keeps the serial seed recipe.  Tasks are then ordered by descending
    per-task cost, ties broken by (point, chunk) for stability.
    """

    def __init__(
        self,
        oversubscribe: int = 4,
        min_chunk_repetitions: int = 4,
        calibration=None,
    ):
        if oversubscribe < 1:
            raise ValueError(f"oversubscribe must be >= 1, got {oversubscribe}")
        if min_chunk_repetitions < 1:
            raise ValueError(
                "min_chunk_repetitions must be >= 1, got "
                f"{min_chunk_repetitions}"
            )
        self.oversubscribe = int(oversubscribe)
        self.min_chunk_repetitions = int(min_chunk_repetitions)
        self.calibration = resolve_calibration(calibration)
        self.seconds_per_cost: Optional[float] = None
        self.last_schedule: Dict[str, object] = {}

    def chunk_count(
        self, cost: float, total: float, repetitions: int, num_workers: int
    ) -> int:
        """How many chunks one point splits into (1 = stays whole)."""
        if num_workers <= 1 or total <= 0:
            return 1
        fair = total / num_workers
        if cost <= fair:
            return 1
        by_reps = int(repetitions) // self.min_chunk_repetitions
        if by_reps < 2:
            return 1
        target = fair / self.oversubscribe
        wanted = math.ceil(cost / target) if target > 0 else 1
        return max(1, min(wanted, by_reps, num_workers * self.oversubscribe))

    def _weights(self, entries) -> Tuple[List[float], bool]:
        """Per-entry scheduling weights, and whether they are calibrated.

        With a calibration table whose buckets cover *every* entry the
        weights are estimated seconds (``cost x stored rate``); otherwise
        raw static costs — mixing the two unit systems within one batch
        would rank miscalibrated entries arbitrarily, so coverage is
        all-or-nothing.  A batch of one backend and one width bucket gets
        one uniform rate, which scales every weight equally and leaves
        the geometry bit-for-bit unchanged from the uncalibrated case.
        """
        costs = [float(e.cost) for e in entries]
        if self.calibration is None or not entries:
            return costs, False
        weights = []
        for e, cost in zip(entries, costs):
            rate = self.calibration.seconds_per_cost_for(
                getattr(e, "backend", None), getattr(e, "num_qubits", None)
            )
            if rate is None:
                return costs, False
            weights.append(cost * rate)
        return weights, True

    def schedule(self, entries, repetitions, num_workers):
        from .service import _chunk_sizes

        weights, calibrated = self._weights(entries)
        total = float(sum(weights))
        keyed: List[Tuple[float, ScheduledTask]] = []
        split_points = 0
        for e, weight in zip(entries, weights):
            chunks = self.chunk_count(weight, total, repetitions, num_workers)
            if chunks == 1:
                keyed.append(
                    (
                        weight,
                        ScheduledTask(
                            e.program_index,
                            e.point_index,
                            e.resolver,
                            0,
                            1,
                            repetitions,
                            e.cost,
                        ),
                    )
                )
                continue
            split_points += 1
            sizes = _chunk_sizes(repetitions, chunks)
            for chunk, size in enumerate(sizes):
                keyed.append(
                    (
                        weight * size / repetitions,
                        ScheduledTask(
                            e.program_index,
                            e.point_index,
                            e.resolver,
                            chunk,
                            len(sizes),
                            size,
                            e.cost * size / repetitions,
                        ),
                    )
                )
        keyed.sort(
            key=lambda item: (-item[0], item[1].point_index, item[1].chunk_index)
        )
        tasks = [task for _, task in keyed]
        self.last_schedule = {
            "points": len(entries),
            "tasks": len(tasks),
            "split_points": split_points,
            "total_cost": float(sum(e.cost for e in entries)),
            "calibrated": calibrated,
            "order": [(t.point_index, t.chunk_index) for t in tasks],
            "seconds_per_cost": self.seconds_per_cost,
            "_tasks": list(tasks),
        }
        if calibrated:
            # Weights already are estimated seconds for each task.
            self.last_schedule["estimated_seconds"] = [w for w, _ in keyed]
        else:
            self.last_schedule["estimated_seconds"] = self._estimates(tasks)
        return tasks

    def calibrate(
        self,
        cost: float,
        seconds: float,
        backend: Optional[str] = None,
        num_qubits: Optional[int] = None,
    ) -> None:
        """Anchor the relative cost model to a measured task timing.

        Non-positive costs and negative durations are rejected outright;
        a measured ``seconds == 0`` (a task faster than the
        ``perf_counter`` resolution) is clamped to
        :data:`~repro.sampler.calibration.MIN_CALIBRATION_SECONDS` so a
        sub-resolution task can never zero out ``seconds_per_cost`` and
        report every ``estimated_seconds`` as 0.  When a calibration
        table is attached and the sample names its (backend, width), the
        rate is also recorded there for future processes.
        """
        if cost <= 0 or seconds < 0:
            return
        seconds = max(float(seconds), MIN_CALIBRATION_SECONDS)
        self.seconds_per_cost = seconds / cost
        self.last_schedule["seconds_per_cost"] = self.seconds_per_cost
        tasks = self.last_schedule.get("_tasks")
        if tasks is not None:
            self.last_schedule["estimated_seconds"] = self._estimates(tasks)
        if self.calibration is not None and backend is not None:
            self.calibration.record(
                backend, num_qubits or 1, self.seconds_per_cost
            )

    def _estimates(self, tasks) -> Optional[List[float]]:
        if self.seconds_per_cost is None:
            return None
        return [t.cost * self.seconds_per_cost for t in tasks]


class WorkStealingScheduler(AdaptiveScheduler):
    """Adaptive geometry, pre-split finely so idle workers share points.

    The task *list* follows the same deterministic rules as
    :class:`AdaptiveScheduler` — largest-first order, fair-share
    splitting, the ``SeedSequence([seed, point, chunk])`` recipe — with
    one addition: every point is pre-split into at least ``granularity``
    repetition chunks (where its repetitions allow), because fine,
    uniform chunks are what lets an idle worker pull the tail of a
    straggling point, so placement adapts to measured reality
    (cost-model error, co-tenant noise, one slow core) at runtime.

    Placement-vs-geometry contract: which worker runs a chunk is decided
    at runtime and may differ between runs; *what* the chunks are and
    which seed each one uses never does.  Chunks merge in chunk order,
    so the output is bit-for-bit identical to running the identical
    task list serially or in-process.

    Args:
        granularity: Minimum chunks per point (default 4), capped by
            ``repetitions // min_chunk_repetitions``.  ``granularity=1``
            reproduces :class:`AdaptiveScheduler` geometry exactly.
        oversubscribe / min_chunk_repetitions / calibration:
            As for :class:`AdaptiveScheduler`.
    """

    def __init__(
        self,
        oversubscribe: int = 4,
        min_chunk_repetitions: int = 4,
        calibration=None,
        granularity: int = 4,
    ):
        super().__init__(
            oversubscribe=oversubscribe,
            min_chunk_repetitions=min_chunk_repetitions,
            calibration=calibration,
        )
        if granularity < 1:
            raise ValueError(f"granularity must be >= 1, got {granularity}")
        self.granularity = int(granularity)

    def chunk_count(
        self, cost: float, total: float, repetitions: int, num_workers: int
    ) -> int:
        base = super().chunk_count(cost, total, repetitions, num_workers)
        if num_workers <= 1 or self.granularity <= 1:
            return base
        by_reps = int(repetitions) // self.min_chunk_repetitions
        if by_reps < 2:
            return base
        return max(base, min(self.granularity, by_reps))


__all__ = [
    "AdaptiveScheduler",
    "BatchEntry",
    "FifoScheduler",
    "ScheduledTask",
    "Scheduler",
    "WorkStealingScheduler",
    "estimate_cost",
    "estimate_job_cost",
]
