"""Work-stealing dispatch: geometry, parity, calibration, failure paths.

The placement-vs-geometry contract under test: a
:class:`~repro.sampler.schedule.WorkStealingScheduler` may let any idle
worker pull any task at runtime, but the task *list* — chunk geometry
and per-chunk ``SeedSequence([seed, point, chunk])`` streams — is a
deterministic function of static inputs, so stealing output must be
bit-for-bit identical to the serial path (unsplit schedules), to an
in-process replay of the same schedule (split schedules), and to an
:class:`~repro.sampler.schedule.AdaptiveScheduler` run of the same
geometry — on all five backends, both transports, every start method.
"""

import numpy as np
import pytest

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.mps import MPSState
from repro.sampler import (
    AdaptiveScheduler,
    PoolManager,
    ProcessPoolExecutor,
    WorkStealingScheduler,
    estimate_cost,
)
from repro.sampler.calibration import CalibrationTable
from repro.sampler.executors import _run_task_in_process
from repro.sampler.result_planes import live_segment_names
from repro.sampler.schedule import BatchEntry
from repro.sampler.service import _base_seed
from repro.states import (
    CliffordTableauSimulationState,
    DensityMatrixSimulationState,
    StabilizerChFormSimulationState,
    StateVectorSimulationState,
)


def pool_start_methods():
    import multiprocessing
    import os

    env = os.environ.get("BGLS_POOL_START_METHODS", "fork")
    requested = [m.strip() for m in env.split(",") if m.strip()]
    available = multiprocessing.get_all_start_methods()
    methods = [m for m in requested if m in available]
    return methods or [available[0]]


START_METHODS = pool_start_methods()

N = 3
QUBITS = cirq.LineQubit.range(N)


def clifford_circuit(depth):
    circuit = cirq.Circuit(cirq.H(QUBITS[0]))
    for _ in range(depth):
        circuit.append(cirq.CNOT(QUBITS[0], QUBITS[1]))
        circuit.append(cirq.S(QUBITS[2]))
        circuit.append(cirq.CNOT(QUBITS[1], QUBITS[2]))
    circuit.append(cirq.measure(*QUBITS, key="m"))
    return circuit


BACKENDS = [
    pytest.param(
        lambda: StateVectorSimulationState(QUBITS),
        born.compute_probability_state_vector,
        id="state_vector",
    ),
    pytest.param(
        lambda: DensityMatrixSimulationState(QUBITS),
        born.compute_probability_density_matrix,
        id="density_matrix",
    ),
    pytest.param(
        lambda: StabilizerChFormSimulationState(QUBITS),
        born.compute_probability_stabilizer_state,
        id="stabilizer_ch_form",
    ),
    pytest.param(
        lambda: CliffordTableauSimulationState(QUBITS),
        born.compute_probability_tableau,
        id="clifford_tableau",
    ),
    pytest.param(
        lambda: MPSState(QUBITS),
        born.compute_probability_mps,
        id="mps",
    ),
]


def make_sim(make_state, prob_fn, seed, executor=None):
    return bgls.Simulator(
        make_state(), bgls.act_on, prob_fn, seed=seed, executor=executor
    )


def stealing_executor(manager, scheduler=None, start_method=None, **kwargs):
    return ProcessPoolExecutor(
        num_workers=2,
        start_method=start_method or START_METHODS[0],
        pool_manager=manager,
        scheduler=(
            scheduler if scheduler is not None else WorkStealingScheduler()
        ),
        **kwargs,
    )


def assert_results_equal(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert set(ra.measurements) == set(rb.measurements)
        for key in ra.measurements:
            np.testing.assert_array_equal(
                ra.measurements[key], rb.measurements[key]
            )


def entries_from_costs(costs):
    return [BatchEntry(i, i, None, cost) for i, cost in enumerate(costs)]


def geometry(tasks):
    return [
        (t.point_index, t.chunk_index, t.num_chunks, t.repetitions)
        for t in tasks
    ]


def _raising_probability(state, bitstring):
    raise ValueError("injected worker failure")


@pytest.fixture
def manager():
    mgr = PoolManager()
    yield mgr
    mgr.shutdown()


class TestWorkStealingGeometry:
    def test_flags_and_validation(self):
        assert WorkStealingScheduler().granularity == 4
        with pytest.raises(ValueError, match="granularity"):
            WorkStealingScheduler(granularity=0)

    def test_granularity_one_matches_adaptive_geometry(self):
        costs = [7.0, 2.0, 9.0, 9.0, 1.0]
        adaptive = AdaptiveScheduler().schedule(
            entries_from_costs(costs), repetitions=24, num_workers=3
        )
        stealing = WorkStealingScheduler(granularity=1).schedule(
            entries_from_costs(costs), repetitions=24, num_workers=3
        )
        assert geometry(adaptive) == geometry(stealing)

    def test_granularity_pre_splits_equal_cost_points(self):
        """Adaptive leaves an equal-cost batch whole; stealing pre-splits
        every point so there is something to steal."""
        adaptive = AdaptiveScheduler().schedule(
            entries_from_costs([4.0] * 3), repetitions=32, num_workers=2
        )
        assert all(t.num_chunks == 1 for t in adaptive)
        stealing = WorkStealingScheduler(granularity=4).schedule(
            entries_from_costs([4.0] * 3), repetitions=32, num_workers=2
        )
        assert all(t.num_chunks == 4 for t in stealing)
        for point in range(3):
            chunks = [t for t in stealing if t.point_index == point]
            assert sorted(t.chunk_index for t in chunks) == [0, 1, 2, 3]
            assert sum(t.repetitions for t in chunks) == 32

    def test_granularity_capped_by_min_chunk_repetitions(self):
        tasks = WorkStealingScheduler(
            granularity=8, min_chunk_repetitions=4
        ).schedule(entries_from_costs([4.0]), repetitions=8, num_workers=2)
        assert all(t.num_chunks == 2 for t in tasks)  # 8 reps // 4 min
        assert all(t.repetitions >= 4 for t in tasks)

    def test_too_few_repetitions_stay_whole(self):
        tasks = WorkStealingScheduler(
            granularity=4, min_chunk_repetitions=4
        ).schedule(entries_from_costs([4.0, 4.0]), repetitions=4, num_workers=2)
        assert all(t.num_chunks == 1 for t in tasks)

    def test_single_worker_never_splits(self):
        tasks = WorkStealingScheduler(granularity=4).schedule(
            entries_from_costs([4.0] * 3), repetitions=32, num_workers=1
        )
        assert all(t.num_chunks == 1 for t in tasks)

    def test_oversized_point_still_splits_at_least_adaptively(self):
        """The adaptive fair-share rule is a floor, not replaced."""
        adaptive = AdaptiveScheduler(oversubscribe=4).schedule(
            entries_from_costs([100.0, 1.0, 1.0]),
            repetitions=128,
            num_workers=2,
        )
        adaptive_chunks = max(t.num_chunks for t in adaptive)
        stealing = WorkStealingScheduler(oversubscribe=4, granularity=2).schedule(
            entries_from_costs([100.0, 1.0, 1.0]),
            repetitions=128,
            num_workers=2,
        )
        big = [t for t in stealing if t.point_index == 0]
        assert big[0].num_chunks >= adaptive_chunks


class TestWorkStealingParity:
    """Stealing == serial / replay / adaptive, bit for bit, 5 backends."""

    @pytest.mark.parametrize("make_state, prob_fn", BACKENDS)
    def test_unsplit_stealing_equals_serial_batch(
        self, manager, make_state, prob_fn
    ):
        """granularity=1 on an equal-cost batch: no splits, so stealing
        must reproduce the plain serial run_batch exactly — placement
        changed, geometry did not."""
        circuits = [clifford_circuit(2) for _ in range(4)]
        serial = make_sim(make_state, prob_fn, seed=13).run_batch(
            circuits, repetitions=12
        )
        stealing = make_sim(
            make_state,
            prob_fn,
            seed=13,
            executor=stealing_executor(
                manager, WorkStealingScheduler(granularity=1)
            ),
        ).run_batch(circuits, repetitions=12)
        assert_results_equal(serial, stealing)

    @pytest.mark.parametrize("make_state, prob_fn", BACKENDS)
    def test_split_schedule_matches_in_process_replay(
        self, manager, make_state, prob_fn
    ):
        """Default granularity pre-splits every point; the pooled stolen
        run must equal the identical schedule replayed in-process."""
        scheduler = WorkStealingScheduler(
            oversubscribe=2, min_chunk_repetitions=4, granularity=4
        )
        circuits = [clifford_circuit(d) for d in (1, 1, 12, 1)]
        pooled = make_sim(
            make_state,
            prob_fn,
            seed=17,
            executor=stealing_executor(manager, scheduler),
        ).run_batch(circuits, repetitions=24)
        assert scheduler.last_schedule["split_points"] == len(circuits)

        replay_sim = make_sim(make_state, prob_fn, seed=17)
        table = [replay_sim.compile(circuit) for circuit in circuits]
        entries = [
            BatchEntry(i, i, None, estimate_cost(table[i], 24))
            for i in range(len(table))
        ]
        replay_sched = WorkStealingScheduler(
            oversubscribe=2, min_chunk_repetitions=4, granularity=4
        )
        tasks = replay_sched.schedule(entries, 24, num_workers=2)
        base = _base_seed(17)
        parts = [
            _run_task_in_process(
                replay_sim,
                table,
                (
                    t.program_index,
                    t.point_index,
                    t.resolver,
                    t.repetitions,
                    t.num_chunks,
                    t.chunk_index,
                    base,
                ),
            )
            for t in tasks
        ]
        replayed = replay_sched.merge(tasks, parts, len(circuits))
        for (records, _), result in zip(replayed, pooled):
            assert set(records) == set(result.measurements)
            for key in records:
                np.testing.assert_array_equal(
                    records[key], result.measurements[key]
                )

    @pytest.mark.parametrize("make_state, prob_fn", BACKENDS)
    def test_stealing_equals_adaptive_dispatch(
        self, manager, make_state, prob_fn
    ):
        """Same geometry knobs, different scheduler class: output must be
        identical — placement never changes samples."""
        circuits = [clifford_circuit(d) for d in (1, 1, 12, 1)]

        def run(scheduler, mgr):
            return make_sim(
                make_state,
                prob_fn,
                seed=29,
                executor=stealing_executor(mgr, scheduler),
            ).run_batch(circuits, repetitions=24)

        adaptive = run(
            AdaptiveScheduler(oversubscribe=2, min_chunk_repetitions=4),
            manager,
        )
        with PoolManager() as other:
            stealing = run(
                WorkStealingScheduler(
                    oversubscribe=2, min_chunk_repetitions=4, granularity=1
                ),
                other,
            )
        assert_results_equal(adaptive, stealing)

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_parity_per_start_method(self, manager, start_method):
        """The queue plumbing (initargs inheritance) works under every
        configured start method with identical output.  Equal costs keep
        the schedule unsplit so serial is the exact reference."""
        circuits = [clifford_circuit(2) for _ in range(3)]
        serial = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            seed=31,
        ).run_batch(circuits, repetitions=16)
        stealing = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            seed=31,
            executor=stealing_executor(
                manager,
                WorkStealingScheduler(granularity=1, oversubscribe=1),
                start_method=start_method,
            ),
        ).run_batch(circuits, repetitions=16)
        assert_results_equal(serial, stealing)

    @pytest.mark.parametrize("scope", ["auto", "points"])
    def test_sweep_scope_matches_serial_sweep(self, manager, scope):
        """Stealing through run_sweep's point scope: a parameterized
        sweep equals the serial sweep bit for bit."""
        theta = cirq.Symbol("theta")
        circuit = cirq.Circuit(
            cirq.H(QUBITS[0]),
            cirq.Rz(theta).on(QUBITS[0]),
            cirq.CNOT(QUBITS[0], QUBITS[1]),
            cirq.measure(*QUBITS, key="m"),
        )
        params = [{"theta": 0.1 * k} for k in range(4)]
        serial = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            seed=37,
        ).run_sweep(circuit, params, repetitions=12, scope=scope)
        stealing = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            seed=37,
            executor=stealing_executor(
                manager, WorkStealingScheduler(granularity=1)
            ),
        ).run_sweep(circuit, params, repetitions=12, scope=scope)
        assert_results_equal(serial, stealing)

    def test_transports_are_identical(self, manager):
        """Split schedule, both transports: the payload channel (shared
        memory planes vs pickled dicts) must not affect the samples."""
        circuits = [clifford_circuit(d) for d in (1, 8, 1)]

        def run(transport, mgr):
            return make_sim(
                lambda: StateVectorSimulationState(QUBITS),
                born.compute_probability_state_vector,
                seed=41,
                executor=stealing_executor(
                    mgr,
                    WorkStealingScheduler(granularity=2),
                    result_transport=transport,
                ),
            ).run_batch(circuits, repetitions=16)

        pickled = run("pickle", manager)
        with PoolManager() as other:
            shm = run("shm", other)
        assert_results_equal(pickled, shm)

    def test_cold_pool_stealing_matches_warm(self, manager):
        circuits = [clifford_circuit(d) for d in (1, 6, 1)]
        warm = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            seed=43,
            executor=stealing_executor(manager),
        ).run_batch(circuits, repetitions=16)
        cold = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            seed=43,
            executor=stealing_executor(manager, reuse_pool=False),
        ).run_batch(circuits, repetitions=16)
        assert_results_equal(warm, cold)

    def test_single_worker_falls_back_in_process(self):
        circuits = [clifford_circuit(d) for d in (1, 6, 1)]
        serial = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            seed=47,
        ).run_batch(circuits, repetitions=16)
        inproc = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            seed=47,
            executor=ProcessPoolExecutor(
                num_workers=1,
                scheduler=WorkStealingScheduler(granularity=1),
            ),
        ).run_batch(circuits, repetitions=16)
        assert_results_equal(serial, inproc)

    def test_streaming_early_close_cleans_up(self, manager):
        """Abandoning a stealing iterator mid-drain leaves no stale queue
        item for the next run and unlinks every result plane — then the
        next run matches."""
        circuits = [clifford_circuit(2) for _ in range(4)]
        sim = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            seed=53,
            executor=stealing_executor(
                manager, WorkStealingScheduler(granularity=1)
            ),
        )
        stream = sim.run_batch_iter(circuits, repetitions=12)
        next(stream)
        stream.close()
        assert live_segment_names() == []
        serial = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            seed=53,
        ).run_batch(circuits, repetitions=12)
        again = sim.run_batch(circuits, repetitions=12)
        assert_results_equal(serial, again)

    def test_warm_reuse_single_init(self, manager):
        """Two stealing batches on one unchanged key: one worker init —
        and the shared queues are clean enough to reuse."""
        circuits = [clifford_circuit(2) for _ in range(4)]
        sim = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            seed=59,
            executor=stealing_executor(manager),
        )
        first = sim.run_batch(circuits, repetitions=12)
        second = sim.run_batch(circuits, repetitions=12)
        assert_results_equal(first, second)
        assert manager.stats["inits"] == 1
        assert manager.stats["reuses"] >= 1


class TestWorkStealingCalibration:
    def test_every_task_calibrates_and_persists(self, manager, tmp_path):
        path = str(tmp_path / "calibration.json")
        table = CalibrationTable(path=path)
        scheduler = WorkStealingScheduler(granularity=2, calibration=table)
        circuits = [clifford_circuit(2) for _ in range(3)]
        make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            seed=61,
            executor=stealing_executor(manager, scheduler),
        ).run_batch(circuits, repetitions=16)
        assert scheduler.seconds_per_cost is not None
        assert scheduler.seconds_per_cost > 0
        assert table.sample_count("StateVectorSimulationState", N) >= 1
        # The executor flushed the table after the successful drain.
        reloaded = CalibrationTable(path=path)
        assert reloaded.sample_count("StateVectorSimulationState", N) >= 1

    def test_next_schedule_starts_calibrated(self, manager, tmp_path):
        """The persisted loop closed: a later scheduler built over the
        same table file reports seconds estimates before any probe."""
        path = str(tmp_path / "calibration.json")
        circuits = [clifford_circuit(2) for _ in range(3)]
        make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            seed=67,
            executor=stealing_executor(
                manager,
                WorkStealingScheduler(
                    granularity=2, calibration=CalibrationTable(path=path)
                ),
            ),
        ).run_batch(circuits, repetitions=16)

        fresh = WorkStealingScheduler(
            granularity=2, calibration=CalibrationTable(path=path)
        )
        sim = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            seed=67,
        )
        programs = [sim.compile(c) for c in circuits]
        entries = [
            BatchEntry(
                i,
                i,
                None,
                estimate_cost(programs[i], 16),
                backend="StateVectorSimulationState",
                num_qubits=N,
            )
            for i in range(len(programs))
        ]
        fresh.schedule(entries, 16, num_workers=2)
        assert fresh.last_schedule["calibrated"] is True
        estimates = fresh.last_schedule["estimated_seconds"]
        assert estimates is not None and all(v > 0 for v in estimates)

    def test_calibration_does_not_change_output(self, manager):
        """A uniform same-backend rate scales all weights equally, so a
        calibrated stealing run equals an uncalibrated one bit for bit."""
        table = CalibrationTable(persist=False)
        table.record("StateVectorSimulationState", N, 5e-6)
        circuits = [clifford_circuit(d) for d in (1, 6, 1)]

        def run(scheduler, mgr):
            return make_sim(
                lambda: StateVectorSimulationState(QUBITS),
                born.compute_probability_state_vector,
                seed=71,
                executor=stealing_executor(mgr, scheduler),
            ).run_batch(circuits, repetitions=16)

        plain = run(WorkStealingScheduler(granularity=2), manager)
        with PoolManager() as other:
            calibrated = run(
                WorkStealingScheduler(granularity=2, calibration=table), other
            )
        assert_results_equal(plain, calibrated)


class TestWorkStealingFailures:
    def test_task_error_propagates_and_pool_resets(self, manager):
        """A task failure inside a stolen chunk surfaces in the parent,
        retires the (queue-polluted) pool, releases every plane, and
        leaves the manager reusable."""
        circuits = [clifford_circuit(2) for _ in range(3)]
        sim = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            _raising_probability,
            seed=73,
            # fork: the injected module-level function must resolve in
            # the worker without re-importing the test module.
            executor=stealing_executor(manager, start_method="fork"),
        )
        with pytest.raises(ValueError, match="injected worker failure"):
            sim.run_batch(circuits, repetitions=16)
        assert live_segment_names() == []
        # Manager reusable: a healthy run rebuilds a fresh pool.
        inits_after_failure = manager.stats["inits"]
        good = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            seed=73,
            executor=stealing_executor(
                manager,
                WorkStealingScheduler(granularity=1),
                start_method="fork",
            ),
        ).run_batch(circuits, repetitions=16)
        serial = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            seed=73,
        ).run_batch(circuits, repetitions=16)
        assert_results_equal(serial, good)
        assert manager.stats["inits"] == inits_after_failure + 1
