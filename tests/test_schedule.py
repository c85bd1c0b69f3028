"""Adaptive scheduling: cost model, task geometry, and parity contracts.

The scheduler's determinism contract is the load-bearing property: the
task set (point, chunk, size, seed recipe) must be a function of the
batch's static costs and the scheduler configuration alone — never of
worker count at equal configuration, submission order, or timing.  The
parity classes pin the two bit-for-bit guarantees:

* a batch with **no oversized point** schedules exactly like FIFO, so
  adaptive output equals the plain serial ``run_batch`` on all five
  backends;
* a batch **with** split points is bit-for-bit identical to the same
  schedule replayed in-process (the "serial path" of the scheduler),
  again on all five backends.
"""

import numpy as np
import pytest

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.mps import MPSState
from repro.sampler import (
    AdaptiveScheduler,
    FifoScheduler,
    PoolManager,
    ProcessPoolExecutor,
    estimate_cost,
)
from repro.sampler.executors import _run_task_in_process
from repro.sampler.schedule import BatchEntry, Scheduler
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


class TestCostModel:
    def test_cost_scales_with_depth_and_repetitions(self):
        sim = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            0,
        )
        shallow = sim.compile(clifford_circuit(1))
        deep = sim.compile(clifford_circuit(10))
        assert estimate_cost(deep, 10) > estimate_cost(shallow, 10)
        assert estimate_cost(shallow, 20) == 2 * estimate_cost(shallow, 10)

    def test_cost_is_positive_for_trivial_programs(self):
        sim = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            0,
        )
        program = sim.compile(
            cirq.Circuit(cirq.measure(*QUBITS, key="m"))
        )
        assert estimate_cost(program, 1) >= 1

    def test_trajectory_entries_cost_the_multiplier(self):
        """A noisy (trajectory-mode) circuit costs TRAJECTORY_COST_MULTIPLIER
        times its unitary twin of identical structure: every repetition
        replays the whole gate loop instead of resampling one evolved
        state, and the scheduler must see that asymmetry to balance
        batches mixing the two."""
        from repro.sampler.schedule import TRAJECTORY_COST_MULTIPLIER

        sim = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            0,
        )
        unitary = sim.compile(clifford_circuit(4))
        noisy_circuit = clifford_circuit(4)
        noisy = sim.compile(
            cirq.Circuit(
                list(noisy_circuit.all_operations())[:-1]
                + [cirq.depolarize(0.01)(QUBITS[0])]
                + [cirq.measure(*QUBITS, key="m")]
            )
        )
        assert not unitary.needs_trajectories
        assert noisy.needs_trajectories
        # Same structural count: the noise op adds one record, so compare
        # per-op costs instead of totals.
        unit_ops = unitary.shared_record_count + unitary.param_slot_count
        noisy_ops = noisy.shared_record_count + noisy.param_slot_count
        per_op_unitary = estimate_cost(unitary, 10) / unit_ops
        per_op_noisy = estimate_cost(noisy, 10) / noisy_ops
        assert per_op_noisy == TRAJECTORY_COST_MULTIPLIER * per_op_unitary


class TestFifoScheduler:
    def test_one_task_per_point_in_order(self):
        tasks = FifoScheduler().schedule(
            entries_from_costs([5.0, 1.0, 3.0]), repetitions=10, num_workers=4
        )
        assert [(t.point_index, t.chunk_index, t.num_chunks) for t in tasks] == [
            (0, 0, 1),
            (1, 0, 1),
            (2, 0, 1),
        ]
        assert all(t.repetitions == 10 for t in tasks)


class TestAdaptiveScheduler:
    def test_equal_costs_schedule_like_fifo(self):
        """No oversized point: identical geometry and order to FIFO —
        the precondition for serial bit-for-bit parity."""
        scheduler = AdaptiveScheduler()
        tasks = scheduler.schedule(
            entries_from_costs([4.0] * 6), repetitions=20, num_workers=2
        )
        assert [(t.point_index, t.chunk_index) for t in tasks] == [
            (i, 0) for i in range(6)
        ]
        assert all(t.num_chunks == 1 for t in tasks)
        assert scheduler.last_schedule["split_points"] == 0

    def test_largest_first_ordering(self):
        tasks = AdaptiveScheduler().schedule(
            entries_from_costs([1.0, 8.0, 3.0]), repetitions=4, num_workers=2
        )
        assert [t.point_index for t in tasks] == [1, 2, 0]

    def test_oversized_point_splits_into_repetition_chunks(self):
        scheduler = AdaptiveScheduler(oversubscribe=2, min_chunk_repetitions=4)
        tasks = scheduler.schedule(
            entries_from_costs([100.0, 1.0, 1.0]), repetitions=32, num_workers=2
        )
        split = [t for t in tasks if t.point_index == 0]
        assert len(split) > 1
        assert all(t.num_chunks == len(split) for t in split)
        assert sorted(t.chunk_index for t in split) == list(range(len(split)))
        assert sum(t.repetitions for t in split) == 32
        assert all(t.repetitions >= 4 for t in split)
        # Small points stay whole with the serial seed recipe.
        assert all(
            t.num_chunks == 1 for t in tasks if t.point_index != 0
        )
        assert scheduler.last_schedule["split_points"] == 1

    def test_few_points_many_workers_splits_for_utilization(self):
        """A 2-point sweep on a 8-worker pool splits both points."""
        tasks = AdaptiveScheduler(min_chunk_repetitions=1).schedule(
            entries_from_costs([10.0, 10.0]), repetitions=64, num_workers=8
        )
        assert len(tasks) > 2
        assert all(t.num_chunks > 1 for t in tasks)

    def test_schedule_is_deterministic(self):
        costs = [7.0, 2.0, 9.0, 9.0, 1.0]
        a = AdaptiveScheduler().schedule(
            entries_from_costs(costs), repetitions=24, num_workers=3
        )
        b = AdaptiveScheduler().schedule(
            entries_from_costs(costs), repetitions=24, num_workers=3
        )
        assert [
            (t.point_index, t.chunk_index, t.num_chunks, t.repetitions)
            for t in a
        ] == [
            (t.point_index, t.chunk_index, t.num_chunks, t.repetitions)
            for t in b
        ]

    def test_single_worker_never_splits(self):
        tasks = AdaptiveScheduler().schedule(
            entries_from_costs([100.0, 1.0]), repetitions=64, num_workers=1
        )
        assert all(t.num_chunks == 1 for t in tasks)

    def test_merge_reassembles_chunks_in_chunk_order(self):
        """Out-of-order completion cannot change the merged output."""
        scheduler = AdaptiveScheduler(oversubscribe=2, min_chunk_repetitions=1)
        tasks = scheduler.schedule(
            entries_from_costs([50.0, 1.0]), repetitions=8, num_workers=2
        )

        def fake_part(task):
            rows = np.full(
                (task.repetitions, 1),
                task.point_index * 100 + task.chunk_index,
                dtype=np.int64,
            )
            return {"m": rows}, rows

        merged = Scheduler.merge(tasks, [fake_part(t) for t in tasks], 2)
        assert len(merged) == 2
        chunk_ids = merged[0][1][:, 0]
        # Chunk labels appear in nondecreasing chunk order.
        assert list(chunk_ids) == sorted(chunk_ids)

    def test_calibrate_reports_estimated_seconds(self):
        scheduler = AdaptiveScheduler()
        scheduler.schedule(
            entries_from_costs([4.0, 2.0]), repetitions=8, num_workers=1
        )
        assert scheduler.last_schedule["estimated_seconds"] is None
        scheduler.calibrate(cost=4.0, seconds=0.5)
        assert scheduler.seconds_per_cost == pytest.approx(0.125)
        estimates = scheduler.last_schedule["estimated_seconds"]
        assert estimates == pytest.approx([0.5, 0.25])

    def test_validation(self):
        with pytest.raises(ValueError, match="oversubscribe"):
            AdaptiveScheduler(oversubscribe=0)
        with pytest.raises(ValueError, match="min_chunk_repetitions"):
            AdaptiveScheduler(min_chunk_repetitions=0)


@pytest.fixture
def manager():
    mgr = PoolManager()
    yield mgr
    mgr.shutdown()


class TestAdaptiveParity:
    """The scheduler's bit-for-bit contracts on every backend."""

    @pytest.mark.parametrize("make_state, prob_fn", BACKENDS)
    def test_unsplit_adaptive_equals_serial_batch(
        self, manager, make_state, prob_fn
    ):
        """Equal-cost batches never split, so adaptive output == the
        plain serial run_batch, bit for bit."""
        circuits = [clifford_circuit(2) for _ in range(4)]
        serial = make_sim(make_state, prob_fn, seed=13).run_batch(
            circuits, repetitions=12
        )
        adaptive = make_sim(
            make_state,
            prob_fn,
            seed=13,
            executor=ProcessPoolExecutor(
                num_workers=2,
                start_method=START_METHODS[0],
                pool_manager=manager,
                scheduler=AdaptiveScheduler(),
            ),
        ).run_batch(circuits, repetitions=12)
        assert_results_equal(serial, adaptive)

    @pytest.mark.parametrize("make_state, prob_fn", BACKENDS)
    def test_split_schedule_matches_in_process_replay(
        self, manager, make_state, prob_fn
    ):
        """A mixed-depth batch with an oversized (split) point is
        bit-for-bit identical to the same schedule replayed in-process —
        the scheduler's serial path."""
        scheduler = AdaptiveScheduler(oversubscribe=2, min_chunk_repetitions=4)
        circuits = [clifford_circuit(d) for d in (1, 1, 12, 1)]
        sim = make_sim(
            make_state,
            prob_fn,
            seed=17,
            executor=ProcessPoolExecutor(
                num_workers=2,
                start_method=START_METHODS[0],
                pool_manager=manager,
                scheduler=scheduler,
            ),
        )
        pooled = sim.run_batch(circuits, repetitions=24)
        assert scheduler.last_schedule["split_points"] >= 1

        # Replay the identical schedule in the parent process.
        replay_sim = make_sim(make_state, prob_fn, seed=17)
        table = [replay_sim.compile(circuit) for circuit in circuits]
        from repro.sampler.schedule import BatchEntry as Entry
        from repro.sampler.service import _base_seed

        entries = [
            Entry(i, i, None, estimate_cost(table[i], 24))
            for i in range(len(table))
        ]
        replay_sched = AdaptiveScheduler(
            oversubscribe=2, min_chunk_repetitions=4
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

    def test_calibration_does_not_change_output(self, manager):
        """Every pulled task calibrates the scheduler's scale; a run
        scheduled with a calibrated scale samples exactly like one
        scheduled cold."""
        circuits = [clifford_circuit(d) for d in (1, 8, 1, 1)]

        def run(scheduler, mgr):
            return make_sim(
                lambda: StateVectorSimulationState(QUBITS),
                born.compute_probability_state_vector,
                seed=23,
                executor=ProcessPoolExecutor(
                    num_workers=2,
                    start_method=START_METHODS[0],
                    pool_manager=mgr,
                    scheduler=scheduler,
                ),
            ).run_batch(circuits, repetitions=16)

        calibrated = AdaptiveScheduler()
        first = run(calibrated, manager)
        assert calibrated.seconds_per_cost is not None
        assert calibrated.last_schedule["estimated_seconds"] is not None
        second = run(calibrated, manager)
        with PoolManager() as other:
            cold = run(AdaptiveScheduler(), other)
        assert_results_equal(first, cold)
        assert_results_equal(second, cold)
