"""The benchmark's three workloads: inputs, one iteration, output checks.

Each workload stresses a different layer of the sampler and bypasses
others, so a change to one layer shows on the workload that exercises it
and reads as "no change" on the ones that bypass it.  All inputs come
from the ``--seed`` argument; the library only ever sees the generated
circuits and resolvers.

``clifford_wide`` — the single-threaded kernel baseline.
    Why: batches of fresh random 48-qubit {H, S, CNOT} circuits, one point
    each, streamed in-process (no executor) with ``run_batch_iter`` on the
    CH-form stabilizer state.  Time
    goes mostly to the ``born`` CH-form oracle, then to the parallel-mode
    front in ``sampler.simulator``, then to ``states`` updates.
    Bypasses: the process pool, ``transpile`` and ``trajectory_batch``.

``xeb_ensemble`` — the XEB verification flow.
    Why: every iteration is a fresh seeded ensemble of 34 pulse-split
    12-qubit supremacy circuits, run through ``transpile([MergeRotations()])``
    and ``ideal_output_probabilities``, sampled with
    ``run_batch_iter(scope="points")`` on a 2-worker ``ProcessPoolExecutor``
    and scored with ``linear_xeb_estimate``/``ensemble_xeb``.  Sampling is
    front-bound in ``sampler.simulator``; each iteration misses the
    Program cache 34 times and re-initializes the pool once.  34 is the
    smallest ensemble whose three iterations give the 100 points a 90th
    percentile needs.
    Bypasses: ``trajectory_batch``.

``noisy_sweep`` — a parameter scan with noise.
    Why: QAOA MaxCut (p=2) on a fixed 8-node, 8-edge random graph (the
    mean size of G(8, 0.3)) with
    ``depolarize(0.01)`` on both qubits after every two-qubit gate, run
    with ``trajectory_mode="batched"``.  Every iteration draws a fresh
    4x4 (gamma, beta) grid, so ``specialize`` does real work while
    ``compile`` stays a cache hit, and sweeps it with ``run_sweep_iter``
    on a warm 2-worker pool that is reused across iterations (no pool
    init after set-up, the opposite of ``xeb_ensemble``).  Time goes to
    ``trajectory_batch`` Kraus branching and tile updates.
    Bypasses: the ``born`` oracles and the parallel-mode front of
    ``sampler.simulator``.
"""

from __future__ import annotations

import time
from collections import namedtuple
from contextlib import nullcontext
from typing import List, Optional

import networkx as nx
import numpy as np

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.analysis.xeb import ensemble_xeb, linear_xeb_estimate
from repro.apps import ideal_output_probabilities, xeb_circuits
from repro.apps.qaoa import qaoa_maxcut_circuit
from repro.circuits import Symbol, channels
from repro.circuits.random_circuits import random_clifford_circuit
from repro.sampler import PoolManager, ProcessPoolExecutor
from repro.states import (
    DensityMatrixSimulationState,
    StabilizerChFormSimulationState,
    StateVectorSimulationState,
)
from repro.transpile import MergeRotations, transpile

#: Points in a warm-up iteration: one per pool worker.
WARMUP_POINTS = 2

#: What a workload iteration runs against: the initial state object, the
#: scalar Born function that selects the backend's oracles, and the
#: executor (None runs in-process).
Backend = namedtuple("Backend", "state probability executor")

#: One iteration's observable output.  ``samples`` holds one array per
#: point; ``latencies`` the time from the run call to each point's
#: result; ``sampling_s`` the time from the run call to the last point.
Output = namedtuple(
    "Output",
    "samples latencies sampling_s submit_s first_point_s wait_s summary",
)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _run_span(tracer):
    return tracer.run_span() if tracer is not None else nullcontext()


def _stream(call, tracer):
    """Drive one streamed run call, one point at a time.

    Returns the per-point results with the call's timings: the eager
    call itself (submit), the call-to-yield latency of every point, and
    the time spent blocked waiting for points.
    """
    start = time.perf_counter()
    with _run_span(tracer):
        points = call()
    submit = time.perf_counter() - start
    results, latencies, wait = [], [], 0.0
    while True:
        before = time.perf_counter()
        with _run_span(tracer):
            result = next(points, None)
        now = time.perf_counter()
        wait += now - before
        if result is None:
            break
        results.append(result)
        latencies.append(now - start)
    return results, latencies, submit, wait


def _seed(*entropy) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


class Workload:
    """Shared shape: seeded inputs, a backend per mode, checks."""

    name = ""
    points_per_iteration = 1
    #: How many of the first measured iterations are replayed serially
    #: (determinism check, speed-up denominator, traced layer split).
    replay_iterations = 1
    state_class = StateVectorSimulationState
    probability = staticmethod(born.compute_probability_state_vector)

    def __init__(self, seed: int):
        self.seed = seed
        self.sim_seed = _seed(seed, 7)
        self.pool_manager: Optional[PoolManager] = None
        self.executor: Optional[ProcessPoolExecutor] = None

    def inputs(self, index: int, warmup: bool = False):
        """The generated input of measured iteration ``index``.

        A warm-up input is the smallest one that still starts and loads
        every pool worker: ``WARMUP_POINTS`` points (a single point would
        run in-process and leave the pool unstarted).
        """
        raise NotImplementedError

    def qubits(self):
        raise NotImplementedError

    def open(self) -> Backend:
        """Set up the measured backend (state, and a fresh pool if pooled)."""
        return self.serial_backend()

    def close(self) -> None:
        if self.pool_manager is not None:
            self.pool_manager.shutdown()
        self.pool_manager = None
        self.executor = None

    def serial_backend(self, traced=None) -> Backend:
        """An executor-free backend; ``traced`` swaps in the timed classes."""
        if traced is None:
            return Backend(self.state_class(self.qubits()), self.probability, None)
        cls, probability = traced[self.state_class]
        return Backend(cls(self.qubits()), probability, None)

    def _pooled(self) -> Backend:
        self.pool_manager = PoolManager()
        self.executor = ProcessPoolExecutor(
            num_workers=2, pool_manager=self.pool_manager
        )
        return Backend(
            self.state_class(self.qubits()), self.probability, self.executor
        )

    def iterate(self, backend: Backend, inputs, tracer=None) -> Output:
        raise NotImplementedError

    def check(self, index: int, inputs, output: Output) -> List[bool]:
        """One verdict per point of measured iteration ``index``."""
        raise NotImplementedError


class CliffordWide(Workload):
    name = "clifford_wide"
    num_qubits = 48
    depth = 12
    repetitions = 16
    #: Circuits per ``run_batch_iter`` call.  One circuit samples in about
    #: 0.2 s, no longer than the stalls a shared host imposes, so timing
    #: calls of one circuit each measured the host more than the sampler;
    #: a streamed batch spreads each stall over many points.  Five batches
    #: give the 100 points a 90th percentile needs.
    num_circuits = 20
    points_per_iteration = num_circuits
    state_class = StabilizerChFormSimulationState
    probability = staticmethod(born.compute_probability_stabilizer_state)

    def qubits(self):
        return cirq.LineQubit.range(self.num_qubits)

    def inputs(self, index, warmup=False):
        seed = _seed(self.seed, int(warmup), index)
        circuits = []
        for k in range(WARMUP_POINTS if warmup else self.num_circuits):
            circuit = random_clifford_circuit(
                self.qubits(), self.depth, random_state=_seed(seed, k)
            )
            circuit.append(cirq.measure(*self.qubits(), key="m"))
            circuits.append(circuit)
        return circuits, seed

    def iterate(self, backend, inputs, tracer=None):
        circuits, seed = inputs
        sim = bgls.Simulator(
            backend.state, bgls.act_on, backend.probability, seed=seed
        )
        if tracer is not None:
            with tracer.span("program.compile"):
                programs = [sim.compile(c) for c in circuits]
            with tracer.span("program.specialize"):
                for program in programs:
                    program.specialize(None)
        start = time.perf_counter()
        results, latencies, _, _ = _stream(
            lambda: sim.run_batch_iter(circuits, repetitions=self.repetitions),
            tracer,
        )
        sampling = time.perf_counter() - start
        samples = [np.array(r.measurements["m"]) for r in results]
        # No pool: the pool timings stay zero.
        return Output(samples, latencies, sampling, 0.0, 0.0, 0.0, None)

    def check(self, index, inputs, output):
        """Every sampled bitstring has nonzero CH-form Born probability."""
        verdicts = []
        for circuit, samples in zip(inputs[0], output.samples):
            state = StabilizerChFormSimulationState(self.qubits())
            for op in circuit.without_measurements().all_operations():
                bgls.act_on(op, state)
            rows = np.unique(samples, axis=0)
            verdicts.append(all(state.probability_of(row) > 0.0 for row in rows))
        return verdicts


class XebEnsemble(Workload):
    name = "xeb_ensemble"
    rows, cols, cycles = 3, 4, 8
    num_circuits = 34
    pulse_splits = 4
    repetitions = 200
    #: Accepted distance of the ensemble fidelity from 1.  The scatter
    #: error of a 34 x 200 ensemble is about 0.02, so this is ~7 sigma.
    fidelity_band = 0.15
    points_per_iteration = num_circuits
    replay_iterations = 1

    def qubits(self):
        return [
            cirq.GridQubit(r, c) for r in range(self.rows) for c in range(self.cols)
        ]

    def inputs(self, index, warmup=False):
        return xeb_circuits(
            self.rows,
            self.cols,
            self.cycles,
            WARMUP_POINTS if warmup else self.num_circuits,
            pulse_splits=self.pulse_splits,
            random_state=_seed(self.seed, int(warmup), index),
        )

    def open(self):
        return self._pooled()

    def iterate(self, backend, inputs, tracer=None):
        start = time.perf_counter()
        with _span(tracer, "transpile"):
            merged = [transpile(c, [MergeRotations()]) for c in inputs]
        with _span(tracer, "apps.ideal_probs"):
            probs = [ideal_output_probabilities(c) for c in merged]
        sim = bgls.Simulator(
            backend.state,
            bgls.act_on,
            backend.probability,
            seed=self.sim_seed,
            executor=backend.executor,
        )
        if tracer is not None:
            tracer.counts["transpile.ops_out"] += sum(
                c.num_operations() for c in merged
            )
            with tracer.span("program.compile"):
                programs = [sim.compile(c) for c in merged]
            with tracer.span("program.specialize"):
                for program in programs:
                    program.specialize(None)
        run_start = time.perf_counter()
        results, latencies, submit, wait = _stream(
            lambda: sim.run_batch_iter(
                merged, repetitions=self.repetitions, scope="points"
            ),
            tracer,
        )
        sampling = time.perf_counter() - run_start
        samples = [np.array(r.measurements["m"]) for r in results]
        with _span(tracer, "analysis.xeb"):
            ensemble = ensemble_xeb(
                [linear_xeb_estimate(s, p) for s, p in zip(samples, probs)]
            )
        # Latency counts from the start of the flow: transpile and ideal
        # probabilities block every point's result.
        lead = run_start - start
        return Output(
            samples,
            [lead + t for t in latencies],
            sampling,
            submit,
            latencies[0] if latencies else 0.0,
            wait,
            ensemble,
        )

    def check(self, index, inputs, output):
        """The ensemble fidelity lies within ``fidelity_band`` of 1, and
        every circuit was sampled and scored."""
        ensemble = output.summary
        ok = abs(ensemble.fidelity - 1.0) <= self.fidelity_band
        return [
            ok and s.shape == (self.repetitions, self.rows * self.cols)
            and np.isfinite(e.fidelity)
            for s, e in zip(output.samples, ensemble.per_circuit)
        ]


class NoisySweep(Workload):
    name = "noisy_sweep"
    num_nodes = 8
    #: G(n, m) with m the mean edge count of G(8, 0.3).
    num_edges = 8
    graph_seed = 2023
    layers = 2
    noise = 0.01
    grid = 4
    repetitions = 64
    #: A point fails when its mean cut is more than this many standard
    #: errors from the exact density-matrix expectation.
    sigmas = 5.0
    exact_checks = 2
    points_per_iteration = grid * grid
    replay_iterations = 1

    def __init__(self, seed):
        super().__init__(seed)
        # One fixed problem instance: which qubits the gates touch changes
        # the cost of a tile update, so a graph drawn from ``--seed`` would
        # make the run's cost depend on the seed.  The seed draws the
        # parameter grids.
        self.graph = nx.gnm_random_graph(
            self.num_nodes, self.num_edges, seed=self.graph_seed
        )
        self.edges = np.array(sorted(self.graph.edges()), dtype=int)
        self.template = self._noisy_template()
        # Cut value of every basis state, first qubit as the MSB.
        basis = np.arange(2**self.num_nodes)
        bits = (basis[:, None] >> (self.num_nodes - 1 - np.arange(self.num_nodes))) & 1
        self.basis_cuts = self._cuts(bits)

    def _noisy_template(self):
        base = qaoa_maxcut_circuit(
            self.graph,
            Symbol("gamma"),
            Symbol("beta"),
            layers=self.layers,
            qubits=self.qubits(),
        )
        circuit = cirq.Circuit()
        for op in base.all_operations():
            circuit.append(op)
            if len(op.qubits) == 2:
                circuit.append(channels.depolarize(self.noise).on(q) for q in op.qubits)
        return circuit

    def _cuts(self, bits):
        return (bits[:, self.edges[:, 0]] != bits[:, self.edges[:, 1]]).sum(axis=1)

    def qubits(self):
        return cirq.LineQubit.range(self.num_nodes)

    def inputs(self, index, warmup=False):
        rng = np.random.default_rng(_seed(self.seed, int(warmup), index))
        gammas = rng.uniform(0.0, np.pi, self.grid)
        betas = rng.uniform(0.0, np.pi, self.grid)
        grid = [
            {"gamma": float(g), "beta": float(b)} for g in gammas for b in betas
        ]
        return grid[:WARMUP_POINTS] if warmup else grid

    def open(self):
        return self._pooled()

    def iterate(self, backend, inputs, tracer=None):
        sim = bgls.Simulator(
            backend.state,
            bgls.act_on,
            backend.probability,
            seed=self.sim_seed,
            executor=backend.executor,
            trajectory_mode="batched",
        )
        if tracer is not None:
            with tracer.span("program.compile"):
                program = sim.compile(self.template)
            misses = program.specialize_cache_info()["misses"]
            with tracer.span("program.specialize"):
                for resolver in inputs:
                    program.specialize(resolver)
            tracer.counts["program.specialize_misses"] += (
                program.specialize_cache_info()["misses"] - misses
            )
        start = time.perf_counter()
        results, latencies, submit, wait = _stream(
            lambda: sim.run_sweep_iter(
                self.template, inputs, repetitions=self.repetitions, scope="points"
            ),
            tracer,
        )
        samples = [np.array(r.measurements["z"]) for r in results]
        mean_cuts = [float(self._cuts(s).mean()) for s in samples]
        sampling = time.perf_counter() - start
        return Output(
            samples,
            latencies,
            sampling,
            submit,
            latencies[0] if latencies else 0.0,
            wait,
            mean_cuts,
        )

    def exact_cut_moments(self, resolver):
        """Mean and variance of the cut under the exact noisy state."""
        circuit = self.template.resolve_parameters(resolver).without_measurements()
        state = DensityMatrixSimulationState(self.qubits())
        for op in circuit.all_operations():
            bgls.act_on(op, state)
        probs = state.diagonal_probabilities()
        mean = float(probs @ self.basis_cuts)
        return mean, float(probs @ (self.basis_cuts - mean) ** 2)

    def check(self, index, inputs, output):
        """Every point holds ``repetitions`` bitstrings of 0/1 bits, and its
        mean cut lies within ``sigmas`` standard errors of the exact
        density-matrix expectation.

        The exact evolution costs more than sampling the point, so it runs
        on ``exact_checks`` points of every iteration, rotating through
        the grid.
        """
        first = index * self.exact_checks
        exact = {(first + k) % len(inputs) for k in range(self.exact_checks)}
        verdicts = []
        for point, (resolver, samples, observed) in enumerate(
            zip(inputs, output.samples, output.summary)
        ):
            ok = samples.shape == (self.repetitions, self.num_nodes) and bool(
                np.isin(samples, (0, 1)).all()
            )
            if ok and point in exact:
                mean, var = self.exact_cut_moments(cirq.ParamResolver(resolver))
                err = np.sqrt(var / len(samples))
                ok = abs(observed - mean) <= self.sigmas * err + 1e-12
            verdicts.append(ok)
        return verdicts


WORKLOADS = {w.name: w for w in (CliffordWide, XebEnsemble, NoisySweep)}
