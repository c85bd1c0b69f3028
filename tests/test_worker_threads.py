"""Worker thread budget: pool workers cap their BLAS threads, nothing else does.

The contracts pinned here:

* **Usable CPUs** — the default worker count and the per-worker budget
  count the CPUs this process may run on (its affinity set), not every
  CPU of the machine.
* **Budget applied** — every worker of a warm pool reports a BLAS thread
  count of ``min(budget, inherited count)``, with ``budget =
  max(1, usable_cpus // num_workers)``, under every start method in
  ``BGLS_POOL_START_METHODS`` and again after a SIGKILLed worker forced
  a rebuild.
* **Parent untouched** — a pooled run leaves the parent's BLAS thread
  counts as they were.
* **Lower only, silent** — the helper never raises a smaller existing
  setting (``OPENBLAS_NUM_THREADS=1``), and does nothing where no
  library matches.
* **Same bits** — pooled batched state-vector trajectories equal the
  serial run bit-for-bit at a width where the parent's BLAS runs
  multi-threaded products.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.sampler import PoolManager, ProcessPoolExecutor
from repro.sampler import worker_threads
from repro.sampler.worker_threads import (
    blas_thread_counts,
    limit_blas_threads,
    usable_cpus,
    worker_thread_budget,
)
from repro.states import StateVectorSimulationState


def pool_start_methods():
    env = os.environ.get("BGLS_POOL_START_METHODS", "fork")
    requested = [m.strip() for m in env.split(",") if m.strip()]
    available = multiprocessing.get_all_start_methods()
    methods = [m for m in requested if m in available]
    return methods or [available[0]]


START_METHODS = pool_start_methods()
WORKERS = 2

needs_blas_control = pytest.mark.skipif(
    not blas_thread_counts(),
    reason="no loaded BLAS library exposes a thread setter here",
)


def _worker_report(delay):
    """Runs in a pool worker: its pid and BLAS thread counts."""
    time.sleep(delay)
    return os.getpid(), blas_thread_counts()


def worker_reports(manager, attempts=20):
    """``{pid: counts}`` from every live worker of ``manager``'s pool."""
    pids = set(manager.worker_pids())
    reports = {}
    for _ in range(attempts):
        futures = [
            manager._pool.submit(_worker_report, 0.05)
            for _ in range(2 * len(pids))
        ]
        reports.update(f.result(timeout=60) for f in futures)
        if set(reports) >= pids:
            break
    assert set(reports) == pids
    return reports


def assert_reports_match_budget(reports, parent):
    budget = worker_thread_budget(WORKERS)
    expected = {path: min(budget, count) for path, count in parent.items()}
    for pid, counts in reports.items():
        shared = set(counts) & set(expected)
        assert shared, f"worker {pid} reports no BLAS library of the parent"
        for path in shared:
            assert counts[path] == expected[path], (pid, path, counts)


QUBITS = cirq.LineQubit.range(3)


def noisy_circuit():
    circuit = cirq.Circuit()
    for _ in range(4):
        circuit.append(cirq.H(QUBITS[0]))
        circuit.append(cirq.depolarize(0.05).on(QUBITS[0]))
        circuit.append(cirq.CNOT(QUBITS[0], QUBITS[1]))
        circuit.append(cirq.CNOT(QUBITS[1], QUBITS[2]))
    circuit.append(cirq.measure(*QUBITS, key="m"))
    return circuit


def pooled_sim(manager, start_method):
    return bgls.Simulator(
        StateVectorSimulationState(QUBITS),
        bgls.act_on,
        born.compute_probability_state_vector,
        seed=3,
        executor=ProcessPoolExecutor(
            num_workers=WORKERS,
            start_method=start_method,
            pool_manager=manager,
        ),
    )


def sweep(sim):
    return sim.run_sweep(noisy_circuit(), [None] * 4, repetitions=8)


@pytest.fixture
def manager():
    mgr = PoolManager()
    yield mgr
    mgr.shutdown()


class TestUsableCpus:
    def test_affinity_set_is_counted(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        assert usable_cpus() == 3
        assert worker_thread_budget(1) == 3
        assert worker_thread_budget(2) == 1
        assert worker_thread_budget(8) == 1

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cpus() == 6
        assert worker_thread_budget(2) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1

    def test_default_worker_count_follows_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert ProcessPoolExecutor().num_workers == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        assert ProcessPoolExecutor().num_workers == 3
        assert ProcessPoolExecutor(num_workers=5).num_workers == 5


def run_in_child(code, **env):
    """Run ``code`` in a fresh interpreter; return its stdout's last line."""
    child_env = dict(os.environ, **env)
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.dirname(bgls.__file__)),
                    child_env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return out.stdout.strip().splitlines()[-1]


REPORT_LIMITED = (
    "import repro\n"
    "from repro.sampler.worker_threads import limit_blas_threads\n"
    "print(sorted(set(limit_blas_threads({limit}).values())))\n"
)


class TestHelper:
    @needs_blas_control
    def test_lowers_to_the_limit(self):
        assert run_in_child(REPORT_LIMITED.format(limit=1)) == "[1]"

    @needs_blas_control
    def test_never_raises_a_lower_setting(self):
        out = run_in_child(
            REPORT_LIMITED.format(limit=2), OPENBLAS_NUM_THREADS="1"
        )
        assert out == "[1]"

    def test_no_matching_library_is_a_silent_no_op(self, tmp_path,
                                                    monkeypatch):
        before = blas_thread_counts()
        maps = tmp_path / "maps"
        maps.write_text(
            "7f0000000000-7f0000001000 r-xp 00000000 08:01 42 "
            "/usr/lib/libc.so.6\n"
            "7f0000002000-7f0000003000 rw-p 00000000 00:00 0\n"
        )
        monkeypatch.setattr(worker_threads, "_MAPS", str(maps))
        assert limit_blas_threads(1) == {}
        assert blas_thread_counts() == {}
        monkeypatch.setattr(worker_threads, "_MAPS", str(tmp_path / "none"))
        assert limit_blas_threads(1) == {}
        monkeypatch.undo()
        assert blas_thread_counts() == before


@needs_blas_control
@pytest.mark.parametrize("start_method", START_METHODS)
class TestPoolWorkers:
    def test_warm_worker_reports_its_budget(self, manager, start_method):
        parent = blas_thread_counts()
        sim = pooled_sim(manager, start_method)
        sweep(sim)
        sweep(sim)
        assert manager.stats == {"inits": 1, "reuses": 1, "key_changes": 0}
        assert_reports_match_budget(worker_reports(manager), parent)

    def test_budget_survives_rebuild_after_sigkill(self, manager,
                                                   start_method):
        parent = blas_thread_counts()
        sim = pooled_sim(manager, start_method)
        first = sweep(sim)
        os.kill(manager.worker_pids()[0], signal.SIGKILL)
        time.sleep(0.5)
        again = sweep(sim)
        assert manager.stats["inits"] == 2
        for a, b in zip(first, again):
            np.testing.assert_array_equal(
                a.measurements["m"], b.measurements["m"]
            )
        assert_reports_match_budget(worker_reports(manager), parent)

    def test_parent_thread_counts_unchanged(self, manager, start_method):
        before = blas_thread_counts()
        sweep(pooled_sim(manager, start_method))
        assert blas_thread_counts() == before


WIDE = cirq.LineQubit.range(12)


def wide_noisy_circuit():
    circuit = cirq.Circuit([cirq.H(q) for q in WIDE])
    for layer in range(2):
        for a, b in zip(WIDE[layer % 2::2], WIDE[layer % 2 + 1::2]):
            circuit.append(cirq.CNOT(a, b))
            circuit.append([cirq.depolarize(0.02).on(q) for q in (a, b)])
        circuit.append([cirq.rx(0.3 + 0.1 * i)(q) for i, q in enumerate(WIDE)])
    circuit.append(cirq.measure(*WIDE, key="m"))
    return circuit


@pytest.mark.parametrize("start_method", START_METHODS)
def test_wide_batched_trajectories_pooled_equal_serial(manager, start_method):
    """12 qubits at tile 64: each gate is a product over 64 * 2**11
    amplitude pairs, which the parent's BLAS splits over its threads
    while a capped worker does not."""

    def wide_sweep(executor):
        sim = bgls.Simulator(
            StateVectorSimulationState(WIDE),
            bgls.act_on,
            born.compute_probability_state_vector,
            seed=17,
            trajectory_mode="batched",
            trajectory_tile=64,
            executor=executor,
        )
        return sim.run_sweep(wide_noisy_circuit(), [None] * 2, repetitions=64)

    serial = wide_sweep(None)
    pooled = wide_sweep(
        ProcessPoolExecutor(
            num_workers=WORKERS, start_method=start_method,
            pool_manager=manager,
        )
    )
    for a, b in zip(serial, pooled):
        np.testing.assert_array_equal(a.measurements["m"], b.measurements["m"])
