"""Worker start-up: forkserver workers inherit the package, payloads pickle once.

The contracts pinned here:

* **Preloaded forkserver** — a forkserver pool's workers fork from a
  server that has already imported the package, so no worker imports it
  itself, also when the package root reaches ``sys.path`` only at
  runtime (no ``PYTHONPATH``).  Two batches with different programs
  still cost two inits, and both equal the serial run bit-for-bit.
* **Environment untouched** — the package root is exported on
  ``PYTHONPATH`` for the server start only: an absent ``PYTHONPATH``
  stays absent, a set one keeps its value.
* **User server reused** — a forkserver that was running before the
  first pool is reused as it is, never restarted, and the output does
  not change.
* **One pickle per pool** — the worker payload is pickled exactly once
  per pool init under ``forkserver`` and ``spawn``, and never under
  ``fork``.

The forkserver is shared by the whole process, so the first three run in
a fresh interpreter each.
"""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.sampler import PoolManager, ProcessPoolExecutor
from repro.sampler.service import _WorkerPayload
from repro.states import StateVectorSimulationState

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bgls.__file__)))

needs_forkserver = pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="the platform has no forkserver start method",
)

# Run as a file: forkserver workers re-run ``__main__`` from its path.
# ``argv[1]`` is ``"fresh"`` or ``"user_server"`` (start the forkserver
# before any pool, with the default preload).
SCRIPT = """\
import json
import os
import sys

sys.path.insert(0, {src!r})

import numpy as np

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.sampler import PoolManager, ProcessPoolExecutor
from repro.states import StateVectorSimulationState

QUBITS = cirq.LineQubit.range(4)


def report():
    from repro.sampler import service

    return os.getpid(), os.getppid(), service._IMPORT_PID


def batch(angle):
    return [
        cirq.Circuit(
            [cirq.rx(angle * (i + 1))(q) for i, q in enumerate(QUBITS)],
            cirq.CNOT(QUBITS[0], QUBITS[depth]),
            cirq.measure(*QUBITS, key="m"),
        )
        for depth in (1, 2, 3)
    ]


def run(circuits, executor):
    sim = bgls.Simulator(
        StateVectorSimulationState(QUBITS),
        bgls.act_on,
        born.compute_probability_state_vector,
        seed=11,
        executor=executor,
    )
    return [r.measurements["m"] for r in sim.run_batch(circuits, repetitions=40)]


def worker_reports(manager):
    pids = set(manager.worker_pids())
    reports = set()
    for _ in range(50):
        futures = [manager._pool.submit(report) for _ in range(4)]
        reports.update(f.result(timeout=60) for f in futures)
        if {{pid for pid, _, _ in reports}} >= pids:
            break
    return sorted(reports)


if __name__ == "__main__":
    from multiprocessing import forkserver

    before = os.environ.get("PYTHONPATH")
    if sys.argv[1] == "user_server":
        forkserver.ensure_running()
    server_before = forkserver._forkserver._forkserver_pid
    manager = PoolManager()
    executor = ProcessPoolExecutor(
        num_workers=2, start_method="forkserver", pool_manager=manager
    )
    equal, reports = [], []
    for angle in (0.3, 0.7):
        circuits = batch(angle)
        pooled = run(circuits, executor)
        reports += worker_reports(manager)
        serial = run(circuits, None)
        equal.append(all(np.array_equal(a, b) for a, b in zip(pooled, serial)))
    inits = manager.stats["inits"]
    manager.shutdown()
    print(json.dumps({{
        "equal": equal,
        "inits": inits,
        "reports": reports,
        "server_before": server_before,
        "server": forkserver._forkserver._forkserver_pid,
        "pythonpath_before": before,
        "pythonpath_after": os.environ.get("PYTHONPATH", "<unset>"),
    }}))
"""


def run_script(tmp_path, mode, pythonpath=None):
    """Run :data:`SCRIPT` in a fresh interpreter; return its JSON report."""
    script = tmp_path / "startup.py"
    script.write_text(SCRIPT.format(src=SRC))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if pythonpath is not None:
        env["PYTHONPATH"] = pythonpath
    out = subprocess.run(
        [sys.executable, str(script), mode],
        env=env,
        cwd=str(tmp_path),
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def assert_runs_match_serial(report):
    assert report["equal"] == [True, True]
    assert report["inits"] == 2


@needs_forkserver
class TestPreloadedForkserver:
    @pytest.mark.parametrize(
        "pythonpath", [None, "elsewhere", SRC], ids=["unset", "other", "src"]
    )
    def test_workers_inherit_the_package(self, tmp_path, pythonpath):
        report = run_script(tmp_path, "fresh", pythonpath)
        assert_runs_match_serial(report)
        assert report["server_before"] is None
        workers = {pid for pid, _, _ in report["reports"]}
        assert len(workers) >= 2
        for pid, ppid, import_pid in report["reports"]:
            assert ppid == report["server"]
            assert import_pid == ppid != pid
        # The parent's environment is as it was before the pool started.
        assert report["pythonpath_before"] == pythonpath
        assert report["pythonpath_after"] == (
            "<unset>" if pythonpath is None else pythonpath
        )

    def test_running_user_server_is_reused(self, tmp_path):
        report = run_script(tmp_path, "user_server")
        assert_runs_match_serial(report)
        assert report["server_before"] is not None
        assert report["server"] == report["server_before"]
        assert report["pythonpath_after"] == "<unset>"
        # Started without the preload: the workers import the package
        # themselves, and nothing else changes.
        for pid, ppid, import_pid in report["reports"]:
            assert ppid == report["server"]
            assert import_pid == pid


QUBITS = cirq.LineQubit.range(3)


def batches():
    return [
        [
            cirq.Circuit(
                cirq.H(QUBITS[0]),
                cirq.rx(angle * depth)(QUBITS[1]),
                cirq.CNOT(QUBITS[0], QUBITS[2]),
                cirq.measure(*QUBITS, key="m"),
            )
            for depth in (1, 2)
        ]
        for angle in (0.4, 0.9)
    ]


@pytest.mark.parametrize(
    "start_method, pickles_per_init",
    [
        pytest.param(method, count, marks=pytest.mark.skipif(
            method not in multiprocessing.get_all_start_methods(),
            reason=f"the platform has no {method} start method",
        ))
        for method, count in (("fork", 0), ("forkserver", 1), ("spawn", 1))
    ],
)
def test_payload_pickled_once_per_init(monkeypatch, start_method,
                                       pickles_per_init):
    pickles = []

    def counting_reduce_ex(self, protocol):
        pickles.append(protocol)
        return object.__reduce_ex__(self, protocol)

    monkeypatch.setattr(_WorkerPayload, "__reduce_ex__", counting_reduce_ex)
    manager = PoolManager()
    try:
        sim = bgls.Simulator(
            StateVectorSimulationState(QUBITS),
            bgls.act_on,
            born.compute_probability_state_vector,
            seed=5,
            executor=ProcessPoolExecutor(
                num_workers=2, start_method=start_method,
                pool_manager=manager,
            ),
        )
        for circuits in batches():
            sim.run_batch(circuits, repetitions=20)
        assert manager.stats["inits"] == 2
    finally:
        manager.shutdown()
    assert len(pickles) == 2 * pickles_per_init
