"""Closed-loop end-to-end benchmark of the BGLS sampler.

Run from the repository root::

    python3 perfbench/run.py --workload xeb_ensemble --seed 1 --seconds 12 --trace 0

One caller issues one run call at a time and waits for it (a closed
loop with one client).  The run:

1. sets the workload up at least ``SETUP_REPEATS`` times and for at
   least ``SETUP_MIN_SECONDS`` — state and pool construction, first
   compile and one untimed warm-up iteration of one point per worker —
   and reports the median as ``setup_s``;
2. measures iterations on fresh seeded inputs until ``--seconds`` of
   measured time and at least ``MIN_POINTS`` points have passed, checking
   every point's output.  ``samples_per_s`` is the bitstrings delivered
   over the measured time; ``point_p50_s``/``point_p90_s`` are taken over
   every point's latency;
3. replays the first iterations serially in-process with the same seeds
   and requires the pooled output to equal the serial one bit-for-bit;
4. with ``--trace 1``, replays them on timed backends (``tracing.py``),
   requires that output to equal the untraced replay bit-for-bit, and
   reports the per-layer split and the tracing overhead.

A point counts as failed when its run raised, its output check failed,
or a replay disagreed with it.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  The lines before it print every metric by name and
unit, and an environment block.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
#: Set-up repeats continue until this many seconds were spent, so that a
#: cheap set-up is repeated often enough for a steady median.
SETUP_MIN_SECONDS = 2.0
#: Traced and untraced replays compared for ``trace.overhead_pct``.
OVERHEAD_ROUNDS = 3
#: Enough points that ten lie beyond the 90th percentile.
MIN_POINTS = 100
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Spans that together cover a traced iteration; the rest is unattributed.
_COVERING_SPANS = (
    "run",
    "program.compile",
    "program.specialize",
    "transpile",
    "apps.ideal_probs",
    "analysis.xeb",
)


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_block(start_method) -> dict:
    """The machine and library build this result was measured on.

    BLAS thread variables are reported as found, never set: pinning them
    would hide the pool workers' BLAS oversubscription.
    """
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unavailable"
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "pool_start_method": start_method,
        "git_sha": git_sha(),
    }


def cpu_ticks():
    """Total and stolen CPU ticks so far (``/proc/stat``), or None."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    except OSError:
        return None
    ticks = [int(f) for f in fields]
    return sum(ticks), ticks[7]


def peak_rss_mb(pool_manager) -> float:
    """Peak resident set of this process or its largest pool worker."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pids = pool_manager.worker_pids() if pool_manager is not None else []
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peak_kb = max(peak_kb, int(line.split()[1]))
    return peak_kb / 1024.0


def stop_helper_processes() -> None:
    """Stop every process multiprocessing started here and wait for each.

    Pool workers are joined by the pool's shutdown, but the forkserver
    and the resource tracker outlive it: each exits only once it sees
    this process's end of its pipe close, so left alone they would still
    be running for a moment after the benchmark has exited.
    """
    import multiprocessing
    from multiprocessing import forkserver, resource_tracker

    for child in multiprocessing.active_children():
        child.join()
    # The forkserver holds the tracker's pipe open too: stop it first.
    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def _exit_on_sigterm(signum, frame):
    # Unwind through the ``finally`` blocks, which stop the pool.
    raise SystemExit(128 + signum)


def metric_units(section: str) -> dict:
    """``{name: unit}`` of one metric list in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def same_samples(a, b) -> list:
    """Per-point bit-for-bit equality of two iterations' outputs."""
    import numpy as np

    if len(a.samples) != len(b.samples):
        return [False] * max(len(a.samples), len(b.samples))
    return [bool(np.array_equal(x, y)) for x, y in zip(a.samples, b.samples)]


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seconds: float, trace: bool):
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.point_ok = []  # one flag per measured point
        self.latencies = []
        self.samples = 0
        self.measured_s = 0.0
        self.iteration_s = []
        self.replay = []  # (index, inputs, output) of the first iterations
        self.pool = {}
        self.report = {}

    # -- set-up -----------------------------------------------------------
    def set_up(self):
        from repro.sampler.program import clear_program_cache

        # Every repeat warms up on the same input, so the repeats differ
        # only by what the machine does.
        warmup = self.workload.inputs(0, warmup=True)
        times = []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_SECONDS:
            if times:
                self.workload.close()
            clear_program_cache()
            start = time.perf_counter()
            backend = self.workload.open()
            self.workload.iterate(backend, warmup)
            times.append(time.perf_counter() - start)
        self.backend = backend
        self.report["setup_runs_s"] = times
        return statistics.median(times)

    # -- measured loop ----------------------------------------------------
    def measure(self):
        wl = self.workload
        manager, executor = wl.pool_manager, wl.executor
        if executor is not None and self.trace:
            executor.measure_result_bytes = True
            executor.last_result_bytes = 0
        stats_before = dict(manager.stats) if manager is not None else {}
        ticks_before = cpu_ticks()
        index = 0
        while self.measured_s < self.seconds or len(self.point_ok) < MIN_POINTS:
            inputs = wl.inputs(index)
            start = time.perf_counter()
            try:
                output = wl.iterate(self.backend, inputs)
            except Exception:
                traceback.print_exc()
                self.measured_s += time.perf_counter() - start
                self.point_ok.extend([False] * wl.points_per_iteration)
                index += 1
                continue
            elapsed = time.perf_counter() - start
            self.measured_s += elapsed
            self.iteration_s.append(elapsed)
            verdicts = [bool(v) for v in wl.check(index, inputs, output)]
            verdicts += [False] * (wl.points_per_iteration - len(verdicts))
            self.point_ok.extend(verdicts)
            self.latencies.extend(output.latencies)
            self.samples += sum(len(s) for s in output.samples)
            if index < wl.replay_iterations:
                self.replay.append((index, inputs, output))
                if index == wl.replay_iterations - 1 and manager is not None:
                    self.pool = {
                        key: manager.stats[key] - stats_before.get(key, 0)
                        for key in ("inits", "reuses")
                    }
                    self.pool["result_bytes"] = executor.last_result_bytes
            index += 1
        self.report["iterations"] = index
        self.report["iteration_s"] = self.iteration_s
        ticks_after = cpu_ticks()
        if ticks_before is not None and ticks_after is not None:
            # CPU time the hypervisor gave to other guests while we measured:
            # the main cause of drift between runs on a shared host.
            total, stolen = (a - b for a, b in zip(ticks_after, ticks_before))
            self.report["host_steal_pct"] = 100.0 * stolen / max(total, 1)
        self.peak_rss = peak_rss_mb(manager)

    # -- replays ----------------------------------------------------------
    def _replay(self, backend, reference, tracer=None):
        """Re-run the replay set on ``backend``; mark disagreeing points.

        Every replay starts from an empty Program cache, so each one pays
        the same compiles whether or not the measured loop left them cached.
        """
        from repro.sampler.program import clear_program_cache

        wl = self.workload
        clear_program_cache()
        outputs, wall = [], 0.0
        for (index, inputs, _), ref in zip(self.replay, reference):
            start = time.perf_counter()
            output = wl.iterate(backend, inputs, tracer)
            wall += time.perf_counter() - start
            first = index * wl.points_per_iteration
            for offset, same in enumerate(same_samples(output, ref)):
                if not same:
                    self.point_ok[first + offset] = False
            outputs.append(output)
        return outputs, wall

    def determinism(self):
        """Serial in-process replay must equal the measured output."""
        pooled = [out for _, _, out in self.replay]
        self.serial, self.serial_wall = self._replay(
            self.workload.serial_backend(), pooled
        )
        self.report["replay_points"] = sum(len(o.samples) for o in pooled)

    def traced(self):
        """Timed replay: per-layer split, overhead, traced == untraced."""
        from repro.sampler.program import program_cache_info
        from tracing import Tracer, register_traced_backends

        tracer = Tracer()
        backend = self.workload.serial_backend(register_traced_backends(tracer))
        _, wall = self._replay(backend, self.serial, tracer)
        compile_misses = program_cache_info()["misses"]  # reset by the replay
        sec = defaultdict(float, tracer.seconds)
        counts = defaultdict(int, tracer.counts)
        # One replay swings by 10-20% with the machine, more than tracing
        # costs: alternate further untraced and traced replays and compare
        # medians.  The per-layer split above is from the first one only.
        traced_walls, untraced_walls = [wall], [self.serial_wall]
        for _ in range(OVERHEAD_ROUNDS - 1):
            untraced_walls.append(
                self._replay(self.workload.serial_backend(), self.serial)[1]
            )
            traced_walls.append(self._replay(backend, self.serial, tracer)[1])
        traced, untraced = (
            statistics.median(traced_walls),
            statistics.median(untraced_walls),
        )
        covered = sum(sec[name] for name in _COVERING_SPANS)
        pooled = [out for _, _, out in self.replay]
        oracle_calls = counts["born.oracle"]
        metrics = {
            "born.oracle_s": sec["born.oracle"],
            "born.oracle_calls": oracle_calls,
            "born.oracle_rows": counts["born.oracle_rows"],
            "states.update_s": sec["states.update"],
            "states.update_calls": counts["states.update"],
            "states.copy_s": sec["states.copy"],
            "simulator.front_s": sec["simulator.front"],
            "simulator.front_rows_per_gate": (
                counts["born.oracle_rows"] / oracle_calls if oracle_calls else 0.0
            ),
            "trajectory_batch.update_s": sec["trajectory_batch.update"],
            "trajectory_batch.kraus_s": sec["trajectory_batch.kraus"],
            "trajectory_batch.oracle_s": sec["trajectory_batch.oracle"],
            "trajectory_batch.project_s": sec["trajectory_batch.project"],
            "trajectory_batch.self_s": sec["trajectory_batch.self"],
            "program.compile_s": sec["program.compile"],
            "program.compile_misses": compile_misses,
            "program.specialize_s": sec["program.specialize"],
            "program.specialize_misses": counts["program.specialize_misses"],
            "transpile.s": sec["transpile"],
            "transpile.ops_out": counts["transpile.ops_out"],
            "apps.ideal_probs_s": sec["apps.ideal_probs"],
            "analysis.xeb_s": sec["analysis.xeb"],
            "pool.inits": self.pool.get("inits", 0),
            "pool.reuses": self.pool.get("reuses", 0),
            "pool.submit_s": sum(o.submit_s for o in pooled),
            "pool.first_point_s": sum(o.first_point_s for o in pooled),
            "pool.wait_s": sum(o.wait_s for o in pooled),
            "pool.result_bytes": self.pool.get("result_bytes", 0),
            "pool.speedup_vs_serial": (
                sum(o.sampling_s for o in self.serial)
                / sum(o.sampling_s for o in pooled)
            ),
            "unattributed_s": wall - covered,
            "unattributed_pct": 100.0 * (wall - covered) / wall,
            # Same work both times, so the throughput ratio is the wall ratio.
            "trace.overhead_pct": 100.0 * (traced / untraced - 1.0),
            "trace.replay_s": wall,
        }
        samples = sum(len(s) for o in self.serial for s in o.samples)
        self.report["traced_samples_per_s"] = samples / traced
        self.report["untraced_replay_samples_per_s"] = samples / untraced
        return metrics

    def end_to_end(self, setup_s):
        import numpy as np

        return {
            "samples_per_s": self.samples / self.measured_s,
            "point_p50_s": float(np.percentile(self.latencies, 50)),
            "point_p90_s": float(np.percentile(self.latencies, 90)),
            "setup_s": setup_s,
            "peak_rss_mb": self.peak_rss,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no library sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    workload = WORKLOADS[args.workload](args.seed)
    run = Run(workload, args.seconds, bool(args.trace))
    try:
        setup_s = run.set_up()
        run.measure()
        start_method = (
            workload.executor.start_method if workload.executor is not None else None
        )
        run.determinism()
        if args.trace:
            metrics, units = run.traced(), metric_units("per_layer")
        else:
            metrics, units = run.end_to_end(setup_s), metric_units("end_to_end")
    finally:
        workload.close()
        stop_helper_processes()
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json"
        )

    attempted = len(run.point_ok)
    failed = attempted - sum(run.point_ok)
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "measured_s": run.measured_s,
        "points": attempted,
        "samples": run.samples,
        "failed_frac": failed / attempted,
        **run.report,
    }
    print("env " + json.dumps(env_block(start_method)))
    print("report " + json.dumps(report))
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
