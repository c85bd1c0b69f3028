"""Per-layer tracing from outside the library, through public hooks only.

The traced run never edits the program.  It times calls into each layer
from here:

* ``states`` — subclasses of the shipped simulation states whose
  ``apply_unitary`` / ``apply_stabilizer_sequence`` /
  ``apply_single_qubit_moment`` (``states.update``) and ``copy``
  (``states.copy``) are timed;
* ``born`` — the subclasses are registered through the public
  ``register_backend`` with timed wrappers of the shipped
  ``born.candidates_*`` / ``candidates_*_many`` oracles (``born.oracle``,
  plus the number of front rows each call answered);
* ``trajectory_batch`` — a timed ``BatchedStateVector`` subclass passed as
  the ``batched_trajectories`` capability (``update``/``kraus``/
  ``oracle``/``project``);
* ``simulator`` — the wall time of each run call minus the leaf spans
  above.  The remainder is the sampler's own front bookkeeping
  (``simulator.front``), or, when the call ran through the batched
  trajectory engine, that engine's own loop (``trajectory_batch.self``).

Leaf spans do not nest: a timed method called from inside another timed
method is counted once, in the outer span.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

_UPDATE_METHODS = (
    "apply_unitary",
    "apply_stabilizer_sequence",
    "apply_single_qubit_moment",
)


class Tracer:
    """In-memory span and counter totals for one traced replay."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.leaf_seconds = 0.0
        self.batched_tiles = 0
        self._in_leaf = False

    def leaf(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside the leaf span ``name`` (outermost leaf only)."""
        if self._in_leaf:
            return fn(*args, **kwargs)
        self._in_leaf = True
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._in_leaf = False
            self.seconds[name] += elapsed
            self.counts[name] += 1
            self.leaf_seconds += elapsed

    @contextmanager
    def span(self, name):
        """A span around a whole-layer call (transpile, compile, ...)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - start

    @contextmanager
    def run_span(self):
        """A span around a sampler run call; the part of its wall time
        that no leaf span covers goes to the sampler's own loop."""
        start = time.perf_counter()
        leaf_before = self.leaf_seconds
        tiles_before = self.batched_tiles
        try:
            yield
        finally:
            wall = time.perf_counter() - start
            residual = wall - (self.leaf_seconds - leaf_before)
            owner = (
                "trajectory_batch.self"
                if self.batched_tiles != tiles_before
                else "simulator.front"
            )
            self.seconds[owner] += residual
            self.seconds["run"] += wall


def _timed_method(tracer, name, method):
    def timed(self, *args, **kwargs):
        return tracer.leaf(name, method, self, *args, **kwargs)

    timed.__name__ = method.__name__
    timed.__doc__ = method.__doc__
    return timed


def traced_state_class(base, tracer):
    """A subclass of ``base`` whose state updates and copies are timed.

    Only methods ``base`` really has are wrapped: the capability registry
    derives fast paths from the class surface, so the subclass must not
    grow methods its parent lacks.
    """
    namespace = {
        name: _timed_method(tracer, "states.update", getattr(base, name))
        for name in _UPDATE_METHODS
        if hasattr(base, name)
    }
    namespace["copy"] = _timed_method(tracer, "states.copy", base.copy)
    return type("Traced" + base.__name__, (base,), namespace)


def traced_batched_class(tracer):
    """A ``BatchedStateVector`` subclass with each stacked phase timed.

    Stacking the initial state into a tile (``from_state``) counts as a
    state update; each tile built marks the enclosing run call as a
    batched-trajectory run.
    """
    from repro.sampler.trajectory_batch import BatchedStateVector

    namespace = {
        method: _timed_method(
            tracer, "trajectory_batch." + phase, getattr(BatchedStateVector, method)
        )
        for method, phase in (
            ("apply_record", "update"),
            ("apply_kraus", "kraus"),
            ("candidate_probabilities", "oracle"),
            ("project", "project"),
        )
    }
    base_from_state = BatchedStateVector.from_state.__func__

    def from_state(cls, state, batch):
        tracer.batched_tiles += 1
        return tracer.leaf(
            "trajectory_batch.update", base_from_state, cls, state, batch
        )

    namespace["from_state"] = classmethod(from_state)
    return type("TracedBatchedStateVector", (BatchedStateVector,), namespace)


def _timed_oracle(tracer, fn, many):
    def oracle(state, bits, support):
        tracer.counts["born.oracle_rows"] += len(bits) if many else 1
        return tracer.leaf("born.oracle", fn, state, bits, support)

    return oracle


def register_traced_backends(tracer):
    """Register timed state-vector and CH-form backends.

    Returns ``{shipped_state_class: (traced_class, probability_fn)}``.  A
    simulator built from a traced class and its probability function
    resolves the timed oracles through the registry exactly as a shipped
    simulator resolves the shipped ones, so it takes the same code paths
    and draws the same random numbers.
    """
    from repro import born
    from repro.states import (
        StabilizerChFormSimulationState,
        StateVectorSimulationState,
        register_backend,
    )

    shipped = {
        StateVectorSimulationState: (
            born.compute_probability_state_vector,
            born.candidates_state_vector,
            born.candidates_state_vector_many,
        ),
        StabilizerChFormSimulationState: (
            born.compute_probability_stabilizer_state,
            born.candidates_stabilizer_state,
            born.candidates_stabilizer_state_many,
        ),
    }
    traced = {}
    for base, (scalar, candidates, candidates_many) in shipped.items():
        cls = traced_state_class(base, tracer)

        # A fresh function object: the registry maps each scalar Born
        # function to one backend, and the shipped one must stay mapped
        # to the shipped backend for the untraced runs in this process.
        def probability(state, bits, _scalar=scalar):
            return _scalar(state, bits)

        register_backend(
            cls,
            name="traced_" + base.__name__,
            compute_probability=probability,
            candidates=_timed_oracle(tracer, candidates, many=False),
            candidates_many=_timed_oracle(tracer, candidates_many, many=True),
            batched_trajectories=(
                traced_batched_class(tracer)
                if base is StateVectorSimulationState
                else None
            ),
        )
        traced[base] = (cls, probability)
    return traced
