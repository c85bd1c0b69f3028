"""Simulation states over the two stabilizer engines.

:class:`StabilizerSimulationState` binds a stabilizer engine to a qubit
register and adapts it to the ``act_on`` protocol: operations are applied
through their cached ``_stabilizer_sequence_`` decomposition by the
shared dispatch of :mod:`repro.states.base` (:func:`apply_sequence`,
:func:`apply_moment`), which is also what the batched trajectory engine
runs on a ``stack(B)`` of the same engine.  Its two subclasses differ only
in the engine:

* :class:`StabilizerChFormSimulationState` — the CH form of
  :mod:`repro.states.chform`, which keeps global phase in ``omega``;
* :class:`~repro.states.tableau.CliffordTableauSimulationState` — the
  Aaronson-Gottesman tableau, which drops it.

Non-Clifford operations raise ``ValueError`` — exactly like Cirq's
stabilizer simulator — unless routed through
:func:`repro.sampler.act_on_near_clifford`, which expands ``Rz(theta)``
gates stochastically (paper Sec. 4.2).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from ..circuits.operations import GateOperation
from ..circuits.qubits import Qid
from .base import SimulationState, apply_moment, apply_sequence
from .chform import StabilizerChForm


class StabilizerSimulationState(SimulationState):
    """A stabilizer engine bound to a qubit register.

    Subclasses set ``engine_type``, built as ``engine_type(num_qubits,
    initial_state)`` and held in :attr:`engine`.
    """

    engine_type: type

    def __init__(
        self,
        qubits: Sequence[Qid],
        initial_state: int = 0,
        seed: Union[int, np.random.Generator, None] = None,
    ):
        super().__init__(qubits, seed)
        self.engine = self.engine_type(len(self.qubits), initial_state)

    # -- act_on ------------------------------------------------------------
    def _act_on_(self, op: GateOperation) -> None:
        axes = self.axes_of(op.qubits)
        if op.is_measurement:
            self.measure(axes)
            return
        seq = op._stabilizer_sequence_()
        if seq is None:
            raise ValueError(
                f"Operation {op!r} is not a Clifford primitive; use "
                "act_on_near_clifford for Clifford+Rz circuits."
            )
        self.apply_stabilizer_sequence(seq, axes)

    def apply_stabilizer_sequence(self, seq, axes: Sequence[int]) -> None:
        """Apply a ``(phase, [(primitive, local_axes)])`` decomposition."""
        apply_sequence(self.engine, seq, axes)

    def apply_single_qubit_moment(
        self, seqs: Sequence, axes: Sequence[int]
    ) -> None:
        """Apply one single-qubit Clifford gate per (disjoint) axis.

        ``seqs[i]`` is ``(phase, [primitive, ...])`` for the gate on
        ``axes[i]``; each layer of primitives is one batched engine pass
        (see :func:`~repro.states.base.apply_moment`).
        """
        apply_moment(self.engine, seqs, axes)

    # -- SimulationState interface -------------------------------------------
    def apply_unitary(self, u: np.ndarray, axes: Sequence[int]) -> None:
        raise ValueError(
            f"{type(self).__name__} cannot apply raw unitaries; "
            "gates must provide a stabilizer decomposition."
        )

    def apply_channel(self, kraus: List[np.ndarray], axes: Sequence[int]) -> None:
        raise ValueError(
            f"{type(self).__name__} does not support channels; "
            "Pauli channels can be expressed as stochastic Pauli gates."
        )

    def measure(self, axes: Sequence[int]) -> List[int]:
        return [self.engine.measure(axis, self._rng) for axis in axes]

    # -- queries -------------------------------------------------------------
    def probability_of(self, bits: Sequence[int]) -> float:
        """Born probability of a full bitstring."""
        return self.engine.probability_of(bits)

    def candidate_probabilities(
        self, bits: Sequence[int], support: Sequence[int]
    ) -> np.ndarray:
        """All ``2^k`` candidate probabilities over ``support`` at once."""
        return self.engine.candidate_probabilities(bits, support)

    def candidate_probabilities_many(
        self, bits_list: Sequence[Sequence[int]], support: Sequence[int]
    ) -> np.ndarray:
        """Candidate probabilities for many tracked bitstrings at once."""
        return self.engine.candidate_probabilities_many(bits_list, support)

    def copy(self, seed=None) -> "StabilizerSimulationState":
        out = type(self).__new__(type(self))  # preserve subclasses
        SimulationState.__init__(out, self.qubits, seed)
        out.engine = self.engine.copy()
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_qubits={self.num_qubits})"


class StabilizerChFormSimulationState(StabilizerSimulationState):
    """CH-form stabilizer simulation state bound to a qubit register.

    Probability queries cost ``O(n^2)`` independent of circuit depth; the
    global phase of every gate is multiplied into ``omega``.
    """

    engine_type = StabilizerChForm

    @property
    def ch_form(self) -> StabilizerChForm:
        """The CH-form engine (the same object as :attr:`engine`)."""
        return self.engine

    def project(self, axes: Sequence[int], bits: Sequence[int]) -> None:
        """Collapse ``axes`` onto known outcome ``bits``."""
        for axis, bit in zip(axes, bits):
            self.engine.project_measurement(axis, int(bit))

    def state_vector(self) -> np.ndarray:
        """Dense wavefunction (exponential; testing only)."""
        return self.engine.state_vector()


def snapshot_chform_state(state: StabilizerChFormSimulationState) -> Tuple:
    """Registry ``snapshot`` hook: the CH form as raw ``uint64`` words.

    ``("stabilizer_ch_form", qubits, n, F, G, M, gamma, v, s, omega)``
    with the binary matrices as plain bytes — smaller than pickling the
    state object and directly ``==``-comparable, so the warm pool can key
    worker initialization on the payload content.  Restored states get a
    fresh RNG (the sampler re-seeds every copy it takes).
    """
    return ("stabilizer_ch_form", tuple(state.qubits)) + state.engine.to_words()


def restore_chform_state(payload: Tuple) -> StabilizerChFormSimulationState:
    """Registry ``restore`` hook, inverse of :func:`snapshot_chform_state`."""
    tag, qubits = payload[0], payload[1]
    if tag != "stabilizer_ch_form":  # pragma: no cover - defensive
        raise ValueError(f"Not a CH-form snapshot payload: {tag!r}")
    state = StabilizerChFormSimulationState.__new__(
        StabilizerChFormSimulationState
    )
    SimulationState.__init__(state, qubits, None)
    state.engine = StabilizerChForm.from_words(*payload[2:])
    return state
