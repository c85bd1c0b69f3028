"""Noisy Clifford simulation: Pauli channels as stochastic Pauli gates.

Stabilizer states cannot apply general Kraus channels, but *Pauli*
channels (bit flip, phase flip, depolarizing) are classical mixtures of
Pauli unitaries — so a trajectory can draw one Pauli per channel
application and stay inside the stabilizer formalism.  This is the
standard trick behind scalable noisy-Clifford simulation (e.g. error-
correction studies), and it plugs straight into the BGLS trajectory mode
(paper Sec. 3.2.1).

Works with both stabilizer backends
(:class:`~repro.states.StabilizerChFormSimulationState` and
:class:`~repro.states.CliffordTableauSimulationState`) and composes with
:func:`~repro.sampler.act_on_near_clifford` for noisy Clifford+Rz
circuits via :func:`act_on_near_clifford_with_pauli_noise`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..circuits.channels import (
    BitFlipChannel,
    DepolarizingChannel,
    PhaseFlipChannel,
)
from ..circuits.operations import GateOperation
from ..protocols.act_on import act_on
from ..states.base import apply_primitives
from ..states.stabilizer import StabilizerSimulationState
from .near_clifford import act_on_near_clifford

# Channel type -> (pauli names, probability builder).
def _pauli_mixture(gate) -> Optional[List[Tuple[float, str]]]:
    """The channel as ``[(probability, pauli_name)]``, or None."""
    if isinstance(gate, BitFlipChannel):
        p = gate.probability
        return [(1.0 - p, "I"), (p, "X")]
    if isinstance(gate, PhaseFlipChannel):
        p = gate.probability
        return [(1.0 - p, "I"), (p, "Z")]
    if isinstance(gate, DepolarizingChannel):
        p = gate.probability
        return [(1.0 - p, "I"), (p / 3, "X"), (p / 3, "Y"), (p / 3, "Z")]
    return None


_PAULI_MATRICES = {
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def _apply_sampled_pauli(state, axis: int, name: str) -> None:
    if name == "I":
        return
    if isinstance(state, StabilizerSimulationState):
        apply_primitives(state.engine, [(name, (0,))], [axis])
    else:
        # Non-stabilizer states (dense, MPS) take the generic unitary path,
        # so the same apply_op works across every backend.
        state.apply_unitary(_PAULI_MATRICES[name], [axis])


def _try_pauli_channel(op: GateOperation, state) -> bool:
    """Apply ``op`` as a sampled Pauli if it is a Pauli channel."""
    mixture = _pauli_mixture(op.gate)
    if mixture is None:
        return False
    probs = np.asarray([w for w, _ in mixture])
    names = [name for _, name in mixture]
    choice = int(state.rng.choice(len(names), p=probs / probs.sum()))
    axis = state.axes_of(op.qubits)[0]
    _apply_sampled_pauli(state, axis, names[choice])
    return True


def act_on_with_pauli_noise(op: GateOperation, state) -> None:
    """``act_on`` that additionally accepts Pauli channels on stabilizer
    states (sampling one Pauli per application)."""
    if _try_pauli_channel(op, state):
        return
    act_on(op, state)


def act_on_near_clifford_with_pauli_noise(op: GateOperation, state) -> None:
    """Sum-over-Cliffords gate application plus Pauli-channel sampling.

    The full noisy near-Clifford stack: Clifford gates exact, Rz gates
    expanded stochastically (Sec. 4.2), Pauli channels sampled.
    """
    if _try_pauli_channel(op, state):
        return
    act_on_near_clifford(op, state)


# Stochastic gate application: the Simulator must run per-shot
# trajectories, not the shared-wavefunction dict parallelization.  And the
# channel branch is chosen here (each branch is a unitary Pauli, so no
# bitstring conditioning is required) — the Simulator must not intercept.
act_on_with_pauli_noise._bgls_stochastic_ = True  # type: ignore[attr-defined]
act_on_with_pauli_noise._bgls_handles_channels_ = True  # type: ignore[attr-defined]
act_on_near_clifford_with_pauli_noise._bgls_stochastic_ = True  # type: ignore[attr-defined]
act_on_near_clifford_with_pauli_noise._bgls_handles_channels_ = True  # type: ignore[attr-defined]
