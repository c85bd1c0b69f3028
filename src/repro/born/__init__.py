"""Born-rule probability functions (the ``bgls.born`` module).

Each ``compute_probability_*`` has signature ``(state, bitstring) -> float``
and is what users hand to :class:`repro.sampler.Simulator`.  For the states
shipped here, batched *candidate* versions exist that compute all ``2^k``
candidate probabilities of a gate's support in one vectorized slice or
contraction; :func:`candidate_function_for` maps the scalar function to its
batched sibling so the Simulator can use the fast path automatically.

Dispatch flows through the backend capability registry
(:mod:`repro.states.registry`): importing this module registers the five
shipped backends, binding each scalar function to its batched siblings and
declaring the application fast paths the execution planner may use.  User
backends get identical treatment by calling
:func:`repro.states.registry.register_backend` — there is no privileged
shipped-backend table anymore.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..mps import state as _mps
from ..mps.state import MPSState
from ..states import registry
from ..states import stabilizer as _stabilizer
from ..states import tableau as _tableau
from ..states.density_matrix import DensityMatrixSimulationState
from ..states.stabilizer import StabilizerChFormSimulationState
from ..states.state_vector import StateVectorSimulationState
from ..states.tableau import CliffordTableauSimulationState


def compute_probability_state_vector(
    state: StateVectorSimulationState, bitstring: Sequence[int]
) -> float:
    """|<b|psi>|^2 from a dense state vector."""
    return state.probability_of(bitstring)


def compute_probability_density_matrix(
    state: DensityMatrixSimulationState, bitstring: Sequence[int]
) -> float:
    """<b|rho|b> from a density matrix."""
    return state.probability_of(bitstring)


def compute_probability_stabilizer_state(
    state: StabilizerChFormSimulationState, bitstring: Sequence[int]
) -> float:
    """|<b|psi>|^2 from a CH-form stabilizer state in O(n^2) (Sec. 4.1.3)."""
    return state.probability_of(bitstring)


def compute_probability_tableau(
    state: CliffordTableauSimulationState, bitstring: Sequence[int]
) -> float:
    """|<b|psi>|^2 from an Aaronson-Gottesman tableau in O(n^3).

    The tableau has no native amplitude query; the probability is a chain
    of forced-measurement conditionals on a scratch copy.  Shipped for the
    tableau-vs-CH-form ablation benchmark.
    """
    return state.probability_of(bitstring)


def compute_probability_mps(
    state: MPSState, bitstring: Sequence[int]
) -> float:
    """|<b|psi>|^2 from an MPS by sliced contraction (Sec. 4.3.2)."""
    return state.probability_of(bitstring)


def mps_bitstring_probability(mps: MPSState, btstr: Sequence[int]) -> float:
    """Alias matching the paper's code listing name."""
    return compute_probability_mps(mps, btstr)


# -- batched candidate probabilities -----------------------------------------

def candidates_state_vector(state, bits, support) -> np.ndarray:
    """All candidate probabilities over ``support`` via one tensor slice."""
    return state.candidate_probabilities(bits, support)


def candidates_density_matrix(state, bits, support) -> np.ndarray:
    """All candidate probabilities from the density-matrix diagonal block."""
    return state.candidate_probabilities(bits, support)


def candidates_mps(state, bits, support) -> np.ndarray:
    """All candidate probabilities via one reduced-network contraction."""
    return state.candidate_probabilities(bits, support)


def candidates_stabilizer_state(state, bits, support) -> np.ndarray:
    """All candidate probabilities via one shared CH-form generator
    accumulation (the 2^k inner products differ only in the support rows)."""
    return state.candidate_probabilities(bits, support)


def candidates_tableau(state, bits, support) -> np.ndarray:
    """All candidate probabilities via one shared tableau forced-measurement
    chain (the off-support projections run once, then candidates branch)."""
    return state.candidate_probabilities(bits, support)


def candidates_stabilizer_state_many(state, bits_list, support) -> np.ndarray:
    """A ``(B, 2^k)`` candidate-probability matrix for ``B`` tracked
    bitstrings — one GF(2) matvec for a whole parallel resampling step."""
    return state.candidate_probabilities_many(bits_list, support)


def candidates_state_vector_many(state, bits_list, support) -> np.ndarray:
    """A ``(B, 2^k)`` candidate-probability matrix via one gather over the
    flat amplitude tensor — the whole bitstring front in one indexing op."""
    return state.candidate_probabilities_many(bits_list, support)


def candidates_density_matrix_many(state, bits_list, support) -> np.ndarray:
    """A ``(B, 2^k)`` candidate-probability matrix gathered from the
    density-matrix diagonal in one fancy-indexed load."""
    return state.candidate_probabilities_many(bits_list, support)


def candidates_tableau_many(state, bits_list, support) -> np.ndarray:
    """A ``(B, 2^k)`` candidate-probability matrix whose off-support
    forced-measurement chains are shared across common bitstring prefixes."""
    return state.candidate_probabilities_many(bits_list, support)


def candidates_mps_many(state, bits_list, support) -> np.ndarray:
    """A ``(B, 2^k)`` candidate-probability matrix with left/right
    environment tensors cached across the front's shared prefixes."""
    return state.candidate_probabilities_many(bits_list, support)


# -- batched-trajectory adapters ----------------------------------------------
#
# Zero-argument factories, not classes: the adapters live in
# ``repro.sampler.trajectory_batch``, and importing the sampler package
# from here would close an import cycle (born -> sampler -> born).  The
# engine resolves the capability value lazily — a class is used directly,
# anything else is called to produce one.

def batched_trajectories_state_vector():
    """Adapter factory: dense ``(B, 2^n)`` amplitude tiles."""
    from ..sampler.trajectory_batch import BatchedStateVector

    return BatchedStateVector


def batched_trajectories_stabilizer_state():
    """Adapter factory: a ``stack(B)`` of either stabilizer engine."""
    from ..sampler.trajectory_batch import BatchedStabilizers

    return BatchedStabilizers


# Shipped-backend registrations: one descriptor per backend, declaring the
# scalar oracle, both batched siblings, and (by introspection) the
# application fast paths.  Every later lookup — the Simulator's candidate
# resolution, the planner's fast-path flags, the pooled executor's
# snapshots — reads these descriptors; there is no other dispatch table.
registry.register_backend(
    StateVectorSimulationState,
    name="state_vector",
    compute_probability=compute_probability_state_vector,
    candidates=candidates_state_vector,
    candidates_many=candidates_state_vector_many,
    batched_trajectories=batched_trajectories_state_vector,
)
registry.register_backend(
    DensityMatrixSimulationState,
    name="density_matrix",
    compute_probability=compute_probability_density_matrix,
    candidates=candidates_density_matrix,
    candidates_many=candidates_density_matrix_many,
)
registry.register_backend(
    StabilizerChFormSimulationState,
    name="stabilizer_ch_form",
    compute_probability=compute_probability_stabilizer_state,
    candidates=candidates_stabilizer_state,
    candidates_many=candidates_stabilizer_state_many,
    # Warm-pool workers receive the CH form as raw uint64 words instead
    # of a pickled state object (see the snapshot-hook contract in the
    # README); the payload is also the pool's re-initialization key.
    snapshot=_stabilizer.snapshot_chform_state,
    restore=_stabilizer.restore_chform_state,
    batched_trajectories=batched_trajectories_stabilizer_state,
)
registry.register_backend(
    CliffordTableauSimulationState,
    name="clifford_tableau",
    compute_probability=compute_probability_tableau,
    candidates=candidates_tableau,
    candidates_many=candidates_tableau_many,
    snapshot=_tableau.snapshot_tableau_state,
    restore=_tableau.restore_tableau_state,
    batched_trajectories=batched_trajectories_stabilizer_state,
)
registry.register_backend(
    MPSState,
    name="mps",
    compute_probability=compute_probability_mps,
    scalar_aliases=(mps_bitstring_probability,),
    candidates=candidates_mps,
    candidates_many=candidates_mps_many,
    # Wide MPS sweeps ship the network as raw tensor bytes + bond
    # metadata instead of a pickled state object (no RNG, no qubit-index
    # dict, no per-tensor ndarray envelopes); the payload doubles as the
    # warm pool's content-comparable re-initialization key.
    snapshot=_mps.snapshot_mps_state,
    restore=_mps.restore_mps_state,
)


def candidate_function_for(
    compute_probability: Callable,
) -> Optional[Callable]:
    """The batched candidate function matching a registered scalar function.

    Returns None for unregistered (user-supplied) probability functions, in
    which case the Simulator falls back to a per-candidate loop (still
    correct, just not vectorized).  Registering a backend via
    :func:`repro.states.registry.register_backend` makes its functions
    resolvable here exactly like the shipped ones.
    """
    caps = registry.capabilities_for_probability_fn(compute_probability)
    return caps.candidates if caps is not None else None


def many_candidate_function_for(
    compute_probability: Callable,
) -> Optional[Callable]:
    """The cross-bitstring batched candidate function, or None.

    Signature of the returned function:
    ``(state, bits_list, support) -> (len(bits_list), 2^k) ndarray``.
    """
    caps = registry.capabilities_for_probability_fn(compute_probability)
    return caps.candidates_many if caps is not None else None


__all__ = [
    "compute_probability_state_vector",
    "compute_probability_density_matrix",
    "compute_probability_stabilizer_state",
    "compute_probability_tableau",
    "compute_probability_mps",
    "mps_bitstring_probability",
    "candidates_state_vector",
    "candidates_state_vector_many",
    "candidates_density_matrix",
    "candidates_density_matrix_many",
    "candidates_stabilizer_state",
    "candidates_stabilizer_state_many",
    "candidates_tableau",
    "candidates_tableau_many",
    "candidates_mps",
    "candidates_mps_many",
    "candidate_function_for",
    "many_candidate_function_for",
    "batched_trajectories_state_vector",
    "batched_trajectories_stabilizer_state",
]
