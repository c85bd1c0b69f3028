"""Property tests pinning the batched trajectory engine's kernels.

Three kernels carry the batched engine's correctness and get adversarial
randomized coverage here:

* :func:`~repro.sampler.trajectory_batch.categorical_rows` — the
  vectorized resampler — against the scalar ``searchsorted(cumsum)``
  reference, including unnormalized rows and float-dust negatives;
* :meth:`~repro.sampler.trajectory_batch.BatchedStateVector.apply_kraus`
  — two-pass masked branching — against a per-trajectory scalar replay
  of the identical weight/choice/collapse recipe;
* the rank-generic GF(2) column helpers of :mod:`repro.states.bitpack`
  on ``(B, rows, W)`` stacks at widths 63/64/65, the word-boundary cases;
* the stabilizer stacks — ``engine.stack(B)`` of the CH form and of the
  tableau — against ``B`` scalar copies, gate for gate, through the shared
  dispatch of :mod:`repro.states.base`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import LineQubit
from repro.sampler.trajectory_batch import (
    BatchedStateVector,
    categorical_rows,
)
from repro.states import (
    CliffordTableau,
    CliffordTableauSimulationState,
    StabilizerChForm,
    StabilizerChFormSimulationState,
)
from repro.states import bitpack as bp
from repro.states.base import apply_moment, apply_sequence


# ----------------------------------------------------------------------
# categorical_rows vs the scalar searchsorted reference
# ----------------------------------------------------------------------

@st.composite
def prob_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=12))
    cols = draw(st.integers(min_value=1, max_value=16))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    probs = rng.random((rows, cols)) ** 3  # skewed, occasionally tiny
    # Random rows get float dust below zero (clipped by the kernel) and
    # random unnormalized scales.
    probs[rng.random((rows, cols)) < 0.1] = -1e-18
    probs *= rng.uniform(0.1, 10.0, size=(rows, 1))
    # Guarantee every row keeps some mass.
    probs[:, 0] += 0.01
    u = rng.random(rows)
    return probs, u


@given(prob_matrices())
@settings(max_examples=200, deadline=None)
def test_categorical_rows_matches_scalar_searchsorted(case):
    probs, u = case
    choice = categorical_rows(probs, u)
    clipped = np.clip(probs, 0.0, None)
    for b in range(probs.shape[0]):
        cum = np.cumsum(clipped[b])
        cum /= cum[-1]
        expected = min(
            int(np.searchsorted(cum, u[b], side="left")), probs.shape[1] - 1
        )
        assert choice[b] == expected


def test_categorical_rows_raises_on_vanished_row():
    probs = np.array([[0.5, 0.5], [0.0, 0.0]])
    try:
        categorical_rows(probs, np.array([0.3, 0.7]))
    except ValueError as exc:
        assert "vanished" in str(exc)
    else:  # pragma: no cover - the assert above must fire
        raise AssertionError("vanished row did not raise")


# ----------------------------------------------------------------------
# masked batched Kraus vs a scalar per-trajectory replay
# ----------------------------------------------------------------------

def _random_state_stack(rng, batch, n):
    vec = rng.normal(size=(batch, 2**n)) + 1j * rng.normal(size=(batch, 2**n))
    vec /= np.linalg.norm(vec, axis=1, keepdims=True)
    return vec.reshape((batch,) + (2,) * n)


def _random_kraus(rng, nk, k):
    dim = 2**k
    ops = rng.normal(size=(nk, dim, dim)) + 1j * rng.normal(
        size=(nk, dim, dim)
    )
    # Normalize so the channel is roughly trace-preserving in scale;
    # exact completeness is not required by the branching math.
    total = sum(op.conj().T @ op for op in ops)
    scale = np.sqrt(np.trace(total).real / dim)
    return [op / scale for op in ops]


@st.composite
def kraus_cases(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=min(2, n)))
    nk = draw(st.integers(min_value=1, max_value=4))
    batch = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return n, k, nk, batch, seed


@given(kraus_cases())
@settings(max_examples=100, deadline=None)
def test_masked_batched_kraus_matches_scalar_replay(case):
    n, k, nk, batch, seed = case
    rng = np.random.default_rng(seed)
    support = tuple(sorted(rng.choice(n, size=k, replace=False)))
    kraus = _random_kraus(rng, nk, k)
    tensor = _random_state_stack(rng, batch, n)
    bits = rng.integers(0, 2, size=(batch, n)).astype(np.int8)
    u_branch = rng.random(batch)

    adapter = BatchedStateVector(tensor.copy(), n)
    probs = adapter.apply_kraus(kraus, support, bits, u_branch)

    from repro.states.base import candidate_index_matrix

    idx = candidate_index_matrix(bits, support, n)
    for b in range(batch):
        psi = tensor[b].reshape(-1)
        # Pass 1: per-branch candidate masses.
        branch_probs = []
        for op in kraus:
            scalar = BatchedStateVector(tensor[b : b + 1].copy(), n)
            scalar.tensor = scalar._applied(scalar.tensor, op, support)
            flat = scalar.tensor.reshape(-1)
            branch_probs.append(np.abs(flat[idx[b]]) ** 2)
        weights = np.array([p.sum() for p in branch_probs])
        cum = np.cumsum(np.clip(weights, 0, None))
        cum /= cum[-1]
        choice = min(
            int(np.searchsorted(cum, u_branch[b], side="left")), nk - 1
        )
        # Pass 2: the chosen branch, renormalized.
        scalar = BatchedStateVector(tensor[b : b + 1].copy(), n)
        scalar.tensor = scalar._applied(
            scalar.tensor, kraus[choice], support
        )
        flat = scalar.tensor.reshape(-1)
        flat = flat / np.linalg.norm(flat)
        np.testing.assert_allclose(
            adapter.tensor[b].reshape(-1), flat, atol=1e-12
        )
        np.testing.assert_allclose(probs[b], branch_probs[choice], atol=1e-12)


# ----------------------------------------------------------------------
# rank-generic bitpack column helpers on stacks at word-boundary widths
# ----------------------------------------------------------------------

@st.composite
def stacked_bit_cases(draw):
    width = draw(st.sampled_from([63, 64, 65]))
    batch = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.integers(min_value=1, max_value=7))
    col = draw(st.integers(min_value=0, max_value=width - 1))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return width, batch, rows, col, seed


@given(stacked_bit_cases())
@settings(max_examples=200, deadline=None)
def test_stacked_column_helpers_match_unpacked(case):
    width, batch, rows, col, seed = case
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(batch, rows, width)).astype(np.uint8)
    packed = bp.pack_rows(bits, width)

    np.testing.assert_array_equal(bp.get_col(packed, col), bits[:, :, col])

    flips = rng.integers(0, 2, size=(batch, rows)).astype(np.uint64)
    expected = bits.copy()
    expected[:, :, col] ^= flips.astype(np.uint8)
    xored = packed.copy()
    bp.xor_col(xored, col, flips)
    np.testing.assert_array_equal(bp.unpack_rows(xored, width), expected)


@given(stacked_bit_cases())
@settings(max_examples=100, deadline=None)
def test_stacked_helpers_agree_with_scalar_siblings(case):
    width, batch, rows, col, seed = case
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(batch, rows, width)).astype(np.uint8)
    packed = bp.pack_rows(bits, width)
    stacked = bp.get_col(packed, col)
    flips = rng.integers(0, 2, size=(batch, rows)).astype(np.uint64)
    xored = packed.copy()
    bp.xor_col(xored, col, flips)
    for b in range(batch):
        np.testing.assert_array_equal(stacked[b], bp.get_col(packed[b], col))
        scalar = packed[b].copy()
        bp.xor_col(scalar, col, flips[b])
        np.testing.assert_array_equal(xored[b], scalar)


# ----------------------------------------------------------------------
# stabilizer stacks vs B scalar copies, gate for gate
# ----------------------------------------------------------------------

_ONE_QUBIT = ["H", "S", "SDG", "X", "Y", "Z"]
_PHASES = [1, 1j, -1, -1j, np.exp(0.25j * np.pi)]


def _random_clifford_stream(rng, n, length):
    """Gate records as the plan emits them: ``("seq", (phase, prims),
    axes)`` for one gate, ``("moment", seqs, axes)`` for a fused moment."""
    stream = []
    for _ in range(length):
        phase = _PHASES[rng.integers(len(_PHASES))]
        kind = rng.integers(3)
        if kind == 0:
            name = ["CX", "CZ"][rng.integers(2)]
            axes = [int(a) for a in rng.choice(n, size=2, replace=False)]
            stream.append(("seq", (phase, [(name, (0, 1))]), axes))
        elif kind == 1:
            prims = [
                (_ONE_QUBIT[i], (0,))
                for i in rng.integers(len(_ONE_QUBIT), size=rng.integers(1, 4))
            ]
            stream.append(("seq", (phase, prims), [int(rng.integers(n))]))
        else:
            width = int(rng.integers(1, min(n, 6) + 1))
            axes = [int(a) for a in rng.choice(n, size=width, replace=False)]
            seqs = [
                (
                    _PHASES[rng.integers(len(_PHASES))],
                    [
                        _ONE_QUBIT[i]
                        for i in rng.integers(
                            len(_ONE_QUBIT), size=rng.integers(1, 4)
                        )
                    ],
                )
                for _ in axes
            ]
            stream.append(("moment", seqs, axes))
    return stream


def _apply_stream(engine, stream):
    for kind, payload, axes in stream:
        if kind == "seq":
            apply_sequence(engine, payload, axes)
        else:
            apply_moment(engine, payload, axes)


def _assert_same_engine(view, scalar):
    if isinstance(scalar, CliffordTableau):
        assert view == scalar
        return
    for name in ("Fw", "Gw", "Mw", "gamma", "vw", "sw"):
        np.testing.assert_array_equal(getattr(view, name), getattr(scalar, name))
    assert abs(view.omega - scalar.omega) < 1e-12


@st.composite
def stack_cases(draw):
    formalism = draw(st.sampled_from(["ch_form", "tableau"]))
    width = draw(st.sampled_from([63, 64, 65]))
    batch = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return formalism, width, batch, seed


@given(stack_cases())
@settings(max_examples=30, deadline=None)
def test_stack_matches_scalar_copies_gate_for_gate(case):
    """``engine.stack(B)`` and ``B`` scalar copies stay equal under one
    Clifford stream with fused moments; a per-trajectory measurement in
    the middle makes the trajectories differ before the second half."""
    formalism, width, batch, seed = case
    rng = np.random.default_rng(seed)
    engine_cls = StabilizerChForm if formalism == "ch_form" else CliffordTableau
    basis = int("".join(map(str, rng.integers(0, 2, size=width))), 2)
    start = engine_cls(width, initial_state=basis)
    first = _random_clifford_stream(rng, width, 12)
    second = _random_clifford_stream(rng, width, 12)

    stack = start.stack(batch)
    scalars = [start.copy() for _ in range(batch)]
    _apply_stream(stack, first)
    for scalar in scalars:
        _apply_stream(scalar, first)
    for b, scalar in enumerate(scalars):
        _assert_same_engine(stack.view(b), scalar)

    support = [int(a) for a in rng.choice(width, size=2, replace=False)]
    outcomes = np.array(
        [
            [
                scalar.measure(axis, np.random.default_rng([seed, b]))
                for axis in support
            ]
            for b, scalar in enumerate(scalars)
        ]
    )
    stack.project(support, outcomes)
    _apply_stream(stack, second)
    for scalar in scalars:
        _apply_stream(scalar, second)
    for b, scalar in enumerate(scalars):
        _assert_same_engine(stack.view(b), scalar)


_ENGINES = {
    "ch_form_state": lambda: StabilizerChFormSimulationState(
        LineQubit.range(3)
    ),
    "tableau_state": lambda: CliffordTableauSimulationState(
        LineQubit.range(3)
    ),
    "ch_form_stack": lambda: StabilizerChForm(3).stack(2),
    "tableau_stack": lambda: CliffordTableau(3).stack(2),
}


@pytest.mark.parametrize("target", sorted(_ENGINES))
def test_unknown_primitive_raises_named_value_error(target):
    """Both simulation states and both stacks reject a primitive outside
    the shared dispatch table with a ``ValueError`` naming it, for single
    gates and fused moments alike."""
    made = _ENGINES[target]()
    if target.endswith("_state"):
        apply_seq = made.apply_stabilizer_sequence
        apply_mom = made.apply_single_qubit_moment
    else:
        def apply_seq(seq, axes):
            apply_sequence(made, seq, axes)

        def apply_mom(seqs, axes):
            apply_moment(made, seqs, axes)

    with pytest.raises(ValueError, match="'SQRT_X'"):
        apply_seq((1, [("SQRT_X", (0,))]), [1])
    with pytest.raises(ValueError, match="'SQRT_X'"):
        apply_mom([(1, ["SQRT_X"]), (1, ["H"])], [1, 2])
