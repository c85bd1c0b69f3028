"""Tests for sum-over-Cliffords near-Clifford sampling (paper Sec. 4.2)."""

import math

import numpy as np
import pytest

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.analysis import empirical_distribution, fractional_overlap
from repro.sampler.near_clifford import (
    act_on_near_clifford,
    rotation_branch_weights,
    stabilizer_extent_rz,
)
from repro.states import (
    CliffordTableauSimulationState,
    StabilizerChFormSimulationState,
)


class TestBranchWeights:
    def test_zero_angle_is_pure_identity(self):
        c_i, c_s = rotation_branch_weights(0.0)
        assert c_i == pytest.approx(1.0)
        assert c_s == pytest.approx(0.0)

    def test_pi_over_two_is_pure_s(self):
        """R(pi/2) ~ S up to phase: identity coefficient vanishes."""
        c_i, c_s = rotation_branch_weights(math.pi / 2)
        assert c_i == pytest.approx(0.0, abs=1e-12)
        assert c_s == pytest.approx(math.sqrt(2) * math.sin(math.pi / 4))

    def test_decomposition_reconstructs_rz(self):
        """c_I*I + c_S*S (with phases) equals R(theta) exactly."""
        for theta in (0.1, 0.7, math.pi / 4, 2.0, -0.5):
            c1 = math.cos(theta / 2) - math.sin(theta / 2)
            c2 = math.sqrt(2) * np.exp(-1j * math.pi / 4) * math.sin(theta / 2)
            s_mat = np.diag([1, 1j])
            reconstructed = c1 * np.eye(2) + c2 * s_mat
            expected = np.diag(
                [np.exp(-1j * theta / 2), np.exp(1j * theta / 2)]
            )
            np.testing.assert_allclose(reconstructed, expected, atol=1e-12)

    def test_stabilizer_extent_minimized_at_clifford_angles(self):
        assert stabilizer_extent_rz(0.0) == pytest.approx(1.0)
        assert stabilizer_extent_rz(math.pi / 2) == pytest.approx(1.0)
        assert stabilizer_extent_rz(math.pi / 4) > 1.0


class TestActOnNearClifford:
    def test_clifford_gates_apply_exactly(self):
        qs = cirq.LineQubit.range(2)
        state = StabilizerChFormSimulationState(qs, seed=0)
        act_on_near_clifford(cirq.H(qs[0]), state)
        act_on_near_clifford(cirq.CNOT(qs[0], qs[1]), state)
        np.testing.assert_allclose(
            np.abs(state.state_vector()) ** 2, [0.5, 0, 0, 0.5], atol=1e-9
        )

    def test_clifford_angle_rz_applies_deterministically(self):
        """Rz(pi) is Clifford (Z up to phase) - no stochastic branch."""
        qs = cirq.LineQubit.range(1)
        state = StabilizerChFormSimulationState(qs, seed=0)
        act_on_near_clifford(cirq.H(qs[0]), state)
        act_on_near_clifford(cirq.Rz(math.pi).on(qs[0]), state)
        probs = np.abs(state.state_vector()) ** 2
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-9)

    def test_t_gate_branches_stochastically(self):
        """T on |+>: branches give |+> or S|+>, never anything else."""
        qs = cirq.LineQubit.range(1)
        seen = set()
        for seed in range(50):
            state = StabilizerChFormSimulationState(qs, seed=seed)
            act_on_near_clifford(cirq.H(qs[0]), state)
            act_on_near_clifford(cirq.T(qs[0]), state)
            vec = np.round(state.state_vector(), 6)
            seen.add(tuple(vec.tolist()))
        assert len(seen) == 2  # exactly the I and S branches

    def test_t_gate_branches_on_tableau(self):
        """The tableau backend takes the same two branches: T on |+>
        leaves the stabilizer +X (I branch) or +Y (S branch)."""
        qs = cirq.LineQubit.range(1)
        seen = set()
        for seed in range(50):
            state = CliffordTableauSimulationState(qs, seed=seed)
            act_on_near_clifford(cirq.H(qs[0]), state)
            act_on_near_clifford(cirq.T(qs[0]), state)
            seen.update(state.stabilizer_strings())
        assert seen == {"+X", "+Y"}

    def test_branch_frequencies_follow_weights(self):
        theta = math.pi / 4  # T gate
        c_i, c_s = rotation_branch_weights(theta)
        expected_s = c_s / (c_i + c_s)
        qs = cirq.LineQubit.range(1)
        s_count = 0
        trials = 2000
        rng = np.random.default_rng(0)
        for _ in range(trials):
            state = StabilizerChFormSimulationState(
                qs, seed=int(rng.integers(2**32))
            )
            act_on_near_clifford(cirq.H(qs[0]), state)
            act_on_near_clifford(cirq.T(qs[0]), state)
            # S branch has imaginary amplitude on |1>
            if abs(state.state_vector()[1].imag) > 1e-9:
                s_count += 1
        assert abs(s_count / trials - expected_s) < 0.04

    def test_measurement_op_collapses(self):
        qs = cirq.LineQubit.range(1)
        state = StabilizerChFormSimulationState(qs, seed=0)
        act_on_near_clifford(cirq.H(qs[0]), state)
        act_on_near_clifford(cirq.measure(qs[0], key="m"), state)
        probs = np.abs(state.state_vector()) ** 2
        assert max(probs) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_non_rz_non_clifford(self):
        qs = cirq.LineQubit.range(3)
        state = StabilizerChFormSimulationState(qs, seed=0)
        with pytest.raises(ValueError, match="non-Clifford"):
            act_on_near_clifford(cirq.CCX(*qs), state)

    def test_stochastic_flag_set(self):
        assert getattr(act_on_near_clifford, "_bgls_stochastic_") is True


class TestEndToEndOverlap:
    def _overlap(self, circuit, qubits, reps=1500, seed=0):
        probs = np.abs(
            circuit.without_measurements().final_state_vector(qubit_order=qubits)
        ) ** 2
        sim = bgls.Simulator(
            StabilizerChFormSimulationState(qubits),
            bgls.act_on_near_clifford,
            born.compute_probability_stabilizer_state,
            seed=seed,
        )
        bits = sim.sample_bitstrings(circuit, repetitions=reps)
        return fractional_overlap(
            empirical_distribution(bits, len(qubits)), probs
        )

    def test_pure_clifford_overlap_near_one(self):
        qs = cirq.LineQubit.range(4)
        circuit = cirq.random_clifford_circuit(qs, 15, random_state=3)
        assert self._overlap(circuit, qs) > 0.93

    def test_t_gates_lower_overlap(self):
        """Fig. 4a behaviour: non-Clifford circuits lag pure Clifford."""
        qs = cirq.LineQubit.range(4)
        clifford_t = cirq.random_clifford_t_circuit(
            qs, 15, t_density=0.25, random_state=3
        )
        n_t = cirq.count_gate(clifford_t, cirq.T)
        assert n_t >= 3
        as_clifford = cirq.substitute_gate(clifford_t, cirq.T, cirq.S)
        overlap_t = self._overlap(clifford_t, qs)
        overlap_s = self._overlap(as_clifford, qs)
        assert overlap_t < overlap_s

    def test_more_t_gates_monotone_trend(self):
        """Fig. 5 behaviour: overlap decreases as T count grows (on average)."""
        qs = cirq.LineQubit.range(4)
        base = cirq.random_clifford_circuit(qs, 25, random_state=11)
        overlaps = []
        for n_t in (0, 4, 12):
            circ = cirq.substitute_clifford_with_t(base, n_t, random_state=0)
            overlaps.append(self._overlap(circ, qs, seed=n_t))
        assert overlaps[0] > overlaps[2]
