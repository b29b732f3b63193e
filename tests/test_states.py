import math
import tracemalloc

import numpy as np
import pytest

from qpigeon.gates import Gate
from qpigeon.states import (
    StateVector,
    apply_gate,
    basis_state,
    inner_product,
    plus_i_state,
    plus_state,
)

INV_SQRT8 = 1.0 / math.sqrt(8.0)


def embedded_single(matrix, qubit, n):
    """Dense n-qubit embedding of a 2x2 gate, most significant qubit first."""
    full = np.array([[1.0]], dtype=complex)
    for k in range(n - 1, -1, -1):
        full = np.kron(full, matrix if k == qubit else np.eye(2))
    return full


def embedded_cx(control, target, n):
    dim = 2**n
    full = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        j = i ^ (((i >> control) & 1) << target)
        full[j, i] = 1.0
    return full


def random_state(n, rng):
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def test_basis_state_examples():
    assert np.array_equal(basis_state(1, 0).amps, [1, 0])
    assert np.array_equal(basis_state(3, 0).amps, [1, 0, 0, 0, 0, 0, 0, 0])
    assert np.array_equal(basis_state(2, 3).amps, [0, 0, 0, 1])


def test_basis_state_validation():
    with pytest.raises(ValueError):
        basis_state(0, 0)
    with pytest.raises(ValueError):
        basis_state(25, 0)
    with pytest.raises(ValueError):
        basis_state(2, 4)
    with pytest.raises(ValueError):
        basis_state(2, -1)


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector(2, np.ones(3, dtype=complex))
    with pytest.raises(ValueError):
        StateVector(1, np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        StateVector(1, np.array([np.inf * 1j, 0.0]))
    # the scan reads only the extremes of the real and imaginary parts
    with pytest.raises(ValueError):
        StateVector(1, np.array([0.0, complex(0.0, -np.inf)]))


def test_plus_state_validation():
    with pytest.raises(ValueError):
        plus_state(0)
    with pytest.raises(ValueError):
        plus_state(25)


def test_state_equality_and_hash():
    state = basis_state(2, 0)
    same = StateVector(2, [1, 0, 0, 0])
    assert state == same and hash(state) == hash(same)
    assert state != basis_state(2, 1)
    assert state != basis_state(3, 0)
    assert state != StateVector(2, [1, -0.0, 0, 0])
    assert state != state.amps.tolist()
    assert len({state, same, basis_state(2, 1), plus_state(2)}) == 3


def test_state_amplitudes_are_frozen():
    state = basis_state(2, 0)
    with pytest.raises(ValueError):
        state.amps[0] = 0.0


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("Y", qubit=0)
    with pytest.raises(ValueError):
        Gate.cx(1, 1)
    with pytest.raises(ValueError):
        Gate.rx(0, math.inf)
    with pytest.raises(ValueError):
        Gate("H", qubit=-1)
    with pytest.raises(ValueError):
        Gate("H", qubit=0, theta=0.5)
    with pytest.raises(ValueError):
        Gate("BARRIER", qubit=0)
    with pytest.raises(ValueError):
        Gate("MEASURE", qubit=0)  # missing cbit


def test_hadamard_on_zero():
    state = apply_gate(basis_state(1, 0), Gate.h(0))
    assert np.allclose(state.amps, [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-15)


def test_cx_truth_table():
    # control q0 (rightmost bit), target q1: |01> <-> |11> swap, |00>, |10> fixed
    amps = np.array([0.1 + 0.2j, 0.3 - 0.1j, 0.5 + 0.0j, 0.2 + 0.7j])
    state = StateVector(2, amps / np.linalg.norm(amps))
    out = apply_gate(state, Gate.cx(0, 1))
    expected = state.amps[[0, 3, 2, 1]]
    assert np.array_equal(out.amps, expected)


def test_rx_reads_out_circular_basis():
    # Rx(pi/2) sends (|0> + i|1>)/sqrt(2) to |0> and (|0> - i|1>)/sqrt(2) to |1>,
    # each up to a global phase
    gate = Gate.rx(0, math.pi / 2.0)
    up = apply_gate(plus_i_state((1,)), gate)
    down = apply_gate(plus_i_state((-1,)), gate)
    assert abs(abs(up.amps[0]) - 1.0) < 1e-12 and abs(up.amps[1]) < 1e-12
    assert abs(abs(down.amps[1]) - 1.0) < 1e-12 and abs(down.amps[0]) < 1e-12


def test_plus_state_amplitudes():
    state = plus_state(3)
    assert np.allclose(state.amps, np.full(8, 1.0 / math.sqrt(8.0)), atol=1e-12)
    assert abs(state.norm_sq - 1.0) < 1e-12


def test_plus_state_equals_sequential_hadamards():
    for n in (1, 2, 4):
        by_hand = basis_state(n, 0)
        for q in range(n):
            by_hand = apply_gate(by_hand, Gate.h(q))
        assert np.array_equal(plus_state(n).amps, by_hand.amps)


def test_plus_i_state_all_plus_amplitudes():
    # (|0> + i|1>)^{x3} / sqrt(8): phases cycle with the number of set bits
    state = plus_i_state((1, 1, 1))
    expected = np.array([1, 1j, 1j, -1, 1j, -1, -1, -1j]) * INV_SQRT8
    assert np.allclose(state.amps, expected, atol=1e-12)


def test_plus_i_state_single_minus():
    state = plus_i_state((-1,))
    assert np.allclose(state.amps, [math.sqrt(0.5), -1j * math.sqrt(0.5)], atol=1e-15)


def test_plus_i_flipping_signs_conjugates():
    state = plus_i_state((1, -1, 1))
    flipped = plus_i_state((-1, 1, -1))
    assert np.allclose(flipped.amps, state.amps.conj(), atol=1e-15)


def test_plus_i_state_validation():
    with pytest.raises(ValueError):
        plus_i_state(())
    with pytest.raises(ValueError):
        plus_i_state((1, 0, 1))


def test_inner_product_values():
    assert abs(inner_product(plus_state(3), plus_state(3)) - 1.0) < 1e-12
    # uniform overlap with the all-plus circular state: ((1 - i)/2)^3
    overlap = inner_product(plus_i_state((1, 1, 1)), plus_state(3))
    assert abs(overlap - (-0.25 - 0.25j)) < 1e-12
    assert abs(inner_product(basis_state(3, 0), plus_state(3)) - INV_SQRT8) < 1e-12


def test_inner_product_dim_mismatch():
    with pytest.raises(ValueError):
        inner_product(basis_state(2, 0), basis_state(3, 0))


def test_apply_gate_rejects_measurement():
    with pytest.raises(ValueError):
        apply_gate(basis_state(1, 0), Gate.measure(0, 0))


def test_apply_gate_range_checks():
    with pytest.raises(ValueError):
        apply_gate(basis_state(2, 0), Gate.h(2))
    with pytest.raises(ValueError):
        apply_gate(basis_state(2, 0), Gate.cx(0, 2))


def test_barrier_is_a_no_op():
    state = random_state(3, np.random.default_rng(3))
    assert np.array_equal(apply_gate(state, Gate.barrier()).amps, state.amps)


def test_single_qubit_gates_match_dense_embedding():
    rng = np.random.default_rng(11)
    gates = [Gate.h(0), Gate.x(0), Gate.rx(0, 0.37), Gate.rx(0, -2.2)]
    matrices = {
        "H": np.array([[1, 1], [1, -1]]) / math.sqrt(2.0),
        "X": np.array([[0, 1], [1, 0]]),
    }
    for n in (1, 2, 3, 4):
        state = random_state(n, rng)
        for q in range(n):
            for proto in gates:
                gate = Gate(proto.kind, qubit=q, theta=proto.theta)
                if gate.kind == "RX":
                    half = gate.theta / 2.0
                    m = np.array([[math.cos(half), -1j * math.sin(half)],
                                  [-1j * math.sin(half), math.cos(half)]])
                else:
                    m = matrices[gate.kind]
                expected = embedded_single(m, q, n) @ state.amps
                assert np.allclose(apply_gate(state, gate).amps, expected, atol=1e-12)


def test_cx_matches_dense_embedding():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4):
        state = random_state(n, rng)
        for control in range(n):
            for target in range(n):
                if control == target:
                    continue
                expected = embedded_cx(control, target, n) @ state.amps
                out = apply_gate(state, Gate.cx(control, target))
                assert np.allclose(out.amps, expected, atol=1e-14)


def test_gate_involutions():
    rng = np.random.default_rng(5)
    state = random_state(3, rng)
    for gate in (Gate.h(1), Gate.x(2), Gate.cx(0, 2)):
        twice = apply_gate(apply_gate(state, gate), gate)
        assert np.allclose(twice.amps, state.amps, atol=1e-12)
    forth = apply_gate(state, Gate.rx(1, 0.83))
    back = apply_gate(forth, Gate.rx(1, -0.83))
    assert np.allclose(back.amps, state.amps, atol=1e-12)


def test_unitarity_over_random_gate_sequences():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        state = random_state(n, rng)
        for _ in range(int(rng.integers(1, 15))):
            kind = rng.choice(["H", "X", "RX", "CX"])
            q = int(rng.integers(n))
            if kind == "CX" and n > 1:
                t = int(rng.integers(n - 1))
                gate = Gate.cx(q, t if t < q else t + 1)
            elif kind == "RX":
                gate = Gate.rx(q, float(rng.uniform(-math.pi, math.pi)))
            elif kind == "X":
                gate = Gate.x(q)
            else:
                gate = Gate.h(q)
            state = apply_gate(state, gate)
        assert abs(state.norm_sq - 1.0) < 1e-12


def test_norm_sq_matches_amplitudes():
    rng = np.random.default_rng(9)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    state = StateVector(3, amps)
    assert abs(state.norm_sq - float(np.sum(np.abs(amps) ** 2))) < 1e-12


def tracemalloc_peak(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_state_core_memory_is_the_work_buffer():
    # 18 qubits is 4 MiB of amplitudes: a gate run holds its work buffer and a
    # 0.5 MiB scratch (4.5 MiB; plus_state peaks at 4.76), not a frozen
    # |0...0>, a half-size scratch or 0.5 MiB of finiteness flags
    assert tracemalloc_peak(plus_state, 18) < 5 * 2**20
    state = plus_state(18)
    for gate in (Gate.h(0), Gate.rx(17, 0.7), Gate.cx(0, 17), Gate.cx(17, 0)):
        assert tracemalloc_peak(apply_gate, state, gate) < 4.75 * 2**20
