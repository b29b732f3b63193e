"""Property tests of the state core on random circuits of at most 6 qubits.

Two oracles.  The reference kernel is the one that preceded the in-place
kernel: every gate allocates a fresh output, a single-qubit gate computes
m00*a0 + m01*a1 and m10*a0 + m11*a1 as plain numpy expressions, CX gathers
through a 2^n index array, and simulate_ideal builds one key string per
outcome.  The state core must reproduce it bit for bit.  The dense oracle
multiplies by the full 2^n x 2^n matrix of each gate, built from Kronecker
products, and must agree within 1e-12.
"""

import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from qpigeon import states
from qpigeon.circuits import simulate_ideal
from qpigeon.gates import BARRIER, CX, MEASURE, RX, X, Circuit, Gate
from qpigeon.states import StateVector, apply_gate, basis_state, plus_state

_PROB_FLOOR = 1e-14


def gate_matrix(gate: Gate) -> np.ndarray:
    if gate.kind == RX:
        c, s = math.cos(gate.theta / 2.0), math.sin(gate.theta / 2.0)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if gate.kind == X:
        return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    half = math.sqrt(0.5)
    return np.array([[half, half], [half, -half]], dtype=complex)


def reference_apply(amps: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    if gate.kind == CX:
        idx = np.arange(2**n)
        controlled = (idx >> gate.qubit) & 1
        return amps[idx ^ (controlled << gate.target)]
    matrix = gate_matrix(gate)
    psi = amps.reshape(2 ** (n - 1 - gate.qubit), 2, 2**gate.qubit)
    a0 = psi[:, 0, :]
    a1 = psi[:, 1, :]
    out = np.empty_like(psi)
    out[:, 0, :] = matrix[0, 0] * a0 + matrix[0, 1] * a1
    out[:, 1, :] = matrix[1, 0] * a0 + matrix[1, 1] * a1
    return out.reshape(-1)


def reference_distribution(circuit: Circuit) -> dict[str, float]:
    n = circuit.n_qubits
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    qubit_to_cbit = {}
    for gate in circuit.gates:
        if gate.kind == MEASURE:
            qubit_to_cbit[gate.qubit] = gate.cbit
        elif gate.kind != BARRIER:
            amps = reference_apply(amps, gate, n)
    tensor = (np.abs(amps) ** 2).reshape([2] * n)
    drop_axes = tuple(n - 1 - q for q in range(n) if q not in qubit_to_cbit)
    if drop_axes:
        tensor = tensor.sum(axis=drop_axes)
    measured = sorted(qubit_to_cbit, reverse=True)
    out = {}
    for bits in np.ndindex(*([2] * len(measured))):
        p = float(tensor[bits])
        if p <= _PROB_FLOOR:
            continue
        chars = ["0"] * circuit.n_cbits
        for axis, q in enumerate(measured):
            chars[circuit.n_cbits - 1 - qubit_to_cbit[q]] = str(bits[axis])
        out["".join(chars)] = p
    return dict(sorted(out.items()))


def dense_matrix(gate: Gate, n: int) -> np.ndarray:
    if gate.kind == CX:
        dim = 2**n
        full = np.zeros((dim, dim), dtype=complex)
        for i in range(dim):
            full[i ^ (((i >> gate.qubit) & 1) << gate.target), i] = 1.0
        return full
    full = np.array([[1.0]], dtype=complex)
    for k in range(n - 1, -1, -1):
        full = np.kron(full, gate_matrix(gate) if k == gate.qubit else np.eye(2))
    return full


@st.composite
def gate_lists(draw, n):
    qubit = st.integers(0, n - 1)
    angle = st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False)
    single = st.one_of(st.builds(Gate.h, qubit), st.builds(Gate.x, qubit), st.builds(Gate.rx, qubit, angle))
    if n > 1:
        pair = st.lists(qubit, min_size=2, max_size=2, unique=True).map(lambda qs: Gate.cx(*qs))
        single = st.one_of(single, pair)
    return draw(st.lists(single, min_size=1, max_size=12))


@st.composite
def start_states(draw):
    """A basis state (exact zeros everywhere else) or a random state, on 1-6 qubits."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return basis_state(n, draw(st.integers(0, 2**n - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


@st.composite
def runs(draw):
    state = draw(start_states())
    return state, draw(gate_lists(state.n_qubits))


@st.composite
def circuits(draw):
    """Up to 6 qubits; any subset measured into permuted cbits, some of them left unwritten."""
    n = draw(st.integers(1, 6))
    gates = draw(gate_lists(n))
    n_cbits = draw(st.one_of(st.integers(0, n + 2), st.integers(62, 70)))
    measured = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=min(n, n_cbits)))
    cbits = draw(st.permutations(range(n_cbits)))[: len(measured)]
    return Circuit(n, n_cbits, tuple(gates) + tuple(Gate.measure(q, c) for q, c in zip(measured, cbits)))


@settings(max_examples=150, deadline=None)
@given(runs())
def test_apply_gate_chain_is_bit_identical_to_reference_kernel(run):
    state, gates = run
    expected = state.amps
    for gate in gates:
        state = apply_gate(state, gate)
        expected = reference_apply(expected, gate, state.n_qubits)
        assert state.amps.tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None)
@given(runs())
def test_small_passes_and_pieces_are_bit_identical_to_reference_kernel(run):
    # passes and CX pieces of a few amplitudes cross every block edge of a
    # <=6-qubit state, for every control/target order
    state, gates = run
    n = state.n_qubits
    expected, zero = state.amps, basis_state(n, 0).amps
    for gate in gates:
        expected = reference_apply(expected, gate, n)
        zero = reference_apply(zero, gate, n)
    for pass_pairs in (1, 2, 4, 8):
        with mock.patch.object(states, "_PASS_PAIRS", pass_pairs):
            assert states._evolve(n, gates, state).amps.tobytes() == expected.tobytes()
            assert states._evolve(n, gates).amps.tobytes() == zero.tobytes()


@pytest.mark.parametrize("n", range(1, 13))
def test_plus_state_is_bit_identical_to_reference_kernel(n):
    expected = basis_state(n, 0).amps
    for q in range(n):
        expected = reference_apply(expected, Gate.h(q), n)
    assert plus_state(n).amps.tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None)
@given(circuits())
def test_simulate_ideal_is_bit_identical_to_reference(circuit):
    assert repr(simulate_ideal(circuit)) == repr(reference_distribution(circuit))


@settings(max_examples=100, deadline=None)
@given(runs())
def test_apply_gate_chain_matches_dense_oracle(run):
    state, gates = run
    expected = state.amps
    for gate in gates:
        state = apply_gate(state, gate)
        expected = dense_matrix(gate, state.n_qubits) @ expected
    assert np.max(np.abs(state.amps - expected)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(circuits())
def test_simulate_ideal_matches_dense_oracle(circuit):
    n = circuit.n_qubits
    amps = basis_state(n, 0).amps
    marginal: dict[str, float] = {}
    for gate in circuit.gates:
        if gate.kind != MEASURE:
            amps = dense_matrix(gate, n) @ amps
    cbit_of = {g.qubit: g.cbit for g in circuit.gates if g.kind == MEASURE}
    for index, p in enumerate(np.abs(amps) ** 2):
        chars = ["0"] * circuit.n_cbits
        for q, c in cbit_of.items():
            chars[circuit.n_cbits - 1 - c] = str((index >> q) & 1)
        key = "".join(chars)
        marginal[key] = marginal.get(key, 0.0) + float(p)
    probs = simulate_ideal(circuit)
    assert set(probs) <= set(marginal)
    for key, p in marginal.items():
        assert abs(probs.get(key, 0.0) - p) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(runs())
def test_apply_gate_leaves_its_input_alone(run):
    state, gates = run
    for gate in gates:
        before = state.amps.tobytes()
        out = apply_gate(state, gate)
        assert state.amps.tobytes() == before
        assert not state.amps.flags.writeable
        assert not out.amps.flags.writeable
        assert np.shares_memory(out.amps, state.amps) is False
        state = out
