"""Property test: export_qasm then parse_qasm gives back the same circuit."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from qpigeon.gates import Circuit, Gate, export_qasm, parse_qasm

_NAMED_ANGLES = (math.pi / 4.0, math.pi / 2.0, math.pi, -math.pi / 4.0, -math.pi / 2.0, -math.pi)


@st.composite
def circuits(draw):
    """Up to 8 qubits and any gate mix; RX angles are named, or any finite float written by ``repr``."""
    n = draw(st.integers(1, 8))
    qubit = st.integers(0, n - 1)
    angle = st.one_of(st.sampled_from(_NAMED_ANGLES), st.floats(allow_nan=False, allow_infinity=False))
    gate = st.one_of(
        st.builds(Gate.h, qubit),
        st.builds(Gate.x, qubit),
        st.builds(Gate.rx, qubit, angle),
        st.just(Gate.barrier()),
    )
    if n > 1:
        gate = st.one_of(gate, st.lists(qubit, min_size=2, max_size=2, unique=True).map(lambda qs: Gate.cx(*qs)))
    gates = draw(st.lists(gate, max_size=20))
    n_cbits = draw(st.integers(0, 70))
    measured = draw(st.lists(qubit, unique=True, max_size=min(n, n_cbits)))
    cbits = draw(st.permutations(range(n_cbits)))[: len(measured)]
    return Circuit(n, n_cbits, tuple(gates) + tuple(Gate.measure(q, c) for q, c in zip(measured, cbits)))


@settings(max_examples=200, deadline=None)
@given(circuits())
def test_parse_of_export_is_the_same_circuit(circuit):
    parsed = parse_qasm(export_qasm(circuit))
    assert parsed == circuit
    # repr tells -0.0 from 0.0, which == does not
    assert repr(parsed) == repr(circuit)
