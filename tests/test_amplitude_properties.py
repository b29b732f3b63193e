"""Property tests of the amplitude route against the numpy routes it replaced.

Two oracles.  The dense computation that preceded the box-basis diagonals:
the closed-form unitary assembled as a dense 8x8 matrix from the pair-count
and all-same matrices, applied to the uniform state by a matrix-vector
product, then one ``vdot`` against each label state.  And the numpy
diagonal route that preceded the plain-Python dot: the diagonal as a numpy
array times the uniform state, then one ``np.vdot`` against the label state.
``amplitude_table`` must reproduce both bit for bit at any finite coupling.
"""

import cmath
import math
import struct

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpigeon import amplitudes
from qpigeon.amplitudes import (
    all_labels,
    all_same_matrix_element,
    amplitude_table,
    label_state,
    pair_count_matrix_element,
    pair_matrix_element,
)
from qpigeon.boxes import ALL_SAME_DIAGONAL, PAIR_COUNT_DIAGONAL, PAIRS, evolution_diagonal, same_box_diagonal
from qpigeon.operators import (
    all_same_box_projector,
    apply_operator,
    same_box_projector,
    shared_pair_count,
)
from qpigeon.states import inner_product, plus_state


def dense_probabilities(epsilon_t: float) -> list[float]:
    phase = cmath.exp(-1j * epsilon_t)
    phase3 = cmath.exp(-3j * epsilon_t)
    unitary = phase * shared_pair_count().matrix + (phase3 - 3.0 * phase) * all_same_box_projector().matrix
    evolved = unitary @ plus_state(3).amps
    return [abs(complex(np.vdot(label_state(label).amps, evolved))) ** 2 for label in all_labels()]


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(math.pi / 2.0)
@example(3.0 * math.pi / 2.0)
@example(1e15)
@example(-1e300)
@example(1.7976931348623157e308)
def test_amplitude_table_is_bit_identical_to_the_dense_route(epsilon_t):
    try:
        expected = dense_probabilities(epsilon_t)
    except ValueError:
        # exp(-3i*et) overflows for |et| near the float maximum
        with pytest.raises(ValueError):
            amplitude_table(epsilon_t)
        return
    assert [rec.prob_numeric for rec in amplitude_table(epsilon_t)] == expected


def test_matrix_elements_match_the_dense_projectors():
    uniform = plus_state(3)
    for label in all_labels():
        bra = label_state(label)
        for a, b in PAIRS:
            dense = inner_product(bra, apply_operator(same_box_projector(a, b), uniform))
            assert abs(pair_matrix_element(label, a, b) - dense) <= 1e-15
        dense = inner_product(bra, apply_operator(all_same_box_projector(), uniform))
        assert abs(all_same_matrix_element(label) - dense) <= 1e-15
        dense = inner_product(bra, apply_operator(shared_pair_count(), uniform))
        assert abs(pair_count_matrix_element(label) - dense) <= 1e-15


def numpy_evolution_diagonal(epsilon_t: float) -> np.ndarray:
    phase = cmath.exp(-1j * epsilon_t)
    phase3 = cmath.exp(-3j * epsilon_t)
    return phase * np.asarray(PAIR_COUNT_DIAGONAL) + (phase3 - 3.0 * phase) * np.asarray(ALL_SAME_DIAGONAL)


def vdot_element(label, diag) -> complex:
    """<label| D |uniform> by the numpy diagonal route: a vdot against the diagonal times plus_state(3)."""
    return complex(np.vdot(label_state(label).amps, np.asarray(diag) * plus_state(3).amps))


def bits(value: complex) -> bytes:
    return struct.pack("<dd", value.real, value.imag)


def test_python_amplitudes_have_the_state_vectors_bytes():
    for label in all_labels():
        python_amps = np.array(amplitudes._LABEL_AMPS[label.to_bits()], dtype=complex)
        assert python_amps.tobytes() == label_state(label).amps.tobytes()
    assert np.full(8, amplitudes._UNIFORM).tobytes() == plus_state(3).amps.tobytes()


def test_matrix_elements_have_the_vdot_bits():
    for label in all_labels():
        for a, b in PAIRS:
            assert bits(pair_matrix_element(label, a, b)) == bits(vdot_element(label, same_box_diagonal(a, b)))
        assert bits(all_same_matrix_element(label)) == bits(vdot_element(label, ALL_SAME_DIAGONAL))
        assert bits(pair_count_matrix_element(label)) == bits(vdot_element(label, PAIR_COUNT_DIAGONAL))


@settings(max_examples=300, deadline=None)
@given(st.floats(-20.0, 20.0) | st.floats(-1e15, 1e15))
@example(0.0)
@example(-0.0)
@example(1e15)
@example(-1e15)
def test_prob_numeric_has_the_vdot_bits(epsilon_t):
    expected_diag = numpy_evolution_diagonal(epsilon_t)
    assert np.array(evolution_diagonal(epsilon_t)).tobytes() == expected_diag.tobytes()
    for rec in amplitude_table(epsilon_t):
        expected = abs(vdot_element(rec.label, expected_diag)) ** 2
        assert struct.pack("<d", rec.prob_numeric) == struct.pack("<d", expected)
