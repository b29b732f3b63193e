"""Property tests of the amplitude route against the numpy routes it replaced.

Two oracles.  The dense computation that preceded the box-basis diagonals:
the closed-form unitary assembled as a dense 8x8 matrix from the pair-count
and all-same matrices (``np.diag`` of the ``qpigeon.boxes`` diagonals), applied to the uniform state by a matrix-vector
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
    pair_count_matrix_element,
    pair_matrix_element,
)
from qpigeon.boxes import ALL_SAME_DIAGONAL, PAIR_COUNT_DIAGONAL, PAIRS, evolution_diagonal, same_box_diagonal
from qpigeon.states import plus_i_state, plus_state


def dense_probabilities(epsilon_t: float) -> list[float]:
    phase = cmath.exp(-1j * epsilon_t)
    phase3 = cmath.exp(-3j * epsilon_t)
    unitary = phase * np.diag(PAIR_COUNT_DIAGONAL) + (phase3 - 3.0 * phase) * np.diag(ALL_SAME_DIAGONAL)
    evolved = unitary @ plus_state(3).amps
    return [abs(complex(np.vdot(plus_i_state(label.signs).amps, evolved))) ** 2 for label in all_labels()]


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


def dense_element(label, diag) -> complex:
    """<label| D |uniform> by the dense route: the 8x8 matrix of the diagonal times plus_state(3), then a vdot."""
    return complex(np.vdot(plus_i_state(label.signs).amps, np.diag(diag) @ plus_state(3).amps))


def test_matrix_elements_match_the_dense_projectors():
    for label in all_labels():
        for a, b in PAIRS:
            assert abs(pair_matrix_element(label, a, b) - dense_element(label, same_box_diagonal(a, b))) <= 1e-15
        assert abs(all_same_matrix_element(label) - dense_element(label, ALL_SAME_DIAGONAL)) <= 1e-15
        assert abs(pair_count_matrix_element(label) - dense_element(label, PAIR_COUNT_DIAGONAL)) <= 1e-15


def numpy_evolution_diagonal(epsilon_t: float) -> np.ndarray:
    phase = cmath.exp(-1j * epsilon_t)
    phase3 = cmath.exp(-3j * epsilon_t)
    return phase * np.asarray(PAIR_COUNT_DIAGONAL) + (phase3 - 3.0 * phase) * np.asarray(ALL_SAME_DIAGONAL)


def vdot_element(label, diag) -> complex:
    """<label| D |uniform> by the numpy diagonal route: a vdot against the diagonal times plus_state(3)."""
    return complex(np.vdot(plus_i_state(label.signs).amps, np.asarray(diag) * plus_state(3).amps))


def bits(value: complex) -> bytes:
    return struct.pack("<dd", value.real, value.imag)


def test_python_amplitudes_have_the_state_vectors_bytes():
    for label in all_labels():
        python_amps = np.array(amplitudes._LABEL_AMPS[label.to_bits()], dtype=complex)
        assert python_amps.tobytes() == plus_i_state(label.signs).amps.tobytes()
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
