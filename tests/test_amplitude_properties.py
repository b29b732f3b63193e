"""Property tests of the diagonal amplitude route against the dense route it replaced.

The oracle is the dense computation that preceded the box-basis diagonals:
the closed-form unitary assembled as a dense 8x8 matrix from the pair-count
and all-same matrices, applied to the uniform state by a matrix-vector
product, then one ``vdot`` against each label state.  ``amplitude_table``
must reproduce its probabilities bit for bit at any finite coupling.
"""

import cmath
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpigeon.amplitudes import (
    all_labels,
    all_same_matrix_element,
    amplitude_table,
    label_state,
    pair_count_matrix_element,
    pair_matrix_element,
)
from qpigeon.operators import (
    PAIRS,
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
