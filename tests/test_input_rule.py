"""The one input rule: an index, a count or a seed is an integer other than bool, in range.

Every entry point that takes one accepts 1 and numpy's 1 alike, and raises
ValueError, never a numpy or type error, for a bool, a float, a string or
None.  Each entry point's own range is tested beside it.
"""

import numpy as np
import pytest

from qpigeon.amplitudes import FinalStateLabel, pair_matrix_element_closed
from qpigeon.boxes import same_box_diagonal
from qpigeon.circuits import sample_shots
from qpigeon.gates import Circuit, Gate, pair_check_circuit
from qpigeon.states import StateVector, basis_state, plus_state

LABEL = FinalStateLabel((1, -1, 1))

# each takes one index, count or seed, for which 1 is in range
TAKERS = {
    "Gate qubit": Gate.h,
    "Gate cbit": lambda v: Gate.measure(0, v),
    "Circuit n_qubits": lambda v: Circuit(v, 0, ()),
    "Circuit n_cbits": lambda v: Circuit(1, v, ()),
    "StateVector n_qubits": lambda v: StateVector(v, [1, 0]),
    "basis_state n_qubits": lambda v: basis_state(v, 0),
    "basis_state index": lambda v: basis_state(2, v),
    "plus_state n_qubits": plus_state,
    "sample_shots shots": lambda v: sample_shots(pair_check_circuit(), v, 0),
    "sample_shots seed": lambda v: sample_shots(pair_check_circuit(), 10, v),
    "FinalStateLabel.from_bits": FinalStateLabel.from_bits,
    "same_box_diagonal": lambda v: same_box_diagonal(0, v),
    "pair_matrix_element_closed": lambda v: pair_matrix_element_closed(LABEL, 0, v),
}


@pytest.mark.parametrize("take", TAKERS.values(), ids=TAKERS.keys())
def test_every_index_count_and_seed_takes_integers_only(take):
    assert take(np.int64(1)) == take(1)
    for bad in (True, False, 1.0, "1", None):
        with pytest.raises(ValueError):
            take(bad)


def test_checked_sizes_are_plain_ints():
    assert type(Circuit(np.int64(2), np.uint8(1), ()).n_cbits) is int
    assert type(basis_state(np.int64(2), np.int64(3)).n_qubits) is int
    assert type(Gate.cx(np.int64(0), np.int64(1)).target) is int
