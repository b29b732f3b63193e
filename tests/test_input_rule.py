"""The one input rule, for every value an entry point takes.

An index, a count or a seed is an integer other than bool, in range, and so
is a sign (+1 or -1) or a 0/1 value; each is kept as a plain int.  A real
number is a numbers.Real other than bool, finite and in its entry point's
interval, and is kept as a float.  Every entry point accepts a numpy scalar
exactly as it accepts the Python value, and raises ValueError, never a
numpy, type or overflow error, for a bool, a string, None, nan, an infinity,
an integer beyond the float range, or a value out of its own range, which
each table names beside the entry point.  Integer values also reject a
float such as 1.0, and signs that do not come as a sequence are rejected too.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from qpigeon.amplitudes import FinalStateLabel, amplitude_table, closed_form_probability
from qpigeon.boxes import BOX_VALUES, box_element, evolution_diagonal, same_box_diagonal
from qpigeon.circuits import NoiseModel, histogram_json, sample_shots
from qpigeon.gates import Circuit, Gate, export_qasm, pair_check_circuit
from qpigeon.hiddenvars import ValueAssignment
from qpigeon.operators import evolution_closed_form, evolution_series
from qpigeon.states import StateVector, basis_state, plus_i_state, plus_state

LABEL = FinalStateLabel((1, -1, 1))
# an integer box-basis diagonal: the all-same column
ALL_SAME = [row[3] for row in BOX_VALUES]

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
}

# values no real number, sign or 0/1 value may take
NEVER = (True, False, "1", None, math.nan, math.inf, -math.inf, 10**400, Fraction(10**400))

# each takes one real number, for which 2**-10 is in range, and the values out of its own range
REAL_TAKERS = {
    "NoiseModel readout_flip_prob": (NoiseModel, (-0.1, 1.0)),
    "Gate theta": (lambda v: Gate.rx(0, v), ()),
    "evolution_diagonal": (evolution_diagonal, (1e308, -1e308)),
    "evolution_closed_form": (evolution_closed_form, (1e308, -1e308)),
    # beyond about 1e5 the series overflows or loses unitarity
    "evolution_series": (evolution_series, (1e308, -1e308, 1e15, 1e18, -1e18, 1e20, 3.1e307, 5.9e307)),
    "closed_form_probability": (lambda v: closed_form_probability(LABEL, v), ()),
    "amplitude_table": (amplitude_table, (1e308, -1e308)),
}

# each takes one sign or 0/1 value, for which 1 is in range, and the values out of its own range
INTEGER_VALUE_TAKERS = {
    "FinalStateLabel sign": (lambda v: FinalStateLabel((1, v, -1)), (0, 2, -2)),
    "plus_i_state sign": (lambda v: plus_i_state((1, v)), (0, 2, -2)),
    "box_element sign": (lambda v: box_element((1, v, -1), ALL_SAME), (0, 2, -2)),
    "ValueAssignment v01": (lambda v: ValueAssignment(v, 0, 0, 0), (-1, 2)),
    "ValueAssignment v12": (lambda v: ValueAssignment(0, v, 0, 0), (-1, 2)),
    "ValueAssignment v02": (lambda v: ValueAssignment(0, 0, v, 0), (-1, 2)),
    "ValueAssignment v_all": (lambda v: ValueAssignment(0, 0, 0, v), (-1, 2)),
}


# each takes a sequence of signs
SIGN_SEQUENCE_TAKERS = {
    "FinalStateLabel": FinalStateLabel,
    "plus_i_state": plus_i_state,
    "box_element": lambda signs: box_element(signs, ALL_SAME),
}


@pytest.mark.parametrize("take", TAKERS.values(), ids=TAKERS.keys())
def test_every_index_count_and_seed_takes_integers_only(take):
    assert take(np.int64(1)) == take(1)
    for bad in (True, False, 1.0, "1", None):
        with pytest.raises(ValueError):
            take(bad)


@pytest.mark.parametrize(("take", "out_of_range"), REAL_TAKERS.values(), ids=REAL_TAKERS.keys())
def test_every_real_number_is_finite_and_in_range(take, out_of_range):
    # 2**-10 is exact in float32, so all three calls get one value
    assert take(np.float32(2**-10)) == take(np.float64(2**-10)) == take(2**-10)
    for bad in (*NEVER, *out_of_range):
        with pytest.raises(ValueError) as refused:
            take(bad)
        # an unbounded taker names no interval, which would hold the infinities it refuses
        assert "inf]" not in str(refused.value)


def test_only_a_bounded_real_number_names_an_interval():
    with pytest.raises(ValueError, match=r"^epsilon_t must be a finite real number, got nan$"):
        amplitude_table(math.nan)
    with pytest.raises(ValueError, match=r"^readout_flip_prob must be a finite real number in \[0\.0, 0\.9999999999999999\], got 1\.0$"):
        NoiseModel(1.0)


@pytest.mark.parametrize(("take", "out_of_range"), INTEGER_VALUE_TAKERS.values(), ids=INTEGER_VALUE_TAKERS.keys())
def test_every_sign_and_0_1_value_is_an_integer_in_range(take, out_of_range):
    assert take(np.int64(1)) == take(np.int8(1)) == take(1)
    for bad in (*NEVER, 1.0, np.float64(1.0), *out_of_range):
        with pytest.raises(ValueError):
            take(bad)


@pytest.mark.parametrize("take", SIGN_SEQUENCE_TAKERS.values(), ids=SIGN_SEQUENCE_TAKERS.keys())
def test_signs_that_are_not_a_sequence_raise_value_error(take):
    for bad in (5, None, 1.0, np.int64(1), np.array(1)):
        with pytest.raises(ValueError, match="signs"):
            take(bad)


def test_a_label_has_three_signs():
    for take in (FinalStateLabel, SIGN_SEQUENCE_TAKERS["box_element"]):
        for bad in ((1, -1), (1, -1, 1, 1), ()):
            with pytest.raises(ValueError, match=r"^signs must be a sequence of \+1 and -1 of length 3, got "):
                take(bad)


def test_a_box_diagonal_is_eight_integers():
    assert box_element(LABEL.signs, np.array(ALL_SAME)) == box_element(LABEL.signs, ALL_SAME)
    assert box_element(LABEL.signs, [np.int8(d) for d in ALL_SAME]) == box_element(LABEL.signs, ALL_SAME)
    for bad in (True, False, 1.0, np.float64(1.0), Fraction(1), "1", None):
        with pytest.raises(ValueError, match="^diagonal must be 8 integers"):
            box_element(LABEL.signs, [bad, *ALL_SAME[1:]])
    for bad in (ALL_SAME[:7], [*ALL_SAME, 0], [], None, 8, "10000001"):
        with pytest.raises(ValueError, match="^diagonal must be 8 integers"):
            box_element(LABEL.signs, bad)


def test_checked_sizes_are_plain_ints():
    assert type(Circuit(np.int64(2), np.uint8(1), ()).n_cbits) is int
    assert type(basis_state(np.int64(2), np.int64(3)).n_qubits) is int
    assert type(Gate.cx(np.int64(0), np.int64(1)).target) is int


def test_checked_values_are_plain_floats_and_ints():
    assert type(Gate.rx(0, np.float32(1.0)).theta) is float
    assert type(Gate.rx(0, 1).theta) is float
    assert type(NoiseModel(np.float32(0.25)).readout_flip_prob) is float
    assert {type(s) for s in FinalStateLabel(np.array([1, -1, 1])).signs} == {int}
    assert {type(v) for v in vars(ValueAssignment(*np.array([1, 1, 1, 1]))).values()} == {int}


def test_numpy_inputs_give_the_documents_of_python_values():
    noisy = sample_shots(pair_check_circuit(), 100, 5, NoiseModel(np.float32(0.25)))
    assert histogram_json(noisy) == histogram_json(sample_shots(pair_check_circuit(), 100, 5, NoiseModel(0.25)))
    assert Gate.rx(0, np.float32(1.0)) == Gate.rx(0, 1.0)
    for theta in (np.float32(0.1), np.float64(math.pi / 2), np.float64(-math.pi)):
        as_numpy = Circuit(1, 0, (Gate.rx(0, theta),))
        assert export_qasm(as_numpy) == export_qasm(Circuit(1, 0, (Gate.rx(0, float(theta)),)))
