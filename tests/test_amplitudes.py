import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from qpigeon.amplitudes import (
    ALL_SAME_SIGN,
    ONE_MINORITY_SIGN,
    FinalStateLabel,
    all_labels,
    all_same_matrix_element,
    all_same_matrix_element_closed,
    amplitude_table,
    closed_form_probability,
    first_order_derivative,
    pair_count_matrix_element,
    pair_matrix_element,
    pair_matrix_element_closed,
)
from qpigeon.boxes import BOX_VALUES

PAIRS = ((0, 1), (0, 2), (1, 2))
INV_SQRT8 = 1.0 / math.sqrt(8.0)
INV_SQRT32 = 1.0 / math.sqrt(32.0)


def test_label_validation():
    with pytest.raises(ValueError):
        FinalStateLabel((1, 1))
    with pytest.raises(ValueError):
        FinalStateLabel((1, 0, 1))


def test_label_bits_round_trip():
    for bits in range(8):
        label = FinalStateLabel.from_bits(bits)
        assert label.to_bits() == bits
    with pytest.raises(ValueError):
        FinalStateLabel.from_bits(8)


def test_label_rendering_puts_qubit0_rightmost():
    assert str(FinalStateLabel((1, 1, 1))) == "+++"
    assert str(FinalStateLabel((-1, 1, 1))) == "++-"
    assert str(FinalStateLabel((1, 1, -1))) == "-++"


def test_all_labels_classes():
    labels = all_labels()
    assert len(labels) == len(set(labels)) == 8
    assert sum(1 for lab in labels if lab.outcome_class == ALL_SAME_SIGN) == 2
    assert sum(1 for lab in labels if lab.outcome_class == ONE_MINORITY_SIGN) == 6


def test_pair_element_vanishes_when_pair_signs_agree():
    for label in all_labels():
        for a, b in PAIRS:
            if label.signs[a] == label.signs[b]:
                assert abs(pair_matrix_element(label, a, b)) <= 1e-12
                assert pair_matrix_element_closed(label, a, b) == 0j


def test_pair_element_magnitudes_zero_or_inv_sqrt8():
    for label in all_labels():
        for a, b in PAIRS:
            mag = abs(pair_matrix_element(label, a, b))
            assert min(abs(mag - 0.0), abs(mag - INV_SQRT8)) <= 1e-12


def test_pair_element_phase_set_by_spectator_sign():
    for label in all_labels():
        for a, b in PAIRS:
            if label.signs[a] == label.signs[b]:
                continue
            spectator = 3 - a - b
            expected = cmath.exp(-1j * label.signs[spectator] * math.pi / 4.0) * INV_SQRT8
            assert abs(pair_matrix_element(label, a, b) - expected) <= 1e-12
            assert abs(pair_matrix_element_closed(label, a, b) - expected) <= 1e-15


def test_pair_element_specific_value():
    # signs (s0, s1, s2) = (-1, +1, +1), pair (0, 1): spectator is +, phase -pi/4
    label = FinalStateLabel((-1, 1, 1))
    expected = cmath.exp(-1j * math.pi / 4.0) * INV_SQRT8
    assert abs(pair_matrix_element(label, 0, 1) - expected) <= 1e-12
    # which is (1 - i)/4
    assert abs(expected - (0.25 - 0.25j)) <= 1e-15


def test_pair_element_validation():
    label = FinalStateLabel((1, 1, 1))
    with pytest.raises(ValueError):
        pair_matrix_element(label, 0, 0)
    with pytest.raises(ValueError):
        pair_matrix_element_closed(label, 0, 3)


def test_all_same_element_values():
    plus = FinalStateLabel((1, 1, 1))
    minus = FinalStateLabel((-1, -1, -1))
    assert abs(all_same_matrix_element(plus) - (0.125 + 0.125j)) <= 1e-12
    assert abs(all_same_matrix_element(minus) - (0.125 - 0.125j)) <= 1e-12
    for label in all_labels():
        numeric = all_same_matrix_element(label)
        assert abs(abs(numeric) - INV_SQRT32) <= 1e-12
        assert abs(numeric - all_same_matrix_element_closed(label)) <= 1e-12


def test_pair_count_element_is_sum_of_pair_elements():
    for label in all_labels():
        total = sum(pair_matrix_element(label, a, b) for a, b in PAIRS)
        assert abs(pair_count_matrix_element(label) - total) <= 1e-12


def test_pair_count_element_vanishes_for_all_same_labels():
    assert abs(pair_count_matrix_element(FinalStateLabel((1, 1, 1)))) <= 1e-12
    assert abs(pair_count_matrix_element(FinalStateLabel((-1, -1, -1)))) <= 1e-12


def test_conjugation_symmetry():
    for label in all_labels():
        flipped = FinalStateLabel(tuple(-s for s in label.signs))
        for a, b in PAIRS:
            lhs = pair_matrix_element(flipped, a, b)
            rhs = pair_matrix_element(label, a, b).conjugate()
            assert abs(lhs - rhs) <= 1e-12
        assert abs(all_same_matrix_element(flipped) - all_same_matrix_element(label).conjugate()) <= 1e-12


def test_transition_probability_at_zero():
    for rec in amplitude_table(0.0):
        assert abs(rec.prob_numeric - 0.125) <= 1e-12
        assert abs(rec.prob_closed - 0.125) <= 1e-15


def test_transition_probability_at_quarter_pi():
    table = amplitude_table(math.pi / 4.0)
    for rec in table:
        expected = 5.0 / 16.0 if rec.outcome_class == ALL_SAME_SIGN else 1.0 / 16.0
        assert abs(rec.prob_closed - expected) <= 1e-12
        assert abs(rec.prob_numeric - expected) <= 1e-10


def test_transition_probability_at_half_pi():
    table = amplitude_table(math.pi / 2.0)
    majority = table[FinalStateLabel((1, 1, 1)).to_bits()]
    minority = table[FinalStateLabel((-1, 1, 1)).to_bits()]
    assert abs(majority.prob_numeric - 0.5) <= 1e-12
    assert minority.prob_numeric <= 1e-12


def test_probability_ranges():
    for et in np.linspace(0.0, 2.0 * math.pi, 41):
        same = closed_form_probability(FinalStateLabel((1, 1, 1)), float(et))
        other = closed_form_probability(FinalStateLabel((-1, 1, 1)), float(et))
        assert 0.125 - 1e-15 <= same <= 0.5 + 1e-15
        assert -1e-15 <= other <= 0.125 + 1e-15


def test_table_probabilities_sum_to_one():
    rng = np.random.default_rng(123)
    for et in rng.uniform(-12.0, 12.0, 100):
        total = sum(rec.prob_numeric for rec in amplitude_table(float(et)))
        assert abs(total - 1.0) <= 1e-12


def test_closed_and_numeric_agree_on_grid():
    for et in np.linspace(0.0, 2.0 * math.pi, 65):
        for rec in amplitude_table(float(et)):
            assert abs(rec.prob_closed - rec.prob_numeric) <= 1e-10


def _mul(x, y):
    """Product of two complex numbers held as (real, imaginary) Fraction pairs."""
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _overlap(label, diagonal):
    """<label| D |uniform> = (1/8) sum_z d_z prod_{k: z_k = 1} (-i * s_k), exactly."""
    total = (Fraction(0), Fraction(0))
    for z, d in enumerate(diagonal):
        term = (Fraction(d, 8), Fraction(0))
        for k, s in enumerate(label.signs):
            if z >> k & 1:
                term = _mul(term, (Fraction(0), Fraction(-s)))
        total = (total[0] + term[0], total[1] + term[1])
    return total


def test_class_formulas_follow_from_the_table_exactly():
    # U = exp(-i*et) * (1 + (w - 1) * P_all) with w = exp(-2i*et), so the
    # probability |x + w*b|^2, x = <l|u> - b and b = <l|P_all|u>, is
    # c0 + c1*cos(2*et) + c2*sin(2*et) with c0 = |x|^2 + |b|^2 and c1 + i*c2 = 2*conj(x)*b
    for label in all_labels():
        u = _overlap(label, [1] * 8)
        b = _overlap(label, [row[3] for row in BOX_VALUES])
        x = (u[0] - b[0], u[1] - b[1])
        c0 = x[0] ** 2 + x[1] ** 2 + b[0] ** 2 + b[1] ** 2
        cross = _mul((x[0], -x[1]), b)
        coefficients = (c0, 2 * cross[0], 2 * cross[1])
        if label.outcome_class == ALL_SAME_SIGN:
            assert coefficients == (Fraction(5, 16), Fraction(-3, 16), 0)
        else:
            assert coefficients == (Fraction(1, 16), Fraction(1, 16), 0)
        for et in (-2.5, 0.0, 0.3, 1.0, math.pi / 3.0, 7.0):
            expected = float(c0) + float(coefficients[1]) * math.cos(2.0 * et)
            assert abs(closed_form_probability(label, et) - expected) <= 1e-15


def test_class_counts_in_table():
    table = amplitude_table(0.9)
    assert sum(1 for rec in table if rec.outcome_class == ALL_SAME_SIGN) == 2
    assert sum(1 for rec in table if rec.outcome_class == ONE_MINORITY_SIGN) == 6


def test_first_order_derivative_vanishes():
    assert abs(first_order_derivative()) <= 1e-6


def test_second_derivative_is_three_quarters():
    h = 1e-4
    label = FinalStateLabel((1, 1, 1))
    f = lambda et: amplitude_table(et)[label.to_bits()].prob_numeric
    second = (f(h) - 2.0 * f(0.0) + f(-h)) / (h * h)
    assert abs(second - 0.75) <= 1e-4


def test_non_finite_coupling_is_rejected():
    with pytest.raises(ValueError):
        amplitude_table(math.nan)
    with pytest.raises(ValueError):
        amplitude_table(math.inf)
