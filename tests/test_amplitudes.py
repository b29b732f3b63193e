import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from qpigeon.amplitudes import (
    ALL_SAME_SIGN,
    ONE_MINORITY_SIGN,
    PHASE_CONVENTION,
    FinalStateLabel,
    _ket,
    _matrix_element,
    all_labels,
    amplitude_table,
    closed_form_probability,
    first_order_derivative,
)
from qpigeon.boxes import ALL_SAME_DIAGONAL, BOX_VALUES, PAIR_COUNT_DIAGONAL, PAIRS, box_element, same_box_diagonal

INV_SQRT8 = 1.0 / math.sqrt(8.0)

# the BOX_VALUES column of each pair's same-box value, the all-same column and the pair count
SAME = {(0, 1): [row[0] for row in BOX_VALUES], (1, 2): [row[1] for row in BOX_VALUES], (0, 2): [row[2] for row in BOX_VALUES]}
ALL_SAME = [row[3] for row in BOX_VALUES]
PAIR_COUNT = [sum(row[:3]) for row in BOX_VALUES]


def element(label, diagonal) -> complex:
    """box_element of a label as the complex number it rounds to."""
    real, imag = box_element(label.signs, diagonal)
    return complex(real, imag)


def prob(label, diagonal) -> Fraction:
    real, imag = box_element(label.signs, diagonal)
    return real**2 + imag**2


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
                assert box_element(label.signs, SAME[a, b]) == (0, 0)


def test_pair_element_magnitudes_zero_or_inv_sqrt8():
    for label in all_labels():
        for a, b in PAIRS:
            assert prob(label, SAME[a, b]) == (0 if label.signs[a] == label.signs[b] else Fraction(1, 8))


def test_pair_element_phase_set_by_spectator_sign():
    # PHASE_CONVENTION's pair rule, on all 24 pair elements
    assert PHASE_CONVENTION.startswith("pair element phase exp(-i*s_c*pi/4) set by the spectator sign s_c when the pair signs differ")
    for label in all_labels():
        for a, b in PAIRS:
            if label.signs[a] == label.signs[b]:
                assert element(label, SAME[a, b]) == 0j
                continue
            spectator = 3 - a - b
            expected = cmath.exp(-1j * label.signs[spectator] * math.pi / 4.0) * INV_SQRT8
            assert abs(element(label, SAME[a, b]) - expected) <= 1e-16
            # exp(-i*s*pi/4)/sqrt(8) is exactly (1 - i*s)/4
            assert box_element(label.signs, SAME[a, b]) == (Fraction(1, 4), Fraction(-label.signs[spectator], 4))
            assert element(label, SAME[a, b]) == complex(1, -label.signs[spectator]) / 4


def test_pair_element_specific_value():
    # signs (s0, s1, s2) = (-1, +1, +1), pair (0, 1): spectator is +, phase -pi/4
    label = FinalStateLabel((-1, 1, 1))
    expected = cmath.exp(-1j * math.pi / 4.0) * INV_SQRT8
    assert abs(element(label, SAME[0, 1]) - expected) <= 1e-16
    # which is (1 - i)/4
    assert box_element(label.signs, SAME[0, 1]) == (Fraction(1, 4), Fraction(-1, 4))


def test_pair_element_validation():
    # the exact element takes the integer columns, never the complex diagonals of the float route
    for diagonal in (same_box_diagonal(0, 1), ALL_SAME_DIAGONAL, PAIR_COUNT_DIAGONAL):
        with pytest.raises(ValueError, match="diagonal"):
            box_element((1, 1, 1), diagonal)


def test_all_same_element_values():
    # PHASE_CONVENTION's all-same rule, on all 8 all-same elements
    assert PHASE_CONVENTION.endswith("all-same element phase exp(+i*pi/4) for an even number of minus signs, exp(-i*pi/4) for odd")
    assert box_element((1, 1, 1), ALL_SAME) == (Fraction(1, 8), Fraction(1, 8))
    assert box_element((-1, -1, -1), ALL_SAME) == (Fraction(1, 8), Fraction(-1, 8))
    for label in all_labels():
        assert prob(label, ALL_SAME) == Fraction(1, 32)
        # exp(+-i*pi/4)/sqrt(32) is exactly (1 +- i)/8: + for an even number of minus signs
        parity = (-1) ** label.signs.count(-1)
        assert box_element(label.signs, ALL_SAME) == (Fraction(1, 8), Fraction(parity, 8))
        assert element(label, ALL_SAME) == complex(1, parity) / 8
        assert abs(element(label, ALL_SAME) - cmath.exp(1j * parity * math.pi / 4.0) / math.sqrt(32.0)) <= 1e-16


def test_pair_count_element_is_sum_of_pair_elements():
    for label in all_labels():
        parts = [box_element(label.signs, SAME[pair]) for pair in PAIRS]
        assert box_element(label.signs, PAIR_COUNT) == (sum(p[0] for p in parts), sum(p[1] for p in parts))


def test_pair_count_element_vanishes_for_all_same_labels():
    assert box_element((1, 1, 1), PAIR_COUNT) == (0, 0)
    assert box_element((-1, -1, -1), PAIR_COUNT) == (0, 0)


def test_conjugation_symmetry():
    for label in all_labels():
        flipped = tuple(-s for s in label.signs)
        for diagonal in (*SAME.values(), ALL_SAME, PAIR_COUNT):
            real, imag = box_element(label.signs, diagonal)
            assert box_element(flipped, diagonal) == (real, -imag)


def test_float_route_is_within_rounding_of_the_exact_element():
    # the route amplitude_table takes, on the diagonals it was checked with;
    # the largest gap measured is 3.14e-16
    routes = [(same_box_diagonal(*pair), SAME[pair]) for pair in PAIRS]
    routes += [(ALL_SAME_DIAGONAL, ALL_SAME), (PAIR_COUNT_DIAGONAL, PAIR_COUNT)]
    for label in all_labels():
        for floats, integers in routes:
            assert abs(_matrix_element(label, _ket(floats)) - element(label, integers)) <= 4e-16


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


def test_class_formulas_follow_from_the_table_exactly():
    # U = exp(-i*et) * (1 + (w - 1) * P_all) with w = exp(-2i*et), so the
    # probability |x + w*b|^2, x = <l|u> - b and b = <l|P_all|u>, is
    # c0 + c1*cos(2*et) + c2*sin(2*et) with c0 = |x|^2 + |b|^2 and c1 + i*c2 = 2*conj(x)*b
    for label in all_labels():
        u = box_element(label.signs, [1] * 8)
        b = box_element(label.signs, ALL_SAME)
        x = (u[0] - b[0], u[1] - b[1])
        c0 = x[0] ** 2 + x[1] ** 2 + b[0] ** 2 + b[1] ** 2
        coefficients = (c0, 2 * (x[0] * b[0] + x[1] * b[1]), 2 * (x[0] * b[1] - x[1] * b[0]))
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
