"""The box table, the diagonals derived from it, and its exact identity check."""

import pytest

from qpigeon import boxes, hiddenvars
from qpigeon.boxes import (
    ALL_SAME_DIAGONAL,
    BOX_VALUES,
    ONE_PAIR_DIAGONAL,
    PAIR_COUNT_DIAGONAL,
    PAIRS,
    same_box_diagonal,
    verify_identities,
)
from qpigeon.hiddenvars import ValueAssignment, box_placement_values, enumeration_report


def test_rows_are_the_placements_of_the_basis_states():
    for z, row in enumerate(BOX_VALUES):
        b0, b1, b2 = z & 1, (z >> 1) & 1, (z >> 2) & 1
        assert row == (int(b0 == b1), int(b1 == b2), int(b0 == b2), int(b0 == b1 == b2))


def test_diagonals_are_the_table_columns():
    assert same_box_diagonal(0, 1) == tuple(complex(row[0]) for row in BOX_VALUES)
    assert same_box_diagonal(2, 1) == tuple(complex(row[1]) for row in BOX_VALUES)
    assert same_box_diagonal(0, 2) == tuple(complex(row[2]) for row in BOX_VALUES)
    assert ALL_SAME_DIAGONAL == (1, 0, 0, 0, 0, 0, 0, 1)
    assert PAIR_COUNT_DIAGONAL == (3, 1, 1, 1, 1, 1, 1, 3)
    assert ONE_PAIR_DIAGONAL == (0, 1, 1, 1, 1, 1, 1, 0)
    for diag in (ALL_SAME_DIAGONAL, PAIR_COUNT_DIAGONAL, ONE_PAIR_DIAGONAL, *(same_box_diagonal(*p) for p in PAIRS)):
        assert all(type(entry) is complex for entry in diag)


def test_same_box_diagonal_validation():
    for a, b in ((1, 1), (0, 3), (-1, 0)):
        with pytest.raises(ValueError):
            same_box_diagonal(a, b)


def test_identity_deviations_are_exact_zeros():
    report = verify_identities()
    assert report.passed
    assert set(report.checks.values()) == {0.0}
    assert all(type(dev) is float for dev in report.checks.values())
    assert report.spectrum == (1.0,) * 6 + (3.0,) * 2


def test_placements_are_the_table_rows():
    table = box_placement_values()
    assert set(table.values()) == {ValueAssignment(*row) for row in BOX_VALUES}
    for (b0, b1, b2), values in table.items():
        assert values == ValueAssignment(*BOX_VALUES[b0 + 2 * b1 + 4 * b2])


def test_a_wrong_row_fails_the_identities_and_the_placement_match(monkeypatch):
    # |001> claimed to have no pair together: the counting identity and the
    # spectrum break by exactly 1, and the placements gain the all-zero
    # assignment, which is not valid
    wrong = BOX_VALUES[:1] + ((0, 0, 0, 0),) + BOX_VALUES[2:]
    monkeypatch.setattr(boxes, "BOX_VALUES", wrong)
    monkeypatch.setattr(hiddenvars, "BOX_VALUES", wrong)
    report = verify_identities()
    assert not report.passed
    assert report.checks["one_pair_plus_all_same_is_identity"] == 1.0
    assert report.checks["pair_count_minus_two_all_same_is_identity"] == 1.0
    assert report.checks["pair_count_spectrum"] == 1.0
    assert report.checks["product_same01_same02_is_all_same"] == 0.0
    assert enumeration_report()["classical_placements_match_valid_set"] is False
