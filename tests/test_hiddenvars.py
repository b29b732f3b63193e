from itertools import permutations, product

from qpigeon.boxes import BOX_VALUES, relation_residuals
from qpigeon.hiddenvars import (
    CONSTRAINT_NAMES,
    COUNTING,
    ValueAssignment,
    box_placement_values,
    enumerate_assignments,
    enumeration_report,
    pigeonhole_violation_exists,
    valid_assignments,
)

VALID_SET = {
    ValueAssignment(1, 1, 1, 1),
    ValueAssignment(1, 0, 0, 0),
    ValueAssignment(0, 1, 0, 0),
    ValueAssignment(0, 0, 1, 0),
}


def test_enumeration_covers_all_sixteen_candidates():
    candidates = enumerate_assignments()
    assert len(candidates) == len(set(candidates)) == 16


def test_all_zero_assignment_fails_the_counting_identity():
    zero = ValueAssignment(0, 0, 0, 0)
    results = zero.constraint_results()
    assert results[COUNTING] is False
    assert all(results[name] for name in CONSTRAINT_NAMES if name != COUNTING)
    assert not zero.valid


def test_all_one_assignment_is_valid():
    assert ValueAssignment(1, 1, 1, 1).valid


def test_exactly_four_valid_assignments():
    assert set(valid_assignments()) == VALID_SET


def test_valid_set_is_permutation_symmetric():
    # relabelling pigeons permutes (v01, v12, v02); the valid set must not move
    for perm in permutations(range(3)):
        permuted = {
            ValueAssignment(*(v[i] for i in perm), v_all)
            for (*v, v_all) in ((a.v01, a.v12, a.v02, a.v_all) for a in VALID_SET)
        }
        assert permuted == VALID_SET


def test_spectrum_echo():
    for assignment in valid_assignments():
        assert assignment.pair_count_value in (1, 3)
        assert assignment.v_all == (assignment.pair_count_value - 1) // 2


def test_no_pigeonhole_violation():
    assert pigeonhole_violation_exists() is False


def test_dropping_the_counting_identity_opens_the_loophole():
    assert pigeonhole_violation_exists(require_counting=False) is True
    survivors = valid_assignments(require_counting=False)
    assert ValueAssignment(0, 0, 0, 0) in survivors


def test_the_relations_alone_select_the_placements():
    # the paper's point on the table: the operator relations, read on values,
    # leave exactly the classical placements; the counting form closes the loophole
    rows = list(product((0, 1), repeat=4))
    residuals = {row: relation_residuals(row) for row in rows}
    trivial = {name for name in residuals[rows[0]] if all(res[name] == 0 for res in residuals.values())}
    assert trivial == {
        "commutator_same01_same02",
        "commutator_same01_same12",
        "commutator_same02_same12",
        "idempotent_same01",
        "idempotent_same02",
        "idempotent_same12",
        "idempotent_all_same",
    }
    assert len(residuals[rows[0]]) - len(trivial) == 9
    assert {row for row, res in residuals.items() if not any(res.values())} == set(BOX_VALUES)
    assert len(set(BOX_VALUES)) == 4
    counting = {"one_pair_plus_all_same_is_identity", "pair_count_minus_two_all_same_is_identity"}
    without_counting = {
        row for row, res in residuals.items() if not any(value for name, value in res.items() if name not in counting)
    }
    assert without_counting == set(BOX_VALUES) | {(0, 0, 0, 0)}


def test_box_placement_examples():
    table = box_placement_values()
    assert len(table) == 8
    assert table[(0, 0, 0)] == ValueAssignment(1, 1, 1, 1)
    assert table[(1, 1, 1)] == ValueAssignment(1, 1, 1, 1)
    assert table[(0, 1, 1)] == ValueAssignment(0, 1, 0, 0)


def test_classical_placements_induce_exactly_the_valid_set():
    assert set(box_placement_values().values()) == set(valid_assignments())


def test_derived_pair_only_values():
    one_pair = ValueAssignment(1, 0, 0, 0)
    assert one_pair.derived_pair_only_values() == {"p01": 1, "p12": 0, "p02": 0}
    all_same = ValueAssignment(1, 1, 1, 1)
    assert all_same.derived_pair_only_values() == {"p01": 0, "p12": 0, "p02": 0}


def test_report_shape():
    report = enumeration_report()
    assert len(report["candidates"]) == 16
    assert len(report["valid"]) == 4
    assert report["violation_exists"] is False
    assert report["classical_placements_match_valid_set"] is True
    for cand in report["candidates"]:
        assert set(cand["constraints"]) == set(CONSTRAINT_NAMES)
