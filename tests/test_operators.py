import math

import numpy as np
import pytest

from qpigeon.boxes import ALL_SAME_DIAGONAL, ONE_PAIR_DIAGONAL, PAIR_COUNT_DIAGONAL, PAIRS, same_box_diagonal, verify_identities
from qpigeon.operators import LinearOperator, evolution_closed_form, evolution_series

# the dense matrices of the box algebra, as test oracles: each a boxes diagonal on the diagonal
SAME = [np.diag(same_box_diagonal(a, b)) for a, b in PAIRS]
ALL_SAME = np.diag(ALL_SAME_DIAGONAL)
PAIR_ONLY = [np.diag(np.subtract(same_box_diagonal(a, b), ALL_SAME_DIAGONAL)) for a, b in PAIRS]
ONE_PAIR = np.diag(ONE_PAIR_DIAGONAL)
PAIR_COUNT = np.diag(PAIR_COUNT_DIAGONAL)


def test_projector_ranks():
    # a projector's rank is its trace; the rank-2 all-same block taken from a
    # rank-4 same-box block leaves rank 2
    assert [np.trace(m) for m in SAME] == [4, 4, 4]
    assert [np.trace(m) for m in PAIR_ONLY] == [2, 2, 2]
    assert np.trace(ALL_SAME) == 2
    assert np.trace(ONE_PAIR) == 6


def test_projector_laws():
    for m in (*SAME, ALL_SAME, *PAIR_ONLY, ONE_PAIR):
        assert np.max(np.abs(m - m.conj().T)) <= 1e-12
        assert np.max(np.abs(m @ m - m)) <= 1e-12


def test_completeness_identities():
    eye = np.eye(8)
    assert np.max(np.abs(eye - (ONE_PAIR + ALL_SAME))) <= 1e-12
    assert np.max(np.abs(eye - (PAIR_COUNT - 2.0 * ALL_SAME))) <= 1e-12


def test_pairwise_products_collapse_to_all_same():
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            assert np.max(np.abs(SAME[i] @ SAME[j] - ALL_SAME)) <= 1e-12
            assert np.max(np.abs(SAME[i] @ SAME[j] - SAME[j] @ SAME[i])) <= 1e-12


def test_verify_identities_passes():
    report = verify_identities()
    assert report.passed
    assert report.tolerance == 1e-12
    assert max(report.checks.values()) <= 1e-12
    assert np.allclose(report.spectrum, [1, 1, 1, 1, 1, 1, 3, 3], atol=1e-10)
    for key in (
        "one_pair_plus_all_same_is_identity",
        "pair_count_minus_two_all_same_is_identity",
        "product_same01_same02_is_all_same",
        "idempotent_all_same",
        "pair_count_spectrum",
    ):
        assert key in report.checks


def test_verify_identities_report_round_trips_to_dict():
    report = verify_identities(tolerance=1e-10)
    data = report.to_dict()
    assert data["passed"] is True
    assert data["tolerance"] == 1e-10
    assert set(data["checks"]) == set(report.checks)


def test_linear_operator_flag_validation():
    with pytest.raises(ValueError):
        LinearOperator(np.ones((2, 3)))
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            LinearOperator(np.array([[1.0, 0.0], [0.0, bad]]))


def test_linear_operator_equality_and_hash():
    op = LinearOperator(np.diag(same_box_diagonal(0, 1)))
    same = LinearOperator(np.diag(same_box_diagonal(1, 0)))
    all_same = LinearOperator(ALL_SAME)
    assert op == same and hash(op) == hash(same)
    assert op != all_same
    assert op != LinearOperator(np.eye(4))
    zero = LinearOperator(np.zeros((2, 2)))
    assert zero != LinearOperator(-np.zeros((2, 2)))
    assert op != op.matrix.tolist()
    assert len({op, same, zero, all_same}) == 3


def test_evolution_at_zero_is_identity():
    assert np.max(np.abs(evolution_closed_form(0.0).matrix - np.eye(8))) <= 1e-12
    assert np.max(np.abs(evolution_series(0.0).matrix - np.eye(8))) <= 1e-12


def test_evolution_at_pi_is_minus_identity():
    # exp(-i*pi*count) = -count + 2*all_same = -(count - 2*all_same) = -identity
    assert np.max(np.abs(evolution_closed_form(math.pi).matrix + np.eye(8))) <= 1e-10


def test_evolution_closed_form_alternate_factorisation():
    rng = np.random.default_rng(31)
    for et in rng.uniform(-7.0, 7.0, 20):
        direct = evolution_closed_form(float(et)).matrix
        phase = np.exp(-1j * et)
        alternate = phase * (np.eye(8) + (np.exp(-2j * et) - 1.0) * ALL_SAME)
        assert np.max(np.abs(direct - alternate)) <= 1e-12


def test_evolution_unitarity():
    rng = np.random.default_rng(32)
    for et in rng.uniform(-10.0, 10.0, 50):
        for route in (evolution_closed_form, evolution_series):
            u = route(float(et)).matrix
            assert np.max(np.abs(u.conj().T @ u - np.eye(8))) <= 1e-10


def test_evolution_series_matches_closed_form():
    rng = np.random.default_rng(33)
    worst = 0.0
    for et in rng.uniform(-10.0, 10.0, 50):
        dev = np.max(np.abs(evolution_closed_form(float(et)).matrix - evolution_series(float(et)).matrix))
        worst = max(worst, float(dev))
    assert worst <= 1e-10


def test_evolution_group_property():
    u1 = evolution_closed_form(0.7).matrix
    u2 = evolution_closed_form(1.9).matrix
    combined = evolution_closed_form(2.6).matrix
    assert np.max(np.abs(u1 @ u2 - combined)) <= 1e-12


def test_evolution_rejects_non_finite():
    # 3 * 1e308 overflows, and the closed form's phase and the series'
    # generator both need it
    for bad in (1e308, -1e308, math.nan, math.inf, True, "1"):
        for route in (evolution_closed_form, evolution_series):
            with pytest.raises(ValueError, match="epsilon_t"):
                route(bad)


def test_diagonal_routes_build_no_dense_operator(monkeypatch):
    from qpigeon.amplitudes import FinalStateLabel, amplitude_table, pair_count_matrix_element

    def refuse(self):
        raise AssertionError("a dense LinearOperator was built")

    monkeypatch.setattr(LinearOperator, "__post_init__", refuse)
    assert verify_identities().passed
    assert len(amplitude_table(0.3)) == 8
    pair_count_matrix_element(FinalStateLabel((1, -1, 1)))
