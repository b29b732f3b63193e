import math

import numpy as np
import pytest

from qpigeon.boxes import PAIRS, verify_identities
from qpigeon.operators import (
    LinearOperator,
    all_same_box_projector,
    apply_operator,
    evolution_closed_form,
    evolution_series,
    one_pair_projector,
    operator_rank,
    pair_only_projector,
    same_box_projector,
    shared_pair_count,
)
from qpigeon.states import basis_state, plus_state


def test_same_box_projector_action_on_basis_states():
    proj = same_box_projector(0, 1)
    kept = apply_operator(proj, basis_state(3, 0))
    assert np.array_equal(kept.amps, basis_state(3, 0).amps)
    dropped = apply_operator(proj, basis_state(3, 1))
    assert np.all(dropped.amps == 0)
    assert dropped.norm_sq == 0.0


def test_same_box_projector_traces():
    for a, b in PAIRS:
        assert abs(np.trace(same_box_projector(a, b).matrix) - 4.0) < 1e-12


def test_same_box_projector_argument_order_is_irrelevant():
    assert np.array_equal(same_box_projector(2, 0).matrix, same_box_projector(0, 2).matrix)


def test_same_box_projector_validation():
    with pytest.raises(ValueError):
        same_box_projector(1, 1)
    with pytest.raises(ValueError):
        same_box_projector(0, 3)


def test_all_same_box_projector_entries():
    m = all_same_box_projector().matrix
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = expected[7, 7] = 1.0
    assert np.array_equal(m, expected)


def test_pair_only_projector_action():
    proj = pair_only_projector(0, 1)
    # pigeons 0 and 1 share, pigeon 2 sits apart
    kept = apply_operator(proj, basis_state(3, 4))
    assert np.array_equal(kept.amps, basis_state(3, 4).amps)
    # all three together is excluded
    assert np.all(apply_operator(proj, basis_state(3, 7)).amps == 0)
    # pigeons 0 and 1 apart is excluded
    assert np.all(apply_operator(proj, basis_state(3, 1)).amps == 0)


def test_projector_ranks():
    assert operator_rank(same_box_projector(0, 1)) == 4
    assert operator_rank(all_same_box_projector()) == 2
    # subtracting the rank-2 all-same block from a rank-4 block leaves rank 2
    for a, b in PAIRS:
        assert operator_rank(pair_only_projector(a, b)) == 2
    assert operator_rank(one_pair_projector()) == 6


def test_operator_rank_requires_projector_flag():
    with pytest.raises(ValueError):
        operator_rank(shared_pair_count())


def test_projector_laws():
    for op in (
        same_box_projector(0, 1),
        same_box_projector(1, 2),
        same_box_projector(0, 2),
        all_same_box_projector(),
        pair_only_projector(0, 1),
        one_pair_projector(),
    ):
        m = op.matrix
        assert np.max(np.abs(m - m.conj().T)) <= 1e-12
        assert np.max(np.abs(m @ m - m)) <= 1e-12


def test_completeness_identities():
    eye = np.eye(8)
    total = one_pair_projector().matrix + all_same_box_projector().matrix
    assert np.max(np.abs(eye - total)) <= 1e-12
    counting = shared_pair_count().matrix - 2.0 * all_same_box_projector().matrix
    assert np.max(np.abs(eye - counting)) <= 1e-12


def test_pairwise_products_collapse_to_all_same():
    big_p = all_same_box_projector().matrix
    mats = [same_box_projector(a, b).matrix for a, b in PAIRS]
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            assert np.max(np.abs(mats[i] @ mats[j] - big_p)) <= 1e-12
            assert np.max(np.abs(mats[i] @ mats[j] - mats[j] @ mats[i])) <= 1e-12


def test_shared_pair_count_counts_pairs():
    diag = np.diag(shared_pair_count().matrix).real
    # |000> and |111> have all three pairs together, every other state one pair
    assert np.array_equal(diag, [3, 1, 1, 1, 1, 1, 1, 3])


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


def test_verify_identities_rejects_bad_tolerance():
    for tolerance in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            verify_identities(tolerance=tolerance)


def test_linear_operator_flag_validation():
    with pytest.raises(ValueError):
        LinearOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), is_hermitian=True)
    with pytest.raises(ValueError):
        LinearOperator(np.eye(2) * 2.0, is_hermitian=True, is_projector=True)
    with pytest.raises(ValueError):
        LinearOperator(np.eye(2), is_projector=True)  # projector implies hermitian flag
    with pytest.raises(ValueError):
        LinearOperator(np.ones((2, 3)))


def test_apply_operator_keeps_projection_norm():
    projected = apply_operator(all_same_box_projector(), plus_state(3))
    assert abs(projected.norm_sq - 0.25) < 1e-12


def test_apply_operator_dim_mismatch():
    with pytest.raises(ValueError):
        apply_operator(all_same_box_projector(), basis_state(2, 0))


def test_evolution_at_zero_is_identity():
    assert np.max(np.abs(evolution_closed_form(0.0).matrix - np.eye(8))) <= 1e-12
    assert np.max(np.abs(evolution_series(0.0).matrix - np.eye(8))) <= 1e-12


def test_evolution_at_pi_is_minus_identity():
    # exp(-i*pi*count) = -count + 2*all_same = -(count - 2*all_same) = -identity
    assert np.max(np.abs(evolution_closed_form(math.pi).matrix + np.eye(8))) <= 1e-10


def test_evolution_closed_form_alternate_factorisation():
    rng = np.random.default_rng(31)
    big_p = all_same_box_projector().matrix
    for et in rng.uniform(-7.0, 7.0, 20):
        direct = evolution_closed_form(float(et)).matrix
        phase = np.exp(-1j * et)
        alternate = phase * (np.eye(8) + (np.exp(-2j * et) - 1.0) * big_p)
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
    with pytest.raises(ValueError):
        evolution_closed_form(math.nan)
    with pytest.raises(ValueError):
        evolution_series(math.inf)


def test_diagonal_routes_build_no_dense_operator(monkeypatch):
    from qpigeon.amplitudes import FinalStateLabel, amplitude_table, pair_count_matrix_element

    def refuse(self):
        raise AssertionError("a dense LinearOperator was built")

    monkeypatch.setattr(LinearOperator, "__post_init__", refuse)
    assert verify_identities().passed
    assert len(amplitude_table(0.3)) == 8
    pair_count_matrix_element(FinalStateLabel((1, -1, 1)))
