"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s``) and
asserts at its stated tolerance, so the suite doubles as a human-readable
verification transcript.
"""

import math
import time
from pathlib import Path

import numpy as np

from qpigeon.amplitudes import (
    ALL_SAME_SIGN,
    FinalStateLabel,
    all_labels,
    all_same_matrix_element,
    amplitude_table,
    first_order_derivative,
    pair_count_matrix_element,
    pair_matrix_element,
)
from qpigeon.boxes import ALL_SAME_DIAGONAL, ONE_PAIR_DIAGONAL, PAIR_COUNT_DIAGONAL, PAIRS, same_box_diagonal, verify_identities
from qpigeon.circuits import histogram_json, sample_shots, simulate_ideal
from qpigeon.gates import all_same_check_circuit, export_qasm, pair_check_circuit
from qpigeon.hiddenvars import (
    box_placement_values,
    pigeonhole_violation_exists,
    valid_assignments,
)
from qpigeon.operators import evolution_closed_form, evolution_series

DATA_DIR = Path(__file__).parent / "data"


def report(number, description, passed):
    print(f"criterion {number:2d} {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_01_operator_identities():
    start = time.perf_counter()
    eye = np.eye(8)
    # dense oracles of the operators, built from the boxes diagonals
    small_p = np.diag(ONE_PAIR_DIAGONAL)
    big_p = np.diag(ALL_SAME_DIAGONAL)
    count = np.diag(PAIR_COUNT_DIAGONAL)
    devs = [
        np.max(np.abs(eye - (small_p + big_p))),
        np.max(np.abs(eye - (count - 2.0 * big_p))),
    ]
    mats = [np.diag(same_box_diagonal(a, b)) for a, b in PAIRS]
    for i in range(3):
        for j in range(3):
            if i != j:
                devs.append(np.max(np.abs(mats[i] @ mats[j] - big_p)))
    elapsed = time.perf_counter() - start
    ok = max(devs) <= 1e-12 and elapsed < 1.0
    report(1, f"identities within 1e-12 (max dev {max(devs):.2e}, {elapsed * 1000:.0f} ms)", ok)


def test_criterion_02_pair_count_spectrum():
    eigs = np.array(verify_identities().spectrum)
    dev = float(np.max(np.abs(eigs - np.array([1.0] * 6 + [3.0] * 2))))
    # test-only oracle: LAPACK's eigenvalues of the dense matrix
    oracle_dev = float(np.max(np.abs(eigs - np.linalg.eigvalsh(np.diag(PAIR_COUNT_DIAGONAL)))))
    report(2, f"pair-count spectrum is six 1s and two 3s within 1e-10 (dev {dev:.2e}, "
              f"eigvalsh dev {oracle_dev:.2e})", dev <= 1e-10 and oracle_dev <= 1e-10)


def test_criterion_03_vanishing_amplitude():
    label = FinalStateLabel((1, 1, 1))
    pair_mags = [abs(pair_matrix_element(label, a, b)) for a, b in PAIRS]
    count_prob = abs(pair_count_matrix_element(label)) ** 2
    ok = max(pair_mags) <= 1e-12 and count_prob <= 1e-24
    report(3, f"all-plus transition amplitudes vanish (max {max(pair_mags):.2e}, prob {count_prob:.2e})", ok)


def test_criterion_04_matrix_element_magnitudes():
    inv_sqrt8 = 1.0 / math.sqrt(8.0)
    inv_sqrt32 = 1.0 / math.sqrt(32.0)
    pair_mags = [abs(pair_matrix_element(lab, a, b)) for lab in all_labels() for a, b in PAIRS]
    assert len(pair_mags) == 24
    pair_dev = max(min(mag, abs(mag - inv_sqrt8)) for mag in pair_mags)
    all_same_dev = max(abs(abs(all_same_matrix_element(lab)) - inv_sqrt32) for lab in all_labels())
    ok = pair_dev <= 1e-12 and all_same_dev <= 1e-12
    report(4, f"24 pair elements at 0 or 1/sqrt(8), 8 all-same at 1/sqrt(32) "
              f"(devs {pair_dev:.2e}, {all_same_dev:.2e})", ok)


def test_criterion_05_closed_form_probabilities():
    start = time.perf_counter()
    worst_gap = 0.0
    worst_sum = 0.0
    for et in np.linspace(0.0, 2.0 * math.pi, 65):
        table = amplitude_table(float(et))
        worst_gap = max(worst_gap, max(abs(r.prob_closed - r.prob_numeric) for r in table))
        worst_sum = max(worst_sum, abs(sum(r.prob_numeric for r in table) - 1.0))
        for rec in table:
            c2 = math.cos(et) ** 2
            formula = (4.0 - 3.0 * c2) / 8.0 if rec.outcome_class == ALL_SAME_SIGN else c2 / 8.0
            worst_gap = max(worst_gap, abs(rec.prob_closed - formula))
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-10 and worst_sum <= 1e-12 and elapsed < 1.0
    report(5, f"65-point grid closed vs numeric within 1e-10 (gap {worst_gap:.2e}, "
              f"sum dev {worst_sum:.2e}, {elapsed * 1000:.0f} ms)", ok)


def test_criterion_06_evolution_oracle():
    rng = np.random.default_rng(606)
    eye = np.eye(8)
    worst_gap = 0.0
    worst_unitary = 0.0
    for et in rng.uniform(-10.0, 10.0, 50):
        exact = evolution_closed_form(float(et)).matrix
        series = evolution_series(float(et)).matrix
        worst_gap = max(worst_gap, float(np.max(np.abs(exact - series))))
        for u in (exact, series):
            worst_unitary = max(worst_unitary, float(np.max(np.abs(u.conj().T @ u - eye))))
    ok = worst_gap <= 1e-10 and worst_unitary <= 1e-10
    report(6, f"closed form vs series exponential within 1e-10 at 50 couplings "
              f"(gap {worst_gap:.2e}, unitarity {worst_unitary:.2e})", ok)


def test_criterion_07_first_and_second_order():
    h = 1e-4
    slope = first_order_derivative()
    label = FinalStateLabel((1, 1, 1))
    f = lambda et: amplitude_table(et)[label.to_bits()].prob_numeric
    curvature = (f(h) - 2.0 * f(0.0) + f(-h)) / (h * h)
    ok = abs(slope) <= 1e-6 and abs(curvature - 0.75) <= 1e-4
    report(7, f"first-order slope {slope:.2e} (<= 1e-6), curvature {curvature:.6f} vs 3/4", ok)


def test_criterion_08_pair_check_ideal_distribution():
    probs = simulate_ideal(pair_check_circuit())
    eighth = [p for p in probs.values() if abs(p - 0.125) <= 1e-12]
    zeros = 0
    for bits in range(16):  # all patterns over the four measured bits
        key = "0" + format(bits, "04b")
        if key not in probs or probs[key] <= 1e-12:
            zeros += 1
    all_plus_ok = "00000" not in probs and abs(probs.get("01000", 0.0) - 0.125) <= 1e-12
    ok = len(eighth) == len(probs) == 8 and zeros == 8 and all_plus_ok
    report(8, "pair-check ideal: 8 outcomes at 1/8, 8 at 0, all-plus pigeons always "
              "flag different boxes", ok)


def test_criterion_09_all_same_check_ideal_distribution():
    probs = simulate_ideal(all_same_check_circuit())
    dev = max(abs(p - 1.0 / 32.0) for p in probs.values())
    ok = len(probs) == 32 and dev <= 1e-12
    report(9, f"all-same-check ideal: 32 outcomes at 1/32 within 1e-12 (dev {dev:.2e})", ok)


def test_criterion_10_sampling():
    start = time.perf_counter()
    circuit = pair_check_circuit()
    hist = sample_shots(circuit, 8192, seed=42)
    repeat = sample_shots(circuit, 8192, seed=42)
    elapsed = time.perf_counter() - start
    support = set(simulate_ideal(circuit))
    sigma = math.sqrt(8192 * 0.125 * 0.875)
    clean = all(key in support for key in hist.counts)
    within = max(abs(count - 1024) for count in hist.counts.values())
    identical = histogram_json(hist).encode() == histogram_json(repeat).encode()
    ok = clean and within <= 4.0 * sigma and identical and elapsed < 1.0
    report(10, f"8192-shot run: clean support, max count deviation {within} <= "
               f"{4.0 * sigma:.1f}, byte-identical repeat, {elapsed * 1000:.0f} ms", ok)


def test_criterion_11_hidden_variables():
    valid = valid_assignments()
    image = set(box_placement_values().values())
    ok = len(valid) == 4 and pigeonhole_violation_exists() is False and image == set(valid)
    report(11, "hidden variables: 4 valid assignments, no violation, classical image matches", ok)


def test_criterion_12_qasm_golden_files():
    pair_ok = export_qasm(pair_check_circuit()).encode() == (DATA_DIR / "pair_check.qasm").read_bytes()
    all_ok = export_qasm(all_same_check_circuit()).encode() == (DATA_DIR / "all_same_check.qasm").read_bytes()
    text = export_qasm(pair_check_circuit())
    lines_ok = "cx q[0],q[3];" in text and "cx q[1],q[3];" in text
    ok = pair_ok and all_ok and lines_ok
    report(12, "QASM export matches golden files byte for byte", ok)
