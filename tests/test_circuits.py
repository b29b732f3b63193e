import json
import math
import os
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qpigeon.amplitudes import FinalStateLabel, amplitude_table
from qpigeon.circuits import (
    NoiseModel,
    ShotHistogram,
    grouped_expected,
    histogram_json,
    postselect_group,
    sample_shots,
    simulate_ideal,
)
from qpigeon.gates import (
    ALL_SAME_ANCILLA_CBITS,
    PAIR_CHECK_ANCILLA_CBITS,
    PIGEON_CBITS,
    Circuit,
    Gate,
    all_same_check_circuit,
    export_qasm,
    pair_check_circuit,
    parse_qasm,
)
from qpigeon.operators import apply_operator, same_box_projector
from qpigeon.output import write_text_atomic
from qpigeon.states import inner_product, plus_i_state, plus_state

DATA_DIR = Path(__file__).parent / "data"


def pair_check_support_oracle():
    """Expected pi-circuit distribution from projector matrix elements alone.

    The joint probability of pigeon label L and ancilla x is
    |<L| p |+++>|^2 with p the (0,1) same-box projector for x = 0 and its
    complement for x = 1, evaluated without any circuit machinery.
    """
    same01 = same_box_projector(0, 1)
    start = plus_state(3)
    kept = apply_operator(same01, start)
    expected = {}
    for bits in range(8):
        label = FinalStateLabel.from_bits(bits)
        bra = plus_i_state(label.signs)
        amp_same = inner_product(bra, kept)
        amp_diff = inner_product(bra, start) - amp_same
        for ancilla, amp in ((0, amp_same), (1, amp_diff)):
            key = f"0{ancilla}" + format(bits, "03b")
            expected[key] = abs(amp) ** 2
    return expected


def test_pair_check_circuit_shape():
    circuit = pair_check_circuit()
    assert circuit.n_qubits == 5 and circuit.n_cbits == 5
    kinds = [g.kind for g in circuit.gates if g.kind not in ("BARRIER", "MEASURE")]
    assert kinds == ["H", "H", "H", "CX", "CX", "RX", "RX", "RX"]
    measures = [(g.qubit, g.cbit) for g in circuit.gates if g.kind == "MEASURE"]
    assert measures == [(0, 0), (1, 1), (2, 2), (3, 3)]
    cx = [(g.qubit, g.target) for g in circuit.gates if g.kind == "CX"]
    assert cx == [(0, 3), (1, 3)]
    unitaries = [g for g in circuit.gates if g.kind not in ("BARRIER", "MEASURE")]
    assert len(unitaries) == 8


def test_all_same_check_circuit_shape():
    circuit = all_same_check_circuit()
    cx = [(g.qubit, g.target) for g in circuit.gates if g.kind == "CX"]
    assert cx == [(0, 3), (1, 3), (1, 4), (2, 4)]
    measures = [(g.qubit, g.cbit) for g in circuit.gates if g.kind == "MEASURE"]
    assert measures == [(q, q) for q in range(5)]
    unitaries = [g for g in circuit.gates if g.kind not in ("BARRIER", "MEASURE")]
    assert len(unitaries) == 10


def test_measurements_come_after_unitaries_in_builders():
    for circuit in (pair_check_circuit(), all_same_check_circuit()):
        kinds = [g.kind for g in circuit.gates]
        first_measure = kinds.index("MEASURE")
        assert all(k == "MEASURE" for k in kinds[first_measure:])


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(1, 1, (Gate.h(1),))
    with pytest.raises(ValueError):
        Circuit(2, 1, (Gate.cx(0, 2),))
    with pytest.raises(ValueError):
        Circuit(1, 1, (Gate.measure(0, 1),))
    with pytest.raises(ValueError):
        Circuit(2, 2, (Gate.measure(0, 0), Gate.measure(1, 0)))
    with pytest.raises(ValueError):
        Circuit(0, 0, ())


def test_noise_model_validation():
    NoiseModel(0.0)
    NoiseModel(0.999)
    with pytest.raises(ValueError):
        NoiseModel(1.0)
    with pytest.raises(ValueError):
        NoiseModel(-0.1)
    with pytest.raises(ValueError):
        NoiseModel(math.nan)


def test_simulate_empty_circuit():
    circuit = Circuit(1, 1, (Gate.measure(0, 0),))
    assert simulate_ideal(circuit) == {"0": 1.0}


def test_simulate_unmeasured_qubits_read_zero():
    # H on an unmeasured qubit must not leak into the key or the probabilities
    circuit = Circuit(2, 2, (Gate.h(1), Gate.x(0), Gate.measure(0, 0)))
    assert simulate_ideal(circuit) == {"01": pytest.approx(1.0, abs=1e-12)}


def test_pair_check_ideal_distribution_matches_projector_oracle():
    probs = simulate_ideal(pair_check_circuit())
    oracle = pair_check_support_oracle()
    support = {k for k, v in oracle.items() if v > 1e-12}
    assert set(probs) == support
    assert len(probs) == 8
    for key in support:
        assert abs(probs[key] - 0.125) <= 1e-12
        assert abs(probs[key] - oracle[key]) <= 1e-12
    for key, value in oracle.items():
        if key not in support:
            assert value <= 1e-12
            assert key not in probs


def test_pair_check_all_plus_outcome_has_ancilla_one():
    probs = simulate_ideal(pair_check_circuit())
    # pigeon bits 000 = all +i; the same-box ancilla value 0 never occurs with it
    assert "00000" not in probs
    assert abs(probs["01000"] - 0.125) <= 1e-12


def test_all_same_check_ideal_distribution_is_uniform():
    probs = simulate_ideal(all_same_check_circuit())
    assert len(probs) == 32
    for value in probs.values():
        assert abs(value - 1.0 / 32.0) <= 1e-12
    assert abs(sum(probs.values()) - 1.0) <= 1e-12


def test_pigeon_marginal_matches_amplitude_table_at_zero_coupling():
    probs = simulate_ideal(pair_check_circuit())
    marginals = {}
    for key, value in probs.items():
        marginals[key[2:]] = marginals.get(key[2:], 0.0) + value
    for rec in amplitude_table(0.0):
        pattern = format(rec.label.to_bits(), "03b")
        assert abs(marginals[pattern] - rec.prob_numeric) <= 1e-12


@pytest.mark.parametrize("builder", [pair_check_circuit, all_same_check_circuit])
def test_basis_inputs_drive_ancillas_deterministically(builder):
    # replace the Hadamard layer with X gates preparing |z>, drop the readout
    # rotations, and check the ancilla parities against plain arithmetic
    reference = builder()
    cx_gates = [g for g in reference.gates if g.kind == "CX"]
    ancilla_qubits = sorted({g.target for g in cx_gates})
    for z in range(8):
        gates = [Gate.x(q) for q in range(3) if (z >> q) & 1]
        gates += cx_gates
        gates += [Gate.measure(q, q) for q in ancilla_qubits]
        dist = simulate_ideal(Circuit(5, 5, tuple(gates)))
        assert len(dist) == 1
        key = next(iter(dist))
        bit = lambda k: (z >> k) & 1
        assert int(key[5 - 1 - 3]) == bit(0) ^ bit(1)
        if 4 in ancilla_qubits:
            assert int(key[5 - 1 - 4]) == bit(1) ^ bit(2)
            both_zero = key[5 - 1 - 3] == key[5 - 1 - 4] == "0"
            assert both_zero == (z in (0, 7))


def test_simulate_rejects_mid_circuit_measurement():
    circuit = Circuit(2, 2, (Gate.measure(0, 0), Gate.h(1), Gate.measure(1, 1)))
    with pytest.raises(NotImplementedError):
        simulate_ideal(circuit)


def test_simulate_rejects_double_measurement_of_a_qubit():
    circuit = Circuit(2, 2, (Gate.measure(0, 0), Gate.measure(0, 1)))
    with pytest.raises(NotImplementedError):
        simulate_ideal(circuit)


def random_circuit(rng):
    n = int(rng.integers(1, 6))
    gates = []
    for _ in range(int(rng.integers(1, 21))):
        kind = rng.choice(["H", "X", "RX", "CX"])
        q = int(rng.integers(n))
        if kind == "CX" and n > 1:
            t = int(rng.integers(n - 1))
            gates.append(Gate.cx(q, t if t < q else t + 1))
        elif kind == "RX":
            gates.append(Gate.rx(q, float(rng.uniform(-math.pi, math.pi))))
        elif kind == "X":
            gates.append(Gate.x(q))
        else:
            gates.append(Gate.h(q))
    measured = [q for q in range(n) if rng.random() < 0.7]
    if not measured:
        measured = [0]
    gates += [Gate.measure(q, q) for q in measured]
    return Circuit(n, n, tuple(gates))


def test_random_circuit_probabilities_sum_to_one():
    rng = np.random.default_rng(404)
    for _ in range(50):
        probs = simulate_ideal(random_circuit(rng))
        assert abs(sum(probs.values()) - 1.0) <= 1e-12


def test_sampling_is_deterministic_and_byte_identical():
    circuit = pair_check_circuit()
    first = sample_shots(circuit, 8192, seed=42)
    second = sample_shots(circuit, 8192, seed=42)
    assert first == second
    assert histogram_json(first).encode() == histogram_json(second).encode()
    assert sum(first.counts.values()) == 8192


def test_sampling_zero_probability_outcomes_stay_empty():
    hist = sample_shots(pair_check_circuit(), 8192, seed=42)
    support = set(simulate_ideal(pair_check_circuit()))
    for key in hist.counts:
        assert key in support
    for bits in range(32):
        key = format(bits, "05b")
        if key not in support:
            assert hist.counts.get(key, 0) == 0


def test_sampling_counts_within_four_sigma():
    hist = sample_shots(pair_check_circuit(), 8192, seed=42)
    sigma = math.sqrt(8192 * 0.125 * 0.875)
    for key, count in hist.counts.items():
        assert abs(count - 1024) <= 4.0 * sigma, (key, count)


@pytest.mark.parametrize("builder", [pair_check_circuit, all_same_check_circuit])
def test_large_sample_frequencies_match_ideal(builder):
    circuit = builder()
    shots = 1_000_000
    hist = sample_shots(circuit, shots, seed=10)
    probs = simulate_ideal(circuit)
    for key, p in probs.items():
        sigma = math.sqrt(shots * p * (1.0 - p))
        assert abs(hist.counts.get(key, 0) - shots * p) <= 4.0 * sigma, key


def test_readout_noise_populates_forbidden_outcomes():
    circuit = pair_check_circuit()
    hist = sample_shots(circuit, 8192, seed=42, noise=NoiseModel(0.05))
    support = set(simulate_ideal(circuit))
    spilled = sum(count for key, count in hist.counts.items() if key not in support)
    assert spilled > 0
    assert sum(hist.counts.values()) == 8192
    # noise never touches the unmeasured classical bit
    assert all(key[0] == "0" for key in hist.counts)


def test_zero_noise_equals_no_noise():
    circuit = pair_check_circuit()
    assert sample_shots(circuit, 512, seed=3, noise=NoiseModel(0.0)).counts == \
        sample_shots(circuit, 512, seed=3).counts


def test_sampling_memory_is_bounded():
    # the working set is O(CHUNK) shots, so 20x the shots must not grow the peak
    def peak_bytes(shots):
        tracemalloc.start()
        try:
            sample_shots(all_same_check_circuit(), shots, 1, NoiseModel(0.02))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak_bytes(10**5), peak_bytes(2 * 10**6)
    assert large < 16 * 2**20
    assert abs(large - small) < 2 * 2**20


def test_sampling_memory_is_no_more_than_the_ideal_distributions():
    # 2**18 outcomes: the sampler holds a support index or a pattern per
    # outcome and its tally, never a second key table or a running merge
    n = 18
    circuit = Circuit(n, n, tuple([Gate.h(q) for q in range(n)] + [Gate.measure(q, q) for q in range(n)]))

    def peak_bytes(run, *args):
        tracemalloc.start()
        try:
            run(circuit, *args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ideal = peak_bytes(simulate_ideal)
    for noise in (None, NoiseModel(0.1)):
        assert peak_bytes(sample_shots, 3 * 10**5, 1, noise) < ideal + 4 * 2**20


def test_noisy_sampling_of_a_circuit_without_classical_bits():
    circuit = Circuit(1, 0, (Gate.h(0),))
    assert sample_shots(circuit, 10, 1).counts == {"": 10}
    assert sample_shots(circuit, 10, 1, NoiseModel(0.1)).counts == {"": 10}


def test_simulate_ideal_memory_is_the_work_buffer_and_a_half_size_probability_array():
    # 18 qubits: 4 MiB of amplitudes, a 0.5 MiB scratch while the gates
    # run, then |amplitudes| squared in place into 2 MiB; not a fresh state
    # per gate
    gates = (Gate.h(0), Gate.rx(5, 0.7), Gate.cx(0, 17), Gate.x(3))
    circuit = Circuit(18, 5, gates + tuple(Gate.measure(q, q) for q in range(5)))
    tracemalloc.start()
    try:
        simulate_ideal(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20


def test_simulate_ideal_rejects_registers_above_the_qubit_cap():
    with pytest.raises(ValueError):
        simulate_ideal(Circuit(25, 1, (Gate.h(0), Gate.measure(0, 0))))


def test_noisy_sampling_of_a_register_of_70_classical_bits():
    # the same circuit with its cbits spread over 70 bits in the same order:
    # the same outcome order and the same flips in ascending cbit order
    cbit_map = {0: 3, 2: 40, 4: 69}
    unitaries = (Gate.h(0), Gate.rx(1, 0.7), Gate.cx(0, 2), Gate.h(2))
    small = Circuit(3, 5, unitaries + (Gate.measure(0, 4), Gate.measure(1, 0), Gate.measure(2, 2)))
    wide = Circuit(3, 70, unitaries + tuple(Gate.measure(g.qubit, cbit_map[g.cbit]) for g in small.gates[4:]))

    def widen(key):
        chars = ["0"] * 70
        for cbit, wide_cbit in cbit_map.items():
            chars[69 - wide_cbit] = key[4 - cbit]
        return "".join(chars)

    for noise in (None, NoiseModel(0.1), NoiseModel(0.5)):
        expected = {widen(k): v for k, v in sample_shots(small, 3 * 10**4, 7, noise).counts.items()}
        assert sample_shots(wide, 3 * 10**4, 7, noise).counts == expected


def test_sample_validation():
    circuit = pair_check_circuit()
    with pytest.raises(ValueError):
        sample_shots(circuit, 0, seed=1)
    with pytest.raises(ValueError):
        sample_shots(circuit, 10, seed=-1)
    with pytest.raises(ValueError):
        sample_shots(circuit, 10, seed=2**64)


def test_postselect_group_on_ideal_pair_check_histogram():
    hist = sample_shots(pair_check_circuit(), 8192, seed=42)
    groups = postselect_group(hist, PIGEON_CBITS, PAIR_CHECK_ANCILLA_CBITS)
    assert [g.pigeon_pattern for g in groups] == sorted(format(b, "03b") for b in range(8))
    for group in groups:
        assert len(group.ancilla_counts) == 1
        assert group.total == sum(group.ancilla_counts.values())
    assert sum(g.total for g in groups) == 8192


def test_postselect_group_on_all_same_histogram():
    hist = sample_shots(all_same_check_circuit(), 32000, seed=5)
    groups = postselect_group(hist, PIGEON_CBITS, ALL_SAME_ANCILLA_CBITS)
    assert len(groups) == 8
    for group in groups:
        assert set(group.ancilla_counts) == {"00", "01", "10", "11"}


def test_postselect_group_empty_histogram():
    empty = ShotHistogram(counts={}, shots=0, seed=0)
    assert postselect_group(empty, PIGEON_CBITS, PAIR_CHECK_ANCILLA_CBITS) == []


def test_postselect_group_rejects_overlap():
    hist = ShotHistogram(counts={"000": 1}, shots=1, seed=0)
    with pytest.raises(ValueError):
        postselect_group(hist, (0, 1), (1, 2))
    with pytest.raises(ValueError):
        postselect_group(hist, (), (1,))


def test_postselect_group_rejects_out_of_range_bits():
    hist = ShotHistogram(counts={"000": 1}, shots=1, seed=0)
    with pytest.raises(ValueError):
        postselect_group(hist, (0, 1), (5,))


def test_grouped_expected_on_pair_check():
    probs = simulate_ideal(pair_check_circuit())
    expected = grouped_expected(probs, PIGEON_CBITS, PAIR_CHECK_ANCILLA_CBITS)
    assert len(expected) == 8
    assert all(abs(p - 0.125) <= 1e-12 for p in expected.values())
    assert expected[("000", "1")] == pytest.approx(0.125, abs=1e-12)
    assert ("000", "0") not in expected


def test_qasm_golden_files():
    for builder, name in (
        (pair_check_circuit, "pair_check.qasm"),
        (all_same_check_circuit, "all_same_check.qasm"),
    ):
        golden = (DATA_DIR / name).read_bytes()
        assert export_qasm(builder()).encode() == golden


def test_qasm_contains_parity_fold_lines_in_order():
    text = export_qasm(pair_check_circuit())
    first = text.index("cx q[0],q[3];")
    second = text.index("cx q[1],q[3];")
    assert 0 < first < second


def test_qasm_empty_circuit_is_header_only():
    text = export_qasm(Circuit(1, 1, ()))
    assert text == 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[1];\n'


def test_qasm_round_trip():
    for circuit in (pair_check_circuit(), all_same_check_circuit()):
        assert parse_qasm(export_qasm(circuit)) == circuit
    mixed = Circuit(3, 2, (Gate.x(2), Gate.rx(0, 0.375), Gate.barrier(), Gate.measure(0, 1)))
    assert parse_qasm(export_qasm(mixed)) == mixed


def test_qasm_round_trip_ignores_whitespace_and_comments():
    text = export_qasm(pair_check_circuit())
    noisy = text.replace("\n", "\n\n").replace("cx q[0],q[3];", "cx  q[0] , q[3];  // fold parity")
    assert parse_qasm(noisy) == pair_check_circuit()


def test_qasm_parse_rejects_unknown_input():
    with pytest.raises(ValueError):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\ncz q[0],q[1];")
    with pytest.raises(ValueError):
        parse_qasm("OPENQASM 3.0;\nqreg q[1];\ncreg c[1];")
    with pytest.raises(ValueError):
        parse_qasm("h q[0];")
    # one malformed statement per gate kind: a statement pattern that matches
    # too much would let one of them through
    for statement in ("h q", "x q[]", "rx q[0]", "rx(pi/3) q[0]", "cx q[0]", "barrier",
                      "measure q[0] c[0]", "h q[0] extra"):
        with pytest.raises(ValueError):
            parse_qasm(f"OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n{statement};")


def test_histogram_json_schema():
    hist = ShotHistogram(counts={"01": 3, "00": 5}, shots=8, seed=9, noise=NoiseModel(0.25))
    payload = json.loads(histogram_json(hist))
    assert payload == {
        "shots": 8,
        "seed": 9,
        "noise": {"readout_flip_prob": 0.25},
        "counts": {"00": 5, "01": 3},
    }
    assert list(payload["counts"]) == ["00", "01"]


def test_write_text_atomic(tmp_path):
    target = tmp_path / "out.csv"
    write_text_atomic(str(target), "a,b\n1,2\n")
    assert target.read_text() == "a,b\n1,2\n"
    write_text_atomic(str(target), "replaced\n")
    assert target.read_text() == "replaced\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_write_text_atomic_honours_umask(tmp_path):
    target = tmp_path / "out.csv"
    previous = os.umask(0o022)
    try:
        write_text_atomic(str(target), "a,b\n")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(target.stat().st_mode) == 0o644


@pytest.mark.skipif(not hasattr(os, "O_DIRECTORY"), reason="directories cannot be opened for fsync here")
def test_write_text_atomic_syncs_the_file_then_its_directory(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced.append((fd, stat.S_ISDIR(os.fstat(fd).st_mode)))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    write_text_atomic(str(tmp_path / "out.csv"), "a,b\n")
    assert [is_dir for _, is_dir in synced] == [False, True]
    for fd, _ in synced:
        with pytest.raises(OSError):
            os.fstat(fd)


def test_histogram_keys_have_register_width():
    for builder in (pair_check_circuit, all_same_check_circuit):
        hist = sample_shots(builder(), 256, seed=0)
        assert all(len(key) == 5 and set(key) <= {"0", "1"} for key in hist.counts)
