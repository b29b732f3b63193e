"""Exact state-vector toolkit for the three-pigeon, two-box pre/post-selection experiment.

The package covers the full chain: projector algebra on the three-qubit box
space, closed-form and series time evolution, transition amplitudes to the
circular readout basis, five-qubit ancilla circuits with an exact simulator
and a reproducible sampler, OpenQASM 2.0 export, and the exhaustive
hidden-variable enumeration that closes the classical loophole.
"""

import importlib

__version__ = "0.1.0"

# each public name and its home module, imported on first use of the name; numpy
# loads only with states, circuits or operators
_HOMES = {
    "ALL_SAME_ANCILLA_CBITS": "gates",
    "ALL_SAME_SIGN": "amplitudes",
    "AmplitudeRecord": "amplitudes",
    "CONSTRAINT_NAMES": "hiddenvars",
    "Circuit": "gates",
    "FinalStateLabel": "amplitudes",
    "Gate": "gates",
    "IdentityReport": "boxes",
    "LinearOperator": "operators",
    "MAX_QUBITS": "states",
    "NoiseModel": "circuits",
    "ONE_MINORITY_SIGN": "amplitudes",
    "OutcomeGroup": "circuits",
    "PAIRS": "boxes",
    "PAIR_CHECK_ANCILLA_CBITS": "gates",
    "PHASE_CONVENTION": "amplitudes",
    "PIGEON_CBITS": "gates",
    "ShotHistogram": "circuits",
    "StateVector": "states",
    "ValueAssignment": "hiddenvars",
    "all_labels": "amplitudes",
    "all_same_box_projector": "operators",
    "all_same_check_circuit": "gates",
    "all_same_matrix_element": "amplitudes",
    "all_same_matrix_element_closed": "amplitudes",
    "amplitude_table": "amplitudes",
    "apply_gate": "states",
    "apply_operator": "operators",
    "basis_state": "states",
    "box_placement_values": "hiddenvars",
    "closed_form_probability": "amplitudes",
    "enumerate_assignments": "hiddenvars",
    "enumeration_report": "hiddenvars",
    "evolution_closed_form": "operators",
    "evolution_diagonal": "boxes",
    "evolution_series": "operators",
    "export_qasm": "gates",
    "first_order_derivative": "amplitudes",
    "grouped_expected": "circuits",
    "histogram_json": "circuits",
    "inner_product": "states",
    "label_state": "amplitudes",
    "one_pair_projector": "operators",
    "operator_rank": "operators",
    "pair_check_circuit": "gates",
    "pair_count_matrix_element": "amplitudes",
    "pair_matrix_element": "amplitudes",
    "pair_matrix_element_closed": "amplitudes",
    "pair_only_projector": "operators",
    "parse_qasm": "gates",
    "pigeonhole_violation_exists": "hiddenvars",
    "plus_i_state": "states",
    "plus_state": "states",
    "postselect_group": "circuits",
    "same_box_projector": "operators",
    "sample_shots": "circuits",
    "shared_pair_count": "operators",
    "simulate_ideal": "circuits",
    "transition_probability": "amplitudes",
    "valid_assignments": "hiddenvars",
    "verify_identities": "boxes",
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
