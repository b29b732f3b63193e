"""The four benchmark workloads: seeded inputs, one op each, and that op's output check.

Each workload is built from the benchmark seed alone and generates its inputs
as a deterministic stream, so op ``i`` of a given seed always gets the same
inputs.  ``op(i, tracer)`` runs one op and raises when the program raises or
an output check fails; the caller counts either as a failed op.  Every call
into a qpigeon module goes through ``tracer.call`` under the name
``<module>.<function>``, which is how the traced run splits time by module.

``tiny=True`` shrinks every input so the self-test can run each workload in
well under a second.

``python3 perfbench/workloads.py > perfbench/reference.json`` records the
reference digests from the program as it is; reference.json was written so
at the seed commit.
"""

import hashlib
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE_PATH = os.path.join(ROOT, "perfbench", "reference.json")

# The README's "Reproducing the headline results" table, in order, as
# (short key, argv after the ``qpigeon`` program name).
README_COMMANDS = (
    ("identities", "identities"),
    ("amplitudes", "amplitudes --epsilon-t 0:6.2832:65 --format csv"),
    ("qasm_pi", "qasm --circuit pi"),
    ("qasm_p", "qasm --circuit p"),
    ("sample_pi", "sample --circuit pi --shots 8192 --seed 42 --group --format csv"),
    ("sample_p", "sample --circuit p --shots 8192 --seed 42 --group --format csv"),
    ("hiddenvars", "hiddenvars"),
)


# Seeds of the noisy sample_shots calls, whose histograms have recorded digests.
NOISY_SEEDS = tuple(range(1, 17))
NOISE = 0.02
SHOTS, TINY_SHOTS = 10**6, 10**4


class CheckFailed(Exception):
    """An op ran but its output was wrong."""


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference(section="stdout_sha256") -> dict:
    """Digests recorded at the seed commit: README command stdout, or noisy histograms."""
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)[section]


def counts_sha256(hist) -> str:
    return sha256(json.dumps(hist.counts, sort_keys=True).encode())


def cli_env() -> dict:
    # no ``qpigeon`` entry point is assumed installed; run the package from source
    return dict(os.environ, PYTHONPATH="src")


class CliHeadline:
    """Op: the next README command, verbatim, as a fresh ``python -m qpigeon.cli`` process.

    The commands are fixed by the README, so the seed changes nothing here.
    Check: exit code 0 and stdout matching the recorded digest.
    """

    name = "cli_headline"
    cycle = 7
    warmup = 1
    children_rss = True

    def __init__(self, seed, tiny=False, reference=None):
        self.reference = load_reference() if reference is None else reference
        self.env = cli_env()

    def op(self, i, tracer):
        key, command = README_COMMANDS[i % len(README_COMMANDS)]
        argv = [sys.executable, "-m", "qpigeon.cli", *command.split()]
        proc = tracer.call(f"cli.subprocess.{key}", subprocess.run, argv,
                           env=self.env, cwd=ROOT, capture_output=True, timeout=60)
        check(proc.returncode == 0, f"{key}: exit code {proc.returncode}")
        check(sha256(proc.stdout) == self.reference[key], f"{key}: stdout digest differs from reference")


class CouplingSweep:
    """Op: 17 couplings on a seed-jittered grid over [0, 2pi), plus one identity check.

    Per coupling: ``amplitude_table`` against the closed forms computed here,
    and ``evolution_closed_form`` against ``evolution_series``.
    """

    name = "coupling_sweep"
    cycle = 1
    warmup = 1
    children_rss = False

    def __init__(self, seed, tiny=False):
        import numpy as np
        from qpigeon import amplitudes, operators

        self.np, self.amplitudes, self.operators = np, amplitudes, operators
        self.points = 3 if tiny else 17
        self.rng = np.random.default_rng(seed)

    def op(self, i, tracer):
        np, amp, ops = self.np, self.amplitudes, self.operators
        grid = 2.0 * math.pi * (np.arange(self.points) + self.rng.random(self.points)) / self.points
        for et in grid.tolist():
            table = tracer.call("amplitudes.amplitude_table", amp.amplitude_table, et, work=1)
            c2 = math.cos(et) ** 2
            for rec in table:
                expected = (4.0 - 3.0 * c2) / 8.0 if len(set(rec.label.signs)) == 1 else c2 / 8.0
                check(abs(rec.prob_numeric - expected) <= 1e-10, f"label {rec.label} at {et!r}")
            check(abs(sum(rec.prob_numeric for rec in table) - 1.0) <= 1e-12, f"table sum at {et!r}")
            closed = tracer.call("operators.evolution_closed_form", ops.evolution_closed_form, et)
            series = tracer.call("operators.evolution_series", ops.evolution_series, et)
            check(np.max(np.abs(closed.matrix - series.matrix)) <= 1e-10, f"evolution oracle at {et!r}")
        report = tracer.call("operators.verify_identities", ops.verify_identities)
        check(report.passed, "verify_identities did not pass")


class ShotSampling:
    """Op: 10**6 shots of the all-same-check circuit, grouped and serialised.

    Every fourth op adds readout noise 0.02.  Checks: counts sum to shots;
    without noise the support lies inside ``simulate_ideal``'s and each cell
    is within 6 sigma of shots/32.  The ideal distribution is uniform over
    all 32 outcomes and stays so under bit flips, so no statistic of a noisy
    histogram shows whether noise was applied; instead noisy ops take their
    sampler seed from NOISY_SEEDS and their counts must match the digest
    recorded at the seed commit (the sampler promises byte-identical
    histograms for the same circuit, shots, seed and noise).
    """

    name = "shot_sampling"
    cycle = 4
    warmup = 4
    children_rss = False

    def __init__(self, seed, tiny=False):
        import numpy as np
        from qpigeon import circuits

        self.circuits = circuits
        self.shots = TINY_SHOTS if tiny else SHOTS
        self.rng = np.random.default_rng(seed)
        self.support = set(circuits.simulate_ideal(circuits.all_same_check_circuit()))
        self.noisy_digests = load_reference("noisy_counts_sha256")[str(self.shots)]
        self.noisy_offset = int(self.rng.integers(len(NOISY_SEEDS)))

    def op(self, i, tracer):
        circ = self.circuits
        shots = self.shots
        if i % 4 == 3:
            noise = circ.NoiseModel(NOISE)
            seed = NOISY_SEEDS[(self.noisy_offset + i // 4) % len(NOISY_SEEDS)]
        else:
            noise = None
            seed = int(self.rng.integers(0, 2**63))
        hist = tracer.call("circuits.sample_shots", circ.sample_shots, circ.all_same_check_circuit(),
                           shots, seed, noise, work=shots)
        groups = tracer.call("circuits.postselect_group", circ.postselect_group, hist,
                             circ.PIGEON_CBITS, circ.ALL_SAME_ANCILLA_CBITS)
        text = tracer.call("circuits.histogram_json", circ.histogram_json, hist)
        check(sum(hist.counts.values()) == shots, "counts do not sum to shots")
        check(sum(g.total for g in groups) == shots, "groups do not sum to shots")
        check(json.loads(text)["counts"] == hist.counts, "histogram_json does not carry the counts")
        if noise is not None:
            check(counts_sha256(hist) == self.noisy_digests[str(seed)], f"noisy counts of seed {seed} differ")
        else:
            check(set(hist.counts) <= self.support, "outcome outside the ideal support")
            sigma = math.sqrt(shots * (1 / 32) * (31 / 32))
            worst = max(abs(c - shots / 32) for c in hist.counts.values())
            check(worst <= 6 * sigma, f"cell {worst:.0f} away from shots/32 (6 sigma = {6 * sigma:.0f})")


class WideRegister:
    """Op: 8 seeded gates from {H, X, RX, CX} on an 18-qubit register (4 MiB of amplitudes).

    Checks: psi matches a state computed here without qpigeon (each gate a
    tensordot on the register viewed as n axes, CX a flip of the target axis
    where the control is 1); the inverse gate list returns |0...0>; and
    ``simulate_ideal`` of the forward circuit measuring qubits 0-4 matches
    the marginal of |psi|^2.
    """

    name = "wide_register"
    cycle = 1
    warmup = 1
    children_rss = False
    gates_per_op = 8

    def __init__(self, seed, tiny=False):
        import numpy as np
        from qpigeon import circuits, states

        self.np, self.circuits, self.states = np, circuits, states
        self.n = 6 if tiny else 18
        self.rng = np.random.default_rng(seed)

    def _gates(self):
        Gate, rng, n = self.states.Gate, self.rng, self.n
        gates = []
        for _ in range(self.gates_per_op):
            kind = int(rng.integers(4))
            if kind == 3:
                control, target = (int(q) for q in rng.choice(n, 2, replace=False))
                gates.append(Gate.cx(control, target))
            else:
                q = int(rng.integers(n))
                if kind == 0:
                    gates.append(Gate.h(q))
                elif kind == 1:
                    gates.append(Gate.x(q))
                else:
                    gates.append(Gate.rx(q, float(rng.uniform(0.0, 2.0 * math.pi))))
        return gates

    def _reference(self, gates):
        np, st, n = self.np, self.states, self.n
        psi = np.zeros((2,) * n, dtype=complex)
        psi[(0,) * n] = 1.0
        for gate in gates:
            axis = n - 1 - gate.qubit  # qubit q has stride 2**q
            if gate.kind == st.CX:
                on = [slice(None)] * n
                on[axis] = 1
                target = n - 1 - gate.target
                psi = psi.copy()
                psi[tuple(on)] = np.flip(psi[tuple(on)], axis=target - (target > axis))
                continue
            if gate.kind == st.H:
                matrix = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
            elif gate.kind == st.X:
                matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
            else:
                c, s = math.cos(gate.theta / 2.0), math.sin(gate.theta / 2.0)
                matrix = np.array([[c, -1j * s], [-1j * s, c]])
            psi = np.moveaxis(np.tensordot(matrix, psi, axes=([1], [axis])), 0, axis)
        return psi.reshape(-1)

    def _inverse(self, gate):
        return self.states.Gate.rx(gate.qubit, -gate.theta) if gate.kind == self.states.RX else gate

    def op(self, i, tracer):
        np, st, circ, n = self.np, self.states, self.circuits, self.n
        gates = self._gates()
        amps = 2**n
        psi = tracer.call("states.basis_state", st.basis_state, n, 0)
        for gate in gates:
            psi = tracer.call("states.apply_gate", st.apply_gate, psi, gate, work=amps)
        worst = np.max(np.abs(psi.amps - self._reference(gates)))
        check(worst <= 1e-10, f"psi differs from the reference state by {worst:.2e}")
        back = psi
        for gate in reversed(gates):
            back = tracer.call("states.apply_gate", st.apply_gate, back, self._inverse(gate), work=amps)
        zero = np.zeros(amps, dtype=complex)
        zero[0] = 1.0
        check(np.max(np.abs(back.amps - zero)) <= 1e-9, "inverse gates do not return |0...0>")
        circuit = circ.Circuit(n, 5, tuple(gates) + tuple(st.Gate.measure(q, q) for q in range(5)))
        dist = tracer.call("circuits.simulate_ideal", circ.simulate_ideal, circuit)
        marginal = (np.abs(psi.amps) ** 2).reshape(-1, 32).sum(axis=0)
        check(set(dist) <= {format(k, "05b") for k in range(32)}, "unexpected outcome key")
        worst = max(abs(dist.get(format(k, "05b"), 0.0) - marginal[k]) for k in range(32))
        check(worst <= 1e-12, f"simulate_ideal differs from the marginal by {worst:.2e}")


WORKLOADS = {w.name: w for w in (CliHeadline, CouplingSweep, ShotSampling, WideRegister)}


def record_reference():
    """The digests reference.json holds, computed from the program as it is now."""
    from qpigeon import circuits

    stdout = {}
    for key, command in README_COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "qpigeon.cli", *command.split()],
                              env=cli_env(), cwd=ROOT, capture_output=True, check=True, timeout=60)
        stdout[key] = sha256(proc.stdout)
    noisy = {}
    for shots in (TINY_SHOTS, SHOTS):
        noisy[str(shots)] = {
            str(seed): counts_sha256(circuits.sample_shots(
                circuits.all_same_check_circuit(), shots, seed, circuits.NoiseModel(NOISE)))
            for seed in NOISY_SEEDS
        }
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return {"recorded_at_commit": commit.stdout.strip() or "unknown",
            "stdout_sha256": stdout, "noisy_counts_sha256": noisy}


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    print(json.dumps(record_reference(), indent=2))
