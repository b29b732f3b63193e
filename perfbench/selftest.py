"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Smoke: every workload runs at tiny size untraced and traced with no failed
   op, and reports exactly the metrics BENCHMARK.json names.
2. Tamper: a wrong stdout digest for cli_headline, an empty expected
   support for shot_sampling, a sampler that ignores readout noise, and an
   apply_gate that acts on the wrong qubit (in states and in circuits, so
   simulate_ideal and the inverse gates agree with it) each drive error_rate
   above 0 while the run still completes.
3. run.py in a directory holding only BENCHMARK.json and perfbench/ exits
   nonzero and prints no result line.

Exit status 0 when all of these hold.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import worker  # noqa: E402
from qpigeon import circuits, states  # noqa: E402
from workloads import README_COMMANDS, WORKLOADS, CliHeadline, ShotSampling, WideRegister, load_reference  # noqa: E402

SEED = 3
# long enough for a traced run to see one traced and one untraced cycle
SECONDS = {"cli_headline": 3.0}


def smoke(bench):
    e2e = {m["name"] for m in bench["end_to_end"]} - {"setup_s"}
    layers = {m["name"] for m in bench["per_layer"]}
    for name, cls in WORKLOADS.items():
        seconds = SECONDS.get(name, 0.5)
        tally = worker.Tally()
        metrics, info = worker.end_to_end(cls(SEED, tiny=True), seconds, tally)
        assert set(metrics) == e2e, (name, sorted(set(metrics) ^ e2e))
        assert tally.failed == 0 and info["samples"] > 0, (name, tally.failed)
        tally = worker.Tally()
        metrics, _ = worker.per_layer(cls(SEED, tiny=True), SEED, seconds, tally, tiny=True)
        assert set(metrics) == layers, (name, sorted(set(metrics) ^ layers))
        assert tally.failed == 0, (name, tally.failed)
        print(f"smoke {name}: ok ({tally.attempted} ops traced run)")


def tampered_error_rate(workload, seconds):
    tally = worker.Tally()
    metrics, _ = worker.end_to_end(workload, seconds, tally)
    assert metrics["latency_p50_ms"][0] > 0
    return tally.failed / tally.attempted


def tamper():
    reference = load_reference()
    first = README_COMMANDS[CliHeadline.warmup][0]  # the first timed op's command
    reference[first] = "0" * 64
    rate = tampered_error_rate(CliHeadline(SEED, reference=reference), 1.0)
    assert rate > 0, "a wrong stdout digest was not counted as a failure"
    print(f"tamper cli_headline digest: error_rate {rate:.3f}")

    sampling = ShotSampling(SEED, tiny=True)
    sampling.support = set()
    rate = tampered_error_rate(sampling, 0.5)
    assert 0 < rate < 1, "an outcome outside the expected support was not counted (or noisy ops failed too)"
    print(f"tamper shot_sampling support: error_rate {rate:.3f}")

    real_sample = circuits.sample_shots
    with patched(circuits, "sample_shots", lambda c, shots, seed, noise=None: real_sample(c, shots, seed)):
        rate = tampered_error_rate(ShotSampling(SEED, tiny=True), 0.5)
    assert 0 < rate < 1, "a sampler that ignores noise was not counted (or noiseless ops failed too)"
    print(f"tamper shot_sampling noise ignored: error_rate {rate:.3f}")

    real_apply = states.apply_gate

    def wrong_qubit(state, gate):
        # consistently wrong and invertible: single-qubit gates land one qubit up
        if gate.kind in (states.H, states.X, states.RX):
            gate = states.Gate(gate.kind, (gate.qubit + 1) % state.n_qubits, theta=gate.theta)
        return real_apply(state, gate)

    with patched(states, "apply_gate", wrong_qubit), patched(circuits, "apply_gate", wrong_qubit):
        rate = tampered_error_rate(WideRegister(SEED, tiny=True), 0.5)
    assert rate > 0, "an apply_gate on the wrong qubit was not counted as a failure"
    print(f"tamper wide_register apply_gate: error_rate {rate:.3f}")


@contextmanager
def patched(module, name, value):
    saved = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, saved)


def no_program():
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "coupling_sweep",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0, "run.py succeeded without the program"
    assert '"correct"' not in proc.stdout, "run.py printed a result without the program"
    print(f"no program: exit {proc.returncode}, no result line")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    smoke(bench)
    tamper()
    no_program()
    print("selftest passed")


if __name__ == "__main__":
    main()
