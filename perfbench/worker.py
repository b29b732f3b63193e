"""Run one workload in this fresh process and print one JSON line with its numbers.

Started by run.py, never by hand.  ``--spawned-at`` is the parent's
``time.monotonic()`` just before it started this process; the monotonic
clock is system-wide, so ``setup_s`` spans interpreter start, imports, input
construction and the warm-up ops, up to the first timed op.

With ``--trace 0`` the timed loop runs untraced.  With ``--trace 1`` it
alternates traced and untraced cycles of ops (a cycle is the workload's
repeating pattern, so both halves see the same mix), then probes every layer
the workload itself does not call: a few ops of each other in-process
workload, ``cli.main`` in process per README command, and interpreter start
and import as subprocesses.  Spans go to ``perfbench/out/``.
"""

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout

from spans import Tracer, Untraced
from workloads import README_COMMANDS, ROOT, WORKLOADS, check, cli_env, load_reference, sha256

# With at least 100 samples, p90 has at least ten samples beyond it.
MIN_SAMPLES = 100
PROBE_OPS = 3
CLI_PROBE_REPEATS = 5
UNTRACED = Untraced()


class Tally:
    """Counts attempted and failed ops; a failure is reported and the run goes on."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            fn(*args, **kwargs)
            return True
        except Exception as exc:  # an op that raises or fails its check is counted, not fatal
            self.failed += 1
            if self.failed <= 5:
                print(f"op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return False


def quantile(values, q):
    """Linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def timed_loop(workload, seconds, tally, tracer=None):
    """Closed loop, one client: the next op starts when the previous one ends.

    Runs for ``seconds``, longer (up to twice that) only if fewer than
    MIN_SAMPLES ops have run.  Returns the loop's wall time, the latencies (s)
    of untraced and traced ops, failed ones included, and how many ops passed.
    """
    plain, traced = [], []
    passed = 0
    i = workload.warmup
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = len(plain) + len(traced)
        if elapsed >= 2 * seconds or (elapsed >= seconds and done >= MIN_SAMPLES):
            return elapsed, plain, traced, passed
        on = tracer is not None and (i // workload.cycle) % 2 == 0
        t0 = time.perf_counter()
        if on:
            tracer.op = i
            with tracer.span("op"):
                ok = tally.run(workload.op, i, tracer)
        else:
            ok = tally.run(workload.op, i, UNTRACED)
        (traced if on else plain).append(time.perf_counter() - t0)
        passed += ok
        i += 1


def peak_rss_mib(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def end_to_end(workload, seconds, tally):
    elapsed, plain, _, passed = timed_loop(workload, seconds, tally)
    metrics = {
        "throughput_ops_s": (passed / elapsed, "1/s"),
        "latency_p50_ms": (quantile(plain, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (quantile(plain, 0.9) * 1e3, "ms"),
        "peak_rss_mib": (peak_rss_mib(workload.children_rss), "MiB"),
    }
    info = {"samples": len(plain), "loop_s": elapsed}
    return metrics, info


def probe_cli(tracer, tally):
    """Interpreter start and import as subprocesses; each README command via cli.main in process."""
    from qpigeon import cli

    env = cli_env()
    for _ in range(CLI_PROBE_REPEATS):
        tally.run(tracer.call, "cli.interpreter_start", subprocess.run,
                  [sys.executable, "-c", "pass"], check=True, timeout=60)
        tally.run(tracer.call, "cli.import", subprocess.run,
                  [sys.executable, "-c", "import qpigeon.cli"], env=env, cwd=ROOT, check=True, timeout=60)
    reference = load_reference()
    stdout_bytes = {}

    def main_in_process(key, command):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = tracer.call(f"cli.main.{key}", cli.main, command.split())
        out = buf.getvalue().encode()
        check(code == 0, f"{key}: exit code {code}")
        check(sha256(out) == reference[key], f"{key}: stdout digest differs from reference")
        stdout_bytes[key] = len(out)

    for key, command in README_COMMANDS:
        for _ in range(3):
            tally.run(main_in_process, key, command)
    return sum(stdout_bytes.values())


def sample_peak_mib(shots, seed):
    """tracemalloc peak of one noiseless and one noisy sample_shots call, the larger one."""
    from qpigeon import circuits

    peaks = []
    for noise in (None, circuits.NoiseModel(0.02)):
        tracemalloc.start()
        try:
            circuits.sample_shots(circuits.all_same_check_circuit(), shots, seed, noise)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    return max(peaks)


def span_overhead_us(calls=2000, batches=7):
    """Traced minus untraced cost of one call, taken on a no-op so nothing else varies."""
    def noop():
        pass

    diffs = []
    for _ in range(batches):
        tracer = Tracer()
        t0 = time.perf_counter()
        for _ in range(calls):
            UNTRACED.call("noop", noop)
        t1 = time.perf_counter()
        for _ in range(calls):
            tracer.call("noop", noop)
        t2 = time.perf_counter()
        diffs.append(((t2 - t1) - (t1 - t0)) / calls * 1e6)
    return statistics.median(diffs)


def per_layer(workload, seed, seconds, tally, tiny=False, spans_path=None):
    tracer = Tracer()
    _, plain, traced, _ = timed_loop(workload, seconds, tally, tracer)
    if not plain or not traced:
        raise SystemExit("a traced run needs more than one cycle of ops; raise --seconds")
    spans_per_op = len(tracer.spans) / len(traced)
    per_span_us = span_overhead_us()
    plain_ms, traced_ms = statistics.median(plain) * 1e3, statistics.median(traced) * 1e3
    modelled_pct = per_span_us * spans_per_op / (plain_ms * 1e3) * 100.0
    measured_pct = (traced_ms - plain_ms) / plain_ms * 100.0

    for name, cls in WORKLOADS.items():
        if name in (workload.name, "cli_headline"):
            continue
        other = cls(seed, tiny=tiny)
        for i in range(cls.warmup + PROBE_OPS):
            tr = tracer if i >= cls.warmup else UNTRACED
            tracer.op = f"probe.{name}.{i}"
            with tr.span("op"):
                tally.run(other.op, i, tr)
    stdout_bytes = probe_cli(tracer, tally)
    shots = WORKLOADS["shot_sampling"](seed, tiny=tiny).shots
    peak_mib = sample_peak_mib(shots, seed)
    if spans_path:
        tracer.write(spans_path)

    by_name = tracer.self_times()

    def calls(name):
        return (len(by_name[name]), "count")

    def ms(name):
        return (statistics.median(ns for ns, _ in by_name[name]) / 1e6, "ms")

    def per_work(name, scale):
        return statistics.median(ns / work for ns, work in by_name[name]) * scale

    amps = statistics.median(work for _, work in by_name["states.apply_gate"])
    metrics = {
        "states.apply_gate.calls": calls("states.apply_gate"),
        "states.apply_gate.ms": ms("states.apply_gate"),
        "states.apply_gate.ns_per_amp": (per_work("states.apply_gate", 1.0), "ns"),
        # computed, not measured: one read and one write of the complex128 amplitude array
        "states.apply_gate.computed_mib_moved": (2 * 16 * amps / 2**20, "MiB"),
        "circuits.simulate_ideal.calls": calls("circuits.simulate_ideal"),
        "circuits.simulate_ideal.ms": ms("circuits.simulate_ideal"),
        "circuits.sample_shots.calls": calls("circuits.sample_shots"),
        "circuits.sample_shots.ms": ms("circuits.sample_shots"),
        "circuits.sample_shots.ns_per_shot": (per_work("circuits.sample_shots", 1.0), "ns"),
        "circuits.sample_shots.peak_mib": (peak_mib, "MiB"),
        "circuits.postselect_group.ms": ms("circuits.postselect_group"),
        "circuits.histogram_json.ms": ms("circuits.histogram_json"),
        "amplitudes.amplitude_table.calls": calls("amplitudes.amplitude_table"),
        "amplitudes.amplitude_table.ms": ms("amplitudes.amplitude_table"),
        "amplitudes.amplitude_table.us_per_point": (per_work("amplitudes.amplitude_table", 1e-3), "us"),
        "operators.verify_identities.calls": calls("operators.verify_identities"),
        "operators.verify_identities.ms": ms("operators.verify_identities"),
        "operators.evolution_closed_form.ms": ms("operators.evolution_closed_form"),
        "operators.evolution_series.ms": ms("operators.evolution_series"),
        "cli.interpreter_start_ms": ms("cli.interpreter_start"),
        "cli.import_ms": ms("cli.import"),
        **{f"cli.main.{key}.ms": ms(f"cli.main.{key}") for key, _ in README_COMMANDS},
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
        # modelled: the traced minus untraced cost of one span on a no-op,
        # times spans per op, as a share of the median untraced op
        "trace.overhead_us_per_span": (per_span_us, "us"),
        "trace.modelled_overhead_pct_per_op": (modelled_pct, "%"),
        # the same difference taken on whole ops of this run: median traced op
        # minus median untraced op, so op-to-op noise enters it
        "trace.measured_overhead_pct_per_op": (measured_pct, "%"),
    }
    info = {
        "traced_ops": len(traced),
        "untraced_ops": len(plain),
        "spans_per_op": spans_per_op,
        "op_median_traced_ms": traced_ms,
        "op_median_untraced_ms": plain_ms,
    }
    return metrics, info


def _read(path):
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:
        return ""


def git_commit():
    """HEAD of the checkout; source_sha256 identifies the code where there is no .git."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    # the ceiling keeps git from taking HEAD of a repository that encloses ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown (no git)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment():
    import platform

    import numpy as np

    cpuinfo = _read("/proc/cpuinfo").splitlines()
    cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")), "unknown")
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else ():
        level = _read(os.path.join(cache_dir, entry, "level")).strip()
        kind = _read(os.path.join(cache_dir, entry, "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}_cache"] = _read(os.path.join(cache_dir, entry, "size")).strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    source = sorted(os.listdir(os.path.join(ROOT, "src", "qpigeon")))
    digest = sha256(b"".join(
        name.encode() + _read(os.path.join(ROOT, "src", "qpigeon", name)).encode()
        for name in source if name.endswith(".py")
    ))
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        **caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "source_sha256": digest,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tally = Tally()
    cls = WORKLOADS[args.workload]
    workload = cls(args.seed)
    for i in range(cls.warmup):
        tally.run(workload.op, i, UNTRACED)
    result = {"setup_s": time.monotonic() - args.spawned_at}
    if not args.setup_only:
        if args.trace:
            out_dir = os.path.join(ROOT, "perfbench", "out")
            os.makedirs(out_dir, exist_ok=True)
            spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
            metrics, info = per_layer(workload, args.seed, args.seconds, tally, spans_path=spans_path)
        else:
            metrics, info = end_to_end(workload, args.seconds, tally)
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["info"] = info
        result["environment"] = environment()
    result["attempted"] = tally.attempted
    result["failed"] = tally.failed
    print(json.dumps(result))


if __name__ == "__main__":
    main()
