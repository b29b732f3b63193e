"""qpigeon benchmark: one workload per invocation, every op's output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program under test is ``src/qpigeon``,
used from source; nothing needs installing or building.

Workloads (inputs come from ``--seed`` alone; cli_headline's commands are
fixed by the README; see workloads.py):

* ``shot_sampling``  sample_shots of 10**6 shots per op, every fourth noisy,
                     then postselect_group and histogram_json
* ``wide_register``  8 seeded gates on 18 qubits per op, checked against a
                     reference state, by inversion and against
                     simulate_ideal's marginal
* ``cli_headline``   the seven README headline commands, each op one fresh
                     ``python -m qpigeon.cli`` process, stdout checked by sha256
* ``coupling_sweep`` 17 seed-jittered couplings per op: amplitude_table,
                     the evolution oracle, verify_identities

The last two are not listed in BENCHMARK.json: their interpreter-bound ops
follow the host's CPU contention more than the others, and their medians
moved by more than the 0.25 bound between two sets of ten runs of the same
code.  They stay runnable by name, and every traced run still measures
their layers (the cli layer by cli.main in process, interpreter start and
import).

Load is one client in a closed loop in one worker process, with BLAS pinned
to one thread.  With ``--trace 0`` the last stdout line reports the
end-to-end metrics: ``throughput_ops_s`` (passed ops per second),
``latency_p50_ms``, ``latency_p90_ms``, ``peak_rss_mib`` (the worker
process; for cli_headline its largest child) and ``setup_s``, the median
over nine fresh worker
processes of the time from process start to the first timed op.  With
``--trace 1`` it reports the per-layer metrics of a traced run (worker.py).
``error_rate`` is ``failed / attempted`` from the same line; an op that
raises or fails its check counts as failed and the run goes on.  The lines
before it give the environment and a summary with the sample counts.

Exit status is 0 when the run completed, whether or not ops failed, and
nonzero without a result line when no run was possible.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from workloads import ROOT, WORKLOADS

WORKER = os.path.join(ROOT, "perfbench", "worker.py")
SETUP_RUNS = 9
# every run must finish within 180 s, including all its worker processes
DEADLINE_S = 170
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(Exception):
    pass


def spawn(args, deadline, setup_only):
    env = dict(os.environ, PYTHONPATH="src", **BLAS_THREADS)
    spawned_at = time.monotonic()
    argv = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--spawned-at", repr(spawned_at)]
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any command it started
        proc.communicate()
        raise WorkerError("worker did not finish in time")
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "qpigeon", "cli.py")):
        print(f"error: no qpigeon source under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        runs = [spawn(args, deadline, setup_only=True) for _ in range(SETUP_RUNS - 1)] if not args.trace else []
        main_run = spawn(args, deadline, setup_only=False)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    runs.append(main_run)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = main_run["metrics"]
    summary = {"workload": args.workload, "seed": args.seed, "error_rate": failed / attempted,
               **main_run["info"]}
    if not args.trace:
        setups = [r["setup_s"] for r in runs]
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        summary["setup_samples_s"] = setups
    print("environment " + json.dumps(main_run["environment"]))
    print("summary " + json.dumps(summary))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
