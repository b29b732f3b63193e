"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/record.py [--workloads a,b] [--seeds 10] [--first-seed 1] [--traced-seeds N] [--out FILE]

Each run is ``run.py`` with ``run_seconds`` from BENCHMARK.json.  For every
workload and end-to-end metric this reports the values, their median, their
quartiles as ``statistics.quantiles(values, n=4)`` gives them, and the
spread (q3 - q1) / median next to the metric's bound.  ``--traced-seeds N``
adds traced runs on the first N seeds of each workload: the per-layer
metrics of the first, and the measured tracing overhead of all of them, so
one can see whether it is centred on zero.
perfbench/baseline.json holds the output of two runs of this script: all
workloads on seeds 1-10 with ``--traced-seeds 3``, and the listed ones again
on seeds 101-110.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    environment = json.loads(lines[-3].split(" ", 1)[1])
    summary = json.loads(lines[-2].split(" ", 1)[1])
    return json.loads(lines[-1]), summary, environment


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced-seeds", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"run_seconds": seconds, "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in report["seeds"]:
            result, summary, environment = run(workload, seed, seconds, 0)
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "samples": summary["samples"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + json.dumps(runs[-1]["metrics"]), file=sys.stderr)
        report["environment"] = environment
        end_to_end = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            end_to_end[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                                "bound": bound, "values": values}
        entry = {"end_to_end": end_to_end, "runs": runs}
        traced = [run(workload, seed, seconds, 1)[:2] for seed in report["seeds"][:args.traced_seeds]]
        if traced:
            entry["per_layer"] = traced[0][0]["metrics"]
            overhead = [r["metrics"]["trace.measured_overhead_pct_per_op"]["value"] for r, _ in traced]
            entry["measured_overhead_pct_per_op"] = {"median": statistics.median(overhead), "values": overhead}
            entry["traced_runs"] = [summary for _, summary in traced]
            print(f"{workload} measured tracing overhead %: {overhead}", file=sys.stderr)
        report["workloads"][workload] = entry
        for name, m in end_to_end.items():
            flag = "ok" if m["spread"] <= m["bound"] / 3 else "WIDE"
            print(f"{workload:15s} {name:17s} median {m['median']:10.4f} spread {m['spread']:.4f} "
                  f"(bound {m['bound']}) {flag}", file=sys.stderr)

    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
