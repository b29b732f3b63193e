"""Command-line front end.

Subcommands: identities, amplitudes, simulate, sample, qasm, hiddenvars.
Exit code 0 on success, 1 when a verification fails (for example an operator
identity exceeding its tolerance), 2 on usage errors and on I/O errors, which
print a one-line ``error:`` message.  Each subcommand writes nothing: it
returns a CSV header, rows (qasm: its text), and functions giving the JSON
payload and the exit status, read after the write.  ``main`` writes the one
document through ``qpigeon/output.py``, which rounds every float to 12
significant digits and makes ``--output`` write through a temporary file and
an atomic rename, so readers never see a partial file.
The default sampling seed comes from the QPIGEON_SEED environment variable
when set, else 0.  Only simulate and sample load numpy (through circuits).
"""

import argparse
import math
import os
import re
import sys

from . import amplitudes as amp_mod
from . import boxes, gates, output
from . import hiddenvars as hv_mod

SEED_ENV_VAR = "QPIGEON_SEED"
# CSV rows are written as they are made, but JSON builds every record first, so a larger sweep is refused
MAX_SWEEP_STEPS = 100_000

_CIRCUITS = {
    "pi": (gates.pair_check_circuit, gates.PAIR_CHECK_ANCILLA_CBITS),
    "p": (gates.all_same_check_circuit, gates.ALL_SAME_ANCILLA_CBITS),
}


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _parse_sweep(text: str) -> list[float]:
    """Either a single value or start:stop:steps with both endpoints included, at most MAX_SWEEP_STEPS of them."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) == 3:
            start, stop = float(parts[0]), float(parts[1])
            steps = gates._check_index(int(parts[2]), "steps", 1)
            if steps > MAX_SWEEP_STEPS:
                raise argparse.ArgumentTypeError(f"a sweep takes at most {MAX_SWEEP_STEPS} steps, got {text!r}")
            if steps == 1:
                return [start]
            width = (stop - start) / (steps - 1)
            if not math.isfinite(width):
                raise argparse.ArgumentTypeError(f"sweep {text!r} has no finite spacing (stop - start) / (steps - 1)")
            return [start + k * width for k in range(steps)]
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected VALUE or START:STOP:STEPS, got {text!r}")


def _cmd_identities(args) -> tuple:
    report = boxes.verify_identities(tolerance=args.tolerance)
    rows = [(name, dev, dev <= report.tolerance) for name, dev in report.checks.items()]
    return ("check", "max_deviation", "passed"), rows, report.to_dict, lambda: 0 if report.passed else 1


def _cmd_amplitudes(args) -> tuple:
    # a refused coupling exits 2 before the first row is written, not halfway through the document
    for et in args.epsilon_t:
        boxes.evolution_diagonal(et)
    header = ("epsilon_t", "label", "outcome_class", "prob_closed", "prob_numeric")
    failures = []  # one entry per failed check, known once the rows are made

    def rows():
        # made as the chosen format reads them: a sweep holds only its output
        for et in args.epsilon_t:
            table = amp_mod.amplitude_table(et)
            if abs(sum(rec.prob_numeric for rec in table) - 1.0) > 1e-12:
                failures.append(et)
            for rec in table:
                if abs(rec.prob_closed - rec.prob_numeric) > 1e-10:
                    failures.append(rec)
                yield rec.epsilon_t, str(rec.label), rec.outcome_class, rec.prob_closed, rec.prob_numeric

    def payload():
        return {"phase_convention": amp_mod.PHASE_CONVENTION, "records": [dict(zip(header, row)) for row in rows()]}

    return header, rows(), payload, lambda: 1 if failures else 0


def _build_circuit(name: str):
    builder, ancilla_cbits = _CIRCUITS[name]
    return builder(), ancilla_cbits


def _cmd_simulate(args) -> tuple:
    from . import circuits as circ_mod

    circuit, ancilla_cbits = _build_circuit(args.circuit)
    probs = circ_mod.simulate_ideal(circuit)
    if args.group:
        expected = circ_mod.grouped_expected(probs, gates.PIGEON_CBITS, ancilla_cbits)
        header = ("pigeon_state", "ancilla_pattern", "probability")
        rows = [(pig, anc, p) for (pig, anc), p in sorted(expected.items())]
        payload = {"circuit": args.circuit, "groups": [dict(zip(header, row)) for row in rows]}
    else:
        header, rows = ("bitstring", "probability"), probs.items()
        payload = {"circuit": args.circuit, "probabilities": probs}
    return header, rows, lambda: payload, lambda: 1 if abs(sum(probs.values()) - 1.0) > 1e-12 else 0


def _cmd_sample(args) -> tuple:
    from . import circuits as circ_mod

    seed = _default_seed() if args.seed is None else args.seed
    circuit, ancilla_cbits = _build_circuit(args.circuit)
    noise = None if args.noise_readout is None else circ_mod.NoiseModel(args.noise_readout)
    hist = circ_mod.sample_shots(circuit, shots=args.shots, seed=seed, noise=noise)
    payload = hist.to_dict()
    header, rows = ("bitstring", "count"), payload["counts"].items()
    if args.group:
        groups = circ_mod.postselect_group(hist, gates.PIGEON_CBITS, ancilla_cbits)
        # the CSV holds one row per cell, next to the cell's ideal probability
        ideal = circ_mod.simulate_ideal(circuit)
        expected = circ_mod.grouped_expected(ideal, gates.PIGEON_CBITS, ancilla_cbits)
        header = ("pigeon_state", "ancilla_pattern", "count", "expected_probability")
        rows = [(g.pigeon_pattern, anc, count, expected.get((g.pigeon_pattern, anc), 0.0))
                for g in groups for anc, count in g.ancilla_counts.items()]
        del payload["counts"]
        payload["groups"] = [
            {"pigeon_state": g.pigeon_pattern, "ancilla_counts": g.ancilla_counts, "total": g.total}
            for g in groups
        ]
    return header, rows, lambda: payload, lambda: 0


def _cmd_qasm(args) -> tuple:
    circuit, _ = _build_circuit(args.circuit)
    return None, [gates.export_qasm(circuit)], None, lambda: 0


def _cmd_hiddenvars(args) -> tuple:
    report = hv_mod.enumeration_report()
    header = ("v01", "v12", "v02", "v_all", *hv_mod.CONSTRAINT_NAMES, "valid")
    rows = [
        (cand["v01"], cand["v12"], cand["v02"], cand["v_all"],
         *(cand["constraints"][name] for name in hv_mod.CONSTRAINT_NAMES), cand["valid"])
        for cand in report["candidates"]
    ]
    failed = report["violation_exists"] or not report["classical_placements_match_valid_set"]
    return header, rows, lambda: report, lambda: 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpigeon",
        description="Exact tools for the three-pigeon, two-box pre/post-selection experiment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, default="json"):
        p.add_argument("--format", choices=("csv", "json"), default=default)
        p.add_argument("--output", default=None, help="write here atomically instead of stdout")

    p = sub.add_parser("identities", help="verify the projector algebra and report deviations")
    p.add_argument("--tolerance", type=float, default=1e-12)
    add_common(p)
    p.set_defaults(func=_cmd_identities)

    p = sub.add_parser("amplitudes", help="transition probabilities for all eight readout labels")
    p.add_argument(
        "--epsilon-t",
        type=_parse_sweep,
        required=True,
        metavar="VALUE|START:STOP:STEPS",
        help="coupling value, or an inclusive sweep",
    )
    add_common(p, default="csv")
    p.set_defaults(func=_cmd_amplitudes)

    p = sub.add_parser("simulate", help="exact outcome distribution of a built-in circuit")
    p.add_argument("--circuit", choices=sorted(_CIRCUITS), required=True)
    p.add_argument("--group", action="store_true", help="group by pigeon bits and ancilla pattern")
    add_common(p, default="csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sample", help="reproducible shot histogram of a built-in circuit")
    p.add_argument("--circuit", choices=sorted(_CIRCUITS), required=True)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, default=None, help=f"default from {SEED_ENV_VAR}, else 0")
    p.add_argument("--noise-readout", type=float, default=None, metavar="PROB",
                   help="flip each measured bit with this probability")
    p.add_argument("--group", action="store_true", help="group by pigeon bits and ancilla pattern")
    add_common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("qasm", help="OpenQASM 2.0 text of a built-in circuit")
    p.add_argument("--circuit", choices=sorted(_CIRCUITS), required=True)
    p.add_argument("--output", default=None, help="write here atomically instead of stdout")
    p.set_defaults(func=_cmd_qasm, format="text")

    p = sub.add_parser("hiddenvars", help="enumerate classical value assignments")
    add_common(p)
    p.set_defaults(func=_cmd_hiddenvars)

    # argparse reads only -1 and -0.5 as values; no option starts with "-" and
    # a digit or ".", so take every such token, like -1e-3 or -1:1:3, as one
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        header, rows, payload, status = args.func(args)
        output.emit(args.format, header, rows, payload, args.output)
        return status()
    except (ValueError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write {args.output or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
