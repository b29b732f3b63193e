"""Five-qubit ancilla-readout circuits with exact simulation, sampling, and QASM I/O.

Two builders mirror the experiment:

* pair_check_circuit: qubits 0-2 hold the pigeons, ancilla qubit 3 records
  whether pigeons 0 and 1 share a box (ancilla reads 0 for "same box").
  Qubit 4 is carried along unused so both circuits share one register shape.
* all_same_check_circuit: adds ancilla qubit 4 for the (1, 2) pair, so the
  ancilla pattern 00 singles out "all three in one box".

Readout keys are bitstrings over the classical register with the highest
classical bit leftmost; classical bits never written by a measurement read 0.
Sampling is reproducible: counter-based 64-bit Philox streams keyed by the
seed drive an inverse-CDF draw over the sorted outcome table, so equal inputs
give byte-identical histograms on any platform.  Shots are drawn in chunks of
CHUNK; each uniform is mapped to its outcome through a guide table (Chen and
Asau, 1974), with a binary search only where its bucket holds a CDF step, and
memory stays O(CHUNK) plus the support however many shots are asked for.
"""

import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .states import BARRIER, CX, H, MEASURE, RX, X, Gate, _evolve
# part of this module's namespace, so callers may import it from here; patching
# it here does not reach simulate_ideal, which runs states._evolve
from .states import apply_gate  # noqa: F401

PIGEON_CBITS = (0, 1, 2)
PAIR_CHECK_ANCILLA_CBITS = (3,)
ALL_SAME_ANCILLA_CBITS = (3, 4)

# outcomes below this probability are left out of the distribution map, so
# zero-probability bitstrings (exact zeros up to roundoff) never get a key
_PROB_FLOOR = 1e-14

# shots drawn per pass of the sampler; it bounds sample_shots' working memory
CHUNK = 1 << 16


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over ``n_qubits`` qubits and ``n_cbits`` classical bits."""

    n_qubits: int
    n_cbits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.n_qubits < 1 or self.n_cbits < 0:
            raise ValueError("need at least one qubit and a nonnegative classical bit count")
        gates = tuple(self.gates)
        seen_cbits = set()
        for gate in gates:
            if gate.kind == BARRIER:
                continue
            if gate.qubit >= self.n_qubits:
                raise ValueError(f"gate {gate} addresses qubit {gate.qubit} outside register")
            if gate.kind == CX and gate.target >= self.n_qubits:
                raise ValueError(f"gate {gate} addresses target {gate.target} outside register")
            if gate.kind == MEASURE:
                if gate.cbit >= self.n_cbits:
                    raise ValueError(f"gate {gate} addresses classical bit {gate.cbit} outside register")
                if gate.cbit in seen_cbits:
                    raise ValueError(f"classical bit {gate.cbit} written twice")
                seen_cbits.add(gate.cbit)
        object.__setattr__(self, "gates", gates)


@dataclass(frozen=True)
class NoiseModel:
    """Readout noise: each measured bit flips independently with this probability."""

    readout_flip_prob: float

    def __post_init__(self):
        p = self.readout_flip_prob
        if not (isinstance(p, (int, float)) and math.isfinite(p) and 0.0 <= p < 1.0):
            raise ValueError(f"readout_flip_prob must be in [0, 1), got {p!r}")


@dataclass(frozen=True)
class ShotHistogram:
    """Counts per observed bitstring; keys absent from ``counts`` had count zero."""

    counts: dict[str, int]
    shots: int
    seed: int
    noise: NoiseModel | None = None


@dataclass(frozen=True)
class OutcomeGroup:
    """All ancilla buckets seen together with one pigeon-bit pattern."""

    pigeon_pattern: str
    ancilla_counts: dict[str, int]
    total: int


def pair_check_circuit() -> Circuit:
    """Circuit testing whether pigeons 0 and 1 share a box.

    Three parts: Hadamards put the pigeons in the uniform superposition;
    CX(0->3) and CX(1->3) fold the pair parity onto ancilla 3; RX(pi/2)
    rotates the pigeons so the circular basis reads out as plain bits.
    Qubits 0-3 are measured into classical bits 0-3; qubit 4 idles.
    """
    gates = [Gate.h(0), Gate.h(1), Gate.h(2), Gate.barrier()]
    gates += [Gate.cx(0, 3), Gate.cx(1, 3), Gate.barrier()]
    gates += [Gate.rx(0, math.pi / 2.0), Gate.rx(1, math.pi / 2.0), Gate.rx(2, math.pi / 2.0)]
    gates += [Gate.measure(q, q) for q in range(4)]
    return Circuit(5, 5, tuple(gates))


def all_same_check_circuit() -> Circuit:
    """Circuit testing pairs (0, 1) and (1, 2) at once.

    Ancilla 3 records the (0, 1) parity and ancilla 4 the (1, 2) parity, so
    the joint ancilla outcome 00 occurs exactly when all three pigeons sit
    in one box.  All five qubits are measured.
    """
    gates = [Gate.h(0), Gate.h(1), Gate.h(2), Gate.barrier()]
    gates += [Gate.cx(0, 3), Gate.cx(1, 3), Gate.cx(1, 4), Gate.cx(2, 4), Gate.barrier()]
    gates += [Gate.rx(0, math.pi / 2.0), Gate.rx(1, math.pi / 2.0), Gate.rx(2, math.pi / 2.0)]
    gates += [Gate.measure(q, q) for q in range(5)]
    return Circuit(5, 5, tuple(gates))


def _split_measurements(circuit: Circuit) -> tuple[list[Gate], dict[int, int]]:
    unitaries: list[Gate] = []
    qubit_to_cbit: dict[int, int] = {}
    for gate in circuit.gates:
        if gate.kind == MEASURE:
            if gate.qubit in qubit_to_cbit:
                raise NotImplementedError(f"qubit {gate.qubit} measured twice")
            qubit_to_cbit[gate.qubit] = gate.cbit
        elif gate.kind == BARRIER:
            continue
        else:
            if qubit_to_cbit:
                raise NotImplementedError("mid-circuit measurement is not supported")
            unitaries.append(gate)
    return unitaries, qubit_to_cbit


def simulate_ideal(circuit: Circuit) -> dict[str, float]:
    """Exact outcome distribution over the classical register.

    Runs the unitary part once, then marginalises |amplitude|^2 over the
    unmeasured qubits.  Keys are classical-register bitstrings (highest bit
    leftmost); bits with no measurement read 0.  Outcomes with probability
    below 1e-14 are omitted, so the keys present are exactly the support.
    Measurements must all come after the unitaries, each qubit at most once.
    """
    unitaries, qubit_to_cbit = _split_measurements(circuit)
    n = circuit.n_qubits
    state = _evolve(n, unitaries)
    # one half-size array: np.square in place gives the bits of ** 2
    probs = np.abs(state.amps)
    np.square(probs, out=probs)
    del state
    tensor = probs.reshape([2] * n)
    drop_axes = tuple(n - 1 - q for q in range(n) if q not in qubit_to_cbit)
    if drop_axes:
        tensor = tensor.sum(axis=drop_axes)
    # remaining axes run over measured qubits in descending qubit order, so
    # bit j of a flat index is the j-th lowest measured qubit
    marginal = tensor.reshape(-1)
    kept = np.flatnonzero(marginal > _PROB_FLOOR)
    # Python ints once a code can outgrow int64
    codes = np.zeros(len(kept), dtype=np.int64 if circuit.n_cbits < 64 else object)
    for j, q in enumerate(sorted(qubit_to_cbit)):
        codes |= ((kept >> j) & 1).astype(codes.dtype) << qubit_to_cbit[q]
    order = np.argsort(codes)
    keys = _bitstrings(codes[order].tolist(), circuit.n_cbits)
    return dict(zip(keys, marginal[kept[order]].tolist()))


def _bitstrings(codes: list[int], width: int) -> list[str]:
    """Classical-register keys of the codes, highest bit leftmost; a register of no bits gives ""."""
    if width == 0:
        return [""] * len(codes)
    spec = f"0{width}b"
    return [format(code, spec) for code in codes]


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """``searchsorted(cdf, g / G, "right")`` for g < G, G a power of two >= 4 * len(cdf)."""
    size = 1 << (4 * len(cdf) - 1).bit_length()
    return np.searchsorted(cdf, np.arange(size) / size, side="right")


def _draw_outcomes(cdf: np.ndarray, guide: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Exactly ``searchsorted(cdf, uniforms, "right")``, through the guide table (Chen and Asau, 1974).

    With G = len(guide) a power of two, ``u * G`` and ``g / G`` are exact, so
    ``guide[floor(u * G)]`` counts only cdf entries <= u and is the answer
    unless a cdf entry lies inside u's bucket.  Those buckets hold at most
    len(cdf) / G <= 1/4 of the probability; their uniforms get a binary search.
    """
    picks = guide[(uniforms * len(guide)).astype(np.intp)]
    misses = np.flatnonzero(cdf[picks] <= uniforms)
    picks[misses] = np.searchsorted(cdf, uniforms[misses], side="right")
    return picks


def sample_shots(circuit: Circuit, shots: int, seed: int, noise: NoiseModel | None = None) -> ShotHistogram:
    """Draw ``shots`` outcomes reproducibly and return their histogram.

    The draw is inverse-CDF over the sorted ideal distribution, driven by
    Philox counter-based generators keyed with ``seed``.  The outcome stream
    gives one uniform per shot; the readout stream (used only if ``noise``
    is given) continues where ``shots`` outcome uniforms end and gives one
    uniform per shot and measured bit, in ascending classical bit order,
    each below the flip probability flipping its bit.  Both streams are
    consumed in chunks of CHUNK shots: each uniform finds its outcome by a
    guide-table lookup, and each chunk's counts join one running tally (per
    outcome without noise, per observed code with it), so memory is
    O(CHUNK) plus the support.  Same (circuit, shots, seed, noise) gives a
    byte-identical histogram everywhere.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    probs = simulate_ideal(circuit)
    keys = list(probs)
    weights = np.array([probs[k] for k in keys], dtype=float)
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    guide = _guide_table(cdf)
    outcomes = np.random.Generator(np.random.Philox(key=seed))
    # Python ints once a code can outgrow uint64, as in simulate_ideal
    code_type = np.uint64 if circuit.n_cbits < 64 else object
    if noise is not None:
        measured_cbits = sorted(g.cbit for g in circuit.gates if g.kind == MEASURE)
        bit_values = np.array([1 << cbit for cbit in measured_cbits], dtype=code_type)
        key_codes = np.array([int(k or "0", 2) for k in keys], dtype=code_type)
        # Philox yields four doubles per counter step: skip the outcome draws
        flips = np.random.Generator(np.random.Philox(key=seed))
        flips.bit_generator.advance(shots // 4)
        flips.random(shots % 4)
    # noiseless: the count of each index into keys; noisy: the sorted codes seen so far and their counts
    tally = np.zeros(len(keys) if noise is None else 0, dtype=np.int64)
    seen = np.zeros(0, dtype=code_type)
    for start in range(0, shots, CHUNK):
        size = min(CHUNK, shots - start)
        drawn = _draw_outcomes(cdf, guide, outcomes.random(size))
        if noise is None:
            tally += np.bincount(drawn, minlength=len(keys))
            continue
        flipped = flips.random((size, len(measured_cbits))) < noise.readout_flip_prob
        values, value_counts = np.unique(key_codes[drawn] ^ (flipped @ bit_values), return_counts=True)
        at = np.searchsorted(seen, values)
        known = at < len(seen)
        known[known] = seen[at[known]] == values[known]
        tally[at[known]] += value_counts[known]
        seen = np.insert(seen, at[~known], values[~known])
        tally = np.insert(tally, at[~known], value_counts[~known])
    if noise is None:
        counts = {keys[i]: int(tally[i]) for i in np.flatnonzero(tally)}
    else:
        counts = dict(zip(_bitstrings(seen.tolist(), circuit.n_cbits), tally.tolist()))
    return ShotHistogram(counts=dict(sorted(counts.items())), shots=shots, seed=seed, noise=noise)


def _pattern(key: str, cbits: list[int]) -> str:
    width = len(key)
    return "".join(key[width - 1 - b] for b in cbits)


def _group_map(mapping: dict, pigeon_cbits, ancilla_cbits) -> dict[str, dict[str, float]]:
    pigeon = sorted(set(pigeon_cbits), reverse=True)
    ancilla = sorted(set(ancilla_cbits), reverse=True)
    if not pigeon or not ancilla:
        raise ValueError("need at least one pigeon bit and one ancilla bit")
    if set(pigeon) & set(ancilla):
        raise ValueError("pigeon and ancilla bit sets overlap")
    grouped: dict[str, dict[str, float]] = {}
    for key, value in mapping.items():
        if max(pigeon + ancilla) >= len(key):
            raise ValueError(f"bit index exceeds key width {len(key)}")
        pig = _pattern(key, pigeon)
        anc = _pattern(key, ancilla)
        bucket = grouped.setdefault(pig, {})
        bucket[anc] = bucket.get(anc, 0) + value
    return grouped


def postselect_group(hist: ShotHistogram, pigeon_cbits, ancilla_cbits) -> list[OutcomeGroup]:
    """Split a histogram by pigeon-bit pattern, tallying ancilla patterns inside each.

    Returns one OutcomeGroup per pigeon pattern seen, sorted by pattern,
    with ancilla buckets sorted inside.  An empty histogram gives an empty
    list.  The two bit sets must be disjoint and nonempty.
    """
    grouped = _group_map(hist.counts, pigeon_cbits, ancilla_cbits)
    groups = []
    for pig in sorted(grouped):
        buckets = {anc: int(c) for anc, c in sorted(grouped[pig].items())}
        groups.append(OutcomeGroup(pigeon_pattern=pig, ancilla_counts=buckets, total=sum(buckets.values())))
    return groups


def grouped_expected(ideal_probs: dict[str, float], pigeon_cbits, ancilla_cbits) -> dict[tuple[str, str], float]:
    """Ideal probability of each (pigeon pattern, ancilla pattern) cell."""
    grouped = _group_map(ideal_probs, pigeon_cbits, ancilla_cbits)
    return {(pig, anc): p for pig, row in grouped.items() for anc, p in row.items()}


_ANGLE_NAMES = (
    ("pi/4", math.pi / 4.0),
    ("pi/2", math.pi / 2.0),
    ("pi", math.pi),
    ("-pi/4", -math.pi / 4.0),
    ("-pi/2", -math.pi / 2.0),
    ("-pi", -math.pi),
)


def _format_angle(theta: float) -> str:
    for name, value in _ANGLE_NAMES:
        if theta == value:
            return name
    return repr(float(theta))


def _parse_angle(text: str) -> float:
    for name, value in _ANGLE_NAMES:
        if text == name:
            return value
    return float(text)


def export_qasm(circuit: Circuit) -> str:
    """Serialise to OpenQASM 2.0 text, deterministically byte for byte.

    Registers are always named q and c; barriers span the whole register.
    """
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.n_qubits}];",
        f"creg c[{circuit.n_cbits}];",
    ]
    for gate in circuit.gates:
        if gate.kind == H:
            lines.append(f"h q[{gate.qubit}];")
        elif gate.kind == X:
            lines.append(f"x q[{gate.qubit}];")
        elif gate.kind == RX:
            lines.append(f"rx({_format_angle(gate.theta)}) q[{gate.qubit}];")
        elif gate.kind == CX:
            lines.append(f"cx q[{gate.qubit}],q[{gate.target}];")
        elif gate.kind == BARRIER:
            lines.append("barrier q;")
        elif gate.kind == MEASURE:
            lines.append(f"measure q[{gate.qubit}] -> c[{gate.cbit}];")
        else:  # pragma: no cover - Gate validation forbids this
            raise ValueError(f"cannot serialise gate kind {gate.kind!r}")
    return "\n".join(lines) + "\n"


_QASM_PATTERNS = (
    (re.compile(r"h\s+q\[(\d+)\]"), lambda m: Gate.h(int(m.group(1)))),
    (re.compile(r"x\s+q\[(\d+)\]"), lambda m: Gate.x(int(m.group(1)))),
    (re.compile(r"rx\(([^)]+)\)\s+q\[(\d+)\]"), lambda m: Gate.rx(int(m.group(2)), _parse_angle(m.group(1)))),
    (re.compile(r"cx\s+q\[(\d+)\]\s*,\s*q\[(\d+)\]"), lambda m: Gate.cx(int(m.group(1)), int(m.group(2)))),
    (re.compile(r"barrier\s+q"), lambda m: Gate.barrier()),
    (re.compile(r"measure\s+q\[(\d+)\]\s*->\s*c\[(\d+)\]"), lambda m: Gate.measure(int(m.group(1)), int(m.group(2)))),
)


def parse_qasm(text: str) -> Circuit:
    """Parse the OpenQASM 2.0 subset emitted by export_qasm.

    Accepts exactly one q register and one c register plus the gate set
    {h, x, rx, cx, barrier, measure}; anything else raises ValueError.
    Round-tripping export_qasm output reproduces the gate list.
    """
    n_qubits = n_cbits = None
    gates: list[Gate] = []
    body = re.sub(r"//[^\n]*", "", text)
    for raw in body.split(";"):
        stmt = " ".join(raw.split())
        if not stmt:
            continue
        if stmt.startswith("OPENQASM"):
            if stmt != "OPENQASM 2.0":
                raise ValueError(f"unsupported version statement {stmt!r}")
            continue
        if stmt.startswith("include"):
            continue
        m = re.fullmatch(r"qreg q\[(\d+)\]", stmt)
        if m:
            n_qubits = int(m.group(1))
            continue
        m = re.fullmatch(r"creg c\[(\d+)\]", stmt)
        if m:
            n_cbits = int(m.group(1))
            continue
        for pattern, build in _QASM_PATTERNS:
            m = pattern.fullmatch(stmt)
            if m:
                gates.append(build(m))
                break
        else:
            raise ValueError(f"cannot parse statement {stmt!r}")
    if n_qubits is None or n_cbits is None:
        raise ValueError("missing qreg or creg declaration")
    return Circuit(n_qubits, n_cbits, tuple(gates))


def histogram_csv(hist: ShotHistogram) -> str:
    """CSV with columns bitstring,count; rows sorted by bitstring."""
    lines = ["bitstring,count"]
    lines += [f"{key},{hist.counts[key]}" for key in sorted(hist.counts)]
    return "\n".join(lines) + "\n"


def histogram_json(hist: ShotHistogram) -> str:
    """JSON document with the shots, seed, noise, and sorted counts."""
    noise = None if hist.noise is None else {"readout_flip_prob": _sig12(hist.noise.readout_flip_prob)}
    payload = {
        "shots": hist.shots,
        "seed": hist.seed,
        "noise": noise,
        "counts": dict(sorted(hist.counts.items())),
    }
    return json.dumps(payload, indent=2) + "\n"


def grouped_csv(groups: list[OutcomeGroup], expected: dict[tuple[str, str], float]) -> str:
    """CSV with columns pigeon_state,ancilla_pattern,count,expected_probability."""
    lines = ["pigeon_state,ancilla_pattern,count,expected_probability"]
    for group in groups:
        for anc, count in group.ancilla_counts.items():
            prob = expected.get((group.pigeon_pattern, anc), 0.0)
            lines.append(f"{group.pigeon_pattern},{anc},{count},{prob:.12g}")
    return "\n".join(lines) + "\n"


def _sig12(x: float) -> float:
    """Round to 12 significant digits, the precision all text output uses."""
    return float(f"{x:.12g}")


def write_text_atomic(path: str, text: str) -> None:
    """Write text to ``path`` via a same-directory temp file and atomic rename.

    The file is created like ``open`` creates one, with mode 0o666 less the
    umask, and its data reaches the disk (fsync) before the rename.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".qpigeon-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
