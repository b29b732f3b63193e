"""Exact simulation and reproducible sampling of the circuits built in qpigeon.gates.

simulate_ideal gives a circuit's exact outcome distribution and sample_shots
a seeded shot histogram, with an optional readout-noise model; the rest
groups outcomes by pigeon and ancilla bits and renders histograms.  The
Circuit type, the two experiment circuits and the QASM text live in gates,
which needs no numpy; Circuit, all_same_check_circuit and its cbit tuples
are re-exported here, where perfbench/ reads them.

Readout keys are bitstrings over the classical register with the highest
classical bit leftmost; classical bits never written by a measurement read 0.
Sampling is reproducible: counter-based 64-bit Philox streams keyed by the
seed drive an inverse-CDF draw over the sorted outcome table, so equal inputs
give byte-identical histograms on any platform.  Shots are drawn in chunks of
CHUNK; each uniform is mapped to its outcome through a guide table (Chen and
Asau, 1974), with a binary search only where its bucket holds a CDF step, and
memory stays O(CHUNK) plus the support however many shots are asked for.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import output
from .gates import BARRIER, MEASURE, Circuit, Gate
# perfbench/ reads these names from this module; patching apply_gate here does
# not reach simulate_ideal, which runs states._evolve
from .gates import ALL_SAME_ANCILLA_CBITS, PIGEON_CBITS, all_same_check_circuit  # noqa: F401
from .states import _evolve, apply_gate  # noqa: F401

# outcomes below this probability are left out of the distribution map, so
# zero-probability bitstrings (exact zeros up to roundoff) never get a key
_PROB_FLOOR = 1e-14

# shots drawn per pass of the sampler; it bounds sample_shots' working memory
CHUNK = 1 << 16


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

    def to_dict(self) -> dict:
        """The JSON document's fields: shots, seed, noise, and the counts sorted by bitstring."""
        return {
            "shots": self.shots,
            "seed": self.seed,
            "noise": None if self.noise is None else {"readout_flip_prob": self.noise.readout_flip_prob},
            "counts": dict(sorted(self.counts.items())),
        }


@dataclass(frozen=True)
class OutcomeGroup:
    """All ancilla buckets seen together with one pigeon-bit pattern."""

    pigeon_pattern: str
    ancilla_counts: dict[str, int]
    total: int


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


def histogram_csv(hist: ShotHistogram) -> str:
    """CSV with columns bitstring,count; rows sorted by bitstring."""
    return output.csv_text(("bitstring", "count"), sorted(hist.counts.items()))


def histogram_json(hist: ShotHistogram) -> str:
    """JSON document with the shots, seed, noise, and sorted counts."""
    return output.json_text(hist.to_dict())


def grouped_csv(groups: list[OutcomeGroup], expected: dict[tuple[str, str], float]) -> str:
    """CSV with columns pigeon_state,ancilla_pattern,count,expected_probability."""
    rows = [
        (group.pigeon_pattern, anc, count, expected.get((group.pigeon_pattern, anc), 0.0))
        for group in groups
        for anc, count in group.ancilla_counts.items()
    ]
    return output.csv_text(("pigeon_state", "ancilla_pattern", "count", "expected_probability"), rows)
