"""Exact simulation and reproducible sampling of the circuits built in qpigeon.gates.

simulate_ideal gives a circuit's exact outcome distribution and sample_shots
a seeded shot histogram, with an optional readout-noise model; the rest
groups outcomes by pigeon and ancilla bits.  The command line renders its
own documents; only histogram_json, which perfbench/ reads, renders here.
The Circuit type, the two experiment circuits and the QASM text live in
gates, which needs no numpy; Circuit, all_same_check_circuit and its cbit
tuples are re-exported here, where perfbench/ reads them.

Readout keys are bitstrings over the classical register with the highest
classical bit leftmost; classical bits never written by a measurement read 0.
Both functions take outcomes from _distribution as integers over the measured
bits alone.  Sampling is reproducible: Philox streams keyed by the seed drive
an inverse-CDF draw over them, so equal inputs give byte-identical histograms
on any platform.  Shots are drawn in chunks of CHUNK through a guide table
(Chen and Asau, 1974), with a binary search only where a bucket holds a CDF
step; memory stays O(CHUNK) plus one count per outcome for any shot count.
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


def _distribution(circuit: Circuit) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The measured cbits in ascending order, the support's patterns and their probabilities.

    A pattern is an outcome over the measured bits alone: bit j is the value
    read into the j-th lowest measured cbit, so every pattern is below 2**24
    however wide the register.  Patterns come out ascending, which is also
    the order of their register keys.  Outcomes with probability below 1e-14
    are left out, so the patterns are exactly the support.
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
    # the remaining axes run over the measured qubits in descending qubit
    # order; put them in descending cbit order, the order of a pattern's bits
    axis_cbits = [qubit_to_cbit[q] for q in sorted(qubit_to_cbit, reverse=True)]
    axes = sorted(range(len(axis_cbits)), key=axis_cbits.__getitem__, reverse=True)
    marginal = np.transpose(tensor, axes).reshape(-1)
    patterns = np.flatnonzero(marginal > _PROB_FLOOR)
    return sorted(axis_cbits), patterns, marginal[patterns]


def simulate_ideal(circuit: Circuit) -> dict[str, float]:
    """Exact outcome distribution over the classical register.

    Runs the unitary part once, then marginalises |amplitude|^2 over the
    unmeasured qubits.  Keys are classical-register bitstrings (highest bit
    leftmost); bits with no measurement read 0.  Outcomes with probability
    below 1e-14 are omitted, so the keys present are exactly the support.
    Measurements must all come after the unitaries, each qubit at most once.
    """
    cbits, patterns, probs = _distribution(circuit)
    return dict(zip(_bitstrings(patterns, cbits, circuit.n_cbits), probs.tolist()))


def _bitstrings(patterns: np.ndarray, cbits: list[int], width: int) -> list[str]:
    """Register keys of the patterns over ``cbits``, highest bit leftmost, unmeasured bits 0."""
    grid = np.full((len(patterns), width), ord("0"), dtype=np.uint8)
    for j, cbit in enumerate(cbits):
        grid[:, width - 1 - cbit] = ord("0") + ((patterns >> j) & 1)
    text = grid.tobytes().decode("ascii")
    return [text[i * width : (i + 1) * width] for i in range(len(patterns))]


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

    The draw is inverse-CDF over the ideal distribution in key order, driven
    by Philox counter-based generators keyed with ``seed``.  The outcome stream
    gives one uniform per shot; the readout stream (used only if ``noise``
    is given) continues where ``shots`` outcome uniforms end and gives one
    uniform per shot and measured bit, in ascending classical bit order,
    each below the flip probability flipping its bit.  Both streams are
    consumed in chunks of CHUNK shots: each uniform finds its outcome by a
    guide-table lookup, and each chunk's counts join one tally: per support
    outcome without noise, per measured-bit pattern (at most 2**24) with it,
    so memory is O(CHUNK) plus the tally.  Same (circuit, shots, seed,
    noise) gives a byte-identical histogram everywhere.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    cbits, patterns, weights = _distribution(circuit)
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    guide = _guide_table(cdf)
    outcomes = np.random.Generator(np.random.Philox(key=seed))
    if noise is not None:
        # Philox yields four doubles per counter step: skip the outcome draws
        flips = np.random.Generator(np.random.Philox(key=seed))
        flips.bit_generator.advance(shots // 4)
        flips.random(shots % 4)
    # noiseless: the count of each support index; noisy: the count of each pattern
    tally = np.zeros(len(patterns) if noise is None else 1 << len(cbits), dtype=np.int64)
    for start in range(0, shots, CHUNK):
        size = min(CHUNK, shots - start)
        drawn = _draw_outcomes(cdf, guide, outcomes.random(size))
        if noise is None:
            tally += np.bincount(drawn, minlength=len(patterns))
            continue
        flipped = flips.random((size, len(cbits))) < noise.readout_flip_prob
        np.add.at(tally, patterns[drawn] ^ (flipped @ (1 << np.arange(len(cbits)))), 1)
    seen = np.flatnonzero(tally)
    keys = _bitstrings(patterns[seen] if noise is None else seen, cbits, circuit.n_cbits)
    return ShotHistogram(counts=dict(zip(keys, tally[seen].tolist())), shots=shots, seed=seed, noise=noise)


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


def histogram_json(hist: ShotHistogram) -> str:
    """JSON document with the shots, seed, noise, and sorted counts."""
    return output.json_text(hist.to_dict())
