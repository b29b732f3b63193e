"""Exact simulation and reproducible sampling of the circuits built in qpigeon.gates.

simulate_ideal gives a circuit's exact outcome distribution and sample_shots
a seeded shot histogram, with an optional readout-noise model; the rest
groups outcomes by pigeon and ancilla bits.  The command line's documents
are rendered by qpigeon.output; histogram_json, which perfbench/ reads, is
one call into it.
The Circuit type, the two experiment circuits and the QASM text live in
gates, which needs no numpy; Circuit, all_same_check_circuit and its cbit
tuples are re-exported here, where perfbench/ reads them.

Readout keys are bitstrings over the classical register with the highest
classical bit leftmost; classical bits never written by a measurement read 0.
Both functions take outcomes from _distribution as integers over the measured
bits alone.  Sampling is reproducible: Philox streams keyed by the seed drive
an inverse-CDF draw over them, so equal inputs give byte-identical histograms
on any platform.  Above CHUNK shots the second half of the shots runs on a
helper thread, the one worker of a thread pool whose future carries its
error back.  Each thread places one Philox per stream at its half's first
word through the counter (Salmon et al., SC'11) and reads on from there in
pieces of at most CHUNK shots.  Outcomes come from raw 64-bit words through
a guide table (Chen and Asau, 1974), with an integer binary search only
where a bucket holds a CDF step; without noise the other words are only
counted per bucket.  Readout flips compare raw words against an exact
integer bound.  Both threads add into one tally under a lock, so memory
stays O(CHUNK) plus one count per outcome, and the counts do not depend on
the order in which the threads add them.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import output
from .gates import BARRIER, MEASURE, Circuit, Gate, _check_index, _check_real
# perfbench/ reads these names from this module; patching apply_gate here does
# not reach simulate_ideal, which runs states._evolve
from .gates import ALL_SAME_ANCILLA_CBITS, PIGEON_CBITS, all_same_check_circuit  # noqa: F401
from .states import _evolve, apply_gate  # noqa: F401

# outcomes below this probability are left out of the distribution map, so
# zero-probability bitstrings (exact zeros up to roundoff) never get a key
_PROB_FLOOR = 1e-14

# shots per piece of the sampler; two pieces in flight bound sample_shots' working memory
CHUNK = 1 << 15


@dataclass(frozen=True)
class NoiseModel:
    """Readout noise: each measured bit flips independently with this probability, a float in [0, 1)."""

    readout_flip_prob: float

    def __post_init__(self):
        object.__setattr__(self, "readout_flip_prob", _check_real(self.readout_flip_prob, "readout_flip_prob", 0.0, math.nextafter(1.0, 0.0)))


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


def _guide_table(cdf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integer steps of a CDF and its guide table: each bucket's outcome, or ``len(cdf)`` where a step lies inside.

    A cdf entry c is <= the uniform ``u = (raw >> 11) * 2**-53`` of a raw
    word exactly when its step ``ceil(c * 2**53)`` is <= ``raw >> 11``; an
    entry rounded above 1.0 is never <= u, so it is clipped to 1.0.  With
    G = len(guide) a power of two >= 4 * len(cdf), bucket g holds the words
    whose top log2(G) bits read g, so their ``raw >> 11`` runs over
    [g * S, (g + 1) * S) with S = 2**53 / G.  Its entry is the number of
    steps <= g * S, the outcome of every word in it, unless a step lies
    strictly inside that range.
    """
    steps = np.ceil(np.ldexp(np.minimum(cdf, 1.0), 53)).astype(np.uint64)
    size = 1 << (4 * len(cdf) - 1).bit_length()
    span = (1 << 53) // size
    edges = np.arange(size, dtype=np.uint64)
    edges *= np.uint64(span)
    guide = np.searchsorted(steps, edges, side="right")
    guide[steps[steps % span != 0] // span] = len(cdf)
    return steps, guide


def _draw_outcomes(steps: np.ndarray, guide: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Exactly ``searchsorted(cdf, (raw >> 11) * 2**-53, "right")``, through the guide table (Chen and Asau, 1974).

    ``steps`` and ``guide`` come from ``_guide_table(cdf)``.  The top log2(G)
    bits of a word are ``floor(u * G)``, its bucket, so a word's guide entry
    is its outcome unless the entry is ``len(steps)``: only the words in
    buckets that hold a step, at most len(steps) / G <= 1/4 of the
    probability, get a binary search, an exact one over the integer steps.
    """
    picks = guide[(raw >> (65 - len(guide).bit_length())).view(np.int64)]
    misses = np.flatnonzero(picks == len(steps))
    picks[misses] = np.searchsorted(steps, raw[misses] >> 11, side="right")
    return picks


def _piece_outcomes(steps: np.ndarray, guide: np.ndarray, raw: np.ndarray, stepped: np.ndarray | None) -> tuple[np.ndarray | None, np.ndarray]:
    """A piece's outcome words as (None, each word's outcome), or with ``stepped`` as (count per bucket, outcomes).

    ``stepped`` marks the buckets whose guide entry is ``len(steps)``.  Only
    the words in them get an outcome, by the exact integer search; every
    word of another bucket has its guide entry as outcome.
    """
    if stepped is None:
        return None, _draw_outcomes(steps, guide, raw)
    top = (raw >> (65 - len(guide).bit_length())).view(np.int64)
    words = raw[stepped[top]] if stepped.any() else raw[:0]
    return np.bincount(top, minlength=len(guide)), np.searchsorted(steps, words >> 11, side="right")


def _flip_limit(p: float) -> np.uint64:
    """The raw Philox word bound below which a readout bit flips: ``raw < limit`` exactly when ``u < p``.

    numpy's uniform is ``u = (raw >> 11) * 2**-53``, so ``u < p`` holds exactly
    when the integer ``raw >> 11`` is below ``ceil(p * 2**53)``, that is when
    ``raw`` is below that bound shifted left by 11.  For p in [0, 1) it fits
    in 64 bits.
    """
    return np.uint64(math.ceil(math.ldexp(p, 53)) << 11)


def _philox(seed: int, word: int) -> np.random.Philox:
    """The Philox stream keyed by ``seed``, placed so that its next 64-bit word is word ``word``.

    Philox steps its counter before each block of four words, so the
    generator built at counter ``word // 4`` draws word ``word // 4 * 4``
    first (Salmon et al., SC'11); the words before ``word`` in that block
    are drawn and dropped.
    """
    bits = np.random.Philox(key=seed, counter=word // 4)
    bits.random_raw(word % 4)
    return bits


def sample_shots(circuit: Circuit, shots: int, seed: int, noise: NoiseModel | None = None) -> ShotHistogram:
    """Draw ``shots`` outcomes reproducibly and return their histogram.

    The draw is inverse-CDF over the ideal distribution in key order, driven
    by Philox counter-based generators keyed with ``seed``.  The outcome stream
    gives one uniform per shot; the readout stream (used only if ``noise``
    is given) continues where ``shots`` outcome uniforms end and gives one
    uniform per shot and measured bit, in ascending classical bit order,
    each below the flip probability flipping its bit.  A uniform is numpy's
    ``(raw >> 11) * 2**-53`` of a raw 64-bit word, but both draws work on
    the words themselves.  Above CHUNK shots, the calling thread draws
    shots [0, shots // 2) and a helper thread, the one worker of a
    ThreadPoolExecutor whose future re-raises its error here, draws
    [shots // 2, shots); otherwise the calling thread draws them all.  Each
    thread places one Philox per stream at its first shot's word with
    ``_philox`` and draws its shots in pieces of at most CHUNK, each reading
    on from the last.  A word finds its outcome in the guide table at its
    top bits, with an exact integer search only in buckets that hold a CDF
    step, and a flip is the exact integer test ``raw < ceil(p * 2**53) << 11``,
    which holds exactly when the uniform is below p.  Each piece's counts
    join one tally under a lock: per support outcome without noise, per
    measured-bit pattern (at most 2**24) with it.  Without noise, and with
    at most CHUNK guide buckets, unsearched words are counted per bucket
    instead, and each bucket joins its outcome after the last piece.
    Integer sums commute, so the schedule does not change the counts, and
    memory is O(CHUNK) plus the tally.  Same
    (circuit, shots, seed, noise) gives a byte-identical histogram
    everywhere.  ``shots`` >= 1 and 0 <= ``seed`` < 2**64 are integers, not bools.
    """
    # numpy integers pass, but the histogram holds Python ints, which JSON can write
    shots = _check_index(shots, "shots", 1)
    seed = _check_index(seed, "seed", 0, 2**64)
    cbits, patterns, weights = _distribution(circuit)
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    steps, guide = _guide_table(cdf)
    k = len(cbits)
    if noise is not None:
        limit = _flip_limit(noise.readout_flip_prob)
    # noiseless: the count of each support index; noisy: the count of each pattern
    tally = np.zeros(len(patterns) if noise is None else 1 << k, dtype=np.int64)
    # noiseless with at most CHUNK buckets: a per-bucket bincount costs no more than the piece
    stepped = guide == len(steps) if noise is None and len(guide) <= CHUNK else None
    buckets = None if stepped is None else np.zeros(len(guide), dtype=np.int64)
    lock = threading.Lock()

    def work(start: int, stop: int) -> None:
        outcomes = _philox(seed, start)
        if noise is not None:
            flips = _philox(seed, shots + start * k)
        for first in range(start, stop, CHUNK):
            size = min(CHUNK, stop - first)
            counted, drawn = _piece_outcomes(steps, guide, outcomes.random_raw(size), stepped)
            if noise is None:
                counts = np.bincount(drawn, minlength=len(patterns))
                with lock:
                    np.add(tally, counts, out=tally)
                    if counted is not None:
                        np.add(buckets, counted, out=buckets)
                continue
            hits = np.flatnonzero(flips.random_raw(size * k) < limit)
            codes = patterns[drawn]
            np.bitwise_xor.at(codes, hits // k, 1 << (hits % k))
            with lock:
                np.add.at(tally, codes, 1)

    if shots > CHUNK:
        # imported here: runs of CHUNK shots or fewer never start the helper
        from concurrent.futures import ThreadPoolExecutor
        # leaving the block joins the helper, also when work(0, ...) raises
        with ThreadPoolExecutor(max_workers=1) as pool:
            helper = pool.submit(work, shots // 2, shots)
            work(0, shots // 2)
        helper.result()
    else:
        work(0, shots)
    if stepped is not None:
        np.add.at(tally, guide[~stepped], buckets[~stepped])
    seen = np.flatnonzero(tally)
    keys = _bitstrings(patterns[seen] if noise is None else seen, cbits, circuit.n_cbits)
    return ShotHistogram(counts=dict(zip(keys, tally[seen].tolist())), shots=shots, seed=seed, noise=noise)


def _pattern(key: str, cbits: list[int]) -> str:
    width = len(key)
    return "".join(key[width - 1 - b] for b in cbits)


def _group_map(mapping: dict, pigeon_cbits, ancilla_cbits) -> dict[str, dict[str, float]]:
    pigeon = sorted({_check_index(b, "pigeon cbit", 0) for b in pigeon_cbits}, reverse=True)
    ancilla = sorted({_check_index(b, "ancilla cbit", 0) for b in ancilla_cbits}, reverse=True)
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
