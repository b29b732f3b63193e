"""Property tests of sample_shots on random small circuits.

The oracle is the one-shot sampler that preceded the chunked one: one
Philox stream, all outcome uniforms first, a binary search per shot, then
all readout-flip uniforms as one (shots, measured bits) block, compared
with the flip probability as floats.
"""

import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpigeon.circuits import (CHUNK, NoiseModel, _draw_outcomes, _flip_limit, _guide_table, _philox, _piece_outcomes,
                              sample_shots, simulate_ideal)
from qpigeon.gates import MEASURE, Circuit, Gate, all_same_check_circuit


def one_shot_counts(circuit: Circuit, shots: int, seed: int, noise: NoiseModel | None) -> dict[str, int]:
    probs = simulate_ideal(circuit)
    keys = list(probs)
    weights = np.array([probs[k] for k in keys], dtype=float)
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    rng = np.random.Generator(np.random.Philox(key=seed))
    picks = np.searchsorted(cdf, rng.random(shots), side="right")
    if noise is None:
        values, tallies = np.unique(picks, return_counts=True)
        counts = {keys[int(v)]: int(t) for v, t in zip(values, tallies)}
    else:
        measured_cbits = sorted(g.cbit for g in circuit.gates if g.kind == MEASURE)
        flips = rng.random((shots, len(measured_cbits))) < noise.readout_flip_prob
        # Python ints, so registers of any width keep every bit
        codes = np.array([int(k, 2) for k in keys], dtype=object)[picks]
        for column, cbit in enumerate(measured_cbits):
            codes = codes ^ (flips[:, column].astype(object) << cbit)
        values, tallies = np.unique(codes, return_counts=True)
        counts = {format(int(v), f"0{circuit.n_cbits}b"): int(t) for v, t in zip(values, tallies)}
    return dict(sorted(counts.items()))


@st.composite
def circuits(draw):
    """Up to 4 qubits, 1-10 gates from {H, X, RX, CX}, a nonempty qubit subset measured into random cbits.

    Some registers are 60-70 bits wide, so their keys outgrow 64-bit codes
    and unmeasured cbits lie between the measured ones.
    """
    n = draw(st.integers(1, 4))
    qubit = st.integers(0, n - 1)
    angle = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
    single = st.one_of(st.builds(Gate.h, qubit), st.builds(Gate.x, qubit), st.builds(Gate.rx, qubit, angle))
    if n > 1:
        pair = st.lists(qubit, min_size=2, max_size=2, unique=True).map(lambda qs: Gate.cx(*qs))
        single = st.one_of(single, pair)
    gates = draw(st.lists(single, min_size=1, max_size=10))
    n_cbits = draw(st.one_of(st.integers(1, n + 1), st.integers(60, 70)))
    measured = draw(st.lists(qubit, unique=True, min_size=1, max_size=min(n, n_cbits)))
    # counted down from the top bit, so wide registers often use cbits past 63
    cbit = st.integers(0, n_cbits - 1).map(lambda c: n_cbits - 1 - c)
    cbits = draw(st.lists(cbit, unique=True, min_size=len(measured), max_size=len(measured)))
    gates += [Gate.measure(q, c) for q, c in zip(measured, cbits)]
    return Circuit(n, n_cbits, tuple(gates))


shot_counts = st.one_of(
    st.integers(1, 3 * CHUNK),
    st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 3, 3 * CHUNK]),
)
seeds = st.integers(0, 2**64 - 1)
noises = st.one_of(
    st.none(),
    st.sampled_from([0.0, 0.5]).map(NoiseModel),
    st.floats(0.0, 0.999).map(NoiseModel),
)


# noisy shots of a register whose measured cbits lie on both sides of bit 64,
# which the strategy seldom draws
WIDE_NOISY = Circuit(3, 70, (
    Gate.h(0), Gate.rx(1, 0.7), Gate.cx(0, 2), Gate.h(2),
    Gate.measure(0, 69), Gate.measure(1, 3), Gate.measure(2, 40),
))


@settings(max_examples=40, deadline=None)
@given(circuits(), shot_counts, seeds, noises)
@example(WIDE_NOISY, 2 * CHUNK + 3, 7, NoiseModel(0.1))
@example(WIDE_NOISY, 2 * CHUNK + 3, 7, NoiseModel(0.5))
# five measured bits: every piece after the first starts its flips at
# shots + start * 5, which is 1 mod 4, inside a Philox block
@example(all_same_check_circuit(), 3 * CHUNK + 1, 11, NoiseModel(0.02))
def test_counts_match_one_shot_oracle(circuit, shots, seed, noise):
    hist = sample_shots(circuit, shots, seed, noise)
    assert hist.counts == one_shot_counts(circuit, shots, seed, noise)
    assert list(hist.counts) == sorted(hist.counts)


@settings(max_examples=25, deadline=None)
@given(circuits(), shot_counts, seeds, noises)
def test_counts_sum_to_shots(circuit, shots, seed, noise):
    hist = sample_shots(circuit, shots, seed, noise)
    assert sum(hist.counts.values()) == shots
    assert all(count > 0 for count in hist.counts.values())


@settings(max_examples=25, deadline=None)
@given(circuits(), shot_counts, seeds)
def test_noiseless_support_within_ideal_support(circuit, shots, seed):
    assert set(sample_shots(circuit, shots, seed).counts) <= set(simulate_ideal(circuit))


@settings(max_examples=25, deadline=None)
@given(circuits(), shot_counts, seeds)
def test_zero_noise_equals_no_noise(circuit, shots, seed):
    assert sample_shots(circuit, shots, seed, NoiseModel(0.0)).counts == sample_shots(circuit, shots, seed).counts


def normalised_cdf(weights: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    return cdf


ALL_SAME_CDF = normalised_cdf(np.array(list(simulate_ideal(all_same_check_circuit()).values())))


@st.composite
def cdfs(draw):
    """Normalised CDFs of 1-600 outcomes: skewed weights, and dyadic ones that land on bucket edges.

    Some reach 1.0, or round just above it, before their last entry.
    """
    size = draw(st.integers(1, 600))
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.integers(0, 8), min_size=size, max_size=size)), dtype=float)
        weights = 2.0 ** -weights
    else:
        weights = np.array(draw(st.lists(st.floats(1e-12, 1.0), min_size=size, max_size=size)))
        weights[draw(st.integers(0, size - 1))] = 1e6
    cdf = normalised_cdf(weights)
    tail = draw(st.integers(0, size - 1))
    cdf[tail:-1] = draw(st.sampled_from([cdf[tail:-1], 1.0, np.nextafter(1.0, 2.0)]))
    return cdf


def bucket_and_step_words(cdf: np.ndarray, size: int) -> np.ndarray:
    """Each guide bucket's first word and the word before it, each step's first word and the word before it, 0 and 2**64 - 1."""
    firsts = [g << (65 - size.bit_length()) for g in range(size)]
    steps = [math.ceil(math.ldexp(c, 53)) << 11 for c in cdf.tolist() if c < 1.0]
    words = {0, 2**64 - 1}
    for w in firsts + steps:
        words.update((w, (w - 1) % 2**64))
    return np.array(sorted(words), dtype=np.uint64)


@settings(max_examples=60, deadline=None)
@given(cdfs(), seeds)
@example(ALL_SAME_CDF, 0)
def test_guide_search_equals_binary_search(cdf, seed):
    steps, guide = _guide_table(cdf)
    assert len(guide) >= 4 * len(cdf) and len(guide) & (len(guide) - 1) == 0
    raw = np.concatenate([bucket_and_step_words(cdf, len(guide)), np.random.Philox(key=seed).random_raw(4096)])
    uniforms = (raw >> np.uint64(11)) * 2.0**-53
    assert np.array_equal(_draw_outcomes(steps, guide, raw), np.searchsorted(cdf, uniforms, side="right"))


class Words:
    """A stand-in for a placed Philox stream that reads on through fixed words."""

    def __init__(self, raw: np.ndarray, word: int):
        self.raw, self.word = raw, word

    def random_raw(self, size: int) -> np.ndarray:
        self.word += size
        return self.raw[self.word - size : self.word]


def noiseless_counts_of_words(cdf: np.ndarray, raw: np.ndarray) -> tuple[np.ndarray, set]:
    """sample_shots' noiseless count per outcome of cdf when its outcome words are ``raw``, and whether it counted by bucket."""
    width = max(1, (len(cdf) - 1).bit_length())
    bucketed = set()

    def piece(steps, guide, words, stepped):
        bucketed.add(stepped is not None)
        return _piece_outcomes(steps, guide, words, stepped)

    with mock.patch("qpigeon.circuits._distribution", lambda c: (list(range(width)), np.arange(len(cdf)), np.ones(len(cdf)))), \
            mock.patch("qpigeon.circuits._guide_table", lambda _: _guide_table(cdf)), \
            mock.patch("qpigeon.circuits._philox", lambda seed, word: Words(raw, word)), \
            mock.patch("qpigeon.circuits._piece_outcomes", piece):
        hist = sample_shots(Circuit(1, width, ()), len(raw), 0)
    counts = np.zeros(len(cdf), dtype=np.int64)
    for key, count in hist.counts.items():
        counts[int(key, 2)] = count
    return counts, bucketed


# skewed supports of 8,192 and 8,193 outcomes: guides of CHUNK and of 2 * CHUNK
# buckets, on either side of the switch from the bucket tally to per-word draws
SWITCH_CDFS = [normalised_cdf(np.random.default_rng(size).random(size) ** 4) for size in (CHUNK // 4, CHUNK // 4 + 1)]


@settings(max_examples=60, deadline=None)
@given(cdfs(), seeds)
@example(ALL_SAME_CDF, 0)
# steps at 1/7 and 3/7 lie inside buckets of 1/16
@example(normalised_cdf(np.array([1.0, 2.0, 4.0])), 1)
@example(SWITCH_CDFS[0], 2)
@example(SWITCH_CDFS[1], 3)
def test_noiseless_bucket_tally_equals_binary_search(cdf, seed):
    steps, guide = _guide_table(cdf)
    raw = np.concatenate([bucket_and_step_words(cdf, len(guide)), np.random.Philox(key=seed).random_raw(4096)])
    counts, bucketed = noiseless_counts_of_words(cdf, raw)
    uniforms = (raw >> np.uint64(11)) * 2.0**-53
    assert np.array_equal(counts, np.bincount(np.searchsorted(cdf, uniforms, side="right"), minlength=len(cdf)))
    assert bucketed == {len(guide) <= CHUNK}


def test_every_step_of_the_all_same_circuit_lies_on_a_bucket_edge():
    # 28 of its 32 cdf entries are multiples of 1/32; the other 4 lie a few
    # ulps below one, where no uniform lies, so their steps round up onto
    # the edge and no bucket needs a search
    steps, guide = _guide_table(ALL_SAME_CDF)
    assert len(ALL_SAME_CDF) == 32 and np.count_nonzero(ALL_SAME_CDF * 32 % 1 == 0) == 28
    assert np.array_equal(steps, np.arange(1, 33, dtype=np.uint64) << np.uint64(48))
    assert 32 not in guide


@pytest.mark.parametrize("chunk", [1, 2, 3, 6, 1001, 4097])
@pytest.mark.parametrize("circuit", [all_same_check_circuit(), WIDE_NOISY], ids=["all_same", "wide"])
@pytest.mark.parametrize("noise", [None, NoiseModel(0.1)], ids=["clean", "noisy"])
def test_pieces_of_any_size_match_one_shot_oracle(monkeypatch, chunk, circuit, noise):
    # none of these sizes is a multiple of 4, so most pieces start both of
    # their streams inside a Philox counter step, and with 1-3 shots a piece
    # a thread reads several pieces from one counter step
    monkeypatch.setattr("qpigeon.circuits.CHUNK", chunk)
    shots = 3 * chunk + 2
    assert sample_shots(circuit, shots, 7, noise).counts == one_shot_counts(circuit, shots, 7, noise)


def test_wide_skewed_support_matches_one_shot_oracle():
    # almost all of the weight on 0...0: 386 outcomes above the floor, up to 130 of them in one guide bucket
    n = 10
    circuit = Circuit(n, n, tuple([Gate.rx(q, 0.05) for q in range(n)] + [Gate.measure(q, q) for q in range(n)]))
    for noise in (None, NoiseModel(0.01)):
        assert sample_shots(circuit, 2 * CHUNK + 5, 7, noise).counts == one_shot_counts(circuit, 2 * CHUNK + 5, 7, noise)


@pytest.mark.parametrize("seed", [0, 2024, 2**64 - 1])
def test_seek_gives_the_words_of_a_fresh_stream(seed):
    # _philox placed on both sides of the first few counter steps, against
    # a fresh Philox drawn up to the word
    fresh = np.random.Philox(key=seed).random_raw(64)
    for word in (0, 1, 3, 4, 5, 7, 8, 11, 12, 13, 31, 32, 33):
        assert np.array_equal(_philox(seed, word).random_raw(16), fresh[word : word + 16])
    # a word past 2**66, where the counter carries into its second 64-bit
    # limb, against advance, which steps the counter without drawing
    for word in (2**66 - 5, 2**66 - 1, 2**66, 2**66 + 6):
        ahead = np.random.Philox(key=seed)
        ahead.advance(word // 4)
        ahead.random_raw(word % 4)
        assert np.array_equal(_philox(seed, word).random_raw(8), ahead.random_raw(8))


FLIP_PROBS = (0.0, 5e-324, 2.0**-53, 0.02, 0.5, 1.0 - 2.0**-53)


@pytest.mark.parametrize("p", FLIP_PROBS)
@pytest.mark.parametrize("offset", range(8))
def test_integer_flip_test_equals_the_float_one(p, offset):
    # the sampler's _philox placed at word `offset`, across two counter
    # steps, against a Generator that draws up to it
    seed, n = 2024, 4096
    raw = _philox(seed, offset).random_raw(n)
    drawn = np.random.Generator(np.random.Philox(key=seed))
    drawn.random(offset)
    uniforms = drawn.random(n)
    assert np.array_equal((raw >> np.uint64(11)) * 2.0**-53, uniforms)
    limit = _flip_limit(p)
    assert np.array_equal(raw < limit, uniforms < p)
    # random words seldom land next to the bound: try the words around it
    near = np.array([int(limit) + d for d in (-2049, -2048, -1, 0, 1, 2047, 2048) if 0 <= int(limit) + d < 2**64],
                    dtype=np.uint64)
    assert np.array_equal(near < limit, (near >> np.uint64(11)) * 2.0**-53 < p)


@pytest.mark.parametrize("failing_piece", [0, 1, 2])
def test_an_error_in_any_piece_is_raised_and_leaves_no_thread(monkeypatch, failing_piece):
    # of 3 * CHUNK shots, the caller's first and second pieces and the helper's first
    seed = 5
    first_word = np.random.Philox(key=seed).random_raw(3 * CHUNK)[[0, CHUNK, 3 * CHUNK // 2][failing_piece]]

    def piece(steps, guide, raw, stepped):
        if raw[0] == first_word:
            raise RuntimeError(f"piece {failing_piece}")
        return _piece_outcomes(steps, guide, raw, stepped)

    monkeypatch.setattr("qpigeon.circuits._piece_outcomes", piece)
    before = threading.active_count()
    for noise in (None, NoiseModel(0.02)):
        with pytest.raises(RuntimeError, match=f"piece {failing_piece}"):
            sample_shots(all_same_check_circuit(), 3 * CHUNK, seed, noise)
        assert threading.active_count() == before


def test_only_runs_of_more_than_chunk_shots_start_the_helper(monkeypatch):
    # outcome words drawn per thread
    words = {}

    def piece(steps, guide, raw, stepped):
        words[threading.get_ident()] = words.get(threading.get_ident(), 0) + len(raw)
        return _piece_outcomes(steps, guide, raw, stepped)

    monkeypatch.setattr("qpigeon.circuits._piece_outcomes", piece)
    for noise in (None, NoiseModel(0.02)):
        words.clear()
        sample_shots(all_same_check_circuit(), CHUNK, 1, noise)
        assert words == {threading.get_ident(): CHUNK}
        words.clear()
        sample_shots(all_same_check_circuit(), CHUNK + 1, 1, noise)
        assert len(words) == 2
        assert sorted(words.values()) == [(CHUNK + 1) // 2, (CHUNK + 2) // 2]


def test_concurrent_calls_keep_every_count():
    # more sampling threads than cores, switching often: a lost update to a
    # shared tally would change some call's counts
    circuit, shots = all_same_check_circuit(), 4 * CHUNK + 3
    calls = [(seed, noise) for seed in range(3) for noise in (None, NoiseModel(0.02))]
    expected = [sample_shots(circuit, shots, seed, noise).counts for seed, noise in calls]
    results = [None] * len(calls)

    def run(i):
        results[i] = sample_shots(circuit, shots, *calls[i]).counts

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected
