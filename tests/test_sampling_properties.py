"""Property tests of sample_shots on random small circuits.

The oracle is the one-shot sampler that preceded the chunked one: one
Philox stream, all outcome uniforms first, a binary search per shot, then
all readout-flip uniforms as one (shots, measured bits) block.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from qpigeon.circuits import CHUNK, NoiseModel, _draw_outcomes, _guide_table, sample_shots, simulate_ideal
from qpigeon.gates import MEASURE, Circuit, Gate


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
        codes = np.array([int(k, 2) for k in keys], dtype=np.uint64)[picks]
        for column, cbit in enumerate(measured_cbits):
            codes = codes ^ (flips[:, column].astype(np.uint64) << np.uint64(cbit))
        values, tallies = np.unique(codes, return_counts=True)
        counts = {format(int(v), f"0{circuit.n_cbits}b"): int(t) for v, t in zip(values, tallies)}
    return dict(sorted(counts.items()))


@st.composite
def circuits(draw):
    """Up to 4 qubits, 1-10 gates from {H, X, RX, CX}, a nonempty qubit subset measured into random cbits."""
    n = draw(st.integers(1, 4))
    qubit = st.integers(0, n - 1)
    angle = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
    single = st.one_of(st.builds(Gate.h, qubit), st.builds(Gate.x, qubit), st.builds(Gate.rx, qubit, angle))
    if n > 1:
        pair = st.lists(qubit, min_size=2, max_size=2, unique=True).map(lambda qs: Gate.cx(*qs))
        single = st.one_of(single, pair)
    gates = draw(st.lists(single, min_size=1, max_size=10))
    n_cbits = draw(st.integers(1, n + 1))
    measured = draw(st.lists(qubit, unique=True, min_size=1, max_size=min(n, n_cbits)))
    cbits = draw(st.permutations(range(n_cbits)))[: len(measured)]
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


@settings(max_examples=40, deadline=None)
@given(circuits(), shot_counts, seeds, noises)
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


@st.composite
def cdfs(draw):
    """Normalised CDFs of 1-600 outcomes: skewed weights, and dyadic ones that land on bucket edges."""
    size = draw(st.integers(1, 600))
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.integers(0, 8), min_size=size, max_size=size)), dtype=float)
        weights = 2.0 ** -weights
    else:
        weights = np.array(draw(st.lists(st.floats(1e-12, 1.0), min_size=size, max_size=size)))
        weights[draw(st.integers(0, size - 1))] = 1e6
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    return cdf


@settings(max_examples=60, deadline=None)
@given(cdfs(), seeds)
def test_guide_search_equals_binary_search(cdf, seed):
    guide = _guide_table(cdf)
    edges = np.arange(len(guide)) / len(guide)
    uniforms = np.concatenate([edges, np.nextafter(edges[1:], 0.0), cdf[cdf < 1.0], np.random.default_rng(seed).random(4096)])
    assert np.array_equal(_draw_outcomes(cdf, guide, uniforms), np.searchsorted(cdf, uniforms, side="right"))


def test_wide_skewed_support_matches_one_shot_oracle():
    # almost all of the weight on 0...0: 386 outcomes above the floor, up to 130 of them in one guide bucket
    n = 10
    circuit = Circuit(n, n, tuple([Gate.rx(q, 0.05) for q in range(n)] + [Gate.measure(q, q) for q in range(n)]))
    for noise in (None, NoiseModel(0.01)):
        assert sample_shots(circuit, 2 * CHUNK + 5, 7, noise).counts == one_shot_counts(circuit, 2 * CHUNK + 5, 7, noise)
