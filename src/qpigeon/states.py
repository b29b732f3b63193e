"""Exact complex state vectors, and the gates of qpigeon.gates applied to them.

Qubit q[0] is the least significant bit of the basis index and is written
rightmost in ket labels, so |q2 q1 q0> maps to index 4*q2 + 2*q1 + q0.
States and gates are immutable values; every operation returns a new state
and never mutates its inputs, so they are safe to share between threads.

A run of gates (one for apply_gate, n Hadamards for plus_state, a circuit's
unitaries for circuits.simulate_ideal) goes through one kernel and one
mutable work buffer, after the in-place strided kernels of Haner and
Steiger (arXiv:1704.01127): the first gate reads the input state (a run
from |0...0> writes it into the buffer instead), every later one rewrites
the buffer in place with a fixed scratch of 2 * _PASS_PAIRS amplitudes,
and the buffer is frozen into a StateVector once, at the end, without a
copy.  A single-qubit gate on a qubit q >= 1 whose pair blocks of 2 * 2^q
amplitudes fit four to the scratch walks the state in contiguous blocks
through the scratch: numpy runs a complex ufunc on a 1-D contiguous block
about twice as fast per element as on strided pieces with short rows, and
copies the input of an in-place ufunc on interleaved pieces of one array.
Every other gate is one pair view (the two halves of the pairs it mixes)
walked piece by piece.  Either way a single-qubit gate uses the same
complex products and sums as a plain numpy expression, so amplitudes are
bit-for-bit those of gate-by-gate evaluation, and a CX, in place or not,
swaps the halves through the scratch.  No 2^n x 2^n gate matrix is
materialised, and the work buffer is a run's only state-sized allocation.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gates import BARRIER, CX, H, MEASURE, RX, X, Gate, _check_fits, _check_index, _check_signs  # noqa: F401 - perfbench/ reads states.RX

MAX_QUBITS = 24

# amplitude pairs per piece of a gate's walk in _apply: a piece's two
# halves and the two scratch halves (1 MiB in all) stay in a 2 MiB L2
# cache, which made gates on 22 qubits about a third faster than passes
# over half the state; a run's scratch is one such pair of halves (in the
# block walk, one contiguous block and H's coefficients)
_PASS_PAIRS = 1 << 14

_SQRT_HALF = math.sqrt(0.5)
_H_MATRIX = np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=complex)
_X_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _rx_matrix(theta: float) -> np.ndarray:
    # exp(-i*theta*sigma_x/2); theta = pi/2 maps the circular basis onto {|0>, |1>}
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _check_qubit_count(n_qubits: int) -> int:
    return _check_index(n_qubits, "n_qubits", 1, MAX_QUBITS + 1)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Dense amplitude vector over ``2**n_qubits`` computational basis states.

    The amplitude array is copied on construction, checked (shape, finite)
    and frozen read-only.  States built by this module's gate runs take
    ownership of their work buffer instead of copying it, with the same
    checks.  ``norm_sq``, the sum of |amps|^2, is computed at construction
    by the pass that checks the amplitudes finite.  A state built from given
    amplitudes keeps their norm, which need not be 1; nothing here
    renormalises implicitly.  Two states are equal, and hash alike, when
    their qubit counts and amplitude bytes are equal, so 0.0 and -0.0
    amplitudes differ.
    """

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", _check_qubit_count(self.n_qubits))
        object.__setattr__(self, "amps", np.array(self.amps, dtype=np.complex128, copy=True))
        self._freeze()

    @classmethod
    def _owning(cls, n_qubits: int, amps: np.ndarray) -> "StateVector":
        """Wrap a complex128 array nobody else holds, without the defensive copy."""
        state = object.__new__(cls)
        object.__setattr__(state, "n_qubits", n_qubits)
        object.__setattr__(state, "amps", amps)
        state._freeze()
        return state

    def _freeze(self):
        amps = self.amps
        if amps.shape != (2**self.n_qubits,):
            raise ValueError(f"expected {2**self.n_qubits} amplitudes, got shape {amps.shape}")
        # a nan or infinite entry makes the sum of squares nan or inf; only
        # then do max and min, which carry any nan and reach any infinity,
        # tell a bad entry from finite entries whose squares overflow
        norm_sq = float(np.vdot(amps, amps).real)
        if not math.isfinite(norm_sq):
            flat = amps.view(np.float64)
            if not (np.isfinite(flat.max()) and np.isfinite(flat.min())):
                raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "norm_sq", norm_sq)
        amps.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.n_qubits == other.n_qubits and self.amps.tobytes() == other.amps.tobytes()

    def __hash__(self):
        return hash((self.n_qubits, self.amps.tobytes()))

    @cached_property
    def norm_sq(self) -> float:
        """Sum of |amps|^2, as ``np.vdot(amps, amps).real``."""
        return float(np.vdot(self.amps, self.amps).real)


def basis_state(n_qubits: int, index: int) -> StateVector:
    """Computational basis state |index>, 0 <= index < 2**n_qubits, on 1..MAX_QUBITS qubits; both integers, not bools."""
    n_qubits = _check_qubit_count(n_qubits)
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[_check_index(index, "basis index", 0, 2**n_qubits)] = 1.0
    return StateVector._owning(n_qubits, amps)


def plus_state(n_qubits: int) -> StateVector:
    """Uniform superposition, built as H on every qubit of |0...0>.

    Built gate by gate rather than filled with 2**(-n/2) so that it is
    bit-for-bit identical to n sequential Hadamard applications.
    """
    return _evolve(n_qubits, [Gate.h(q) for q in range(_check_qubit_count(n_qubits))])


def plus_i_state(signs: tuple[int, ...]) -> StateVector:
    """Product of circular-basis states (|0> + i*s|1>)/sqrt(2), s = signs[k] on qubit k.

    ``signs`` entries must be the int +1 or -1, not a bool.  Flipping every
    sign conjugates all amplitudes.
    """
    signs = _check_signs(signs)
    n = _check_qubit_count(len(signs))
    factors = [np.array([_SQRT_HALF, 1j * s * _SQRT_HALF], dtype=complex) for s in signs]
    amps = factors[n - 1]
    for k in range(n - 2, -1, -1):
        amps = np.kron(amps, factors[k])
    return StateVector(n, amps)


def _matrix(gate: Gate) -> np.ndarray:
    if gate.kind == H:
        return _H_MATRIX
    if gate.kind == X:
        return _X_MATRIX
    return _rx_matrix(gate.theta)


def _pairs(amps: np.ndarray, n: int, gate: Gate) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Views x0, x1 of the two halves of the amplitude pairs ``gate`` mixes, each (high, mid, low).

    The third view is the control-0 block a CX leaves alone, and None for a
    single-qubit gate.  A CX reshapes to (high, 2, mid, 2, low), whose axes
    1 and 3 are the higher and the lower of its two qubits.
    """
    if gate.kind != CX:
        psi = amps.reshape(-1, 2, 1, 1 << gate.qubit)
        return psi[:, 0], psi[:, 1], None
    upper, lower = max(gate.qubit, gate.target), min(gate.qubit, gate.target)
    psi = amps.reshape(1 << (n - 1 - upper), 2, 1 << (upper - 1 - lower), 2, 1 << lower)
    if gate.qubit == upper:
        return psi[:, 1, :, 0], psi[:, 1, :, 1], psi[:, 0]
    return psi[:, 0, :, 1], psi[:, 1, :, 1], psi[:, :, :, 0]


def _apply(src: np.ndarray, dst: np.ndarray, gate: Gate, n: int, scratch: np.ndarray) -> None:
    """Write gate * src into dst; dst may be src, which is then updated in place.

    ``scratch`` holds a power of two of amplitudes, at least 2 and at most
    len(src), and is overwritten.  A single-qubit gate on qubit q >= 1 whose
    pair blocks of 2 * 2**q amplitudes fit four to the scratch walks
    contiguous blocks of half the scratch: dst = m00 * src (H: [m00, m11]
    per pair block, from the other half), then dst += m01 * src with each
    pair block's halves swapped.  Every other gate is one walk over the
    pairs of ``_pairs``, in pieces of at most len(scratch) // 2 pairs, after
    an out-of-place CX copies the control-0 block.  Either way a single-qubit
    gate computes m00*x0 + m01*x1 and m10*x0 + m11*x1 with the same complex
    products and sums as a plain numpy expression, so amplitudes do not
    depend on buffers.
    """
    size = len(scratch) // 2
    # on qubit 0 the swap copies rows of one amplitude and costs more than it saves
    if gate.kind != CX and 0 < gate.qubit and 2 << gate.qubit <= size // 2:
        m00, m01, m10, m11 = _matrix(gate).ravel()
        # H, X and RX are symmetric, so m01 * swapped is m01*x1 and m10*x0 at once
        assert m01 == m10
        swapped, coef = scratch[:size].reshape(-1, 2, 1 << gate.qubit), scratch[size:]
        if m00 != m11:
            coef.reshape(swapped.shape)[:, 0] = m00
            coef.reshape(swapped.shape)[:, 1] = m11
        for start in range(0, len(src), size):
            piece, out = src[start : start + size], dst[start : start + size]
            np.copyto(swapped[:, 0], piece.reshape(swapped.shape)[:, 1])
            np.copyto(swapped[:, 1], piece.reshape(swapped.shape)[:, 0])
            # the piece is spent once swapped, so out may be the piece
            np.multiply(m00 if m00 == m11 else coef, piece, out=out)
            np.multiply(m01, scratch[:size], out=scratch[:size])
            np.add(out, scratch[:size], out=out)
        return
    a0, a1, idle = _pairs(src, n, gate)
    b0, b1, idle_out = _pairs(dst, n, gate)
    if idle is not None and dst is not src:
        np.copyto(idle_out, idle)
    # all axes and sizes are powers of two, so every piece has one shape
    highs, mids, lows = a0.shape
    stack = min(highs, max(1, size // (mids * lows)))
    rows, cols = min(mids, max(1, size // lows)), min(lows, size)
    t0 = scratch[: stack * rows * cols].reshape(stack, rows, cols)
    t1 = scratch[size : size + stack * rows * cols].reshape(stack, rows, cols)
    if idle is None:
        m00, m01, m10, m11 = _matrix(gate).ravel()
    for i in range(0, highs, stack):
        for j in range(0, mids, rows):
            for k in range(0, lows, cols):
                where = (slice(i, i + stack), slice(j, j + rows), slice(k, k + cols))
                x0, x1, y0, y1 = a0[where], a1[where], b0[where], b1[where]
                if idle is not None:
                    # a copy between interleaved pieces of one array would
                    # make numpy buffer it, so a swap goes through the scratch
                    np.copyto(t0, x0)
                    np.copyto(t1, x1)
                    np.copyto(y0, t1)
                    np.copyto(y1, t0)
                    continue
                np.multiply(m00, x0, out=t0)
                np.multiply(m10, x0, out=t1)
                # x0 is spent, so y0 may be its slot
                np.multiply(m01, x1, out=y0)
                np.add(t0, y0, out=y0)
                np.multiply(m11, x1, out=t0)
                np.add(t1, t0, out=y1)


def _evolve(n: int, gates: Sequence[Gate], start: StateVector | None = None) -> StateVector:
    """Apply unitary gates in order to ``start``, or to |0...0> if it is None, frozen once at the end.

    A run from |0...0> writes it into the work buffer and runs every gate
    in place.  Otherwise the first gate reads ``start.amps``, which is never
    written, and later gates run in place.  Besides the work buffer the run
    holds only a scratch of 2 * _PASS_PAIRS amplitudes (the state size if
    that is smaller).
    """
    if start is None:
        n = _check_qubit_count(n)
        work = np.zeros(2**n, dtype=np.complex128)
        work[0] = 1.0
        src = work
    else:
        work = np.empty(2**n, dtype=np.complex128)
        src = start.amps
    scratch = np.empty(min(2 * _PASS_PAIRS, len(work)), dtype=np.complex128)
    for gate in gates:
        _apply(src, work, gate, n, scratch)
        src = work
    return StateVector._owning(n, work)


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one unitary gate (or a no-op BARRIER) and return the new state."""
    if gate.kind == MEASURE:
        raise ValueError("apply_gate handles unitaries only; measurement lives in the circuit layer")
    if gate.kind == BARRIER:
        return state
    _check_fits(gate, state.n_qubits, 0)
    return _evolve(state.n_qubits, (gate,), state)


def inner_product(bra: StateVector, ket: StateVector) -> complex:
    """<bra|ket> with the left argument conjugated."""
    if bra.n_qubits != ket.n_qubits:
        raise ValueError(f"qubit counts differ: {bra.n_qubits} vs {ket.n_qubits}")
    return complex(np.vdot(bra.amps, ket.amps))
