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
copy.  A single-qubit gate uses the same complex products and sums as a
plain numpy expression, so amplitudes are bit-for-bit those of
gate-by-gate evaluation; CX is a swap of two blocks of a reshaped view,
piece by piece through the scratch.  The full 2^n x 2^n matrix of a gate
is never materialised here, and the work buffer is a run's only
state-sized allocation.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gates import BARRIER, CX, H, MEASURE, RX, X, Gate  # noqa: F401 - perfbench/ reads states.RX

MAX_QUBITS = 24

# amplitude pairs per pass of a single-qubit gate, and per piece of a CX
# swap: the pass's two input blocks and two temporaries (1 MiB in all) stay
# in a 2 MiB L2 cache, which made gates on 22 qubits about a third faster
# than passes over half the state; a run's scratch holds two of them
_PASS_PAIRS = 1 << 14

_SQRT_HALF = math.sqrt(0.5)
_H_MATRIX = np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=complex)
_X_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _rx_matrix(theta: float) -> np.ndarray:
    # exp(-i*theta*sigma_x/2); theta = pi/2 maps the circular basis onto {|0>, |1>}
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _check_qubit_count(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n_qubits}")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Dense amplitude vector over ``2**n_qubits`` computational basis states.

    The amplitude array is copied on construction, checked (shape, finite)
    and frozen read-only.  States built by this module's gate runs take
    ownership of their work buffer instead of copying it, with the same
    checks.  ``norm_sq``, the exact sum of |amps|^2, is computed on first
    read and then kept.  Projected states may carry ``norm_sq`` < 1; nothing
    here renormalises implicitly.  Two states are equal, and hash alike,
    when their qubit counts and amplitude bytes are equal, so 0.0 and -0.0
    amplitudes differ.
    """

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        _check_qubit_count(self.n_qubits)
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
        # max and min carry any nan and reach any infinity, with no array of flags
        flat = amps.view(np.float64)
        if not (np.isfinite(flat.max()) and np.isfinite(flat.min())):
            raise ValueError("amplitudes must be finite")
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
    """Computational basis state |index> on ``n_qubits`` qubits."""
    _check_qubit_count(n_qubits)
    if not 0 <= index < 2**n_qubits:
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector._owning(n_qubits, amps)


def plus_state(n_qubits: int) -> StateVector:
    """Uniform superposition, built as H on every qubit of |0...0>.

    Built gate by gate rather than filled with 2**(-n/2) so that it is
    bit-for-bit identical to n sequential Hadamard applications.
    """
    return _evolve(n_qubits, [Gate.h(q) for q in range(n_qubits)])


def plus_i_state(signs: tuple[int, ...]) -> StateVector:
    """Product of circular-basis states (|0> + i*s|1>)/sqrt(2), s = signs[k] on qubit k.

    ``signs`` entries must be +1 or -1.  Flipping every sign conjugates all
    amplitudes.
    """
    n = len(signs)
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"need 1..{MAX_QUBITS} signs, got {n}")
    if any(s not in (1, -1) for s in signs):
        raise ValueError(f"signs must be +1 or -1, got {signs!r}")
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


def _cx_blocks(amps: np.ndarray, n: int, control: int, target: int) -> tuple[np.ndarray, ...]:
    # views of the control-0 half and of the control-1 amplitudes with target
    # 0 and 1, on a (high, 2, mid, 2, low) view whose axes 1 and 3 are the
    # higher and the lower of the two qubits
    upper, lower = max(control, target), min(control, target)
    psi = amps.reshape(1 << (n - 1 - upper), 2, 1 << (upper - 1 - lower), 2, 1 << lower)
    if control == upper:
        return psi[:, 0], psi[:, 1, :, 0], psi[:, 1, :, 1]
    return psi[:, :, :, 0], psi[:, 0, :, 1], psi[:, 1, :, 1]


def _apply(src: np.ndarray, dst: np.ndarray, gate: Gate, n: int, scratch: np.ndarray) -> None:
    """Write gate * src into dst; dst may be src, which is then updated in place.

    ``scratch`` holds a power of two of amplitudes, at least 2 and at most
    len(src), and is overwritten: a pass of a single-qubit gate or a piece
    of an in-place CX uses its two halves.  A single-qubit gate computes
    m00*a0 + m01*a1 and m10*a0 + m11*a1 with the same complex products and
    sums as a plain numpy expression, so the amplitudes do not depend on
    the buffers used.
    """
    size = len(scratch) // 2
    if gate.kind == CX:
        idle, low, high = _cx_blocks(src, n, gate.qubit, gate.target)
        if dst is not src:
            idle_out, low_out, high_out = _cx_blocks(dst, n, gate.qubit, gate.target)
            np.copyto(idle_out, idle)
            np.copyto(low_out, high)
            np.copyto(high_out, low)
            return
        # pieces of at most size amplitudes; a copy between interleaved
        # pieces of one array would make numpy buffer it, so both pass
        # through the scratch
        tops, mids, lows = low.shape
        stack = max(1, size // (mids * lows))
        rows, cols = min(mids, max(1, size // lows)), min(lows, size)
        for i in range(0, tops, stack):
            for j in range(0, mids, rows):
                for k in range(0, lows, cols):
                    where = (slice(i, i + stack), slice(j, j + rows), slice(k, k + cols))
                    a, b = low[where], high[where]
                    held_a = scratch[: a.size].reshape(a.shape)
                    held_b = scratch[size : size + a.size].reshape(a.shape)
                    np.copyto(held_a, a)
                    np.copyto(held_b, b)
                    np.copyto(a, held_b)
                    np.copyto(b, held_a)
        return
    m00, m01, m10, m11 = _matrix(gate).ravel()
    # view as (high bits, target bit, low bits); qubit q has stride 2**q
    width = 1 << gate.qubit
    a = src.reshape(-1, 2, width)
    b = dst.reshape(-1, 2, width)
    # passes of size pairs; the scratch is at most the state, so a pass never
    # exceeds the len(src) // 2 pairs there are
    rows, cols = max(1, size // width), min(size, width)
    t0 = scratch[:size].reshape(rows, cols)
    t1 = scratch[size:].reshape(rows, cols)
    for i in range(0, a.shape[0], rows):
        for j in range(0, width, cols):
            a0, a1 = a[i : i + rows, 0, j : j + cols], a[i : i + rows, 1, j : j + cols]
            b0, b1 = b[i : i + rows, 0, j : j + cols], b[i : i + rows, 1, j : j + cols]
            np.multiply(m00, a0, out=t0)
            np.multiply(m10, a0, out=t1)
            # a0 is spent, so b0 may be its slot
            np.multiply(m01, a1, out=b0)
            np.add(t0, b0, out=b0)
            np.multiply(m11, a1, out=t0)
            np.add(t1, t0, out=b1)


def _evolve(n: int, gates: Sequence[Gate], start: StateVector | None = None) -> StateVector:
    """Apply unitary gates in order to ``start``, or to |0...0> if it is None, frozen once at the end.

    A run from |0...0> writes it into the work buffer and runs every gate
    in place.  Otherwise the first gate reads ``start.amps``, which is never
    written, and later gates run in place.  Besides the work buffer the run
    holds only a scratch of 2 * _PASS_PAIRS amplitudes (the state size if
    that is smaller).
    """
    if start is None:
        _check_qubit_count(n)
        work = np.zeros(2**n, dtype=np.complex128)
        work[0] = 1.0
        src = work
    elif not gates:
        return start
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
    n = state.n_qubits
    if gate.qubit >= n:
        raise ValueError(f"qubit {gate.qubit} out of range for {n}-qubit state")
    if gate.kind == CX and gate.target >= n:
        raise ValueError(f"target {gate.target} out of range for {n}-qubit state")
    return _evolve(n, (gate,), state)


def inner_product(bra: StateVector, ket: StateVector) -> complex:
    """<bra|ket> with the left argument conjugated."""
    if bra.n_qubits != ket.n_qubits:
        raise ValueError(f"qubit counts differ: {bra.n_qubits} vs {ket.n_qubits}")
    return complex(np.vdot(bra.amps, ket.amps))
