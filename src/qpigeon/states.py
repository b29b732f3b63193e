"""Exact complex state vectors and the small gate set used by the box-parity circuits.

Qubit q[0] is the least significant bit of the basis index and is written
rightmost in ket labels, so |q2 q1 q0> maps to index 4*q2 + 2*q1 + q0.
States and gates are immutable values; every operation returns a new state
and never mutates its inputs, so they are safe to share between threads.

A run of gates (one for apply_gate, n Hadamards for plus_state, a circuit's
unitaries for circuits.simulate_ideal) goes through one kernel and one
mutable work buffer, after the in-place strided kernels of Haner and
Steiger (arXiv:1704.01127): the first gate reads the input state, every
later one rewrites the buffer in place with a half-size scratch, and the
buffer is frozen into a StateVector once, at the end, without a copy.  A
single-qubit gate uses the same complex products and sums as a plain numpy
expression, so amplitudes are bit-for-bit those of gate-by-gate evaluation;
CX is a swap of two blocks of a reshaped view.  The full 2^n x 2^n matrix
of a gate is never materialised here.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAX_QUBITS = 24

H = "H"
X = "X"
RX = "RX"
CX = "CX"
BARRIER = "BARRIER"
MEASURE = "MEASURE"

UNITARY_KINDS = frozenset({H, X, RX, CX})
GATE_KINDS = UNITARY_KINDS | {BARRIER, MEASURE}

# amplitude pairs per pass of a single-qubit gate: the pass's two input
# blocks and two temporaries (1 MiB in all) stay in a 2 MiB L2 cache, which
# made gates on 22 qubits about a third faster than passes over half the state
_PASS_PAIRS = 1 << 14

_SQRT_HALF = math.sqrt(0.5)
_H_MATRIX = np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=complex)
_X_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _rx_matrix(theta: float) -> np.ndarray:
    # exp(-i*theta*sigma_x/2); theta = pi/2 maps the circular basis onto {|0>, |1>}
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


@dataclass(frozen=True)
class Gate:
    """One instruction: a unitary from {H, X, RX, CX}, a BARRIER, or a MEASURE.

    ``qubit`` is the control for CX and the measured qubit for MEASURE.
    ``target`` is only set for CX, ``theta`` only for RX, ``cbit`` only for
    MEASURE.  A BARRIER carries no indices and acts on the whole register.
    """

    kind: str
    qubit: int | None = None
    target: int | None = None
    theta: float | None = None
    cbit: int | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == BARRIER:
            if (self.qubit, self.target, self.theta, self.cbit) != (None, None, None, None):
                raise ValueError("BARRIER takes no operands")
            return
        if self.qubit is None or self.qubit < 0:
            raise ValueError(f"{self.kind} needs a nonnegative qubit index")
        if self.kind == CX:
            if self.target is None or self.target < 0:
                raise ValueError("CX needs a nonnegative target index")
            if self.target == self.qubit:
                raise ValueError("CX control and target must differ")
        elif self.target is not None:
            raise ValueError(f"{self.kind} takes no target")
        if self.kind == RX:
            if self.theta is None or not math.isfinite(self.theta):
                raise ValueError("RX needs a finite angle")
        elif self.theta is not None:
            raise ValueError(f"{self.kind} takes no angle")
        if self.kind == MEASURE:
            if self.cbit is None or self.cbit < 0:
                raise ValueError("MEASURE needs a nonnegative classical bit index")
        elif self.cbit is not None:
            raise ValueError(f"{self.kind} takes no classical bit")

    @classmethod
    def h(cls, qubit: int) -> "Gate":
        return cls(H, qubit=qubit)

    @classmethod
    def x(cls, qubit: int) -> "Gate":
        return cls(X, qubit=qubit)

    @classmethod
    def rx(cls, qubit: int, theta: float) -> "Gate":
        return cls(RX, qubit=qubit, theta=theta)

    @classmethod
    def cx(cls, control: int, target: int) -> "Gate":
        return cls(CX, qubit=control, target=target)

    @classmethod
    def barrier(cls) -> "Gate":
        return cls(BARRIER)

    @classmethod
    def measure(cls, qubit: int, cbit: int) -> "Gate":
        return cls(MEASURE, qubit=qubit, cbit=cbit)


@dataclass(frozen=True)
class StateVector:
    """Dense amplitude vector over ``2**n_qubits`` computational basis states.

    The amplitude array is copied on construction, checked (shape, finite)
    and frozen read-only.  States built by this module's gate runs take
    ownership of their work buffer instead of copying it, with the same
    checks.  ``norm_sq``, the exact sum of |amps|^2, is computed on first
    read and then kept.  Projected states may carry ``norm_sq`` < 1; nothing
    here renormalises implicitly.
    """

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}, got {self.n_qubits}")
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
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        amps.flags.writeable = False

    @cached_property
    def norm_sq(self) -> float:
        """Sum of |amps|^2, as ``np.vdot(amps, amps).real``."""
        return float(np.vdot(self.amps, self.amps).real)


def basis_state(n_qubits: int, index: int) -> StateVector:
    """Computational basis state |index> on ``n_qubits`` qubits."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n_qubits}")
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
    return _evolve(basis_state(n_qubits, 0), [Gate.h(q) for q in range(n_qubits)])


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
    # views of the control-0 half and of the control-1 amplitudes with target 0 and 1;
    # on the (2,)*n view, axis n-1-q is qubit q; the trailing Ellipsis keeps
    # a fully indexed block an array view rather than a scalar
    psi = amps.reshape((2,) * n)
    where = [slice(None)] * n + [Ellipsis]
    where[n - 1 - control] = 0
    idle = psi[tuple(where)]
    where[n - 1 - control] = 1
    where[n - 1 - target] = 0
    low = psi[tuple(where)]
    where[n - 1 - target] = 1
    return idle, low, psi[tuple(where)]


def _apply(src: np.ndarray, dst: np.ndarray, gate: Gate, n: int, scratch: np.ndarray) -> None:
    """Write gate * src into dst; dst may be src, which is then updated in place.

    ``scratch`` holds at least max(2, len(src) // 2) amplitudes and is
    overwritten.  A single-qubit gate computes m00*a0 + m01*a1 and
    m10*a0 + m11*a1 with the same complex products and sums as a plain
    numpy expression, so the amplitudes do not depend on the buffers used.
    """
    if gate.kind == CX:
        idle, low, high = _cx_blocks(src, n, gate.qubit, gate.target)
        if dst is src:
            # copies between interleaved views of one array would make numpy
            # buffer a whole block, so both pass through the scratch
            held_low = scratch[: low.size].reshape(low.shape)
            held_high = scratch[low.size : 2 * low.size].reshape(low.shape)
            np.copyto(held_low, low)
            np.copyto(held_high, high)
            np.copyto(low, held_high)
            np.copyto(high, held_low)
        else:
            idle_out, low_out, high_out = _cx_blocks(dst, n, gate.qubit, gate.target)
            np.copyto(idle_out, idle)
            np.copyto(low_out, high)
            np.copyto(high_out, low)
        return
    m00, m01, m10, m11 = _matrix(gate).ravel()
    # view as (high bits, target bit, low bits); qubit q has stride 2**q
    width = 1 << gate.qubit
    a = src.reshape(-1, 2, width)
    b = dst.reshape(-1, 2, width)
    # passes of at most _PASS_PAIRS pairs and at most half of them, so both
    # temporaries fit in the scratch
    size = max(1, min(_PASS_PAIRS, len(src) // 4))
    rows, cols = max(1, size // width), min(size, width)
    t0 = scratch[:size].reshape(rows, cols)
    t1 = scratch[size : 2 * size].reshape(rows, cols)
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


def _evolve(state: StateVector, gates: Sequence[Gate]) -> StateVector:
    """Apply unitary gates in order through one work buffer, frozen once at the end.

    The first gate reads ``state.amps`` and every later one runs in place;
    ``state`` itself is never written.
    """
    if not gates:
        return state
    n = state.n_qubits
    work = np.empty(2**n, dtype=np.complex128)
    scratch = np.empty(max(2, len(work) // 2), dtype=np.complex128)
    src = state.amps
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
    return _evolve(state, (gate,))


def inner_product(bra: StateVector, ket: StateVector) -> complex:
    """<bra|ket> with the left argument conjugated."""
    if bra.n_qubits != ket.n_qubits:
        raise ValueError(f"qubit counts differ: {bra.n_qubits} vs {ket.n_qubits}")
    return complex(np.vdot(bra.amps, ket.amps))
