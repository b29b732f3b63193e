"""The two routes to the time evolution exp(-i * epsilon_t * pair count), as dense matrices.

Everything acts on the 8-dimensional space of three qubits, where basis state
|z2 z1 z0> says pigeon k sits in box z_k.  Every operator of the box algebra
is diagonal in that basis, and qpigeon.boxes holds and checks them all as one
table.  Here the evolution is computed twice, by routes that share no
arithmetic: the closed form of boxes.evolution_diagonal as a dense matrix, and
a scaled-and-squared power series that serves as its oracle.
verify_identities lives in boxes and is re-exported here, where perfbench/ reads it.
"""

import dataclasses
import math

import numpy as np

from . import boxes
from .boxes import verify_identities  # noqa: F401
from .gates import _check_real


@dataclasses.dataclass(frozen=True, eq=False)
class LinearOperator:
    """A dense complex matrix, copied, checked (square, finite) and frozen read-only on construction.

    Operators are equal, and hash alike, when their matrix bytes are equal, so 0.0 and -0.0 differ.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(np.float64))):
            raise ValueError("operator entries must be finite")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __eq__(self, other):
        if not isinstance(other, LinearOperator):
            return NotImplemented
        return self.matrix.tobytes() == other.matrix.tobytes()

    def __hash__(self):
        return hash(self.matrix.tobytes())


def evolution_closed_form(epsilon_t: float) -> LinearOperator:
    """exp(-i * epsilon_t * pair count) as a dense operator; see boxes.evolution_diagonal."""
    return LinearOperator(np.diag(boxes.evolution_diagonal(epsilon_t)))


def evolution_series(epsilon_t: float) -> LinearOperator:
    """Same unitary as evolution_closed_form, by scaled-and-squared Taylor series.

    The generator is scaled by 2**s until its 1-norm is below 1/2, the series
    is summed until terms vanish at double precision, and the result is
    squared s times.  Shares no code path with the closed form, so agreement
    between the two is a real check.  Each squaring doubles the rounding
    error, so the series is an oracle only for moderate couplings: ValueError
    naming epsilon_t when it overflows or its result is not unitary to 1e-10
    (from about |epsilon_t| = 1e5).
    """
    epsilon_t = _check_real(epsilon_t, "epsilon_t")
    eye = np.eye(len(boxes.PAIR_COUNT_DIAGONAL), dtype=complex)
    try:
        with np.errstate(over="raise"):
            gen = -1j * epsilon_t * np.diag(boxes.PAIR_COUNT_DIAGONAL)
            norm1 = float(np.max(np.sum(np.abs(gen), axis=0)))
            # ceil(log2(norm1 / 0.5)), without the overflow of norm1 / 0.5
            mantissa, exponent = math.frexp(norm1)
            scale = 0 if norm1 < 0.5 else exponent if mantissa == 0.5 else exponent + 1
            small = gen / np.ldexp(1.0, scale)
            total = term = eye
            for k in range(1, 64):
                term = term @ small / k
                total = total + term
                if np.max(np.abs(term)) < 1e-18:
                    break
            for _ in range(scale):
                total = total @ total
            unitary = np.max(np.abs(total.conj().T @ total - eye)) <= 1e-10
    except FloatingPointError:
        unitary = False
    if not unitary:
        raise ValueError(f"evolution_series overflows or is not unitary to 1e-10 at epsilon_t={epsilon_t!r}")
    return LinearOperator(total)
