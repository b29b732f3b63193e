"""Dense numpy forms of the box algebra, and the two routes to its time evolution.

Everything acts on the 8-dimensional space of three qubits, where basis state
|z2 z1 z0> says pigeon k sits in box z_k.  Every operator here is diagonal in
that box basis; its diagonal comes from the one table in qpigeon.boxes, and
the constructors wrap it in a dense LinearOperator:

* same_box_projector(a, b): rank-4 projector onto states with pigeons a and b
  in one box.
* all_same_box_projector(): rank-2 projector onto |000> and |111>.
* pair_only_projector(a, b): rank-2 projector onto "a and b together, the
  third pigeon apart".
* shared_pair_count(): sum of the three same-box projectors, with diagonal
  [3,1,1,1,1,1,1,3].  Hermitian but not a projector; that diagonal is its
  spectrum: 1 (some pair splits off) and 3 (all together).

Two independent routes compute exp(-i * epsilon_t * shared_pair_count): the
closed form of boxes.evolution_diagonal as a dense matrix, and a
scaled-and-squared power series that serves as its oracle.
verify_identities lives in boxes and is re-exported here, where perfbench/ reads it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .boxes import ALL_SAME_DIAGONAL, ONE_PAIR_DIAGONAL, PAIR_COUNT_DIAGONAL, evolution_diagonal, same_box_diagonal
from .boxes import verify_identities  # noqa: F401
from .gates import _check_real
from .states import StateVector

DIM = 8


@dataclass(frozen=True, eq=False)
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

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def same_box_projector(a: int, b: int) -> LinearOperator:
    """Projector onto the span of basis states where pigeons a and b share a box."""
    return LinearOperator(np.diag(same_box_diagonal(a, b)))


def all_same_box_projector() -> LinearOperator:
    """Projector onto |000> and |111>: all three pigeons in one box."""
    return LinearOperator(np.diag(ALL_SAME_DIAGONAL))


def pair_only_projector(a: int, b: int) -> LinearOperator:
    """Projector onto states where exactly pigeons a and b share a box.

    Equal to same_box_projector(a, b) minus all_same_box_projector(); the
    difference of nested projectors is again a projector.
    """
    diag = np.subtract(same_box_diagonal(a, b), ALL_SAME_DIAGONAL)
    return LinearOperator(np.diag(diag))


def one_pair_projector() -> LinearOperator:
    """Projector onto states where exactly one pair shares a box (rank 6).

    The three pair_only_projector terms have disjoint ranges, so their sum
    stays a projector and together with all_same_box_projector resolves the
    identity.
    """
    return LinearOperator(np.diag(ONE_PAIR_DIAGONAL))


def shared_pair_count() -> LinearOperator:
    """Sum of the three same-box projectors; counts same-box pairs per basis state."""
    return LinearOperator(np.diag(PAIR_COUNT_DIAGONAL))


def apply_operator(op: LinearOperator, state: StateVector) -> StateVector:
    """Matrix-vector product; the result keeps its true (possibly < 1) norm_sq."""
    if op.dim != state.amps.shape[0]:
        raise ValueError(f"operator dim {op.dim} does not match state dim {state.amps.shape[0]}")
    return StateVector(state.n_qubits, op.matrix @ state.amps)


def operator_rank(op: LinearOperator) -> int:
    """Rank of a projector: its trace, rounded to an integer; ValueError unless hermitian and idempotent to 1e-12."""
    m = op.matrix
    if max(np.max(np.abs(m - m.conj().T)), np.max(np.abs(m @ m - m))) > 1e-12:
        raise ValueError("operator_rank expects a projector: a hermitian, idempotent matrix")
    return round(np.trace(m).real)


def evolution_closed_form(epsilon_t: float) -> LinearOperator:
    """exp(-i * epsilon_t * shared_pair_count) as a dense operator; see evolution_diagonal."""
    return LinearOperator(np.diag(evolution_diagonal(epsilon_t)))


def evolution_series(epsilon_t: float) -> LinearOperator:
    """Same unitary as evolution_closed_form, by scaled-and-squared Taylor series.

    The generator is scaled by 2**s until its 1-norm is below 1/2, the series
    is summed until terms vanish at double precision, and the result is
    squared s times.  Shares no code path with the closed form, so agreement
    between the two is a real check.
    """
    epsilon_t = _check_real(epsilon_t, "epsilon_t")
    if not math.isfinite(3.0 * epsilon_t):
        raise ValueError(f"3 * epsilon_t must be finite, got epsilon_t={epsilon_t!r}")
    gen = -1j * epsilon_t * shared_pair_count().matrix
    norm1 = float(np.max(np.sum(np.abs(gen), axis=0)))
    scale = 0 if norm1 < 0.5 else int(math.ceil(math.log2(norm1 / 0.5)))
    small = gen / (2.0**scale)
    total = np.eye(DIM, dtype=complex)
    term = np.eye(DIM, dtype=complex)
    for k in range(1, 64):
        term = term @ small / k
        total = total + term
        if np.max(np.abs(term)) < 1e-18:
            break
    for _ in range(scale):
        total = total @ total
    return LinearOperator(total)
