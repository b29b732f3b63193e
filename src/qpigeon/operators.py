"""Projector algebra for three pigeons in two boxes, plus the induced time evolution.

Everything acts on the 8-dimensional space of three qubits, where basis state
|z2 z1 z0> says pigeon k sits in box z_k.  Every operator here is diagonal in
that box basis, so each is held as a read-only length-8 diagonal, and the
constructors wrap one in a dense LinearOperator:

* same_box_projector(a, b): rank-4 projector onto states with pigeons a and b
  in one box.
* all_same_box_projector(): rank-2 projector onto |000> and |111>.
* pair_only_projector(a, b): rank-2 projector onto "a and b together, the
  third pigeon apart".
* shared_pair_count(): sum of the three same-box projectors, with diagonal
  [3,1,1,1,1,1,1,3].  Hermitian but not a projector; that diagonal is its
  spectrum: 1 (some pair splits off) and 3 (all together).

verify_identities checks the relations tying these together elementwise on
the diagonals, and two independent routes compute exp(-i * epsilon_t *
shared_pair_count): a closed form and a scaled-and-squared power series.
"""

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .states import StateVector

DIM = 8
N_PIGEONS = 3
PAIRS = ((0, 1), (0, 2), (1, 2))

_FLAG_TOL = 1e-12


@dataclass(frozen=True)
class LinearOperator:
    """A dense complex matrix with optional hermitian/projector guarantees.

    The flags are validated on construction to within 1e-12, so a flagged
    operator really is what it claims.  ``is_projector`` implies hermitian.
    """

    matrix: np.ndarray
    is_hermitian: bool = False
    is_projector: bool = False

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(np.float64))):
            raise ValueError("operator entries must be finite")
        if self.is_projector and not self.is_hermitian:
            raise ValueError("a projector must also be flagged hermitian")
        if self.is_hermitian and np.max(np.abs(m - m.conj().T)) > _FLAG_TOL:
            raise ValueError("matrix flagged hermitian is not hermitian")
        if self.is_projector and np.max(np.abs(m @ m - m)) > _FLAG_TOL:
            raise ValueError("matrix flagged projector is not idempotent")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _frozen(values) -> np.ndarray:
    diag = np.array(values, dtype=complex)
    diag.flags.writeable = False
    return diag


_INDEX = np.arange(DIM)
# Box-basis diagonals: entry z is the operator's eigenvalue on basis state |z>.
_SAME_BOX = {(a, b): _frozen(((_INDEX >> a) & 1) == ((_INDEX >> b) & 1)) for a, b in PAIRS}
ALL_SAME_DIAGONAL = _frozen([1, 0, 0, 0, 0, 0, 0, 1])
_ONE_PAIR_DIAGONAL = _frozen(sum(diag - ALL_SAME_DIAGONAL for diag in _SAME_BOX.values()))
PAIR_COUNT_DIAGONAL = _frozen(sum(_SAME_BOX.values()))


def same_box_diagonal(a: int, b: int) -> np.ndarray:
    """Read-only diagonal of same_box_projector(a, b): 1 where pigeons a and b share a box."""
    if a == b or not (0 <= a < N_PIGEONS and 0 <= b < N_PIGEONS):
        raise ValueError(f"need two distinct pigeon indices in 0..2, got {(a, b)}")
    return _SAME_BOX[(a, b) if a < b else (b, a)]


def same_box_projector(a: int, b: int) -> LinearOperator:
    """Projector onto the span of basis states where pigeons a and b share a box."""
    return LinearOperator(np.diag(same_box_diagonal(a, b)), is_hermitian=True, is_projector=True)


def all_same_box_projector() -> LinearOperator:
    """Projector onto |000> and |111>: all three pigeons in one box."""
    return LinearOperator(np.diag(ALL_SAME_DIAGONAL), is_hermitian=True, is_projector=True)


def pair_only_projector(a: int, b: int) -> LinearOperator:
    """Projector onto states where exactly pigeons a and b share a box.

    Equal to same_box_projector(a, b) minus all_same_box_projector(); the
    difference of nested projectors is again a projector.
    """
    diag = same_box_diagonal(a, b) - ALL_SAME_DIAGONAL
    return LinearOperator(np.diag(diag), is_hermitian=True, is_projector=True)


def one_pair_projector() -> LinearOperator:
    """Projector onto states where exactly one pair shares a box (rank 6).

    The three pair_only_projector terms have disjoint ranges, so their sum
    stays a projector and together with all_same_box_projector resolves the
    identity.
    """
    return LinearOperator(np.diag(_ONE_PAIR_DIAGONAL), is_hermitian=True, is_projector=True)


def shared_pair_count() -> LinearOperator:
    """Sum of the three same-box projectors; counts same-box pairs per basis state."""
    return LinearOperator(np.diag(PAIR_COUNT_DIAGONAL), is_hermitian=True)


def apply_operator(op: LinearOperator, state: StateVector) -> StateVector:
    """Matrix-vector product; the result keeps its true (possibly < 1) norm_sq."""
    if op.dim != state.amps.shape[0]:
        raise ValueError(f"operator dim {op.dim} does not match state dim {state.amps.shape[0]}")
    return StateVector(state.n_qubits, op.matrix @ state.amps)


def operator_rank(op: LinearOperator) -> int:
    """Rank of a projector: its trace, rounded to an integer."""
    if not op.is_projector:
        raise ValueError("operator_rank expects a projector-flagged operator")
    return round(np.trace(op.matrix).real)


@dataclass(frozen=True)
class IdentityReport:
    """Max elementwise deviation for every algebraic relation among the projectors.

    ``checks`` maps a relation name to its deviation; ``spectrum`` holds the
    sorted eigenvalues of shared_pair_count.  ``passed`` is True when every
    deviation (including the spectrum's distance from six 1s and two 3s) is
    within ``tolerance``.
    """

    tolerance: float
    checks: dict[str, float]
    spectrum: tuple[float, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "checks": dict(self.checks),
            "spectrum": list(self.spectrum),
            "passed": self.passed,
        }


def _max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m)))


def verify_identities(tolerance: float = 1e-12) -> IdentityReport:
    """Check every operator relation the construction relies on.

    Covered: the two resolutions of the identity (one-pair + all-same, and
    pair-count minus twice all-same), the product of any two distinct
    same-box projectors collapsing to all-same, idempotency of every
    projector, mutual commutators, and the {1 x 6, 3 x 2} spectrum of
    shared_pair_count.
    """
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance!r}")
    eye = np.ones(DIM)
    same, big_p, small_p, count = _SAME_BOX, ALL_SAME_DIAGONAL, _ONE_PAIR_DIAGONAL, PAIR_COUNT_DIAGONAL
    pair_only = {pair: same[pair] - big_p for pair in PAIRS}

    checks: dict[str, float] = {}
    checks["one_pair_plus_all_same_is_identity"] = _max_abs(eye - (small_p + big_p))
    checks["pair_count_minus_two_all_same_is_identity"] = _max_abs(eye - (count - 2.0 * big_p))
    for pa, pb in itertools.combinations(PAIRS, 2):
        name = f"product_same{pa[0]}{pa[1]}_same{pb[0]}{pb[1]}_is_all_same"
        checks[name] = _max_abs(same[pa] * same[pb] - big_p)
        checks[f"commutator_same{pa[0]}{pa[1]}_same{pb[0]}{pb[1]}"] = _max_abs(
            same[pa] * same[pb] - same[pb] * same[pa]
        )
    for pair in PAIRS:
        checks[f"idempotent_same{pair[0]}{pair[1]}"] = _max_abs(same[pair] * same[pair] - same[pair])
        checks[f"idempotent_pair_only{pair[0]}{pair[1]}"] = _max_abs(
            pair_only[pair] * pair_only[pair] - pair_only[pair]
        )
    checks["idempotent_all_same"] = _max_abs(big_p * big_p - big_p)
    checks["idempotent_one_pair"] = _max_abs(small_p * small_p - small_p)

    spectrum = np.sort(count.real)
    expected = np.array([1.0] * 6 + [3.0] * 2)
    checks["pair_count_spectrum"] = float(np.max(np.abs(spectrum - expected)))

    passed = all(dev <= tolerance for dev in checks.values())
    return IdentityReport(
        tolerance=tolerance,
        checks=checks,
        spectrum=tuple(float(x) for x in spectrum),
        passed=passed,
    )


def evolution_diagonal(epsilon_t: float) -> np.ndarray:
    """Diagonal of exp(-i * epsilon_t * shared_pair_count), assembled from two projector terms.

    Because shared_pair_count = 3*all_same + 1*(identity - all_same) on its
    eigenspaces, the exponential is
    exp(-i*et)*count + (exp(-3i*et) - 3*exp(-i*et))*all_same,
    which also equals exp(-i*et) * (identity + (exp(-2i*et) - 1)*all_same).
    """
    if not math.isfinite(epsilon_t):
        raise ValueError("epsilon_t must be finite")
    phase = cmath.exp(-1j * epsilon_t)
    phase3 = cmath.exp(-3j * epsilon_t)
    return phase * PAIR_COUNT_DIAGONAL + (phase3 - 3.0 * phase) * ALL_SAME_DIAGONAL


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
    if not math.isfinite(epsilon_t):
        raise ValueError("epsilon_t must be finite")
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
