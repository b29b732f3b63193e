"""Transition amplitudes from the uniform start state to the eight circular end states.

The run begins in the uniform superposition over boxes, evolves under
exp(-i * epsilon_t * shared_pair_count), and is read out against product
states (|0> + i*s_k|1>)/sqrt(2) labelled by the sign tuple (s0, s1, s2).
Each label falls in one of two classes:

* ALL_SAME_SIGN (2 labels): probability (4 - 3*cos(epsilon_t)^2) / 8,
  which runs from 1/8 at epsilon_t = 0 up to 1/2.
* ONE_MINORITY_SIGN (6 labels): probability cos(epsilon_t)^2 / 8, which
  runs from 1/8 down to 0.

Every operator involved is diagonal in the box basis, so each numeric matrix
element is one dot product of a label state with a diagonal from
qpigeon.boxes times the uniform state, over eight entries, in plain Python.
The closed forms are reported beside the numeric values; the caller decides
whether the two agree.
"""

import cmath
import math
from dataclasses import dataclass

from .boxes import ALL_SAME_DIAGONAL, PAIR_COUNT_DIAGONAL, evolution_diagonal, same_box_diagonal

ALL_SAME_SIGN = "ALL_SAME_SIGN"
ONE_MINORITY_SIGN = "ONE_MINORITY_SIGN"

# Fixed by comparing the closed forms against direct numeric evaluation under
# the qubit-k-at-bit-k tensor ordering; echoed in machine-readable reports.
PHASE_CONVENTION = (
    "pair element phase exp(-i*s_c*pi/4) set by the spectator sign s_c when the "
    "pair signs differ; all-same element phase exp(+i*pi/4) for an even number "
    "of minus signs, exp(-i*pi/4) for odd"
)

_SQRT_HALF = math.sqrt(0.5)
_SQRT8 = math.sqrt(8.0)
_SQRT32 = math.sqrt(32.0)


@dataclass(frozen=True)
class FinalStateLabel:
    """Sign tuple (s0, s1, s2) naming one circular-basis product state.

    signs[k] is +1 or -1 and belongs to qubit k.  Rendered with qubit 0
    rightmost to match ket order, e.g. (-1, 1, 1) prints as "++-".
    """

    signs: tuple[int, int, int]

    def __post_init__(self):
        if len(self.signs) != 3 or any(s not in (1, -1) for s in self.signs):
            raise ValueError(f"signs must be three values from {{+1, -1}}, got {self.signs!r}")
        object.__setattr__(self, "signs", tuple(self.signs))

    @property
    def all_same_sign(self) -> bool:
        return self.signs[0] == self.signs[1] == self.signs[2]

    @property
    def outcome_class(self) -> str:
        return ALL_SAME_SIGN if self.all_same_sign else ONE_MINORITY_SIGN

    def to_bits(self) -> int:
        """Basis index of the measured pattern: sign +1 reads out as bit 0."""
        return sum((1 << k) for k, s in enumerate(self.signs) if s == -1)

    @classmethod
    def from_bits(cls, bits: int) -> "FinalStateLabel":
        if not 0 <= bits < 8:
            raise ValueError(f"bits must be in 0..7, got {bits}")
        return cls(tuple(-1 if (bits >> k) & 1 else 1 for k in range(3)))

    def __str__(self) -> str:
        return "".join("+" if s == 1 else "-" for s in reversed(self.signs))


def all_labels() -> tuple[FinalStateLabel, ...]:
    """All eight labels, ordered by their measured bit pattern."""
    return tuple(FinalStateLabel.from_bits(b) for b in range(8))


def label_state(label: FinalStateLabel):
    """The label's product state as a StateVector (imports numpy)."""
    from .states import plus_i_state

    return plus_i_state(label.signs)


def _label_amps(signs: tuple[int, int, int]) -> tuple[complex, ...]:
    """plus_i_state(signs).amps, by the same Kronecker products, qubit 0 varying fastest."""
    amps = (1 + 0j,)
    for s in reversed(signs):
        amps = tuple(a * f for a in amps for f in (complex(_SQRT_HALF), 1j * s * _SQRT_HALF))
    return amps


# every entry of plus_state(3).amps: three Hadamards' products of sqrt(1/2)
_UNIFORM = complex(_SQRT_HALF * _SQRT_HALF * _SQRT_HALF)
# indexed by FinalStateLabel.to_bits(), the order of all_labels()
_LABEL_AMPS = tuple(_label_amps(label.signs) for label in all_labels())


def _matrix_element(label: FinalStateLabel, diag: tuple[complex, ...]) -> complex:
    """<label| D |uniform> for the box-basis diagonal D, with the bits of the vdot it replaced.

    Even and odd entries' real products are summed apart, then combined as a
    BLAS dot combines them.
    """
    rr, ii, ri, ir = [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]
    for k, (bra, d) in enumerate(zip(_LABEL_AMPS[label.to_bits()], diag)):
        ket = d * _UNIFORM
        rr[k & 1] += bra.real * ket.real
        ii[k & 1] += bra.imag * ket.imag
        ri[k & 1] += bra.real * ket.imag
        ir[k & 1] += bra.imag * ket.real
    return complex((rr[0] + rr[1]) + (ii[0] + ii[1]), (ri[0] + ri[1]) - (ir[0] + ir[1]))


@dataclass(frozen=True)
class AmplitudeRecord:
    """One (label, epsilon_t) row: closed-form and numeric probabilities side by side."""

    label: FinalStateLabel
    epsilon_t: float
    prob_closed: float
    prob_numeric: float
    outcome_class: str


def pair_matrix_element(label: FinalStateLabel, a: int, b: int) -> complex:
    """<label| same_box_projector(a, b) |uniform>, computed by direct linear algebra."""
    return _matrix_element(label, same_box_diagonal(a, b))


def pair_matrix_element_closed(label: FinalStateLabel, a: int, b: int) -> complex:
    """Closed form of pair_matrix_element.

    Zero when the signs at a and b agree.  Otherwise the magnitude is
    1/sqrt(8) and the phase is exp(-i * s_c * pi/4), carried entirely by the
    spectator qubit c's sign; this convention matches the numeric route
    under the qubit-k-at-bit-k ordering used throughout.
    """
    if a == b or not (0 <= a < 3 and 0 <= b < 3):
        raise ValueError(f"need two distinct indices in 0..2, got {(a, b)}")
    if label.signs[a] == label.signs[b]:
        return 0j
    c = 3 - a - b
    return cmath.exp(-1j * label.signs[c] * math.pi / 4.0) / _SQRT8


def all_same_matrix_element(label: FinalStateLabel) -> complex:
    """<label| all_same_box_projector |uniform>, computed by direct linear algebra."""
    return _matrix_element(label, ALL_SAME_DIAGONAL)


def all_same_matrix_element_closed(label: FinalStateLabel) -> complex:
    """Closed form of all_same_matrix_element: magnitude 1/sqrt(32) always.

    The phase is exp(+i*pi/4) for an even number of minus signs and
    exp(-i*pi/4) for an odd number.
    """
    parity = 1.0 if sum(1 for s in label.signs if s == -1) % 2 == 0 else -1.0
    return cmath.exp(1j * parity * math.pi / 4.0) / _SQRT32


def pair_count_matrix_element(label: FinalStateLabel) -> complex:
    """<label| shared_pair_count |uniform>; the sum of the three pair elements."""
    return _matrix_element(label, PAIR_COUNT_DIAGONAL)


def closed_form_probability(label: FinalStateLabel, epsilon_t: float) -> float:
    """Class-dependent closed form for the transition probability."""
    c2 = math.cos(epsilon_t) ** 2
    if label.all_same_sign:
        return (4.0 - 3.0 * c2) / 8.0
    return c2 / 8.0


def transition_probability(label: FinalStateLabel, epsilon_t: float) -> AmplitudeRecord:
    """Probability of reading out ``label`` after evolving for ``epsilon_t``.

    prob_numeric is |<label| U |uniform>|^2 with U from evolution_diagonal;
    prob_closed is the class formula.  The CLI exits 1 when the two differ by
    more than 1e-10, so a drifting convention cannot pass silently.
    """
    prob_numeric = abs(_matrix_element(label, evolution_diagonal(epsilon_t))) ** 2
    prob_closed = closed_form_probability(label, epsilon_t)
    return AmplitudeRecord(
        label=label,
        epsilon_t=float(epsilon_t),
        prob_closed=prob_closed,
        prob_numeric=prob_numeric,
        outcome_class=label.outcome_class,
    )


def amplitude_table(epsilon_t: float) -> tuple[AmplitudeRecord, ...]:
    """All eight records at one coupling; their probabilities sum to 1."""
    return tuple(transition_probability(label, epsilon_t) for label in all_labels())


def first_order_derivative(step: float = 1e-4) -> float:
    """Central-difference d/d(epsilon_t) of the all-same-sign probability at 0.

    The first-order response vanishes because the uniform state has no
    overlap with the all-same-sign label through shared_pair_count, so this
    should return ~0; the leading behaviour is quadratic.
    """
    if not 0.0 < step <= 1e-3:
        raise ValueError(f"step must be in (0, 1e-3], got {step!r}")
    label = FinalStateLabel((1, 1, 1))
    upper = transition_probability(label, step).prob_numeric
    lower = transition_probability(label, -step).prob_numeric
    return (upper - lower) / (2.0 * step)
