"""The box algebra of three pigeons in two boxes, held as one integer table.

Basis state |z2 z1 z0> puts pigeon k in box z_k.  The three same-box
projectors and the all-same projector commute and are diagonal in this
basis, so BOX_VALUES[z] = (same01, same12, same02, all_same) holds all four
operators as their joint eigenvalues on |z>.  Read as value assignments, the
rows are the eight classical placements: the joint spectrum of the commuting
projectors is the valid set that hiddenvars enumerates.  The diagonals derive
from the table, and each row from where the pigeons sit.  relation_residuals
writes every operator relation once: verify_identities reads them on the rows,
hiddenvars on candidate values.
This module needs only the standard library.
"""

import cmath
import itertools
import math
from dataclasses import dataclass

from .gates import _check_index, _check_real

N_PIGEONS = 3
PAIRS = ((0, 1), (0, 2), (1, 2))

# BOX_VALUES[z] = (same01, same12, same02, all_same) on basis state |z2 z1 z0>: 1 where those pigeons share a box
BOX_VALUES = tuple(
    (int(z0 == z1), int(z1 == z2), int(z0 == z2), int(z0 == z1 == z2))
    for z2, z1, z0 in itertools.product((0, 1), repeat=N_PIGEONS)
)
# the column of BOX_VALUES holding each pair's same-box value, and the all-same column
_COLUMN = {(0, 1): 0, (1, 2): 1, (0, 2): 2}
_ALL_SAME = 3

# each operator's diagonal: entry z is its eigenvalue on |z>, as a complex number
_SAME_BOX = {pair: tuple(complex(row[col]) for row in BOX_VALUES) for pair, col in _COLUMN.items()}
ALL_SAME_DIAGONAL = tuple(complex(row[_ALL_SAME]) for row in BOX_VALUES)
PAIR_COUNT_DIAGONAL = tuple(complex(sum(row[:_ALL_SAME])) for row in BOX_VALUES)
# exactly one pair together: the pair count less three on the all-same states
ONE_PAIR_DIAGONAL = tuple(complex(sum(row[:_ALL_SAME]) - 3 * row[_ALL_SAME]) for row in BOX_VALUES)


def _check_pair(a: int, b: int) -> tuple[int, int]:
    """Two distinct pigeon indices in 0..2 as their pair in PAIRS, smaller first, or ValueError."""
    pair = tuple(sorted(_check_index(index, "pigeon index", 0, N_PIGEONS) for index in (a, b)))
    if pair not in PAIRS:
        raise ValueError(f"need two distinct pigeon indices, got {(a, b)}")
    return pair


def same_box_diagonal(a: int, b: int) -> tuple[complex, ...]:
    """Diagonal of the same-box projector of pigeons a and b: 1 where they share a box."""
    return _SAME_BOX[_check_pair(a, b)]


def relation_residuals(row: tuple[int, int, int, int]) -> dict[str, int]:
    """Each operator relation's integer residual on a row (same01, same12, same02, all_same), 0 where it holds.

    The one place the relations are written: on the rows of BOX_VALUES they are the operator identities, on a
    candidate's values the constraints of hiddenvars.
    """
    same = {pair: row[col] for pair, col in _COLUMN.items()}
    big_p = row[_ALL_SAME]
    count = sum(same.values())
    small_p = count - 3 * big_p
    residuals = {
        "one_pair_plus_all_same_is_identity": 1 - (small_p + big_p),
        "pair_count_minus_two_all_same_is_identity": 1 - (count - 2 * big_p),
    }
    for pa, pb in itertools.combinations(PAIRS, 2):
        residuals[f"product_same{pa[0]}{pa[1]}_same{pb[0]}{pb[1]}_is_all_same"] = same[pa] * same[pb] - big_p
        residuals[f"commutator_same{pa[0]}{pa[1]}_same{pb[0]}{pb[1]}"] = same[pa] * same[pb] - same[pb] * same[pa]
    for pair in PAIRS:
        pair_only = same[pair] - big_p
        residuals[f"idempotent_same{pair[0]}{pair[1]}"] = same[pair] * same[pair] - same[pair]
        residuals[f"idempotent_pair_only{pair[0]}{pair[1]}"] = pair_only * pair_only - pair_only
    residuals["idempotent_all_same"] = big_p * big_p - big_p
    residuals["idempotent_one_pair"] = small_p * small_p - small_p
    return residuals


@dataclass(frozen=True)
class IdentityReport:
    """Max elementwise deviation for every algebraic relation among the projectors.

    ``checks`` maps a relation name to its deviation; ``spectrum`` holds the
    sorted eigenvalues of the pair count.  ``passed`` is True when every
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


def verify_identities(tolerance: float = 1e-12) -> IdentityReport:
    """Check relation_residuals on every row of BOX_VALUES, exactly in integers, and the {1 x 6, 3 x 2} spectrum."""
    tolerance = _check_real(tolerance, "tolerance", math.nextafter(0.0, 1.0))
    worst: dict[str, int] = {}
    for row in BOX_VALUES:
        for name, residual in relation_residuals(row).items():
            worst[name] = max(worst.get(name, 0), abs(residual))

    checks = {name: float(dev) for name, dev in worst.items()}
    spectrum = sorted(sum(row[:_ALL_SAME]) for row in BOX_VALUES)
    expected = [1] * 6 + [3] * 2
    checks["pair_count_spectrum"] = float(max(abs(s - e) for s, e in zip(spectrum, expected, strict=True)))

    passed = all(dev <= tolerance for dev in checks.values())
    return IdentityReport(
        tolerance=tolerance,
        checks=checks,
        spectrum=tuple(float(x) for x in spectrum),
        passed=passed,
    )


def evolution_diagonal(epsilon_t: float) -> tuple[complex, ...]:
    """Diagonal of exp(-i * epsilon_t * pair count), assembled from two projector terms.

    Because pair count = 3*all_same + 1*(identity - all_same) on its
    eigenspaces, the exponential is
    exp(-i*et)*count + (exp(-3i*et) - 3*exp(-i*et))*all_same,
    which also equals exp(-i*et) * (identity + (exp(-2i*et) - 1)*all_same).
    """
    epsilon_t = _check_real(epsilon_t, "epsilon_t")
    if not math.isfinite(3.0 * epsilon_t):
        raise ValueError(f"3 * epsilon_t must be finite, got epsilon_t={epsilon_t!r}")
    phase = cmath.exp(-1j * epsilon_t)
    phase3 = cmath.exp(-3j * epsilon_t)
    big = phase3 - 3.0 * phase
    return tuple(phase * count + big * all_same for count, all_same in zip(PAIR_COUNT_DIAGONAL, ALL_SAME_DIAGONAL))
