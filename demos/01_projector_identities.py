"""Same-box projectors and the operator identities behind the pigeonhole argument.

Three qubits stand for three pigeons, the computational basis value for the
box each one sits in.  For every pair there is a projector onto the states
where that pair shares a box.  Summing the three pair projectors gives a
counting operator whose spectrum separates "exactly one pair together" from
"all three together", and two exact identities tie everything back to the
identity matrix.
"""

import numpy as np

from qpigeon import PAIRS, verify_identities
from qpigeon.boxes import ALL_SAME_DIAGONAL, ONE_PAIR_DIAGONAL, PAIR_COUNT_DIAGONAL, same_box_diagonal

np.set_printoptions(precision=3, suppress=True, linewidth=120)


def main():
    # every operator is diagonal in the box basis; a projector's rank is the sum of its diagonal
    print("=== projectors ===")
    for a, b in PAIRS:
        same = np.real(same_box_diagonal(a, b))
        print(f"same_box({a},{b}): diagonal {same}, rank {same.sum():.0f}")
    big = np.real(ALL_SAME_DIAGONAL)
    print(f"all_same_box:  diagonal {big}, rank {big.sum():.0f}")
    print(f"one_pair_only: rank {np.real(ONE_PAIR_DIAGONAL).sum():.0f}")
    for a, b in PAIRS:
        print(f"pair_only({a},{b}): rank {(np.real(same_box_diagonal(a, b)) - big).sum():.0f}")

    print()
    print("=== counting operator ===")
    print(f"diagonal:    {np.real(PAIR_COUNT_DIAGONAL)}")
    report = verify_identities()
    print(f"eigenvalues: {np.array(report.spectrum)}")
    print("a basis state either has exactly one pair together (eigenvalue 1)")
    print("or all three together (eigenvalue 3); two pairs alone is impossible.")

    print()
    print("=== identities ===")
    width = max(len(name) for name in report.checks)
    for name, dev in report.checks.items():
        print(f"{name:<{width}}  max dev {dev:.3e}")
    print(f"all identities hold within {report.tolerance:g}: {report.passed}")


if __name__ == "__main__":
    main()
