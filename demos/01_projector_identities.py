"""Same-box projectors and the operator identities behind the pigeonhole argument.

Three qubits stand for three pigeons, the computational basis value for the
box each one sits in.  For every pair there is a projector onto the states
where that pair shares a box.  Summing the three pair projectors gives a
counting operator whose spectrum separates "exactly one pair together" from
"all three together", and two exact identities tie everything back to the
identity matrix.
"""

import numpy as np

from qpigeon import (
    PAIRS,
    all_same_box_projector,
    one_pair_projector,
    operator_rank,
    pair_only_projector,
    same_box_projector,
    shared_pair_count,
    verify_identities,
)

np.set_printoptions(precision=3, suppress=True, linewidth=120)


def main():
    print("=== projectors ===")
    for a, b in PAIRS:
        op = same_box_projector(a, b)
        print(f"same_box({a},{b}): diagonal {np.diag(op.matrix).real}, rank {operator_rank(op)}")
    big = all_same_box_projector()
    print(f"all_same_box:  diagonal {np.diag(big.matrix).real}, rank {operator_rank(big)}")
    print(f"one_pair_only: rank {operator_rank(one_pair_projector())}")
    for a, b in PAIRS:
        print(f"pair_only({a},{b}): rank {operator_rank(pair_only_projector(a, b))}")

    print()
    print("=== counting operator ===")
    count = shared_pair_count()
    print(f"diagonal:    {np.diag(count.matrix).real}")
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
