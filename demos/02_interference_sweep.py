"""Transition probabilities from |+++> through the counting operator.

Preparing all three pigeons along +x and reading them out along the y axis
leaves eight possible sign patterns.  Coupling the system to the counting
operator for a time controlled by epsilon*t makes the pattern probabilities
oscillate: the two all-same-sign patterns follow (4 - 3cos^2)/8 while each of
the six minority-sign patterns follows cos^2/8.  At epsilon*t = 0 the slope
of every probability vanishes, which is why a weak coupling leaves the
post-selected statistics unchanged at first order.
"""

import math

import numpy as np

from qpigeon import (
    ALL_SAME_SIGN,
    FinalStateLabel,
    amplitude_table,
    first_order_derivative,
)


def sweep_table(steps=9):
    print("epsilon*t      all-same    minority       sum")
    for et in np.linspace(0.0, math.pi / 2.0, steps):
        table = amplitude_table(float(et))
        same = next(r for r in table if r.outcome_class == ALL_SAME_SIGN)
        minority = next(r for r in table if r.outcome_class != ALL_SAME_SIGN)
        total = 2.0 * same.prob_numeric + 6.0 * minority.prob_numeric
        print(f"{et:9.4f}    {same.prob_numeric:.6f}    {minority.prob_numeric:.6f}    {total:.6f}")


def main():
    print("=== probability sweep, epsilon*t in [0, pi/2] ===")
    sweep_table()
    print()
    print("all-same patterns climb from 1/8 to 1/2 while the six minority")
    print("patterns fall from 1/8 to 0; the eight probabilities always sum to 1.")

    print()
    print("=== all eight patterns at epsilon*t = pi/4 ===")
    for rec in amplitude_table(math.pi / 4.0):
        print(f"{rec.label}  {rec.outcome_class:<17s}  prob {rec.prob_numeric:.6f}")

    print()
    print("=== behaviour near zero coupling ===")
    slope = first_order_derivative()
    print(f"central-difference slope of the (+,+,+) probability at 0: {slope:.3e}")
    h = 1e-4
    label = FinalStateLabel((1, 1, 1))
    probs = [amplitude_table(et)[label.to_bits()].prob_numeric for et in (-h, 0.0, h)]
    curvature = (probs[2] - 2.0 * probs[1] + probs[0]) / (h * h)
    print(f"second derivative: {curvature:.6f} (exact value 3/4)")
    print("the response is quadratic, so a weak coupling is invisible at first order.")


if __name__ == "__main__":
    main()
