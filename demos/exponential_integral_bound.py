"""The exponential-integral bound behind the ergodic closed forms.

Every ergodic rate expression here descends from E[ln chi2(2)] = ln 2 -
gamma and the lower bound e^x E1(x) > ln(1 + e^{-gamma}/x), which is
strictly tighter than the classical e^x E1(x) > -gamma + ln(1 + 1/x) at
every x > 0.  The additive gap E1(x) - e^{-x} ln(1 + e^{-gamma}/x) has a
single interior maximum, provably below e^{-2 gamma}/(1 - e^{-gamma});
both bounds collapse onto E1 at the ends of the range.
"""

import numpy as np

from risbc.bounds import (
    bound_gap_structure,
    chi2_log_expectation_check,
    e1_product_bound_check,
    e1_product_log_bound_check,
)

print("e^x E1(x) vs its two lower bounds\n")
print(f"{'x':>8} {'e^x E1(x)':>11} {'tight rhs':>11} {'slack':>9} {'classical rhs':>14}")
xs = np.array([1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0, 1e4])
tight, classical = e1_product_bound_check(xs), e1_product_log_bound_check(xs)
for x, lhs, rhs, slack, classical_rhs in zip(
    tight.setting, tight.lhs, tight.rhs, tight.slack, classical.rhs
):
    print(f"{x:8.0e} {lhs:11.6f} {rhs:11.6f} {slack:9.2e} {classical_rhs:14.6f}")

gs = bound_gap_structure()
print(
    f"\ngap maximum: g({gs.x_max:.6f}) = {gs.value_max:.6f},"
    f" analytic bracket (0, {gs.bracket_hi:.6f}),"
    f" unimodal = {gs.unimodal}"
)

check = chi2_log_expectation_check(np.random.default_rng(0), reps=200_000)
print(
    f"\nE[log2 chi2(2)]: Monte Carlo {check.lhs[0]:.4f} vs"
    f" log2(2 e^-gamma) = {check.rhs[0]:.4f}  (2e5 samples)"
)
