"""
Cross-checking the closed forms with independent oracles
========================================================

Nothing in the library is trusted on its own word: Monte Carlo, adaptive
quadrature, and brute-force grid search re-derive the same numbers
through routes that share no code with the formulas they check.
"""

import numpy as np

from anticonc import (
    a_gaussian,
    a_student_t,
    a_uniform,
    default_grid,
    gaussian,
    grid_infimum,
    mc_tail,
    quad_student_cdf,
    student_t,
    student_t_cdf,
    uniform,
)

# %%
# Monte Carlo: one million seeded draws against the closed forms.

for i, (label, ps, want) in enumerate((
        ("uniform  A(1)", uniform(-1.0, 1.0), a_uniform(1.0).value),
        ("gaussian A(1)", gaussian(0.0, 1.0), a_gaussian(1.0).value),
        ("t(3)     A(1)", student_t(3), a_student_t(1.0).value))):
    est = mc_tail(ps, 1.0, 10**6, seed=20240901 + i)
    print(f"{label}: closed {want:.6f}  monte-carlo {est.estimate:.6f} "
          f"(+/- {est.std_err:.6f})")

# %%
# Quadrature: the t CDF (hypergeometric series for x^2 <= 5, incomplete
# beta beyond) against direct integration of the density.

worst = 0.0
for n in (1, 3, 7, 30):
    for x in np.linspace(-4.0, 4.0, 17):
        x = float(x)
        worst = max(worst, abs(student_t_cdf(n, x) - quad_student_cdf(n, x)))
print(f"\nmax |t CDF - quadrature CDF| over the panel: {worst:.2e}")

# %%
# Grid search: the brute-force infimum can only sit on or above the
# closed form, and on a dense grid it lands right on it.

for family in ("uniform", "exponential", "gaussian", "student-t"):
    est = grid_infimum(family, 1.0, default_grid(family))
    print(f"{family:12s} grid infimum {est.value:.12f} "
          f"at {dict(est.argmin.params)}")
