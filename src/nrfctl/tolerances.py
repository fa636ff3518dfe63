"""Numerical tolerances used throughout the package.

COEFF_ZERO_REL belongs to the polynomial arithmetic of ``ratmat`` alone.
Every state-space decision, including which poles the entries of a rational
matrix share when it is realized and which common factors leave an entry, is
a singular-value rank decision at RANK_REL_TOL; nothing compares computed
roots to cancel them.  All comparisons against these constants are documented
at the point of use.
"""

# A polynomial coefficient c is treated as zero when |c| <= COEFF_ZERO_REL * (1 + max |coeff|).
COEFF_ZERO_REL = 1e-10

# Stability margin: discrete eigenvalues with |z| >= 1 - STABILITY_MARGIN and
# continuous ones with Re >= -STABILITY_MARGIN count as unstable.
STABILITY_MARGIN = 1e-9

# Relative singular-value threshold for every rank decision.
RANK_REL_TOL = 1e-8

# Greedy multiset matching tolerance for eigenvalue / pole comparisons.
POLE_MATCH_TOL = 1e-6

# Residual tolerance for probe-point identity checks (algebraic identities
# evaluated at sample frequency points).
PROBE_TOL = 1e-8
