"""Numerical tolerances used throughout the package.

All comparisons against these constants are documented at the point of use.
"""

# A polynomial coefficient c is treated as zero when |c| <= COEFF_ZERO_REL * (1 + max |coeff|).
COEFF_ZERO_REL = 1e-10

# Absolute distance under which a numerator root and a denominator root are
# cancelled against each other.
CANCEL_TOL = 1e-8

# Root clustering distance used when assembling least common denominators.
# Looser than CANCEL_TOL because computed copies of a root of multiplicity m
# spread like eps**(1/m); the cluster centroid stays accurate.
LCM_CLUSTER_TOL = 1e-6

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
