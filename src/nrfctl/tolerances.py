"""Numerical tolerances used throughout the package.

COEFF_ZERO_REL belongs to the polynomial arithmetic of ``ratmat`` alone.
Every state-space decision, including which poles the entries of a rational
matrix share when it is realized and which common factors leave an entry, is
a singular-value rank decision at RANK_REL_TOL; nothing compares computed
roots to cancel them.  So is every support (``nrfsyn.row_support``), on both
sides of the sparsity correspondence: entry j of a single-output row, the NRF
pair's or a minimal one of [Y_Q X_Q], is zero when column j of its [B; D] has
norm at most RANK_REL_TOL * max(1, largest column norm of that row).  Every
stability verdict is ``sstate.is_unstable``.

Every residual audit goes through ``errors.audit``: the residual at a probe
point is the largest entry magnitude of the deviation there, and the audit
fails at the first point where it reaches the tolerance.  Three deviations are
scaled by max(1, largest entry magnitude of the rows matched):

    invariant                    tolerance        deviation
    bezout-identity              PROBE_TOL        left right - I; rational factors: their product - I
    shifted-bezout-identity      PROBE_TOL        the same on the Q-shifted realizations
    gain-at-infinity             PROBE_TOL        M, Mt, Y or Yt at infinity - I
    plant-quotients-agree        PROBE_TOL        Mt^-1 Nt - N M^-1
    closed-loop-table-vs-direct  CROSS_CHECK_TOL  table - loop solved pointwise
    loop-sensitivity-inverse     ROUND_TRIP_TOL   (I - Phi + Gamma G) M Omega - I
    row-probe-match              PROBE_TOL        realization - rows, scaled over all points
    grid5-closed-form            PROBE_TOL        grid5 rows - closed form, scaled over all points
    assembly-linearity           PROBE_TOL        assembly - stacked rows, scaled at each point

``DoublyCoprime.validate`` reads the Bézout identity and the plant quotients
from one evaluation of both Bézout realizations, at one set of probe points
moved clear of the plant's unstable poles: left right - I there, and
Mt^-1 Nt solved pointwise from the lower rows of left against N M^-1 from
right.  Those are the only poles that can reach the probe contour: the
points start on |z| = 2 (Re s = 1), and at most 50 moves of 0.0154 keep them
outside |z| = 1.2 (at Re s >= 1), while a stable pole lies inside
|z| = 1 - STABILITY_MARGIN (left of Re s = -STABILITY_MARGIN).
Both audits read the probe contour a plant keeps (``factor._probe_contour``),
moved clear of the plant's kept unstable eigenvalues, the ones its PBH
verdict is decided at: ``dcf_from_ss`` that of the plant it factors,
``validate`` that of its realization of Mt^-1 Nt.  On every tested plant
both give the same points.

``factor.hinf_grid_norm`` bounds the largest singular value at every grid
point once, from above (the Frobenius norm of a power of the point's Gram
matrix), and runs the SVD only where the bound plus an allowance reaches
(1 - GRID_NORM_TOL) times the exact value at the highest bound.  The
relative GRID_NORM_TOL covers rounding: the computed bound and LAPACK's
singular value each lie within a small multiple of q^1.5 * 2^-53 of their
exact values, relatively, for q x q Gram matrices, about 1e-14 at q = 20 and
at most 1e-10 up to q = 2000.  For a discrete state-space map the bounds run
on a screen of the map at every point from one real FFT of
h_t = C A^t (I - A^N)^-1 B, N = 2 grid (``factor._grid_screen``), and the
allowance is GRID_NORM_TOL * (||D||_F + sum_t ||h_t||_F): the screen at every
point is D plus a unit-modulus combination of the same computed h_t, so that
one scale bounds its error at every point.  Against ``eval_many`` the gap
measures 2.5e-16 to 8.1e-15 of the scale on the grid5 tables and on chains
n = 2..16.  It grows with the transient growth of ||A^t||: on the 4 x 4 mesh
loop (order 515, ||A^t|| up to 1.3e5) it is 5.5e-4.  So the SVD sees only
``eval_many`` values, each compared with the screen; one that misses by more
than the allowance sends the norm back to evaluating every point.  No point
whose SVD could reach the maximum is dropped, and the norm equals the maximum
over every point to the bit.
"""

# A polynomial coefficient c is treated as zero when |c| <= COEFF_ZERO_REL * (1 + max |coeff|).
COEFF_ZERO_REL = 1e-10

# Discrete eigenvalues with |z| >= 1 - STABILITY_MARGIN and continuous ones
# with Re >= -STABILITY_MARGIN count as unstable.
STABILITY_MARGIN = 1e-9

# Relative singular-value threshold for every rank decision.
RANK_REL_TOL = 1e-8

# Greedy multiset matching tolerance for eigenvalue / pole comparisons.
POLE_MATCH_TOL = 1e-6

# Residual tolerances of the audits above.
PROBE_TOL = 1e-8
CROSS_CHECK_TOL = 1e-6
ROUND_TRIP_TOL = 1e-8

# Relative rounding slack and screen allowance of the grid norm, described above.
GRID_NORM_TOL = 1e-9
