"""Network realization functions: construction, sparsity correspondence, and
instability certificates for the alternative controller representations.

An NRF pair (Phi, Gamma) implements u = Phi u + Gamma z with a hollow Phi.
The diagonal of Phi is zero *structurally* (entries are literal zero
functions), never merely small: self-loops are a causality violation, not a
numerical artifact.  Each row of [Phi Gamma] is formed, and kept for its
realization, as a state-space quotient of one row of a left factorization by
its diagonal entry; the rational Phi and Gamma are read off those rows for
JSON, sparsity correspondence and the audits.
"""

from __future__ import annotations

import enum
import json

import numpy as np

from .errors import (
    CorrespondenceViolation,
    DimensionMismatch,
    DomainMismatch,
    InvariantViolation,
    NotSquare,
    SingularDiagonal,
)
from .factor import DoublyCoprime, YoulaShift, _first_failure, _max_abs, _pole_cloud
from .ratmat import (
    RationalMatrix,
    SparsityPattern,
    StabilityDomain,
    diag_part,
    invert,
    probe_points,
    ratmat_from_obj,
    ratmat_to_obj,
)
from .sstate import (
    StateSpace,
    left_quotient,
    minimal,
    parallel,
    series,
    ss_to_tf,
    tf_to_ss_obsv,
    tfm_to_ss,
    unstable_eigs,
    unstable_map_poles,
)

ROUND_TRIP_TOL = 1e-8


class NrfPair:
    """Hollow Phi (m x m) and Gamma (m x p) describing u = Phi u + Gamma z.

    ``row_systems`` realizes each row of [Phi Gamma]; a pair built from
    rational matrices realizes them entry by entry on first use.
    """

    __slots__ = ("Phi", "Gamma", "_row_systems")

    def __init__(self, Phi: RationalMatrix, Gamma: RationalMatrix, row_systems=None):
        if Phi.rows != Phi.cols:
            raise NotSquare("Phi must be square")
        if Gamma.rows != Phi.rows:
            raise DimensionMismatch("Gamma must have one row per control input")
        if Gamma.domain is not Phi.domain:
            raise DomainMismatch("Phi and Gamma disagree on the stability domain")
        for i in range(Phi.rows):
            if not Phi.entry(i, i).is_zero:
                raise InvariantViolation(
                    "phi-zero-diagonal", f"Phi[{i},{i}] is not the zero function"
                )
        self.Phi = Phi
        self.Gamma = Gamma
        self._row_systems = row_systems

    @property
    def domain(self) -> StabilityDomain:
        return self.Phi.domain

    @property
    def shape(self) -> tuple[int, int]:
        """(m, p): control inputs by regulated measurements."""
        return self.Gamma.rows, self.Gamma.cols

    @property
    def row_systems(self) -> tuple[StateSpace, ...]:
        if self._row_systems is None:
            rows = self.Phi.hstack(self.Gamma)
            self._row_systems = tuple(tf_to_ss_obsv(rows.row(i)) for i in range(rows.rows))
        return self._row_systems

    def controller(self) -> RationalMatrix:
        """K = (I - Phi)^-1 Gamma."""
        eye = RationalMatrix.identity(self.Phi.rows, self.domain)
        return invert(eye - self.Phi) @ self.Gamma

    def reproduces(self, K: RationalMatrix, count: int = 20, tol: float = ROUND_TRIP_TOL) -> bool:
        """Probe-point agreement between (I-Phi)^-1 Gamma and a given controller."""
        diff = self.controller() - K
        errs = _max_abs(diff.eval_many(probe_points(self.domain, count, avoid=_pole_cloud(diff))))
        return _first_failure(errs, tol) is None


def _require_nonzero_diagonal(Omega: RationalMatrix, context: str):
    for i in range(Omega.rows):
        if Omega.entry(i, i).is_zero:
            raise SingularDiagonal(f"{context}: diagonal entry {i} is identically zero")


def nrf_from_left_factorization(R: RationalMatrix, P: RationalMatrix) -> NrfPair:
    """NRF pair from a left factorization R u = P z.

    Phi_i = e_i - omega_i^-1 R_i and Gamma_i = omega_i^-1 P_i with omega_i =
    R_ii, which keeps the patterns of R (off-diagonal) and P.  On one
    realization of [R P], row i is its ``left_quotient`` by column i, whose B
    column is exactly zero and D entry exactly one, so Phi_ii = 0 by
    construction.  The rational Phi and Gamma are read off the row systems.
    """
    if R.rows != R.cols:
        raise NotSquare("R must be square")
    _require_nonzero_diagonal(R, "left factorization")
    m = R.rows
    sys = tfm_to_ss(R.hstack(P))  # hstack rejects a P of another height or domain
    sign = np.concatenate([-np.ones(m), np.ones(P.cols)])  # [Phi_i Gamma_i] = e_i + q sign
    row_systems = []
    for i in range(m):
        if sys.D[i, i] == 0.0:
            raise SingularDiagonal(f"left factorization: diagonal entry {i} is strictly proper")
        q = left_quotient(StateSpace(sys.A, sys.B, sys.C[[i]], sys.D[[i]], sys.domain), [i])
        unit = np.eye(1, m + P.cols, i)
        row_systems.append(minimal(StateSpace(q.A, q.B * sign, q.C, unit + q.D * sign, q.domain)))
    rows = [ss_to_tf(s).entries[0] for s in row_systems]
    return NrfPair(
        RationalMatrix([r[:m] for r in rows], R.domain),
        RationalMatrix([r[m:] for r in rows], R.domain),
        tuple(row_systems),
    )


def nrf_from_dcf(dcf: DoublyCoprime, shift: YoulaShift) -> NrfPair:
    """Stabilizing NRF pair from a Q-shifted factorization.

    Left-multiplies YQ u = XQ z by (YQ^diag)^-1.  Before returning, the loop
    sensitivity identity (I - Phi + Gamma G) M Omega = I is audited at probe
    points; together with factor and parameter stability (enforced upstream)
    it certifies the pair as a stabilizing implementation rather than just an
    algebraic rewrite.
    """
    pair = nrf_from_left_factorization(shift.YQ, shift.XQ)
    omega = diag_part(shift.YQ)
    mats = (pair.Phi, pair.Gamma, dcf.M, dcf.Mt, dcf.Nt, omega)
    pts = probe_points(dcf.domain, 20, avoid=_pole_cloud(*mats))
    Phi, Gamma, M, Mt, Nt, Om = (mat.eval_many(pts) for mat in mats)
    eye = np.eye(pair.shape[0])
    S = eye - Phi + Gamma @ np.linalg.solve(Mt, Nt)
    errs = _max_abs(S @ M @ Om - eye)
    k = _first_failure(errs, ROUND_TRIP_TOL)
    if k is not None:
        raise InvariantViolation("loop-sensitivity-inverse", f"residual {errs[k]:.3e}")
    return pair


# ---------------------------------------------------------------------------
# sparsity correspondence


def _mask_without_diagonal(pattern: SparsityPattern) -> SparsityPattern:
    mask = [
        [bool(pattern.mask[i][j]) and i != j for j in range(pattern.cols)]
        for i in range(pattern.rows)
    ]
    return SparsityPattern(mask)


class SparsityTriple:
    """Sensing pattern X, hollow communication pattern Y, and Y with diagonal."""

    __slots__ = ("X", "Y", "Yplus")

    def __init__(self, X: SparsityPattern, Y: SparsityPattern):
        if Y.rows != Y.cols:
            raise NotSquare("communication pattern must be square")
        if X.rows != Y.rows:
            raise DimensionMismatch("sensing pattern must have one row per input")
        self.X = X
        self.Y = _mask_without_diagonal(Y)
        self.Yplus = self.Y.with_diagonal()


def sparsity_correspondence(
    pair: NrfPair, shift: YoulaShift, triple: SparsityTriple
) -> bool:
    """Phi in Y and Gamma in X, cross-checked against YQ in Y+ and XQ in X.

    The two sides are equivalent in exact arithmetic; a disagreement means a
    numerical cancellation produced a spurious (or lost) entry.
    """
    nrf_side = pair.Phi.conforms(triple.Y) and pair.Gamma.conforms(triple.X)
    shift_side = shift.YQ.conforms(triple.Yplus) and shift.XQ.conforms(triple.X)
    if nrf_side != shift_side:
        raise CorrespondenceViolation(
            f"NRF side says {nrf_side} but shifted factors say {shift_side}"
        )
    return nrf_side


# ---------------------------------------------------------------------------
# instability certificates for the alternative representations


class CertificateMode(enum.Enum):
    MR2 = "mr2"
    MR3 = "mr3"


class InstabilityCertificate:
    """Witness map (a StateSpace) for an alternative representation, with its
    unstable poles.

    An empty pole multiset means the representation's obstruction vanishes for
    this plant and shift; a nonempty one names the poles that no stable Q can
    cancel.
    """

    __slots__ = ("mode", "Omega", "witness_map", "unstable_poles_found")

    def __init__(self, mode, Omega, witness_map, unstable_poles_found):
        self.mode = mode
        self.Omega = Omega
        self.witness_map = witness_map
        self.unstable_poles_found = tuple(unstable_poles_found)

    @property
    def empty(self) -> bool:
        return not self.unstable_poles_found

    def __repr__(self) -> str:
        return (
            f"InstabilityCertificate(mode={self.mode.value}, "
            f"poles={list(self.unstable_poles_found)})"
        )


def _negated(sys: StateSpace) -> StateSpace:
    return StateSpace(sys.A, sys.B, -sys.C, -sys.D, sys.domain)


def _product_diagonal(left: RationalMatrix, right: RationalMatrix) -> RationalMatrix:
    """diag_part(left @ right), each entry row i @ column i, summed as ``@`` sums."""
    cols = [RationalMatrix([[e] for e in col], right.domain) for col in zip(*right.entries)]
    diag = [(left.row(i) @ cols[i]).entry(0, 0) for i in range(left.rows)]
    return RationalMatrix.diag(diag, left.domain)


def _certificate(mode: CertificateMode, Omega: RationalMatrix, witness: StateSpace):
    """Unstable poles of a witness realization, filtered as the loop maps are."""
    modes = unstable_eigs(witness.A, witness.domain).values
    poles = unstable_map_poles(witness, modes) if modes else ()
    return InstabilityCertificate(mode, Omega, witness, poles)


def mr2_certificate(dcf: DoublyCoprime, shift: YoulaShift) -> InstabilityCertificate:
    """Obstruction for the representation scaled by (M YQ)^diag.

    The delta_u-to-z map of that implementation is N YQ - G Omega; since
    N YQ is stable, any unstable pole must come from G Omega and survives for
    every stable Q.  The witness is realized by series and parallel
    connections of the realized factors.
    """
    Omega = _product_diagonal(dcf.M, shift.YQ)
    _require_nonzero_diagonal(Omega, "mr2 certificate")
    witness = parallel(
        series(tfm_to_ss(dcf.N), tfm_to_ss(shift.YQ)),
        _negated(series(dcf.plant(), tfm_to_ss(Omega))),
    )
    return _certificate(CertificateMode.MR2, Omega, witness)


def mr3_certificate(dcf: DoublyCoprime, shift: YoulaShift) -> InstabilityCertificate:
    """Obstruction for the beta-iteration representation.

    The w-to-beta map is G - N YQ, so the iteration inherits every unstable
    pole of the plant itself.
    """
    Omega = _product_diagonal(shift.YtQ, dcf.Mt)
    _require_nonzero_diagonal(Omega, "mr3 certificate")
    witness = parallel(
        dcf.plant(), _negated(series(tfm_to_ss(dcf.N), tfm_to_ss(shift.YQ)))
    )
    return _certificate(CertificateMode.MR3, Omega, witness)


def sls_like_rep(dcf: DoublyCoprime, shift: YoulaShift):
    """Coefficient TFMs of the beta-iteration form of K_Q.

    Returns (beta_phi, beta_gamma, u_beta, u_z) for

        beta = beta_phi (beta + delta_beta) + beta_gamma z,   u = u_beta beta + u_z z.

    (beta_phi, beta_gamma) is the NRF pair of the left factorization
    T beta = (T - I) z with T = YtQ Mt.  Eliminating beta recovers
    K_Q = XtQ YtQ^-1.
    """
    T = shift.YtQ @ dcf.Mt
    beta = nrf_from_left_factorization(T, T - RationalMatrix.identity(T.rows, T.domain))
    XtM = shift.XtQ @ dcf.Mt
    return beta.Phi, beta.Gamma, -XtM, XtM


# ---------------------------------------------------------------------------
# JSON interchange


def nrf_to_obj(pair: NrfPair) -> dict:
    return {"phi": ratmat_to_obj(pair.Phi), "gamma": ratmat_to_obj(pair.Gamma)}


def nrf_from_obj(obj: dict) -> NrfPair:
    if "phi" not in obj or "gamma" not in obj:
        raise InvariantViolation("nrf-fields-present", "need both 'phi' and 'gamma'")
    return NrfPair(ratmat_from_obj(obj["phi"]), ratmat_from_obj(obj["gamma"]))


def save_nrf(pair: NrfPair, path: str):
    with open(path, "w") as fh:
        json.dump(nrf_to_obj(pair), fh, indent=1)


def load_nrf(path: str) -> NrfPair:
    with open(path) as fh:
        return nrf_from_obj(json.load(fh))
