"""Network realization functions: construction, sparsity correspondence, and
instability certificates for the alternative controller representations.

An NRF pair (Phi, Gamma) implements u = Phi u + Gamma z with a hollow Phi.
The diagonal of Phi is zero *structurally* (entries are literal zero
functions), never merely small: self-loops are a causality violation, not a
numerical artifact.  Each row of [Phi Gamma] is formed, and kept as the
pair's stored form, as a state-space quotient of one row of a realized left
factorization by its diagonal entry.  The loop-sensitivity audit and the
sparsity correspondence read those rows, nrf.json stores them as
``row_systems`` beside the rational ``phi`` and ``gamma``, and a reader takes
them as they are.  The rational Phi and Gamma are views read off the rows for
JSON and printing; a file with ``phi`` and ``gamma`` alone is realized and
audited once, in ``NrfPair(Phi, Gamma)``.  A sparsity pattern is a 2-D
boolean array, the pattern pair is the tuple (X, Y), and every support is
read off a realization by ``row_support``.  The left factorization
[Y_Q X_Q], the certificates' witnesses and the beta-iteration form are all
slices and series connections of the realized Bézout matrices, each factor
a ``DoublyCoprime.realized`` block.  A certificate's mode is the string "mr2"
or "mr3", and its poles are ``sstate.unstable_map_poles`` of its witness.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import (
    CorrespondenceViolation,
    DimensionMismatch,
    DomainMismatch,
    InvariantViolation,
    NotSquare,
    SingularDiagonal,
    audit,
)
from .factor import DoublyCoprime, YoulaShift
from .ratmat import (
    RationalMatrix,
    StabilityDomain,
    probe_points,
    ratmat_from_obj,
    ratmat_to_obj,
)
from .sstate import (
    StateSpace,
    diagonal,
    finite_norm,
    left_quotient,
    minimal,
    parallel,
    series,
    ss_from_obj,
    ss_to_obj,
    ss_to_tf,
    tf_to_ss_obsv,
    unstable_map_poles,
)
from .tolerances import PROBE_TOL, RANK_REL_TOL, ROUND_TRIP_TOL


class NrfPair:
    """Hollow Phi (m x m) and Gamma (m x p) describing u = Phi u + Gamma z.

    ``row_systems`` realizes each row of [Phi Gamma] and is the stored form;
    Phi and Gamma are rational views of it, read off by ``ss_to_tf`` on first
    use.  A pair built from rational matrices (a file with ``phi`` and
    ``gamma`` alone) realizes its rows entry by entry, audits them against
    the matrices at probe points and keeps the matrices as the views.  A pair
    read with its ``row_systems`` keeps the file's ``phi`` and ``gamma`` (in
    ``_json``, unparsed until first read and written back as they were).
    """

    __slots__ = ("row_systems", "_Phi", "_Gamma", "_json")

    def __init__(self, Phi=None, Gamma=None, row_systems=None):
        self._Phi, self._Gamma = Phi, Gamma
        self._json = {}
        rational = row_systems is None
        if rational:
            if Phi.rows != Phi.cols:
                raise NotSquare("Phi must be square")
            if Gamma.rows != Phi.rows:
                raise DimensionMismatch("Gamma must have one row per control input")
            if Gamma.domain is not Phi.domain:
                raise DomainMismatch("Phi and Gamma disagree on the stability domain")
            rows = Phi.hstack(Gamma)
            row_systems = [tf_to_ss_obsv(rows.row(i)) for i in range(rows.rows)]
        self.row_systems = tuple(row_systems)
        for i, sys in enumerate(self.row_systems):
            # a zero entry, realized, has no feedthrough and no input column
            if sys.D[0, i] != 0.0 or sys.B[:, i].any():
                raise InvariantViolation(
                    "phi-zero-diagonal", f"Phi[{i},{i}] is not the zero function"
                )
        if rational:
            self.audit_rows(rows, "row-probe-match", f"rows {tuple(range(1, rows.rows + 1))}")

    @property
    def domain(self) -> StabilityDomain:
        return self.row_systems[0].domain

    @property
    def shape(self) -> tuple[int, int]:
        """(m, p): control inputs by regulated measurements."""
        m = len(self.row_systems)
        return m, self.row_systems[0].n_inputs - m

    def _views(self) -> tuple[RationalMatrix, RationalMatrix]:
        if self._Phi is None and self._json:
            self._Phi, self._Gamma = (ratmat_from_obj(self._json[k]) for k in ("phi", "gamma"))
        elif self._Phi is None:
            m = len(self.row_systems)
            rows = [ss_to_tf(s).entries[0] for s in self.row_systems]
            self._Phi = RationalMatrix([r[:m] for r in rows], self.domain)
            self._Gamma = RationalMatrix([r[m:] for r in rows], self.domain)
        return self._Phi, self._Gamma

    Phi = property(lambda self: self._views()[0], doc="Phi as a rational matrix")
    Gamma = property(lambda self: self._views()[1], doc="Gamma as a rational matrix")

    def probe_rows(self, count: int, avoid=()) -> tuple[list[complex], np.ndarray]:
        """Probe points clear of every row system's eigenvalues and of ``avoid``,
        and [Phi Gamma] evaluated there off the row systems, shape
        (count, m, m + p)."""
        eigs = [s.eigenvalues for s in self.row_systems]
        pts = probe_points(self.domain, count, avoid=np.concatenate([*eigs, np.ravel(avoid)]))
        return pts, np.concatenate([s.eval_many(pts) for s in self.row_systems], axis=1)

    def audit_rows(self, rows: RationalMatrix, invariant: str, where: str = "") -> None:
        """Audit [Phi Gamma] against the rational ``rows`` at seven probe
        points, relative to the largest entry of ``rows`` over all points."""
        pts, values = self.probe_rows(7)
        want = rows.eval_many(pts)
        audit(invariant, (values - want) / max(1.0, np.max(np.abs(want))), PROBE_TOL, where)


def row_support(systems) -> np.ndarray:
    """Boolean support of the single-output systems stacked as rows: entry j of
    a row is zero when column j of its [B; D] is, by norm, at most
    RANK_REL_TOL times max(1, the largest such column norm of the row).  In a
    minimal single-output system the entry is zero exactly when that column is."""
    mask = []
    for s in systems:
        norms = finite_norm(np.vstack([s.B, s.D]), axis=0)
        mask.append(norms > RANK_REL_TOL * max(1.0, float(norms.max())))
    return np.array(mask)


def nrf_from_left_factorization(sys: StateSpace) -> NrfPair:
    """NRF pair from a realization of a left factorization [R P], R u = P z.

    Phi_i = e_i - omega_i^-1 R_i and Gamma_i = omega_i^-1 P_i with omega_i =
    R_ii, which keeps the patterns of R (off-diagonal) and P.  Row i is the
    ``left_quotient`` of row i of ``sys`` by column i, whose B column is
    exactly zero and D entry exactly one, so Phi_ii = 0 by construction; a
    diagonal entry that vanishes at infinity (D_ii = 0) has no such quotient.
    """
    m, width = sys.D.shape
    if width < m:
        raise NotSquare("R must be square")
    sign = np.concatenate([-np.ones(m), np.ones(width - m)])  # [Phi_i Gamma_i] = e_i + q sign
    row_systems = []
    for i in range(m):
        if sys.D[i, i] == 0.0:
            raise SingularDiagonal(f"left factorization: diagonal entry {i} is strictly proper")
        q = left_quotient(sys.select([i], range(width)), [i])
        unit = np.eye(1, width, i)
        row_systems.append(minimal(StateSpace(q.A, q.B * sign, q.C, unit + q.D * sign, q.domain)))
    return NrfPair(row_systems=row_systems)


def nrf_from_dcf(dcf: DoublyCoprime, shift: YoulaShift) -> NrfPair:
    """Stabilizing NRF pair from a Q-shifted factorization.

    Left-multiplies YQ u = XQ z by (YQ^diag)^-1, on the rows [Y_Q X_Q] of the
    shifted left Bézout realization.  Before returning, the loop sensitivity
    identity (I - Phi + Gamma G) M Omega = I is audited at probe points, with
    [Phi Gamma] evaluated off the row systems;
    together with factor and parameter stability (enforced upstream) it
    certifies the pair as a stabilizing implementation rather than just an
    algebraic rewrite.
    """
    p, m = dcf.shape
    pair = nrf_from_left_factorization(shift.left.select(range(m), range(m + p)))
    pts, rows = pair.probe_rows(20)
    L, M = shift.left.eval_many(pts), dcf.realized("M").eval_many(pts)
    eye = np.eye(m)
    Om = L[:, :m, :m] * eye
    S = eye - rows[:, :, :m] + rows[:, :, m:] @ np.linalg.solve(L[:, m:, m:], -L[:, m:, :m])
    audit("loop-sensitivity-inverse", S @ M @ Om - eye, ROUND_TRIP_TOL)
    return pair


# ---------------------------------------------------------------------------
# sparsity correspondence


def sparsity_correspondence(pair: NrfPair, shift: YoulaShift, patterns) -> bool:
    """Phi in Y and Gamma in X, cross-checked against YQ in Y+ and XQ in X.

    ``patterns`` is (X, Y): boolean masks of the sensing pattern (m x p) and
    the communication pattern (m x m), whose diagonal is ignored: Phi is
    checked against Y without it and YQ against Y+ = Y with it.  The two
    sides are equivalent in exact arithmetic; a disagreement means a
    numerical cancellation produced a spurious (or lost) entry.  Both supports
    are read by ``row_support``: that of [Phi Gamma] off the pair's row
    systems, that of [Y_Q X_Q] off a minimal realization of each of its rows.
    """
    X, Y = (np.asarray(mask, dtype=bool) for mask in patterns)
    if X.ndim != 2 or Y.ndim != 2:
        raise DimensionMismatch("mask must be two-dimensional")
    if Y.shape[0] != Y.shape[1]:
        raise NotSquare("communication pattern must be square")
    if X.shape[0] != Y.shape[0]:
        raise DimensionMismatch("sensing pattern must have one row per input")
    m, p = pair.shape
    eye = np.eye(Y.shape[0], dtype=bool)
    allowed = np.hstack([Y & ~eye, X])
    support = row_support(pair.row_systems)
    if allowed.shape != support.shape:
        raise DimensionMismatch(f"patterns of shape {allowed.shape} for [Phi Gamma] of "
                                f"shape {support.shape}")
    nrf_side = not np.any(support & ~allowed)
    shifted = row_support(minimal(shift.left.select([i], range(m + p))) for i in range(m))
    shift_side = not np.any(shifted & ~np.hstack([Y | eye, X]))
    if nrf_side != shift_side:
        raise CorrespondenceViolation(
            f"NRF side says {nrf_side} but shifted factors say {shift_side}"
        )
    return nrf_side


# ---------------------------------------------------------------------------
# instability certificates for the alternative representations


class InstabilityCertificate:
    """Witness map for an alternative representation, with its unstable poles;
    both it and the diagonal scaling Omega are StateSpace, and ``mode`` is
    "mr2" or "mr3".

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
            f"InstabilityCertificate(mode={self.mode}, "
            f"poles={list(self.unstable_poles_found)})"
        )


def _omega(left: StateSpace, right: StateSpace, context: str) -> StateSpace:
    """(left right)^diag, each entry row i of left in series with column i of
    right; an entry that is identically zero raises SingularDiagonal."""
    Omega = diagonal([
        series(left.select([i], range(left.n_inputs)), right.select(range(right.n_outputs), [i]))
        for i in range(left.n_outputs)
    ])
    for i in range(Omega.n_outputs):
        # a minimal entry of positive order has a nonzero B column
        if Omega.D[i, i] == 0.0 and not Omega.B[:, i].any():
            raise SingularDiagonal(f"{context}: diagonal entry {i} is identically zero")
    return Omega


def mr2_certificate(dcf: DoublyCoprime, shift: YoulaShift) -> InstabilityCertificate:
    """Obstruction for the representation scaled by (M YQ)^diag.

    The delta_u-to-z map of that implementation is N YQ - G Omega; since
    N YQ is stable, any unstable pole must come from G Omega and survives for
    every stable Q.  The witness is realized by series and parallel
    connections of the realized factors.
    """
    Omega = _omega(dcf.realized("M"), shift.YQ, "mr2 certificate")
    witness = parallel(series(dcf.realized("N"), shift.YQ), -series(dcf.plant(), Omega))
    return InstabilityCertificate("mr2", Omega, witness, unstable_map_poles(witness))


def mr3_certificate(dcf: DoublyCoprime, shift: YoulaShift) -> InstabilityCertificate:
    """Obstruction for the beta-iteration representation.

    The w-to-beta map is G - N YQ, so the iteration inherits every unstable
    pole of the plant itself.
    """
    Omega = _omega(shift.YtQ, dcf.realized("Mt"), "mr3 certificate")
    witness = parallel(dcf.plant(), -series(dcf.realized("N"), shift.YQ))
    return InstabilityCertificate("mr3", Omega, witness, unstable_map_poles(witness))


def sls_like_rep(dcf: DoublyCoprime, shift: YoulaShift):
    """Coefficient TFMs of the beta-iteration form of K_Q.

    Returns (beta_phi, beta_gamma, u_beta, u_z) for

        beta = beta_phi (beta + delta_beta) + beta_gamma z,   u = u_beta beta + u_z z.

    (beta_phi, beta_gamma) is the NRF pair of the left factorization
    T beta = (T - I) z with T = YtQ Mt, realized in series.  Eliminating beta
    recovers K_Q = XtQ YtQ^-1.
    """
    Mt = dcf.realized("Mt")
    T = series(shift.YtQ, Mt)
    TT = StateSpace(T.A, np.hstack([T.B, T.B]), T.C, np.hstack([T.D, T.D - np.eye(T.n_outputs)]),
                    T.domain)
    beta = nrf_from_left_factorization(TT)
    XtM = series(shift.XtQ, Mt)
    return beta.Phi, beta.Gamma, ss_to_tf(-XtM), ss_to_tf(XtM)


# ---------------------------------------------------------------------------
# JSON interchange


def nrf_to_obj(pair: NrfPair) -> dict:
    """``phi`` and ``gamma`` as rational matrices, then ``row_systems``, one
    state-space object per row of [Phi Gamma], which a reader takes as
    authoritative."""
    obj = dict(pair._json) or {"phi": ratmat_to_obj(pair.Phi), "gamma": ratmat_to_obj(pair.Gamma)}
    obj["row_systems"] = [ss_to_obj(s) for s in pair.row_systems]
    return obj


def nrf_from_obj(obj: dict) -> NrfPair:
    """Read a pair.  With ``row_systems`` present, the rows are taken as they
    are; ``phi`` and ``gamma`` become its views unread.  A file with ``phi``
    and ``gamma`` alone realizes them in ``NrfPair(Phi, Gamma)``."""
    obj = obj if isinstance(obj, dict) else {}  # a file that is not an object misses every key
    if "row_systems" not in obj:
        if "phi" not in obj or "gamma" not in obj:
            raise InvariantViolation("nrf-fields-present", "need both 'phi' and 'gamma'")
        return NrfPair(ratmat_from_obj(obj["phi"]), ratmat_from_obj(obj["gamma"]))
    rows = obj["row_systems"]
    if not isinstance(rows, list) or not rows:
        raise InvariantViolation("nrf-fields-present", "'row_systems' must be a nonempty list")
    rows = [ss_from_obj(row) for row in rows]
    m = len(rows)
    width, domain = rows[0].n_inputs, rows[0].domain
    for i, sys in enumerate(rows):
        if sys.n_outputs != 1 or sys.n_inputs != width or width < m:
            raise DimensionMismatch(f"row system {i} maps {sys.n_inputs} inputs to "
                                    f"{sys.n_outputs} outputs; each of the {m} rows needs "
                                    f"one output and the same m + p >= {m} inputs")
        if sys.domain is not domain:
            raise DomainMismatch(f"row system {i} disagrees on the stability domain")
    pair = NrfPair(row_systems=rows)
    if "phi" in obj and "gamma" in obj:
        pair._json = {"phi": obj["phi"], "gamma": obj["gamma"]}
    return pair


def save_nrf(pair: NrfPair, path: str):
    with open(path, "w") as fh:
        fh.write(json.dumps(nrf_to_obj(pair), indent=1))


def load_nrf(path: str) -> NrfPair:
    with open(path) as fh:
        return nrf_from_obj(json.load(fh))
