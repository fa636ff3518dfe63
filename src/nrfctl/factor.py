"""Doubly coprime factorizations and the Youla parameterization.

Construction goes through a stabilizing state feedback F and observer gain L:
with A_F = A + BF and A_L = A + LC both stable, the eight factors come out of
the standard observer/state-feedback formulas, already normalized so that M,
M̃, Y and Ỹ all have identity gain at infinity.  Identities between factors
are checked by residuals at deterministic probe points rather than
symbolically; at the degrees involved, evaluation bounds are decisive and
coefficient-level comparison is brittle.

The factors also come as two realizations of the Bézout matrices,
[Y X; -Nt Mt] = (A + LC, [-B L], [F; C], I) and
[M -Xt; N Yt] = (A + BF, [B -L], [F; C], I) (Zhou, Doyle and Glover, 1996),
each of the plant order.  The Youla shift is two series connections of these
with Q, and the closed-loop table and every later stage read the shifted
realizations; no factor is multiplied symbolically.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainMismatch,
    GainsNotStabilizing,
    InvalidGrid,
    InvariantViolation,
    NotDetectable,
    NotStabilizable,
    NotStrictlyProper,
    PlacementFailed,
    UnstableMap,
    UnstableParameter,
)
from .ratmat import (
    RationalMatrix,
    StabilityDomain,
    probe_points,
    ratmat_from_obj,
    ratmat_to_obj,
)
from .sstate import (
    StateSpace,
    _invertibility,
    _is_unstable,
    ctrb_staircase,
    diagonal,
    is_detectable,
    is_stabilizable,
    left_quotient,
    match_multisets,
    minimal,
    parallel,
    series,
    ss_to_tf,
    tfm_to_ss,
    unstable_eigs,
)
from .tolerances import POLE_MATCH_TOL, PROBE_TOL

CROSS_CHECK_TOL = 1e-6


def _den_roots(*mats: RationalMatrix) -> dict[tuple[float, ...], list[complex]]:
    """Roots of every distinct entry denominator, keyed by its coefficients.

    Entries share denominators, so each one is rooted once.
    """
    roots: dict[tuple[float, ...], list[complex]] = {}
    for mat in mats:
        for row in mat.entries:
            for e in row:
                if e.den.coeffs not in roots:
                    roots[e.den.coeffs] = [complex(r) for r in e.den.roots()]
    return roots


def _pole_cloud(*mats: RationalMatrix) -> tuple[complex, ...]:
    """Approximate pole locations of every entry, for probe-point avoidance."""
    return tuple(r for rs in _den_roots(*mats).values() for r in rs)


def _first_failure(errs: np.ndarray, tol: float) -> int | None:
    """Index of the first probe point whose error reaches tol, or None."""
    bad = np.flatnonzero(errs >= tol)
    return int(bad[0]) if bad.size else None


def _max_abs(vals: np.ndarray) -> np.ndarray:
    """Largest entry magnitude at each point of a (K, rows, cols) stack."""
    return np.max(np.abs(vals), axis=(1, 2))


def _bezout_errors(Y, X, Nt, Mt, M, Xt, N, Yt) -> np.ndarray:
    """Per-point deviation of [Y X; -Nt Mt] [M -Xt; N Yt] from identity,
    each factor given as its (K, rows, cols) evaluation."""
    left = np.block([[Y, X], [-Nt, Mt]])
    right = np.block([[M, -Xt], [N, Yt]])
    return _max_abs(left @ right - np.eye(left.shape[1]))


class DoublyCoprime:
    """Eight stable TFMs tied by the Bézout identity.

    Mt, Nt, Xt, Yt hold the left-factor family (the tilde quantities); G is
    recovered as Mt^-1 Nt = N M^-1.  ``left`` and ``right`` realize the
    Bézout matrices [Y X; -Nt Mt] and [M -Xt; N Yt]; factors given only as
    rational matrices realize the left one with ``tfm_to_ss`` on first use
    and the right one as its inverse.
    """

    __slots__ = ("M", "N", "Mt", "Nt", "X", "Y", "Xt", "Yt", "_left", "_right")

    def __init__(self, M, N, Mt, Nt, X, Y, Xt, Yt, left=None, right=None):
        self.M, self.N, self.Mt, self.Nt = M, N, Mt, Nt
        self.X, self.Y, self.Xt, self.Yt = X, Y, Xt, Yt
        self._left, self._right = left, right
        p, m = self.shape
        checks = {
            "M": (M, m, m), "N": (N, p, m), "Mt": (Mt, p, p), "Nt": (Nt, p, m),
            "X": (X, m, p), "Y": (Y, m, m), "Xt": (Xt, m, p), "Yt": (Yt, p, p),
        }
        for name, (mat, r, c) in checks.items():
            if (mat.rows, mat.cols) != (r, c):
                raise DimensionMismatch(f"{name} must be {r}x{c}, got {mat.rows}x{mat.cols}")
            if mat.domain is not self.domain:
                raise DomainMismatch(f"{name} disagrees on the stability domain")

    @property
    def domain(self) -> StabilityDomain:
        return self.M.domain

    @property
    def shape(self) -> tuple[int, int]:
        """(p, m) of the underlying plant."""
        return self.N.rows, self.N.cols

    def factors(self) -> dict:
        return {
            "M": self.M, "N": self.N, "Mt": self.Mt, "Nt": self.Nt,
            "X": self.X, "Y": self.Y, "Xt": self.Xt, "Yt": self.Yt,
        }

    def bezout_residual(self, count: int = 20, avoid=None) -> float:
        """Max deviation of the Bézout product from identity over probe points.

        The factors are evaluated over all probe points and multiplied
        numerically point by point; a symbolic product would square every
        denominator degree for nothing.  ``avoid`` is the factors' pole
        cloud when the caller has it already.
        """
        mats = (self.Y, self.X, self.Nt, self.Mt, self.M, self.Xt, self.N, self.Yt)
        if avoid is None:
            avoid = _pole_cloud(*mats)
        pts = probe_points(self.domain, count, avoid=avoid)
        return float(np.max(_bezout_errors(*(mat.eval_many(pts) for mat in mats)), initial=0.0))

    @property
    def left(self) -> StateSpace:
        if self._left is None:
            self._left = tfm_to_ss(self.Y.hstack(self.X).vstack((-self.Nt).hstack(self.Mt)))
        return self._left

    @property
    def right(self) -> StateSpace:
        """[M -Xt; N Yt] = left^-1 on left's state, (A - B D^-1 C, B D^-1,
        -D^-1 C, D^-1); ``validate`` ties the rational right factors to it."""
        if self._right is None:
            L = self.left
            Di = np.linalg.inv(L.D)
            self._right = minimal(StateSpace(L.A - L.B @ Di @ L.C, L.B @ Di, -Di @ L.C, Di, L.domain))
        return self._right

    def plant(self) -> StateSpace:
        """G = Mt^-1 Nt: minus the Nt columns of Mt^-1 [-Nt Mt], the lower rows
        of ``left``, on its realization."""
        p, m = self.shape
        lower = range(m, m + p)
        return -left_quotient(self.left.select(lower, range(m + p)), lower).select(range(p), range(m))

    def validate(self, count: int = 20):
        """Check every structural invariant; raise with the violated one named.

        A factor is stable exactly when every entry is, so stability is read
        off the roots of each distinct entry denominator (``ss_to_tf`` writes
        reduced entries; a common factor in a JSON entry counts as a pole);
        no realization of the factor is needed.
        The same roots are the pole cloud both probe sets keep clear of.
        """
        factors = self.factors()
        roots = _den_roots(*factors.values())
        for name, mat in factors.items():
            if not mat.is_proper:
                raise InvariantViolation("factor-proper", f"{name} has an improper entry")
            if any(_is_unstable(r, mat.domain) for row in mat.entries for e in row
                   for r in roots[e.den.coeffs]):
                raise InvariantViolation("factor-stable", f"{name} has unstable poles")
        avoid = [r for rs in roots.values() for r in rs]
        res = self.bezout_residual(count, avoid)
        if res >= PROBE_TOL:
            raise InvariantViolation("bezout-identity", f"residual {res:.3e}")
        for name in ("Y", "Yt", "M", "Mt"):
            gain = getattr(self, name).gain_at_infinity()
            err = float(np.max(np.abs(gain - np.eye(gain.shape[0]))))
            if err >= PROBE_TOL:
                raise InvariantViolation(
                    "gain-at-infinity", f"{name}(inf) deviates from identity by {err:.3e}"
                )
        # the two quotients must describe one plant; compare pointwise since
        # symbolic inversion inflates degrees on higher-order factors
        pts = probe_points(self.domain, count, avoid=avoid)
        Mt, M, Nt, N = (mat.eval_many(pts) for mat in (self.Mt, self.M, self.Nt, self.N))
        for k in range(len(pts)):
            if not (_invertibility(Mt[k])[0] and _invertibility(M[k])[0]):
                continue
            G_left = np.linalg.solve(Mt[k], Nt[k])
            G_right = N[k] @ np.linalg.inv(M[k])
            err = float(np.max(np.abs(G_left - G_right)))
            if err >= PROBE_TOL:
                raise InvariantViolation("plant-quotients-agree", f"deviation {err:.3e}")


# ---------------------------------------------------------------------------
# construction from state space


def _require_plant_ok(plant: StateSpace):
    if float(np.max(np.abs(plant.D), initial=0.0)) != 0.0:
        raise NotStrictlyProper("plant must be strictly proper (D = 0)")
    if not is_stabilizable(plant):
        raise NotStabilizable("the pair (A, B) fails the PBH stabilizability test")
    if not is_detectable(plant):
        raise NotDetectable("the pair (A, C) fails the PBH detectability test")


def dcf_from_ss(plant: StateSpace, F: np.ndarray, L: np.ndarray) -> DoublyCoprime:
    """Doubly coprime factorization from stabilizing gains F and L.

    F must make A + BF stable and L must make A + LC stable; the eight
    factors then read off the observer/state-feedback parameterization.
    """
    _require_plant_ok(plant)
    A, B, C = plant.A, plant.B, plant.C
    n, m, p = plant.order, plant.n_inputs, plant.n_outputs
    F = np.atleast_2d(np.asarray(F, dtype=float))
    L = np.atleast_2d(np.asarray(L, dtype=float))
    if F.shape != (m, n):
        raise DimensionMismatch(f"F must be {m}x{n}")
    if L.shape != (n, p):
        raise DimensionMismatch(f"L must be {n}x{p}")
    AF = A + B @ F
    AL = A + L @ C
    if not unstable_eigs(AF, plant.domain).empty:
        raise GainsNotStabilizing("A + BF has eigenvalues outside the stability region")
    if not unstable_eigs(AL, plant.domain).empty:
        raise GainsNotStabilizing("A + LC has eigenvalues outside the stability region")
    Im = np.eye(m)
    Ip = np.eye(p)
    Zp = np.zeros((m, p))
    dom = plant.domain
    tf = ss_to_tf
    FC = np.vstack([F, C])
    dcf = DoublyCoprime(
        M=tf(StateSpace(AF, B, F, Im, dom)),
        N=tf(StateSpace(AF, B, C, np.zeros((p, m)), dom)),
        Mt=tf(StateSpace(AL, L, C, Ip, dom)),
        Nt=tf(StateSpace(AL, B, C, np.zeros((p, m)), dom)),
        X=tf(StateSpace(AL, L, F, Zp, dom)),
        Y=tf(StateSpace(AL, -B, F, Im, dom)),
        Xt=tf(StateSpace(AF, L, F, Zp, dom)),
        Yt=tf(StateSpace(AF, L, -C, Ip, dom)),
        left=StateSpace(AL, np.hstack([-B, L]), FC, np.eye(m + p), dom),
        right=StateSpace(AF, np.hstack([B, -L]), FC, np.eye(m + p), dom),
    )
    dcf.validate()
    return dcf


# ---------------------------------------------------------------------------
# pole placement


def _ackermann(A: np.ndarray, b: np.ndarray, targets: list[complex]) -> np.ndarray:
    """Single-input gain f with eig(A + b f) = targets (A assumed controllable from b)."""
    n = A.shape[0]
    Cm = np.zeros((n, n))
    v = b.copy()
    for k in range(n):
        Cm[:, k] = v
        v = A @ v
    phi = np.real(np.poly(np.asarray(targets, dtype=complex)))
    PA = np.zeros_like(A)
    for c in phi:
        PA = PA @ A + c * np.eye(n)
    en = np.zeros(n)
    en[n - 1] = 1.0
    k_row = en @ np.linalg.solve(Cm, PA)
    return -k_row


def _select_targets(remaining: list[complex], k: int) -> list[complex]:
    """Pick k targets from the pool without splitting a conjugate pair."""
    reals = sorted((z for z in remaining if abs(z.imag) <= 1e-12), key=lambda z: z.real)
    upper = sorted((z for z in remaining if z.imag > 1e-12), key=lambda z: (z.real, z.imag))
    lower = [z for z in remaining if z.imag < -1e-12]
    pairs: list[tuple[complex, complex]] = []
    for z in upper:
        best = min(range(len(lower)), key=lambda i: abs(lower[i] - z.conjugate()))
        pairs.append((z, lower.pop(best)))
    chosen: list[complex] = []
    pi = ri = 0
    while len(chosen) < k:
        room = k - len(chosen)
        if room >= 2 and pi < len(pairs):
            chosen.extend(pairs[pi])
            pi += 1
        elif ri < len(reals):
            chosen.append(reals[ri])
            ri += 1
        else:
            raise PlacementFailed(
                "a complex-conjugate target pair straddles a staircase block"
            )
    return chosen


def _place_onesided(A: np.ndarray, B: np.ndarray, targets: list[complex]):
    """Gain F with eig(A + BF) = placed targets + untouched modes.

    Each input claims the block of states reachable from it that earlier
    inputs have not fixed yet; gains are lifted with zeros over the fixed
    states, which keeps the accumulated closed loop block triangular and the
    already placed eigenvalues untouched.  States no input reaches keep
    their open-loop eigenvalues and the surplus targets are dropped.
    Returns (F, expected eigenvalue list).
    """
    n = A.shape[0]
    m = B.shape[1]
    dom = StabilityDomain.DISCRETE  # staircase helper ignores the domain
    Z = np.eye(n)
    Acur = A.copy()
    Bcur = B.copy()
    F = np.zeros((m, n))
    offset = 0
    remaining = [complex(t) for t in targets]
    for j in range(m):
        if offset == n or not remaining:
            break
        sub = StateSpace(
            Acur[offset:, offset:],
            Bcur[offset:, j : j + 1],
            np.zeros((1, n - offset)),
            [[0.0]],
            dom,
        )
        staired, k, V = ctrb_staircase(sub)
        if k == 0:
            continue
        W = np.eye(n)
        W[offset:, offset:] = V
        Acur = W.T @ Acur @ W
        Bcur = W.T @ Bcur
        F = F @ W
        Z = Z @ W
        chosen = _select_targets(remaining, k)
        for z in chosen:
            remaining.remove(z)
        blkA = Acur[offset : offset + k, offset : offset + k]
        blkb = Bcur[offset : offset + k, j]
        f = _ackermann(blkA, blkb, chosen)
        Frow = np.zeros(n)
        Frow[offset : offset + k] = f
        F[j, :] += Frow
        Acur = Acur + np.outer(Bcur[:, j], Frow)
        offset += k
    dropped = list(remaining)
    expected = []
    for t in targets:
        if t in dropped:
            dropped.remove(t)
        else:
            expected.append(t)
    if offset < n:
        expected.extend(np.linalg.eigvals(Acur[offset:, offset:]))
    return F @ Z.T, expected


def _placement_ok(A: np.ndarray, targets: list[complex]) -> bool:
    got = np.linalg.eigvals(A)
    if match_multisets(got, targets, POLE_MATCH_TOL):
        return True
    # repeated targets make the eigenproblem defective and the computed
    # eigenvalues blur as eps**(1/mult); the characteristic polynomial
    # coefficients stay well conditioned, so compare those instead
    want_poly = np.real(np.poly(np.asarray(targets, dtype=complex)))
    got_poly = np.real(np.poly(got))
    scale = float(np.max(np.abs(want_poly)))
    return bool(np.max(np.abs(want_poly - got_poly)) <= 1e-6 * scale)


def place_gains(plant: StateSpace, targets) -> tuple[np.ndarray, np.ndarray]:
    """Stabilizing gains (F, L) with eig(A+BF) and eig(A+LC) at the targets.

    Modes outside the controllable (resp. observable) subspace cannot be
    moved by any gain; they keep their open-loop values, surplus targets are
    dropped, and the PBH checks up front guarantee what stays put is stable.
    """
    targets = [complex(t) for t in targets]
    n = plant.order
    if len(targets) != n:
        raise DimensionMismatch(f"need exactly {n} targets, got {len(targets)}")
    if not match_multisets(np.conjugate(targets), targets, 1e-9):
        raise PlacementFailed("target set is not closed under conjugation")
    for t in targets:
        if not _inside_stability_region(t, plant.domain):
            raise PlacementFailed(f"target {t} lies outside the stability region")
    if not is_stabilizable(plant):
        raise NotStabilizable("the pair (A, B) fails the PBH stabilizability test")
    if not is_detectable(plant):
        raise NotDetectable("the pair (A, C) fails the PBH detectability test")
    F, expected_F = _place_onesided(plant.A, plant.B, targets)
    Lt, expected_L = _place_onesided(plant.A.T, plant.C.T, targets)
    L = Lt.T
    if not _placement_ok(plant.A + plant.B @ F, expected_F):
        raise PlacementFailed("state-feedback eigenvalues missed the targets")
    if not _placement_ok(plant.A + L @ plant.C, expected_L):
        raise PlacementFailed("observer eigenvalues missed the targets")
    return F, L


def _inside_stability_region(lam: complex, domain: StabilityDomain) -> bool:
    if domain is StabilityDomain.DISCRETE:
        return abs(lam) < 1.0
    return lam.real < 0.0


def default_targets(n: int, domain: StabilityDomain) -> list[complex]:
    """All-0.5 (discrete) or all-(-1) (continuous) placement targets."""
    base = 0.5 if domain is StabilityDomain.DISCRETE else -1.0
    return [complex(base)] * n


# ---------------------------------------------------------------------------
# Youla shifts


class YoulaShift:
    """Q with the shifted Bézout matrices on one realization each:
    ``left`` = [Y_Q X_Q; -Nt Mt] and ``right`` = [M -Xt_Q; N Yt_Q], of order
    n + n_Q.  The four shifted factors are slices of them."""

    __slots__ = ("Q", "left", "right", "YQ", "XQ", "XtQ", "YtQ")

    def __init__(self, Q, left: StateSpace, right: StateSpace):
        self.Q, self.left, self.right = Q, left, right
        top, bottom = range(Q.rows), range(Q.rows, Q.rows + Q.cols)
        self.YQ, self.XQ = left.select(top, top), left.select(top, bottom)
        self.XtQ, self.YtQ = -right.select(top, bottom), right.select(bottom, bottom)


def _shear(q: StateSpace, sign: float) -> StateSpace:
    """[I sign*Q; 0 I] on the state of Q's realization."""
    m, p = q.D.shape
    zeros = np.zeros((q.order, m))
    C = np.vstack([q.C, np.zeros((p, q.order))])
    D = np.block([[np.eye(m), sign * q.D], [np.zeros((p, m)), np.eye(p)]])
    return StateSpace(q.A, np.hstack([zeros, sign * q.B]), C, D, q.domain)


def youla_shift(dcf: DoublyCoprime, Q: RationalMatrix) -> YoulaShift:
    """Shift the Bézout factors by a stable proper parameter Q:
    [I Q; 0 I] [Y X; -Nt Mt] and [M -Xt; N Yt] [I -Q; 0 I], as series
    connections on the realizations of Q and of the two Bézout matrices."""
    p, m = dcf.shape
    if (Q.rows, Q.cols) != (m, p):
        raise DimensionMismatch(f"Q must be {m}x{p}, got {Q.rows}x{Q.cols}")
    if Q.domain is not dcf.domain:
        raise DomainMismatch("Q disagrees with the factorization domain")
    if not Q.is_proper:
        raise UnstableParameter("Q must be proper")
    q = tfm_to_ss(Q)  # minimal, so its eigenvalues are the poles of Q
    if not unstable_eigs(q.A, Q.domain).empty:
        raise UnstableParameter("Q has poles outside the stability region")
    shift = YoulaShift(Q, series(_shear(q, 1.0), dcf.left), series(dcf.right, _shear(q, -1.0)))
    _check_shift_bezout(dcf, shift)
    return shift


def _check_shift_bezout(dcf: DoublyCoprime, shift: YoulaShift, count: int = 20):
    # both shifted matrices are stable, so the probes clear all their poles
    pts = probe_points(dcf.domain, count)
    prod = shift.left.eval_many(pts) @ shift.right.eval_many(pts)
    errs = _max_abs(prod - np.eye(prod.shape[1]))
    k = _first_failure(errs, PROBE_TOL)
    if k is not None:
        raise InvariantViolation("shifted-bezout-identity", f"residual {errs[k]:.3e}")


# ---------------------------------------------------------------------------
# closed-loop maps


def closed_loop_maps(dcf: DoublyCoprime, shift: YoulaShift) -> StateSpace:
    """The closed-loop table (r, w, nu, du) -> (y, u, z, v), in state space.

    Every block is affine in R W, with R = [N; M] and
    W = [X_Q, Y_Q, -X_Q, -(Y_Q - diag Y_Q)] (du enters through the hollow
    part of Y_Q, as it does in the NRF loop).  So the table is S R W + D0,
    with S = [I 0; 0 I; -I 0; 0 I] and the constant D0 holding the identity
    terms of y <- nu, u <- w, z <- r and z <- nu.  R is a slice of the right
    Bézout realization; W is four column blocks of the shifted left one plus
    diag Y_Q on the du columns, joined in series with R.
    Signals are ordered as dimpl's TABLE_INPUTS and LOOP_OUTPUTS.
    """
    p, m = dcf.shape
    dom = dcf.domain
    R = dcf.right.select([*range(m, m + p), *range(m)], range(m))
    X, Y = [*range(m, m + p)], [*range(m)]
    W = shift.left.select(range(m), X + Y + X + Y)
    sign = np.repeat([1.0, 1.0, -1.0, -1.0], [p, m, p, m])
    Om = diagonal([shift.YQ.select([i], [i]) for i in range(m)])
    pad = lambda M: np.hstack([np.zeros((M.shape[0], 2 * p + m)), M])
    W = parallel(
        StateSpace(W.A, W.B * sign, W.C, W.D * sign, dom),
        StateSpace(Om.A, pad(Om.B), Om.C, pad(Om.D), dom),
    )
    RW = series(R, W)
    Ip, Im = np.eye(p), np.eye(m)
    Zpp, Zpm, Zmp, Zmm = np.zeros((p, p)), np.zeros((p, m)), np.zeros((m, p)), np.zeros((m, m))
    S = np.block([[Ip, Zpm], [Zmp, Im], [-Ip, Zpm], [Zmp, Im]])
    D0 = np.block([
        [Zpp, Zpm, Ip, Zpm],
        [Zmp, -Im, Zmp, Zmm],
        [Ip, Zpm, -Ip, Zpm],
        [Zmp, Zmm, Zmp, Zmm],
    ])
    table = StateSpace(RW.A, RW.B, S @ RW.C, S @ RW.D + D0, dom)
    bad = unstable_eigs(table.A, dom).values
    if bad:
        raise UnstableMap(f"closed-loop table has unstable modes {list(bad)}")
    _cross_check_vs_loop(dcf, shift, table)
    return table


def _cross_check_vs_loop(dcf: DoublyCoprime, shift: YoulaShift, table: StateSpace, count: int = 20):
    """Compare the table with the loop solved directly at probe points.

    With G = Mt^-1 Nt, K = YQ^-1 XQ and du entering the command as
    Kd du, Kd = -YQ^-1 (YQ - diag YQ), the command row is
    U = (I + K G)^-1 [K, -K G, -K, Kd]; then y = G (u + w) + nu, z = r - y
    and v = u + w.
    """
    p, m = dcf.shape
    pts = probe_points(dcf.domain, count)  # the table is stable: no pole lies near them
    got = table.eval_many(pts)
    L = shift.left.eval_many(pts)
    YQ, XQ, Nt, Mt = L[:, :m, :m], L[:, :m, m:], -L[:, m:, :m], L[:, m:, m:]
    E_r, E_w, E_nu, _ = np.split(np.eye(2 * (p + m)), np.cumsum([p, m, p]))
    for k, pt in enumerate(pts):
        hollow = YQ[k] - np.diag(np.diag(YQ[k]))
        try:
            G = np.linalg.solve(Mt[k], Nt[k])
            K, Kd = np.split(np.linalg.solve(YQ[k], np.hstack([XQ[k], -hollow])), [p], axis=1)
            U = np.linalg.solve(np.eye(m) + K @ G, np.hstack([K, -K @ G, -K, Kd]))
        except np.linalg.LinAlgError:
            continue
        Y = G @ (U + E_w) + E_nu
        err = float(np.max(np.abs(got[k] - np.vstack([Y, U, E_r - Y, U + E_w]))))
        if err >= CROSS_CHECK_TOL:
            raise InvariantViolation(
                "closed-loop-table-vs-direct", f"table deviates by {err:.3e} at {pt}"
            )


def hinf_grid_norm(H, grid: int = 256) -> float:
    """Largest singular value of a stable map over a frequency grid.

    H is any map with ``eval_many``, ``gain_at_infinity`` and ``domain``: a
    RationalMatrix or a StateSpace such as the closed-loop table.  Grids nest
    under doubling (theta = pi*k/grid), so the value is monotone nondecreasing
    in the grid count; it is a lower bound on the true norm.
    """
    if grid < 1:
        raise InvalidGrid(f"a frequency grid needs at least one interval, got {grid}")
    theta = np.pi * np.arange(grid + 1) / grid
    if H.domain is StabilityDomain.DISCRETE:
        vals = H.eval_many(np.exp(1j * theta))
    else:
        # theta = pi is s = infinity
        at_inf = np.asarray(H.gain_at_infinity(), dtype=complex)[None]
        vals = np.concatenate([H.eval_many(1j * np.tan(theta[:-1] / 2.0)), at_inf])
    return float(np.max(np.linalg.svd(vals, compute_uv=False)[:, 0], initial=0.0))


# ---------------------------------------------------------------------------
# JSON interchange

_FIELDS = ("M", "N", "Mt", "Nt", "X", "Y", "Xt", "Yt")


def dcf_to_obj(dcf: DoublyCoprime) -> dict:
    return {name: ratmat_to_obj(getattr(dcf, name)) for name in _FIELDS}


def dcf_from_obj(obj: dict) -> DoublyCoprime:
    missing = [name for name in _FIELDS if name not in obj]
    if missing:
        raise InvariantViolation("dcf-fields-present", f"missing factors: {missing}")
    dcf = DoublyCoprime(**{name: ratmat_from_obj(obj[name]) for name in _FIELDS})
    dcf.validate()
    return dcf


def save_dcf(dcf: DoublyCoprime, path: str):
    with open(path, "w") as fh:
        json.dump(dcf_to_obj(dcf), fh, indent=1)


def load_dcf(path: str) -> DoublyCoprime:
    with open(path) as fh:
        return dcf_from_obj(json.load(fh))
