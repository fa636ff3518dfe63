"""Doubly coprime factorizations and the Youla parameterization.

Construction goes through a stabilizing state feedback F and observer gain L:
with A_F = A + BF and A_L = A + LC both stable, the eight factors come out of
the standard observer/state-feedback formulas, already normalized so that M,
M̃, Y and Ỹ all have identity gain at infinity.  Identities between factors
are checked by residuals at deterministic probe points rather than
symbolically; at the degrees involved, evaluation bounds are decisive and
coefficient-level comparison is brittle.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainMismatch,
    GainsNotStabilizing,
    InvariantViolation,
    NotDetectable,
    NotStabilizable,
    NotStrictlyProper,
    PlacementFailed,
    SingularDenominator,
    SingularMatrix,
    UnstableMap,
    UnstableParameter,
)
from .ratmat import (
    RationalMatrix,
    StabilityDomain,
    diag_part,
    invert,
    probe_points,
    ratmat_from_obj,
    ratmat_to_obj,
    unstable_poles,
)
from .sstate import (
    StateSpace,
    ctrb_staircase,
    is_detectable,
    is_stabilizable,
    match_multisets,
    ss_to_tf,
    unstable_eigs,
)
from .tolerances import POLE_MATCH_TOL, RANK_REL_TOL, probe_tolerance

CROSS_CHECK_TOL = 1e-6


def _inv_margin(mat: np.ndarray) -> float:
    """Smallest over largest singular value (0 for a singular matrix)."""
    sv = np.linalg.svd(mat, compute_uv=False)
    return float(sv[-1] / sv[0]) if sv[0] > 0.0 else 0.0


def _pole_cloud(*mats: RationalMatrix) -> tuple[complex, ...]:
    """Approximate pole locations of every entry, for probe-point avoidance."""
    out: list[complex] = []
    for mat in mats:
        for i in range(mat.rows):
            for j in range(mat.cols):
                out.extend(complex(r) for r in mat.entry(i, j).den.roots())
    return tuple(out)


class DoublyCoprime:
    """Eight stable TFMs tied by the Bézout identity.

    Mt, Nt, Xt, Yt hold the left-factor family (the tilde quantities); G is
    recovered as Mt^-1 Nt = N M^-1.
    """

    __slots__ = ("M", "N", "Mt", "Nt", "X", "Y", "Xt", "Yt")

    def __init__(self, M, N, Mt, Nt, X, Y, Xt, Yt):
        self.M, self.N, self.Mt, self.Nt = M, N, Mt, Nt
        self.X, self.Y, self.Xt, self.Yt = X, Y, Xt, Yt
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

    def bezout_residual(self, count: int = 20) -> float:
        """Max deviation of the Bézout product from identity over probe points.

        The factors are evaluated and multiplied numerically per point; a
        symbolic product would square every denominator degree for nothing.
        """
        p, m = self.shape
        eye = np.eye(m + p)
        worst = 0.0
        avoid = _pole_cloud(*self.factors().values())
        for pt in probe_points(self.domain, count, avoid=avoid):
            left = np.block(
                [[self.Y.eval(pt), self.X.eval(pt)],
                 [-self.Nt.eval(pt), self.Mt.eval(pt)]]
            )
            right = np.block(
                [[self.M.eval(pt), -self.Xt.eval(pt)],
                 [self.N.eval(pt), self.Yt.eval(pt)]]
            )
            worst = max(worst, float(np.max(np.abs(left @ right - eye))))
        return worst

    def plant(self) -> RationalMatrix:
        """G = Mt^-1 Nt (left quotient keeps the inversion at size p)."""
        return invert(self.Mt) @ self.Nt

    def validate(self, count: int = 20):
        """Check every structural invariant; raise with the violated one named."""
        for name, mat in self.factors().items():
            if not mat.is_proper:
                raise InvariantViolation("factor-proper", f"{name} has an improper entry")
            if unstable_poles(mat):
                raise InvariantViolation("factor-stable", f"{name} has unstable poles")
        res = self.bezout_residual(count)
        if res >= probe_tolerance():
            raise InvariantViolation("bezout-identity", f"residual {res:.3e}")
        for name in ("Y", "Yt", "M", "Mt"):
            gain = getattr(self, name).gain_at_infinity()
            err = float(np.max(np.abs(gain - np.eye(gain.shape[0]))))
            if err >= probe_tolerance():
                raise InvariantViolation(
                    "gain-at-infinity", f"{name}(inf) deviates from identity by {err:.3e}"
                )
        # the two quotients must describe one plant; compare pointwise since
        # symbolic inversion inflates degrees on higher-order factors
        avoid = _pole_cloud(self.M, self.N, self.Mt, self.Nt)
        for pt in probe_points(self.domain, count, avoid=avoid):
            Mtv, Mv = self.Mt.eval(pt), self.M.eval(pt)
            if min(_inv_margin(Mtv), _inv_margin(Mv)) <= RANK_REL_TOL:
                continue
            G_left = np.linalg.solve(Mtv, self.Nt.eval(pt))
            G_right = self.N.eval(pt) @ np.linalg.inv(Mv)
            err = float(np.max(np.abs(G_left - G_right)))
            if err >= probe_tolerance():
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
    dcf = DoublyCoprime(
        M=tf(StateSpace(AF, B, F, Im, dom)),
        N=tf(StateSpace(AF, B, C, np.zeros((p, m)), dom)),
        Mt=tf(StateSpace(AL, L, C, Ip, dom)),
        Nt=tf(StateSpace(AL, B, C, np.zeros((p, m)), dom)),
        X=tf(StateSpace(AL, L, F, Zp, dom)),
        Y=tf(StateSpace(AL, -B, F, Im, dom)),
        Xt=tf(StateSpace(AF, L, F, Zp, dom)),
        Yt=tf(StateSpace(AF, L, -C, Ip, dom)),
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
    """Q together with the four shifted Bézout factors."""

    __slots__ = ("Q", "XQ", "XtQ", "YQ", "YtQ")

    def __init__(self, Q, XQ, XtQ, YQ, YtQ):
        self.Q, self.XQ, self.XtQ, self.YQ, self.YtQ = Q, XQ, XtQ, YQ, YtQ

    @property
    def domain(self) -> StabilityDomain:
        return self.Q.domain


def youla_shift(dcf: DoublyCoprime, Q: RationalMatrix) -> YoulaShift:
    """Shift the Bézout factors by a stable proper parameter Q."""
    p, m = dcf.shape
    if (Q.rows, Q.cols) != (m, p):
        raise DimensionMismatch(f"Q must be {m}x{p}, got {Q.rows}x{Q.cols}")
    if Q.domain is not dcf.domain:
        raise DomainMismatch("Q disagrees with the factorization domain")
    if not Q.is_proper:
        raise UnstableParameter("Q must be proper")
    if unstable_poles(Q):
        raise UnstableParameter("Q has poles outside the stability region")
    shift = YoulaShift(
        Q=Q,
        XQ=dcf.X + Q @ dcf.Mt,
        XtQ=dcf.Xt + dcf.M @ Q,
        YQ=dcf.Y - Q @ dcf.Nt,
        YtQ=dcf.Yt - dcf.N @ Q,
    )
    _check_shift_bezout(dcf, shift)
    return shift


def _check_shift_bezout(dcf: DoublyCoprime, shift: YoulaShift, count: int = 20):
    p, m = dcf.shape
    eye = np.eye(m + p)
    avoid = _pole_cloud(
        shift.YQ, shift.XQ, shift.XtQ, shift.YtQ, dcf.M, dcf.N, dcf.Mt, dcf.Nt
    )
    for pt in probe_points(dcf.domain, count, avoid=avoid):
        left = np.block(
            [[shift.YQ.eval(pt), shift.XQ.eval(pt)],
             [-dcf.Nt.eval(pt), dcf.Mt.eval(pt)]]
        )
        right = np.block(
            [[dcf.M.eval(pt), -shift.XtQ.eval(pt)],
             [dcf.N.eval(pt), shift.YtQ.eval(pt)]]
        )
        err = float(np.max(np.abs(left @ right - eye)))
        if err >= probe_tolerance():
            raise InvariantViolation("shifted-bezout-identity", f"residual {err:.3e}")


def controller_tfm(shift: YoulaShift) -> RationalMatrix:
    """K_Q = YQ^-1 XQ, cross-checked against the right quotient XtQ YtQ^-1."""
    try:
        K = invert(shift.YQ) @ shift.XQ
        K_right = shift.XtQ @ invert(shift.YtQ)
    except SingularMatrix as exc:
        raise SingularDenominator(str(exc)) from exc
    diff = K - K_right
    for pt in probe_points(shift.domain, 20, avoid=_pole_cloud(diff)):
        err = float(np.max(np.abs(diff.eval(pt))))
        if err >= probe_tolerance():
            raise InvariantViolation("controller-quotients-agree", f"deviation {err:.3e}")
    return K


# ---------------------------------------------------------------------------
# closed-loop maps


OUTPUTS = ("y", "u", "z", "v")
INPUTS = ("r", "w", "nu")


class ClosedLoopMaps:
    """The 4x3 closed-loop block table plus the delta_u column."""

    def __init__(self, blocks: dict, delta: dict):
        self.blocks = dict(blocks)
        self.delta = dict(delta)
        self._stability_checked = False

    def block(self, output: str, inp: str) -> RationalMatrix:
        return self.blocks[(output, inp)]

    def delta_block(self, output: str) -> RationalMatrix:
        return self.delta[output]

    @property
    def domain(self) -> StabilityDomain:
        return self.blocks[("y", "r")].domain

    def all_blocks(self):
        for key in self.blocks:
            yield key, self.blocks[key]
        for out in OUTPUTS:
            yield (out, "du"), self.delta[out]

    def stacked(self) -> RationalMatrix:
        """The (y,u,z,v) x (r,w,nu) table as one rational matrix."""
        rows = []
        for out in OUTPUTS:
            row = self.block(out, "r")
            for inp in INPUTS[1:]:
                row = row.hstack(self.block(out, inp))
            rows.append(row)
        stacked = rows[0]
        for row in rows[1:]:
            stacked = stacked.vstack(row)
        return stacked

    def assert_stable(self):
        if self._stability_checked:
            return
        for key, mat in self.all_blocks():
            if unstable_poles(mat):
                raise UnstableMap(f"closed-loop block {key} is unstable")
        self._stability_checked = True


def closed_loop_maps(dcf: DoublyCoprime, shift: YoulaShift) -> ClosedLoopMaps:
    """All closed-loop maps of the (r, w, nu, delta_u) loop, by the affine formulas."""
    p, m = dcf.shape
    dom = dcf.domain
    Ip = RationalMatrix.identity(p, dom)
    Im = RationalMatrix.identity(m, dom)
    NXQ = dcf.N @ shift.XQ
    NYQ = dcf.N @ shift.YQ
    MXQ = dcf.M @ shift.XQ
    MYQ = dcf.M @ shift.YQ
    hollow = shift.YQ - diag_part(shift.YQ)
    N_h = dcf.N @ hollow
    M_h = dcf.M @ hollow
    blocks = {
        ("y", "r"): NXQ, ("y", "w"): NYQ, ("y", "nu"): Ip - NXQ,
        ("u", "r"): MXQ, ("u", "w"): MYQ - Im, ("u", "nu"): -MXQ,
        ("z", "r"): Ip - NXQ, ("z", "w"): -NYQ, ("z", "nu"): NXQ - Ip,
        ("v", "r"): MXQ, ("v", "w"): MYQ, ("v", "nu"): -MXQ,
    }
    delta = {"y": -N_h, "u": -M_h, "z": N_h, "v": -M_h}
    maps = ClosedLoopMaps(blocks, delta)
    maps.assert_stable()
    _cross_check_vs_loop(dcf, shift, maps)
    return maps


def _cross_check_vs_loop(dcf: DoublyCoprime, shift: YoulaShift, maps: ClosedLoopMaps, count: int = 20):
    """Compare the affine table with the direct loop solution at probe points."""
    p, m = dcf.shape
    avoid = _pole_cloud(maps.stacked(), dcf.Mt, shift.YQ)
    for pt in probe_points(dcf.domain, count, avoid=avoid):
        try:
            Gz = np.linalg.solve(dcf.Mt.eval(pt), dcf.Nt.eval(pt))
            Kz = np.linalg.solve(shift.YQ.eval(pt), shift.XQ.eval(pt))
            SG = np.linalg.inv(np.eye(p) + Gz @ Kz)
            SK = np.linalg.inv(np.eye(m) + Kz @ Gz)
        except np.linalg.LinAlgError:
            continue
        direct = {
            ("y", "r"): SG @ Gz @ Kz, ("y", "w"): SG @ Gz, ("y", "nu"): SG,
            ("u", "r"): SK @ Kz, ("u", "w"): -SK @ Kz @ Gz, ("u", "nu"): -SK @ Kz,
            ("z", "r"): SG, ("z", "w"): -SG @ Gz, ("z", "nu"): -SG,
            ("v", "r"): SK @ Kz, ("v", "w"): SK, ("v", "nu"): -SK @ Kz,
        }
        for key, want in direct.items():
            got = maps.block(*key).eval(pt)
            err = float(np.max(np.abs(got - want)))
            if err >= CROSS_CHECK_TOL:
                raise InvariantViolation(
                    "closed-loop-table-vs-direct", f"block {key} deviates by {err:.3e} at {pt}"
                )


def hinf_grid_norm(H, grid: int = 256) -> float:
    """Largest singular value of a stable map over a frequency grid.

    H is a closed-loop table (its stability is asserted and its 4x3 stack
    scanned) or any map with ``eval``, ``gain_at_infinity`` and ``domain``:
    a RationalMatrix or a StateSpace.  Grids nest under doubling
    (theta = pi*k/grid), so the value is monotone nondecreasing in the grid
    count; it is a lower bound on the true norm.
    """
    if isinstance(H, ClosedLoopMaps):
        H.assert_stable()
        H = H.stacked()
    worst = 0.0
    for k in range(grid + 1):
        theta = np.pi * k / grid
        if H.domain is StabilityDomain.DISCRETE:
            val = H.eval(np.exp(1j * theta))
        elif k == grid:
            val = H.gain_at_infinity().astype(complex)
        else:
            val = H.eval(1j * np.tan(theta / 2.0))
        worst = max(worst, float(np.linalg.svd(val, compute_uv=False)[0]))
    return worst


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
