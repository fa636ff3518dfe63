"""Doubly coprime factorizations and the Youla parameterization.

Construction goes through a stabilizing state feedback F and observer gain L:
with A_F = A + BF and A_L = A + LC both stable, the factorization is two
realizations of the Bézout matrices,
[Y X; -Nt Mt] = (A + LC, [-B L], [F; C], I) and
[M -Xt; N Yt] = (A + BF, [B -L], [F; C], I) (Zhou, Doyle and Glover, 1996),
each of the plant order and already normalized so that M, M̃, Y and Ỹ have
identity gain at infinity.  Every check reads these realizations: stability
from their eigenvalues, gains from their feedthrough, identities from their
values at deterministic probe points.  The eight rational factors are views
for JSON and printing, converted on first read.  dcf.json holds the factors
and, beside them, ``left``, ``right`` and ``shape``: a reader takes the
realizations as they are and validates them, and keeps the factors as
unparsed views; a file with the factors alone is realized by
``DoublyCoprime.from_factors`` and audited there.  The Youla shift is two
series connections of the realizations with Q, and the closed-loop table and
every later stage read the shifted realizations; no factor is multiplied
symbolically.  The loop's signal layout (the injections, the loop signals,
their widths and the readout of z and v) is written down here once, and
``dimpl`` and ``simkit`` read it.
"""

from __future__ import annotations

import cmath
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
    audit,
)
from .ratmat import (
    RationalMatrix,
    StabilityDomain,
    _point_blocks,
    probe_points,
    ratmat_from_obj,
    ratmat_to_obj,
)
from .sstate import (
    StateSpace,
    _eval_stacked,
    ctrb_staircase,
    diagonal,
    is_unstable,
    left_quotient,
    match_multisets,
    minimal,
    parallel,
    pbh_failure,
    series,
    ss_from_obj,
    ss_to_obj,
    ss_to_tf,
    tfm_to_ss,
)
from .tolerances import CROSS_CHECK_TOL, GRID_NORM_TOL, POLE_MATCH_TOL, PROBE_TOL

_FIELDS = ("M", "N", "Mt", "Nt", "X", "Y", "Xt", "Yt")


def _probe_contour(plant: StateSpace) -> tuple[complex, ...]:
    """The 20 probe points clear of the plant's unstable eigenvalues, kept on
    the plant: no other pole can reach them (``tolerances``)."""
    return plant._fact("probe_contour", lambda: tuple(
        probe_points(plant.domain, 20, avoid=plant.unstable_eigenvalues)))


def _check_inverse(left: StateSpace, right: StateSpace, invariant: str, points=None):
    """Audit left right = I at ``points`` (the 20 probe points by default),
    and return both maps' values there, from one ``_eval_stacked`` call (one
    batched solve per block of points when the orders agree); both maps are
    stable, so the points clear all their poles.  A product entry that is not
    finite, as after an overflow, fails as an infinite residual."""
    L, R = _eval_stacked([left, right], probe_points(left.domain, 20) if points is None else points)
    with np.errstate(over="ignore", invalid="ignore"):
        dev = L @ R - np.eye(left.n_outputs)
    audit(invariant, np.where(np.isfinite(dev), dev, np.inf), PROBE_TOL)
    return L, R


# each factor's block of a Bézout realization, (realization, row block, column
# block, sign of B, sign of C), D scaled by both signs: Nt and Xt enter the
# Bézout matrices negated, and the Yt block is Yt on the negated state
_BLOCKS = {"M": ("right", 0, 0, 1, 1), "N": ("right", 1, 0, 1, 1), "Mt": ("left", 1, 1, 1, 1),
           "Nt": ("left", 1, 0, -1, 1), "X": ("left", 0, 1, 1, 1), "Y": ("left", 0, 0, 1, 1),
           "Xt": ("right", 0, 1, -1, 1), "Yt": ("right", 1, 1, -1, -1)}


def _view(name: str) -> property:
    def read(self) -> RationalMatrix:
        if name not in self._views:
            self._views[name] = (ratmat_from_obj(self._json[name]) if name in self._json
                                 else ss_to_tf(self.realized(name)))
        return self._views[name]

    return property(read, doc=f"{name} as a rational matrix, converted on first read")


class DoublyCoprime:
    """Eight stable TFMs tied by the Bézout identity, stored as two realizations.

    ``left`` and ``right`` realize the Bézout matrices [Y X; -Nt Mt] and
    [M -Xt; N Yt] of a plant with ``shape`` (p, m); every stage and every
    audit reads them.  Mt, Nt, Xt, Yt hold the left-factor family (the tilde
    quantities); G is recovered as Mt^-1 Nt = N M^-1.  ``realized(name)`` is
    a factor's signed block of a realization, and the eight factors are
    rational views for JSON and printing, each ``ss_to_tf`` of that block on
    first read; ``from_factors`` keeps the rational factors it is given, and
    a factorization read from JSON keeps the file's rational entries (in
    ``_json``, unparsed until first read and written back as they were).
    """

    __slots__ = ("left", "right", "shape", "_views", "_json", "_plant", "_bezout")

    M, N, Mt, Nt, X, Y, Xt, Yt = (_view(name) for name in _FIELDS)

    def __init__(self, left: StateSpace, right: StateSpace, shape: tuple[int, int]):
        self.left, self.right, self.shape = left, right, shape
        self._views = {}
        self._json = {}
        self._plant = self._bezout = None

    @classmethod
    def from_factors(cls, M, N, Mt, Nt, X, Y, Xt, Yt) -> "DoublyCoprime":
        """Realize rational factors, the left Bézout matrix by ``tfm_to_ss``
        and the right one as its inverse; then ``validate``, and audit
        ``bezout_residual``, which ties the given right factors to it."""
        factors = dict(zip(_FIELDS, (M, N, Mt, Nt, X, Y, Xt, Yt)))
        p, m = N.rows, N.cols
        dims = {"M": (m, m), "N": (p, m), "Mt": (p, p), "Nt": (p, m),
                "X": (m, p), "Y": (m, m), "Xt": (m, p), "Yt": (p, p)}
        for name, (r, c) in dims.items():
            mat = factors[name]
            if (mat.rows, mat.cols) != (r, c):
                raise DimensionMismatch(f"{name} must be {r}x{c}, got {mat.rows}x{mat.cols}")
            if mat.domain is not M.domain:
                raise DomainMismatch(f"{name} disagrees on the stability domain")
            if not mat.is_proper:
                raise InvariantViolation("factor-proper", f"{name} has an improper entry")
        left = tfm_to_ss(Y.hstack(X).vstack((-Nt).hstack(Mt)))
        # left^-1 on left's state, (A - B D^-1 C, B D^-1, -D^-1 C, D^-1)
        Di = np.linalg.inv(left.D)
        right = minimal(StateSpace(left.A - left.B @ Di @ left.C, left.B @ Di, -Di @ left.C,
                                   Di, left.domain))
        dcf = cls(left, right, (p, m))
        dcf._views.update(factors)
        dcf.validate()
        audit("bezout-identity", dcf.bezout_residual(), PROBE_TOL, "given factors")
        return dcf

    @property
    def domain(self) -> StabilityDomain:
        return self.left.domain

    def factors(self) -> dict:
        return {name: getattr(self, name) for name in _FIELDS}

    def bezout_residual(self) -> float:
        """Max deviation of the Bézout product of the eight rational factors
        from identity over probe points, computed once per object.

        The factors are evaluated over all probe points and multiplied
        numerically point by point.  Stable factors need no probe avoidance.
        """
        if self._bezout is None:
            pts = probe_points(self.domain, 20)
            f = {name: mat.eval_many(pts) for name, mat in self.factors().items()}
            left = np.block([[f["Y"], f["X"]], [-f["Nt"], f["Mt"]]])
            right = np.block([[f["M"], -f["Xt"]], [f["N"], f["Yt"]]])
            self._bezout = float(np.max(np.abs(left @ right - np.eye(left.shape[1])), initial=0.0))
        return self._bezout

    def realized(self, name: str) -> StateSpace:
        """Factor ``name`` as its signed block of ``left`` or ``right``."""
        side, row, col, sb, sc = _BLOCKS[name]
        p, m = self.shape
        blocks = (range(m), range(m, m + p))
        s = getattr(self, side).select(blocks[row], blocks[col])
        return StateSpace(s.A, sb * s.B, sc * s.C, sb * sc * s.D, s.domain)

    def plant(self) -> StateSpace:
        """G = Mt^-1 Nt: minus the Nt columns of Mt^-1 [-Nt Mt], the lower rows
        of ``left``, on its realization; realized once per object."""
        if self._plant is None:
            p, m = self.shape
            lower = range(m, m + p)
            quotient = left_quotient(self.left.select(lower, range(m + p)), lower)
            self._plant = -quotient.select(range(p), range(m))
        return self._plant

    def validate(self):
        """Check every structural invariant; raise with the violated one named.

        Every check reads the realizations.  Stability is read off their
        eigenvalues (a left Bézout matrix realized from rational factors is
        minimal, so a common factor in a JSON entry cancels), then
        ``_audit_gains_and_identities`` runs at the probe contour of its
        realization of G = Mt^-1 Nt.
        """
        for name, sys in (("left", self.left), ("right", self.right)):
            bad = sys.unstable_eigenvalues
            if bad:
                raise InvariantViolation(
                    "factor-stable", f"the {name} Bézout matrix has unstable poles {list(bad)}"
                )
        self._audit_gains_and_identities(_probe_contour(self.plant()))

    def _audit_gains_and_identities(self, points):
        """The gains at infinity off the diagonal blocks of D, then the Bézout
        identity and the two plant quotients off one evaluation of both
        realizations at ``points``, which must clear the unstable poles of
        G = Mt^-1 Nt: a plant's ``_probe_contour``."""
        p, m = self.shape
        top, bottom = slice(0, m), slice(m, m + p)
        blocks = (("Y", self.left, top), ("Yt", self.right, bottom),
                  ("M", self.right, top), ("Mt", self.left, bottom))
        for name, sys, blk in blocks:
            gain = sys.D[blk, blk]
            audit("gain-at-infinity", gain - np.eye(gain.shape[0]), PROBE_TOL, f"{name}(inf)")
        L, R = _check_inverse(self.left, self.right, "bezout-identity", points=points)
        # Mt^-1 Nt off the lower rows [-Nt Mt] of left against N M^-1 off right
        audit("plant-quotients-agree",
              np.linalg.solve(L[:, m:, m:], -L[:, m:, :m])
              - R[:, m:, :m] @ np.linalg.inv(R[:, :m, :m]), PROBE_TOL)


# ---------------------------------------------------------------------------
# construction from state space


def _require_pbh(plant: StateSpace):
    """(A, B) stabilizable, then (A, C) detectable, by the plant's kept PBH
    verdict: a failing one raises on every call."""
    failure = pbh_failure(plant)
    if failure == "stabilizable":
        raise NotStabilizable("the pair (A, B) fails the PBH stabilizability test")
    if failure == "detectable":
        raise NotDetectable("the pair (A, C) fails the PBH detectability test")


def dcf_from_ss(plant: StateSpace, F: np.ndarray, L: np.ndarray) -> DoublyCoprime:
    """Doubly coprime factorization from stabilizing gains F and L.

    F must make A + BF stable and L must make A + LC stable; the two Bézout
    realizations then read off the observer/state-feedback parameterization.
    Their state matrices are A + LC and A + BF, whose stability is decided
    here from one ``eigvals`` call on both, so only the gain and identity
    audits of ``validate`` run.  The plant's spectral facts are the ones it
    keeps, shared with ``place_gains``: its PBH verdict, and its probe
    contour clear of the unstable modes that verdict was decided at; G =
    Mt^-1 Nt is not realized.
    """
    if float(np.max(np.abs(plant.D), initial=0.0)) != 0.0:
        raise NotStrictlyProper("plant must be strictly proper (D = 0)")
    _require_pbh(plant)
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
    eig_F, eig_L = np.linalg.eigvals(np.stack([AF, AL]))
    if is_unstable(eig_F, plant.domain).any():
        raise GainsNotStabilizing("A + BF has eigenvalues outside the stability region")
    if is_unstable(eig_L, plant.domain).any():
        raise GainsNotStabilizing("A + LC has eigenvalues outside the stability region")
    FC, I = np.vstack([F, C]), np.eye(m + p)
    dcf = DoublyCoprime(StateSpace(AL, np.hstack([-B, L]), FC, I, plant.domain),
                        StateSpace(AF, np.hstack([B, -L]), FC, I, plant.domain), (p, m))
    dcf._audit_gains_and_identities(_probe_contour(plant))
    return dcf


# ---------------------------------------------------------------------------
# pole placement


def _ackermann(A: np.ndarray, b: np.ndarray, targets: list[complex]) -> np.ndarray:
    """Single-input gain f with eig(A + b f) = targets (A assumed controllable from b).

    Ackermann's f = -e_n' Cm^-1 phi(A) with the target polynomial phi kept
    factored: w = e_n' Cm^-1, then w <- w (A - t I) per target in complex
    arithmetic (monomial coefficients lose clustered targets; conjugate pairs,
    kept together by ``_select_targets``, leave w real up to rounding).
    """
    n = A.shape[0]
    Cm = np.zeros((n, n))
    Cm[:, 0] = b
    for k in range(1, n):
        Cm[:, k] = A @ Cm[:, k - 1]
    w = np.linalg.solve(Cm.T, np.eye(n)[n - 1]).astype(complex)
    for t in targets:
        w = w @ A - t * w
    return -w.real


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
    Returns (F, (placed targets, untouched open-loop eigenvalues)).
    """
    n = A.shape[0]
    m = B.shape[1]
    Z = np.eye(n)
    Acur = A.copy()
    Bcur = B.copy()
    F = np.zeros((m, n))
    offset = 0
    remaining = [complex(t) for t in targets]
    for j in range(m):
        if offset == n or not remaining:
            break
        _, _, _, k, V = ctrb_staircase(
            Acur[offset:, offset:], Bcur[offset:, j : j + 1], np.zeros((0, n - offset))
        )
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
    placed = list(targets)  # less the dropped targets, their first copies
    for t in remaining:
        placed.remove(t)
    return F @ Z.T, (placed, list(np.linalg.eigvals(Acur[offset:, offset:])))


def _placement_ok(A: np.ndarray, placed: list[complex], untouched: list[complex]) -> bool:
    expected = [*placed, *untouched]
    got = np.linalg.eigvals(A)
    if match_multisets(got, expected, POLE_MATCH_TOL):
        return True
    # repeated targets make the eigenproblem defective and the computed
    # eigenvalues blur as eps**(1/mult); the characteristic polynomial
    # coefficients stay well conditioned, so compare those instead.  Distinct
    # targets have no such excuse, and neither have modes that no input moves,
    # even when two of them coincide: each must be hit on its own.
    t = np.asarray(placed, dtype=complex)
    if not np.any(np.abs(np.subtract.outer(t, t))[np.triu_indices(t.size, 1)] <= POLE_MATCH_TOL):
        return False
    want_poly = np.real(np.poly(np.asarray(expected, dtype=complex)))
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
    for t in targets:
        if not cmath.isfinite(t):
            raise PlacementFailed(f"target {t} is not finite")
    if not match_multisets(np.conjugate(targets), targets, 1e-9):
        raise PlacementFailed("target set is not closed under conjugation")
    for t in targets:
        if is_unstable(t, plant.domain):
            raise PlacementFailed(f"target {t} lies outside the stability region")
    _require_pbh(plant)
    F, expected_F = _place_onesided(plant.A, plant.B, targets)
    Lt, expected_L = _place_onesided(plant.A.T, plant.C.T, targets)
    L = Lt.T
    if not _placement_ok(plant.A + plant.B @ F, *expected_F):
        raise PlacementFailed("state-feedback eigenvalues missed the targets")
    if not _placement_ok(plant.A + L @ plant.C, *expected_L):
        raise PlacementFailed("observer eigenvalues missed the targets")
    return F, L


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
    if q.unstable_eigenvalues:
        raise UnstableParameter("Q has poles outside the stability region")
    shift = YoulaShift(Q, series(_shear(q, 1.0), dcf.left), series(dcf.right, _shear(q, -1.0)))
    _check_inverse(shift.left, shift.right, "shifted-bezout-identity")
    return shift


# ---------------------------------------------------------------------------
# the loop's signal layout

# Injections into the loop (reference, plant-input disturbance, sensor noise,
# command-channel disturbance, additive command) and the loop signals read out.
LOOP_INPUTS = ("r", "w", "nu", "du", "cmd")
LOOP_OUTPUTS = ("y", "u", "z", "v")
# the sixteen-block table a user checks: every output from every injection
# except the command, which only the H-tilde map uses
TABLE_INPUTS = LOOP_INPUTS[:4]


def _signal_width(name, partition) -> int:
    """Channel count of a loop signal: p on the measurement side (r, nu, y, z),
    m on the command side (w, du, cmd, u, v)."""
    m, p = partition
    return p if name in ("r", "nu", "y", "z") else m


def _signal_index(names, chosen, partition) -> np.ndarray:
    """Positions of the chosen signals in the stacked vector of names."""
    width = {name: _signal_width(name, partition) for name in names}
    start = dict(zip(names, np.cumsum([0] + [width[n] for n in names])))
    return np.concatenate([np.arange(start[c], start[c] + width[c]) for c in chosen])


def _injections(names, partition) -> list[np.ndarray]:
    """Each named injection's identity rows in the stacked vector of names."""
    widths = [_signal_width(name, partition) for name in names]
    return np.split(np.eye(sum(widths)), np.cumsum(widths[:-1]))


def _readout(C, D, partition):
    """(C, D) of the loop signals (y, u) to those of (y, u, z, v), by
    z = r - y and v = u + w; r and w lead the injections, as in LOOP_INPUTS."""
    m, p = partition
    E_r, E_w = np.split(np.eye(p + m, D.shape[1]), [p])
    y, u = slice(0, p), slice(p, None)
    return (np.vstack([C[y], C[u], -C[y], C[u]]),
            np.vstack([D[y], D[u], E_r - D[y], D[u] + E_w]))


# ---------------------------------------------------------------------------
# closed-loop maps


def closed_loop_maps(dcf: DoublyCoprime, shift: YoulaShift) -> StateSpace:
    """The closed-loop table TABLE_INPUTS -> LOOP_OUTPUTS, in state space.

    The (y, u) rows are affine in R W, with R = [N; M] and
    W = [X_Q, Y_Q, -X_Q, -(Y_Q - diag Y_Q)] on (r, w, nu, du) (du enters
    through the hollow part of Y_Q, as it does in the NRF loop):
    y = N W + nu and u = M W - w, and ``_readout`` adds z and v.  R is a
    slice of the right Bézout realization; W is the top rows [Y_Q X_Q] of the
    shifted left one, fed from the injections, plus diag Y_Q on the du
    columns, joined in series with R.
    """
    p, m = dcf.shape
    dom = dcf.domain
    R = dcf.right.select([*range(m, m + p), *range(m)], range(m))
    E_r, E_w, E_nu, E_du = _injections(TABLE_INPUTS, (m, p))
    # Y_Q reads w - du and X_Q reads r - nu
    feed = np.vstack([E_w - E_du, E_r - E_nu])
    top = shift.left.select(range(m), range(m + p))
    Om = diagonal([shift.YQ.select([i], [i]) for i in range(m)])
    W = parallel(
        StateSpace(top.A, top.B @ feed, top.C, top.D @ feed, dom),
        StateSpace(Om.A, Om.B @ E_du, Om.C, Om.D @ E_du, dom),
    )
    RW = series(R, W)
    table = StateSpace(RW.A, RW.B, *_readout(RW.C, RW.D + np.vstack([E_nu, -E_w]), (m, p)), dom)
    bad = table.unstable_eigenvalues
    if bad:
        raise UnstableMap(f"closed-loop table has unstable modes {list(bad)}")
    _cross_check_vs_loop(dcf, shift, table)
    return table


def _cross_check_vs_loop(dcf: DoublyCoprime, shift: YoulaShift, table: StateSpace):
    """Compare the table with the loop solved directly at probe points.

    With G = Mt^-1 Nt, K = YQ^-1 XQ and du entering the command as
    Kd du, Kd = -YQ^-1 (YQ - diag YQ), the command row is
    U = (I + K G)^-1 [K, -K G, -K, Kd]; then y = G (u + w) + nu, z = r - y
    and v = u + w.
    """
    p, m = dcf.shape
    pts = probe_points(dcf.domain, 20)  # the table is stable: no pole lies near them
    got = table.eval_many(pts)
    L = shift.left.eval_many(pts)
    YQ, XQ, Nt, Mt = L[:, :m, :m], L[:, :m, m:], -L[:, m:, :m], L[:, m:, m:]
    E_r, E_w, E_nu, _ = _injections(TABLE_INPUTS, (m, p))
    want = np.full_like(got, np.nan)  # a point where the loop is singular stays NaN
    for k in range(len(pts)):
        hollow = YQ[k] - np.diag(np.diag(YQ[k]))
        try:
            G = np.linalg.solve(Mt[k], Nt[k])
            K, Kd = np.split(np.linalg.solve(YQ[k], np.hstack([XQ[k], -hollow])), [p], axis=1)
            U = np.linalg.solve(np.eye(m) + K @ G, np.hstack([K, -K @ G, -K, Kd]))
        except np.linalg.LinAlgError:
            continue
        Y = G @ (U + E_w) + E_nu
        want[k] = np.vstack([Y, U, E_r - Y, U + E_w])
    audit("closed-loop-table-vs-direct", got - want, CROSS_CHECK_TOL)


def hinf_grid_norm(H: StateSpace, grid: int = 256) -> float:
    """Largest singular value of a stable map over a frequency grid.

    Grids nest under doubling (theta = pi*k/grid), so the value is monotone
    nondecreasing in the grid count; it is a lower bound on the true norm.  A
    map with no outputs or no inputs has norm 0.

    A discrete map is screened at every point by one real FFT
    (``_grid_screen``): the bounds of ``_peak_singular_value`` run on the
    screen, and ``eval_many`` only where the peak can be.  Where an exact value
    misses the screen by more than its allowance, or the screen is refused,
    every point is evaluated, as on the continuous grid.  The value is the
    largest singular value of ``eval_many`` over every point, to the bit.
    """
    if grid < 1:
        raise InvalidGrid(f"a frequency grid needs at least one interval, got {grid}")
    theta = np.pi * np.arange(grid + 1) / grid
    if H.domain is StabilityDomain.DISCRETE:
        points = np.exp(1j * theta)
        screened = _grid_screen(H, points)
        if screened is not None:
            screen, allowance = screened

            def exact(idx):
                got = H.eval_many(points[idx])
                if np.sqrt(np.max(_frobenius_squared(got - screen[idx]), initial=0.0)) > allowance:
                    raise _ScreenMiss
                return got

            try:
                return _peak_singular_value(screen, exact, allowance)
            except _ScreenMiss:
                pass
        vals = H.eval_many(points)
    else:
        # theta = pi is s = infinity
        vals = np.concatenate([H.eval_many(1j * np.tan(theta[:-1] / 2.0)), H.D[None]])
    return _peak_singular_value(vals)


class _ScreenMiss(Exception):
    """An exact value lies further from the grid screen than its allowance."""


def _grid_screen(H: StateSpace, points: np.ndarray):
    """The discrete map H at the grid points z_k = exp(i pi k / grid) and the
    screen's allowance, or None where it is refused: order 0, no entries, a
    singular I - A^N or a non-finite value.

    Every z_k is an N-th root of unity, N = 2 grid, and for z^N = 1,
    (zI - A)^-1 = sum_{t<N} z^(-t-1) A^t (I - A^N)^-1 exactly.  So
    H(z_k) = D + z_k^-1 rfft(h)_k with h_t = C A^t (I - A^N)^-1 B real, and
    h_(a+sb) = (C A^a)(A^(sb) (I - A^N)^-1 B), s about sqrt(N), is one real
    matmul per block of output rows.  The allowance is
    GRID_NORM_TOL * (||D||_F + sum_t ||h_t||_F), the same at every point.
    """
    A, B, D = H.A, H.B, H.D
    n, (p, m), N = H.order, D.shape, 2 * (len(points) - 1)
    if n == 0 or D.size == 0:
        return None
    s = int(np.ceil(np.sqrt(N)))
    nb = -(-N // s)
    with np.errstate(over="ignore", invalid="ignore"):
        AN = np.linalg.matrix_power(A, N)
        if not np.isfinite(AN).all():
            return None
        left, right = np.empty((p, s, n)), np.empty((n, nb, m))
        try:
            right[:, 0] = np.linalg.solve(np.eye(n) - AN, B)
        except np.linalg.LinAlgError:
            return None
        As = np.linalg.matrix_power(A, s)
        left[:, 0] = H.C
        for a in range(1, s):
            left[:, a] = left[:, a - 1] @ A  # rows of C A^a
        for b in range(1, nb):
            right[:, b] = As @ right[:, b - 1]  # A^(sb) (I - A^N)^-1 B
        right = right.reshape(n, nb * m)
        screen = np.empty((p, m, len(points)), dtype=complex)
        squares = np.zeros(N)
        for blk in _point_blocks(p, m * nb * s):
            h = (left[blk].reshape(-1, n) @ right).reshape(-1, s, nb, m)
            h = h.transpose(0, 3, 2, 1).reshape(-1, m, nb * s)[..., :N]  # h[i, j, a + s b]
            squares += np.einsum("ijt,ijt->t", h, h)
            screen[blk] = np.fft.rfft(h, axis=-1)
        screen *= points.conj()
        screen += D[:, :, None]
        allowance = GRID_NORM_TOL * (np.linalg.norm(D) + np.sum(np.sqrt(squares)))
    return (screen.transpose(2, 0, 1), allowance) if np.isfinite(allowance) else None


def _peak_singular_value(vals: np.ndarray, exact=None, allowance: float = 0.0) -> float:
    """``np.max(np.linalg.svd(vals, compute_uv=False)[:, 0], initial=0.0)``,
    to the bit, with the SVD run only where the maximum can be; 0 for empty
    matrices.

    One round: bound every point (``_log2_sigma_bounds``), take the exact
    value at the highest bound, and drop every point whose bound plus
    ``allowance`` lies below (1 - GRID_NORM_TOL) times it.  The SVD sees the
    rest, each the matrix the full stack gives it.  NaN and infinite bounds
    are never dropped, so such a point fails or propagates as in the full
    stack.  With ``exact``, ``vals`` is a screen within ``allowance`` (in
    spectral norm) of the exact values ``exact(idx)``, and the SVD runs on
    those.
    """
    if vals.size == 0:
        return 0.0
    if exact is None:
        exact = vals.__getitem__
    # blocks of about EVAL_BLOCK_ENTRIES / 2 entries keep the temporaries small
    bounds = np.concatenate([_log2_sigma_bounds(vals[blk])
                             for blk in _point_blocks(len(vals), 2 * vals[0].size)])
    top = np.argmax(bounds)
    best = float(np.linalg.svd(exact([top]), compute_uv=False)[0, 0])
    floor = best * (1.0 - GRID_NORM_TOL) - allowance
    live = np.flatnonzero(~(bounds < np.log2(floor))) if floor > 0 else np.arange(len(vals))
    live = live[live != top]  # its value is best already
    return float(np.max(np.linalg.svd(exact(live), compute_uv=False)[:, 0], initial=best))


def _log2_sigma_bounds(V: np.ndarray) -> np.ndarray:
    """log2 of an upper bound on the largest singular value of each V[k].

    V[k] is first scaled exactly by 2^-e, e the exponent of its largest real
    or imaginary part, which puts sigma_max in [1/2, sqrt(2pq)) for a p x q
    matrix, q its narrow side.  Then sigma_max^2 <= ||G^8||_F^(1/8) for its
    q x q Gram matrix G, and ||G^8||_F^2 lies in [2^-32, q (2pq)^16): no
    square under- or overflows for any table numpy can hold, so no rescaling
    is needed.  A zero matrix gets -inf, a NaN or infinite one NaN or inf.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        parts = np.ascontiguousarray(V).view(float)
        e = np.frexp(np.abs(parts).max(axis=(1, 2), initial=0.0))[1]
        H = np.ldexp(parts, -e[:, None, None]).view(complex)
        H = H.conj().swapaxes(1, 2) @ H if V.shape[1] >= V.shape[2] else H @ H.conj().swapaxes(1, 2)
        for _ in range(3):
            H = H @ H
        return e + np.log2(_frobenius_squared(H)) / 32.0


def _frobenius_squared(H: np.ndarray) -> np.ndarray:
    parts = H.view(float)
    return np.einsum("kij,kij->k", parts, parts)


# ---------------------------------------------------------------------------
# JSON interchange


def dcf_to_obj(dcf: DoublyCoprime) -> dict:
    """The eight rational factors, then the realizations ``left``, ``right``
    and ``shape`` [p, m] that a reader takes as authoritative."""
    obj = {name: dcf._json.get(name) or ratmat_to_obj(getattr(dcf, name)) for name in _FIELDS}
    obj.update(left=ss_to_obj(dcf.left), right=ss_to_obj(dcf.right), shape=list(dcf.shape))
    return obj


_REALIZATION = ("left", "right", "shape")


def dcf_from_obj(obj: dict) -> DoublyCoprime:
    """Read a factorization.  With ``left``, ``right`` and ``shape`` present,
    the realizations are taken as they are and ``validate``d; the rational
    factors become its views unread.  A file with the rational factors alone
    goes through ``DoublyCoprime.from_factors``."""
    obj = obj if isinstance(obj, dict) else {}  # a file that is not an object misses every key
    if not any(key in obj for key in _REALIZATION):
        missing = [name for name in _FIELDS if name not in obj]
        if missing:
            raise InvariantViolation("dcf-fields-present", f"missing factors: {missing}")
        return DoublyCoprime.from_factors(**{name: ratmat_from_obj(obj[name]) for name in _FIELDS})
    missing = [key for key in _REALIZATION if key not in obj]
    if missing:
        raise InvariantViolation("dcf-fields-present", f"missing realization keys: {missing}")
    shape = obj["shape"]
    if (not isinstance(shape, list) or len(shape) != 2
            or not all(type(k) is int and k >= 1 for k in shape)):
        raise DimensionMismatch(f"shape must be [p, m] with positive integers, got {shape!r}")
    p, m = shape
    left, right = ss_from_obj(obj["left"]), ss_from_obj(obj["right"])
    for name, sys in (("left", left), ("right", right)):
        if sys.D.shape != (m + p, m + p):
            raise DimensionMismatch(f"{name} must map {m + p} inputs to {m + p} outputs, "
                                    f"got {sys.n_inputs} to {sys.n_outputs}")
    if right.domain is not left.domain:
        raise DomainMismatch("left and right disagree on the stability domain")
    dcf = DoublyCoprime(left, right, (p, m))
    dcf.validate()
    dcf._json = {name: obj[name] for name in _FIELDS if name in obj}
    return dcf


def save_dcf(dcf: DoublyCoprime, path: str):
    with open(path, "w") as fh:
        fh.write(json.dumps(dcf_to_obj(dcf), indent=1))


def load_dcf(path: str) -> DoublyCoprime:
    with open(path) as fh:
        return dcf_from_obj(json.load(fh))
