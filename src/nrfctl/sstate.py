"""State-space realizations, staircase reductions, and pole extraction.

A proper rational matrix is realized entry by entry (``tf_to_ss_obsv``,
``tfm_to_ss``): poles shared between entries are merged by rank decisions of
orthogonal staircases, never by comparing computed roots, and the transfer
function is preserved up to floating point.  The unstable poles of a map are
those of its minimal realization that pass PBH tests against its own B and C.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainMismatch,
    InvariantViolation,
    NotProper,
    NotSquare,
)
from .ratmat import (
    RationalFunction,
    RationalMatrix,
    StabilityDomain,
    _point_blocks,
)
from .tolerances import RANK_REL_TOL, STABILITY_MARGIN


class StateSpace:
    """Immutable (A, B, C, D) quadruple with a stability-domain tag.

    Zero-order (purely static) systems are first class: A is then 0 x 0 and
    the quadruple degenerates to the constant gain D.
    """

    __slots__ = ("A", "B", "C", "D", "domain")

    def __init__(self, A, B, C, D, domain: StabilityDomain):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        B = np.atleast_2d(np.asarray(B, dtype=float))
        C = np.atleast_2d(np.asarray(C, dtype=float))
        D = np.atleast_2d(np.asarray(D, dtype=float))
        if A.size == 0:
            A = np.zeros((0, 0))
        n = A.shape[0]
        if A.shape != (n, n):
            raise NotSquare("A must be square")
        p, m = D.shape
        if B.size == 0:
            B = np.zeros((n, m))
        if C.size == 0:
            C = np.zeros((p, n))
        if B.shape != (n, m) or C.shape != (p, n):
            raise DimensionMismatch(
                f"inconsistent shapes A{A.shape} B{B.shape} C{C.shape} D{D.shape}"
            )
        for arr in (A, B, C, D):
            arr.setflags(write=False)
        self.A, self.B, self.C, self.D = A, B, C, D
        self.domain = domain

    @property
    def order(self) -> int:
        return self.A.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.D.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.D.shape[1]

    def eval(self, point: complex) -> np.ndarray:
        """Frequency response D + C (pI - A)^-1 B."""
        return self.eval_many([point])[0]

    def eval_many(self, points) -> np.ndarray:
        """Frequency responses at every point, shape (K, outputs, inputs).

        Batched solves on the stacked pencils x_k I - A, one per block of
        points.
        """
        x = np.asarray(points, dtype=complex).ravel()
        n = self.order
        out = np.empty((x.size, self.n_outputs, self.n_inputs), dtype=complex)
        out[:] = self.D
        if n == 0:
            return out
        for blk in _point_blocks(x.size, n * (n + self.n_inputs)):
            xb = x[blk, None, None]
            rhs = np.broadcast_to(self.B, (xb.shape[0],) + self.B.shape)
            out[blk] += self.C @ np.linalg.solve(xb * np.eye(n) - self.A, rhs)
        return out

    def select(self, rows, cols) -> "StateSpace":
        """The map from the inputs ``cols`` to the outputs ``rows`` (index
        sequences, repeats allowed), on the same state."""
        rows, cols = list(rows), list(cols)
        return StateSpace(
            self.A, self.B[:, cols], self.C[rows], self.D[np.ix_(rows, cols)], self.domain
        )

    def __neg__(self) -> "StateSpace":
        return StateSpace(self.A, self.B, -self.C, -self.D, self.domain)

    def transformed(self, T: np.ndarray) -> "StateSpace":
        """Similarity transform by an orthogonal T (x = T xi)."""
        return StateSpace(T.T @ self.A @ T, T.T @ self.B, self.C @ T, self.D, self.domain)

    def truncated(self, k: int) -> "StateSpace":
        """Keep the leading k states."""
        return StateSpace(
            self.A[:k, :k], self.B[:k, :], self.C[:, :k], self.D, self.domain
        )

    def __repr__(self) -> str:
        return (
            f"StateSpace(order={self.order}, outputs={self.n_outputs}, "
            f"inputs={self.n_inputs}, domain={self.domain.value})"
        )


# ---------------------------------------------------------------------------
# realization of rational rows


def tf_to_ss_obsv(row: RationalMatrix) -> StateSpace:
    """Realization of a proper 1 x k rational row, built entry by entry.

    Each dynamic entry gets the observable companion form of its own monic
    denominator: ones on the first subdiagonal, the negated denominator
    coefficients in the last column, C picking the last state, and the
    ascending coefficients of the strictly proper numerator in column j of B.
    The entries are summed into the row one at a time, and after each sum an
    observability staircase keeps only what the row's output sees, so a pole
    shared by several entries is kept once by a subspace rank decision, not by
    comparing computed roots.
    """
    if row.rows != 1:
        raise DimensionMismatch("expected a single-row matrix")
    if not row.is_proper:
        raise NotProper("row has an improper entry")
    k = row.cols
    D = np.array([[e.gain_at_infinity() for e in row.entries[0]]])
    sys = StateSpace(np.zeros((0, 0)), np.zeros((0, k)), np.zeros((1, 0)), D, row.domain)
    for j, e in enumerate(row.entries[0]):
        n = int(e.den.degree)
        if n < 1:
            continue  # static entries contribute only through D
        A = np.eye(n, k=-1)
        A[:, n - 1] = -np.asarray(e.den.coeffs[:-1], dtype=float)
        B = np.zeros((n, k))
        strict = (e.num - e.den.scaled(D[0, j])).coeffs[:n]  # trailing terms are zero
        B[: len(strict), j] = strict
        C = np.zeros((1, n))
        C[0, n - 1] = 1.0
        staired, k_obs, _ = obsv_staircase(
            parallel(sys, StateSpace(A, B, C, np.zeros((1, k)), row.domain))
        )
        sys = staired.truncated(k_obs)
    return sys


def tfm_to_ss(mat: RationalMatrix) -> StateSpace:
    """Minimal realization of a proper rational matrix.

    Rows are realized by ``tf_to_ss_obsv``, stacked, and reduced by
    ``minimal``.  A matrix with more rows than columns is realized through its
    transpose and dualized, (A', C', B', D'), so the entrywise sums run along
    the longer side and poles shared down a column are merged before stacking.
    """
    if mat.rows > mat.cols:
        dual = tfm_to_ss(RationalMatrix(list(zip(*mat.entries)), mat.domain))
        return StateSpace(dual.A.T, dual.C.T, dual.B.T, dual.D.T, mat.domain)
    return minimal(stack_outputs([tf_to_ss_obsv(mat.row(i)) for i in range(mat.rows)]))


def _block_diag(blocks) -> np.ndarray:
    """Block-diagonal matrix of 2-D blocks (empty blocks allowed)."""
    out = np.zeros(tuple(np.sum([b.shape for b in blocks], axis=0)))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def stack_outputs(pieces: list[StateSpace]) -> StateSpace:
    """Block-diagonal state stacking of systems sharing one input vector."""
    m = pieces[0].n_inputs
    domain = pieces[0].domain
    for s in pieces:
        if s.n_inputs != m:
            raise DimensionMismatch("stacked systems must share the input dimension")
        if s.domain is not domain:
            raise DomainMismatch("stacked systems must share the domain")
    return StateSpace(
        _block_diag([s.A for s in pieces]), np.vstack([s.B for s in pieces]),
        _block_diag([s.C for s in pieces]), np.vstack([s.D for s in pieces]), domain,
    )


def series(left: StateSpace, right: StateSpace) -> StateSpace:
    """Realization of the product left·right: right's output drives left.

    The state is (x_left, x_right), so the state matrix is block upper
    triangular and its spectrum is the union of the factors' spectra.
    """
    if left.n_inputs != right.n_outputs:
        raise DimensionMismatch(
            f"series needs {left.n_inputs} outputs from the right factor, got {right.n_outputs}"
        )
    if left.domain is not right.domain:
        raise DomainMismatch("series factors must share the domain")
    A = np.block([
        [left.A, left.B @ right.C],
        [np.zeros((right.order, left.order)), right.A],
    ])
    B = np.vstack([left.B @ right.D, right.B])
    C = np.hstack([left.C, left.D @ right.C])
    return StateSpace(A, B, C, left.D @ right.D, left.domain)


def parallel(left: StateSpace, right: StateSpace) -> StateSpace:
    """Realization of the sum left + right on the stacked state (x_left, x_right)."""
    if (left.n_outputs, left.n_inputs) != (right.n_outputs, right.n_inputs):
        raise DimensionMismatch(
            f"parallel needs equal shapes, got {left.D.shape} and {right.D.shape}"
        )
    if left.domain is not right.domain:
        raise DomainMismatch("parallel terms must share the domain")
    return StateSpace(
        _block_diag([left.A, right.A]), np.vstack([left.B, right.B]),
        np.hstack([left.C, right.C]), left.D + right.D, left.domain,
    )


def diagonal(entries) -> StateSpace:
    """diag(e_1, ..., e_k) of single-input single-output systems, each entry on
    the state of its own ``minimal`` realization."""
    entries = [minimal(e) for e in entries]
    blocks = lambda name: _block_diag([getattr(e, name) for e in entries])
    return StateSpace(blocks("A"), blocks("B"), blocks("C"), blocks("D"), entries[0].domain)


def left_quotient(sys: StateSpace, cols) -> StateSpace:
    """X^-1 sys on sys's own state, X = (A, B_X, C, D_X) the square map from the
    inputs ``cols``: (A - B_X D_X^-1 C, B - B_X D_X^-1 D, D_X^-1 C, D_X^-1 D)
    (Zhou, Doyle and Glover, 1996).  Columns ``cols`` become zero in B and I in
    D, exactly when X is a single entry."""
    BX, DX = sys.B[:, cols], sys.D[:, cols]
    C, D = np.split(np.linalg.solve(DX, np.hstack([sys.C, sys.D])), [sys.order], axis=1)
    return StateSpace(sys.A - BX @ C, sys.B - BX @ D, C, D, sys.domain)


# ---------------------------------------------------------------------------
# staircase forms


def _block_rank(M: np.ndarray, scale: float) -> tuple[int, np.ndarray]:
    """Numerical rank of a staircase block against the whole-system scale.

    Measuring against the block's own largest singular value would never see
    an all-tiny coupling block as rank zero, which is exactly the case that
    ends the staircase.
    """
    if M.size == 0:
        return 0, np.eye(M.shape[0])
    U, S, _ = np.linalg.svd(M)
    r = int(np.sum(S > RANK_REL_TOL * scale))
    return r, U


def ctrb_staircase(sys: StateSpace) -> tuple[StateSpace, int, np.ndarray]:
    """Orthogonal controllability staircase.

    Returns ``(transformed, controllable_order, T)`` where
    ``transformed = (T' A T, T' B, C T, D)`` has the block structure

        A = [Ac  X ]   B = [Bc]
            [0   Au]       [0 ]

    with the leading ``controllable_order`` states controllable.  T is
    orthogonal, so the transfer function is untouched.
    """
    n = sys.order
    T = np.eye(n)
    if n == 0:
        return sys, 0, T
    A = sys.A.copy()
    B = sys.B.copy()
    C = sys.C.copy()
    scale = max(1.0, float(np.linalg.norm(A)), float(np.linalg.norm(B)))
    j = 0
    prev = 0
    while j < n:
        M = B[j:, :] if j == 0 else A[j:, prev:j]
        r, U = _block_rank(M, scale)
        if r == 0:
            break
        Ublk = np.eye(n)
        Ublk[j:, j:] = U
        A = Ublk.T @ A @ Ublk
        B = Ublk.T @ B
        C = C @ Ublk
        T = T @ Ublk
        prev = j
        j += r
    out = StateSpace(A, B, C, sys.D, sys.domain)
    return out, j, T


def obsv_staircase(sys: StateSpace) -> tuple[StateSpace, int, np.ndarray]:
    """Orthogonal observability staircase (dual of ctrb_staircase).

    The transformed system has the observable block leading:

        A = [Ao   0 ]   C = [Co  0]
            [X    Au]
    """
    dual = StateSpace(sys.A.T, sys.C.T, sys.B.T, sys.D.T, sys.domain)
    _, k, T = ctrb_staircase(dual)
    out = sys.transformed(T)
    return out, k, T


def _controllable_part(sys: StateSpace) -> StateSpace:
    staired, k, _ = ctrb_staircase(sys)
    return staired.truncated(k)


def minimal(sys: StateSpace) -> StateSpace:
    """Minimal realization: observable part first, then its controllable part."""
    staired, k_obs, _ = obsv_staircase(sys)
    return _controllable_part(staired.truncated(k_obs))


# ---------------------------------------------------------------------------
# stability and PBH audits


def is_unstable(lam, domain: StabilityDomain):
    """Whether lam lies outside the stability region shrunk by STABILITY_MARGIN:
    |lam| >= 1 - margin (discrete) or Re lam >= -margin (continuous).  The one
    stability rule of the package; it applies elementwise to an array."""
    if domain is StabilityDomain.DISCRETE:
        return np.abs(lam) >= 1.0 - STABILITY_MARGIN
    return np.real(lam) >= -STABILITY_MARGIN


def unstable_eigs(A: np.ndarray, domain: StabilityDomain) -> tuple[complex, ...]:
    """Eigenvalues of A that ``is_unstable`` flags, multiplicities kept, sorted
    by real then imaginary part."""
    lams = np.linalg.eigvals(np.atleast_2d(np.asarray(A, dtype=float)))
    bad = map(complex, lams[is_unstable(lams, domain)])
    return tuple(sorted(bad, key=lambda z: (z.real, z.imag)))


def _pbh_rank_ok(A: np.ndarray, Bc: np.ndarray, lam: complex) -> bool:
    n = A.shape[0]
    M = np.hstack([A - lam * np.eye(n), Bc]).astype(complex)
    S = np.linalg.svd(M, compute_uv=False)
    return S.size > 0 and S[-1] > RANK_REL_TOL * S[0]


def _pbh_reaches(A: np.ndarray, Bc: np.ndarray, lam: complex) -> bool:
    """PBH test that Bc reaches some eigenvector of A at lam.

    Appending Bc must raise the numerical rank of A - lam I.  At a simple
    eigenvalue this is ``_pbh_rank_ok``; at a repeated one it asks for one
    direction, not all of them.
    """
    n = A.shape[0]
    M = np.hstack([A - lam * np.eye(n), Bc]).astype(complex)
    S = np.linalg.svd(M, compute_uv=False)
    S_A = np.linalg.svd(M[:, :n], compute_uv=False)
    cut = RANK_REL_TOL * S[0]
    return int(np.sum(S > cut)) > int(np.sum(S_A > cut))


def unstable_map_poles(sys: StateSpace, modes) -> tuple[complex, ...]:
    """Unstable poles of a map realized on a state matrix with unstable modes ``modes``.

    The staircase in ``minimal`` can keep a mode that the map reaches or
    sees only to rounding, so a pole of the minimal realization is kept only
    when the nearest unstable mode of sys.A passes both PBH tests against the
    map's own B (controllability) and C (observability).  A repeated mode
    passes when the map reaches and sees it in some direction.
    """
    kept = []
    for lam in unstable_eigs(minimal(sys).A, sys.domain):
        mu = modes[int(np.argmin(np.abs(np.asarray(modes) - lam)))]
        if _pbh_reaches(sys.A, sys.B, mu) and _pbh_reaches(sys.A.T, sys.C.T, mu):
            kept.append(lam)
    return tuple(kept)


def _invertibility(Mat: np.ndarray) -> tuple[bool, float]:
    """(invertible, smallest/largest singular value)."""
    if Mat.size == 0:
        return True, 1.0
    s = np.linalg.svd(Mat, compute_uv=False)
    if s[0] == 0.0:
        return False, 0.0
    ratio = float(s[-1] / s[0])
    return ratio > RANK_REL_TOL, ratio


def is_stabilizable(sys: StateSpace) -> bool:
    """PBH test at every unstable eigenvalue of A."""
    return all(_pbh_rank_ok(sys.A, sys.B, lam) for lam in unstable_eigs(sys.A, sys.domain))


def is_detectable(sys: StateSpace) -> bool:
    return all(_pbh_rank_ok(sys.A.T, sys.C.T, lam) for lam in unstable_eigs(sys.A, sys.domain))


def transmission_zero_rank_test(sys: StateSpace, point: complex) -> bool:
    """Full row rank of the system pencil [A - pI, B; C, D] at one point."""
    n = sys.order
    top = np.hstack([sys.A - point * np.eye(n), sys.B]).astype(complex)
    bottom = np.hstack([sys.C, sys.D]).astype(complex)
    P = np.vstack([top, bottom])
    S = np.linalg.svd(P, compute_uv=False)
    if P.shape[0] > P.shape[1] or S.size == 0 or S[0] == 0.0:
        return False
    return int(np.sum(S > RANK_REL_TOL * S[0])) == P.shape[0]


# ---------------------------------------------------------------------------
# back to transfer functions


def _faddeev_tf(A: np.ndarray, b: np.ndarray, c: np.ndarray, d: float) -> RationalFunction:
    """SISO transfer function via the Leverrier-Faddeev adjugate recursion."""
    n = A.shape[0]
    if n == 0:
        return RationalFunction.const(d)
    den_desc = np.zeros(n + 1)
    den_desc[0] = 1.0
    M = np.eye(n)
    s_desc = np.zeros(n)
    for k in range(1, n + 1):
        s_desc[k - 1] = float(c @ M @ b)
        AM = A @ M
        ck = -np.trace(AM) / k
        den_desc[k] = ck
        M = AM + ck * np.eye(n)
    num_desc = np.zeros(n + 1)
    num_desc[1:] = s_desc
    num_desc += d * den_desc
    return RationalFunction(num_desc[::-1], den_desc[::-1])


def ss_to_tf(sys: StateSpace) -> RationalMatrix:
    """Entrywise transfer matrix; each entry is reduced over its own minimal part.

    The observability staircase of entry (i, j) depends only on (A, c_i), so
    it runs once per output row; each column then takes its own
    controllability staircase, and the result is the same as ``minimal`` on
    every entry.
    """
    rows = []
    for i in range(sys.n_outputs):
        staired, k_obs, T = obsv_staircase(sys.select([i], range(sys.n_inputs)))
        row = []
        for j in range(sys.n_inputs):
            # one column at a time, as minimal forms it: a product with all
            # of B can round differently and shift the coefficients
            sub = StateSpace(
                staired.A, T.T @ sys.B[:, [j]], staired.C, sys.D[[i], :][:, [j]], sys.domain
            )
            sub = _controllable_part(sub.truncated(k_obs))
            row.append(_faddeev_tf(sub.A, sub.B[:, 0], sub.C[0, :], float(sub.D[0, 0])))
        rows.append(row)
    return RationalMatrix(rows, sys.domain)


def tfm_unstable_poles(mat: RationalMatrix) -> tuple[complex, ...]:
    """Unstable pole multiset of a proper rational matrix.

    A joint realization of all rows is reduced to a minimal one; its unstable
    eigenvalues are exactly the unstable poles with structural multiplicity.
    """
    if not mat.is_proper:
        raise NotProper("pole extraction needs a proper matrix")
    return unstable_eigs(tfm_to_ss(mat).A, mat.domain)


def match_multisets(a, b, tol: float) -> bool:
    """Greedy nearest-neighbour multiset comparison of complex values."""
    a = list(map(complex, a))
    b = list(map(complex, b))
    if len(a) != len(b):
        return False
    rem = list(b)
    for x in a:
        if not rem:
            return False
        j = min(range(len(rem)), key=lambda i: abs(rem[i] - x))
        if abs(rem[j] - x) > tol:
            return False
        rem.pop(j)
    return True


# ---------------------------------------------------------------------------
# JSON interchange


def ss_to_obj(sys: StateSpace) -> dict:
    return {
        "domain": sys.domain.value,
        "A": sys.A.tolist(),
        "B": sys.B.tolist(),
        "C": sys.C.tolist(),
        "D": sys.D.tolist(),
    }


_SS_KEYS = ("domain", "A", "B", "C", "D")


def ss_from_obj(obj: dict) -> StateSpace:
    missing = [key for key in _SS_KEYS if key not in obj] if isinstance(obj, dict) else _SS_KEYS
    if missing:
        raise InvariantViolation("ss-fields-present", f"missing {list(missing)}")
    domain = StabilityDomain(obj["domain"])
    D = np.atleast_2d(np.asarray(obj["D"], dtype=float))
    A = np.asarray(obj["A"], dtype=float)
    n = A.shape[0] if A.ndim == 2 else (0 if A.size == 0 else 1)
    if A.size == 0:
        A = np.zeros((0, 0))
        B = np.zeros((0, D.shape[1]))
        C = np.zeros((D.shape[0], 0))
    else:
        A = np.atleast_2d(A)
        B = np.atleast_2d(np.asarray(obj["B"], dtype=float)).reshape(n, -1)
        C = np.atleast_2d(np.asarray(obj["C"], dtype=float)).reshape(-1, n)
    if not all(np.isfinite(M).all() for M in (A, B, C, D)):
        raise InvariantViolation("ss-finite", "an entry of A, B, C or D is NaN or infinite")
    return StateSpace(A, B, C, D, domain)


def save_ss(sys: StateSpace, path: str):
    with open(path, "w") as fh:
        fh.write(json.dumps(ss_to_obj(sys), indent=1))


def load_ss(path: str) -> StateSpace:
    with open(path) as fh:
        return ss_from_obj(json.load(fh))
