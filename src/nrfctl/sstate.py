"""State-space realizations, staircase reductions, and pole extraction.

A proper rational matrix is realized entry by entry (``tf_to_ss_obsv``,
``tfm_to_ss``): poles shared between entries are merged by rank decisions of
orthogonal staircases, never by comparing computed roots, and the transfer
function is preserved up to floating point.  The staircases take and return
arrays, ``(T'AT, T'B, CT, k, T)``; ``minimal`` and ``tf_to_ss_obsv`` slice
them and build their result only, and ``entry_reductions`` reduces every
entry of a map with one observability staircase per output row.  The maps on
one state matrix, a realization and its cuts, share one store of the spectral
facts of A, each computed once: eig(A), its unstable eigenvalues and the PBH
pencil spectra, of [A - lam I, Bc] per side, mode and tested columns.  One PBH
test over them serves ``pbh_failure`` and ``reached_poles``, a reduction's
unstable poles whose nearest mode the map's B reaches and C sees, which
``unstable_map_poles`` applies to the minimal realization.  Every
frequency response comes from one kernel, ``_eval_stacked``, which solves the
pencils of systems of one order in shared batches.  ``load_ss`` is the one
plant-file reader, of state-space or rational-matrix JSON.
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
    NrfError,
)
from .ratmat import (
    RationalFunction,
    RationalMatrix,
    StabilityDomain,
    _domain_from_obj,
    _floats_from_obj,
    _point_blocks,
    ratmat_from_obj,
)
from .tolerances import RANK_REL_TOL, STABILITY_MARGIN


class StateSpace:
    """Immutable (A, B, C, D) quadruple with a stability-domain tag.

    Zero-order (purely static) systems are first class: A is then 0 x 0 and
    the quadruple degenerates to the constant gain D.

    The arrays lie on immutable ``bytes`` buffers, an array elsewhere copied
    onto one first, so nobody can write them, and the facts of A are kept:
    each is computed on first read (``eigenvalues``, ``unstable_eigenvalues``,
    ``factor``'s probe contour and the PBH pencil spectra, keyed by side,
    mode and the bytes of the tested columns) and returned as kept after.
    The maps that ``select`` and negation cut share their parent's store by
    reference, so each is computed once for all maps on one A, whichever
    reads it first, and two cuts that test the same columns share one SVD.
    """

    __slots__ = ("A", "B", "C", "D", "domain", "_facts")

    def __init__(self, A, B, C, D, domain: StabilityDomain):
        A, B, C, D = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (A, B, C, D))
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
        self.A, self.B, self.C, self.D = map(_frozen, (A, B, C, D))
        self.domain = domain
        self._facts = {}

    def _fact(self, name, compute):
        """The kept fact ``name``: ``compute()`` on first read, then as kept."""
        if name not in self._facts:
            self._facts[name] = compute()
        return self._facts[name]

    @property
    def eigenvalues(self) -> np.ndarray:
        """eig(A), read-only."""
        return self._fact("eigenvalues", lambda: _frozen(np.linalg.eigvals(self.A)))

    @property
    def unstable_eigenvalues(self) -> tuple[complex, ...]:
        """The eigenvalues ``is_unstable`` flags, multiplicities kept, sorted
        by real then imaginary part."""
        return self._fact("unstable", lambda: tuple(sorted(
            map(complex, self.eigenvalues[is_unstable(self.eigenvalues, self.domain)]),
            key=lambda z: (z.real, z.imag))))

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
        """Frequency responses at every point, shape (K, outputs, inputs),
        from ``_eval_stacked``."""
        return _eval_stacked([self], points)[0]

    def select(self, rows, cols) -> "StateSpace":
        """The map from the inputs ``cols`` to the outputs ``rows`` (index
        sequences, repeats allowed), on the same state."""
        rows, cols = list(rows), list(cols)
        return self._on_same_state(self.B[:, cols], self.C[rows], self.D[np.ix_(rows, cols)])

    def __neg__(self) -> "StateSpace":
        return self._on_same_state(self.B, -self.C, -self.D)

    def _on_same_state(self, B, C, D) -> "StateSpace":
        """(A, B, C, D), sharing this map's store of the facts of A."""
        sys = StateSpace(self.A, B, C, D, self.domain)
        sys._facts = self._facts
        return sys

    def __repr__(self) -> str:
        return (
            f"StateSpace(order={self.order}, outputs={self.n_outputs}, "
            f"inputs={self.n_inputs}, domain={self.domain.value})"
        )


def _frozen(M: np.ndarray) -> np.ndarray:
    """M on memory that nobody can make writable: M itself when it lies on an
    immutable ``bytes`` buffer, else a copy over one with the layout that
    ``copy(order="K")`` gives it, so no kept fact can go stale."""
    base = M
    while isinstance(base, np.ndarray):
        base = base.base
    if not isinstance(base, bytes):
        order = "F" if M.ndim == 2 and abs(M.strides[0]) < abs(M.strides[1]) else "C"
        M = np.ndarray(M.shape, M.dtype, M.tobytes(order), order=order)
    return M


def _eval_stacked(systems, points) -> list[np.ndarray]:
    """Each system's frequency responses D + C (x_k I - A)^-1 B at every
    point, shape (K, outputs, inputs): the one evaluation kernel.

    Systems of equal order and input count share batched solves on their
    stacked pencils x_k I - A, one per block of points.  Each pencil is
    solved on its own, so every value has the bits of its system evaluated
    alone.
    """
    x = np.asarray(points, dtype=complex).ravel()
    outs = [np.empty((x.size, s.n_outputs, s.n_inputs), dtype=complex) for s in systems]
    groups = {}
    for out, s in zip(outs, systems):
        out[:] = s.D
        if s.order:
            groups.setdefault((s.order, s.n_inputs), []).append((out, s))
    for (n, m), members in groups.items():
        A = np.array([s.A for _, s in members])[:, None]
        B = np.array([s.B for _, s in members])[:, None]  # broadcast over the points
        for blk in _point_blocks(x.size, len(members) * n * (n + m)):
            pencils = x[blk, None, None] * np.eye(n) - A
            for (out, s), X in zip(members, np.linalg.solve(pencils, B)):
                out[blk] += s.C @ X
    return outs


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
    D = row.gain_at_infinity()
    A, B, C = np.zeros((0, 0)), np.zeros((0, k)), np.zeros((1, 0))
    for j, e in enumerate(row.entries[0]):
        n = int(e.den.degree)
        if n < 1:
            continue  # static entries contribute only through D
        Aj = np.eye(n, k=-1)
        Aj[:, n - 1] = -np.asarray(e.den.coeffs[:-1], dtype=float)
        Bj = np.zeros((n, k))
        strict = (e.num - e.den.scaled(D[0, j])).coeffs[:n]  # trailing terms are zero
        Bj[: len(strict), j] = strict
        Cj = np.eye(1, n, n - 1)
        A, B, C, n_obs, _ = obsv_staircase(_block_diag([A, Aj]), np.vstack([B, Bj]),
                                           np.hstack([C, Cj]))
        A, B, C = A[:n_obs, :n_obs], B[:n_obs], C[:, :n_obs]
    return StateSpace(A, B, C, D, row.domain)


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


def finite_norm(M: np.ndarray, axis=None):
    """``np.linalg.norm(M, axis=axis)``, to the bit where it is finite, else
    rescaled by M's largest magnitude; ``InvariantViolation`` if still infinite."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.linalg.norm(M, axis=axis)
        if np.isinf(v).any() if axis is not None else v == np.inf:
            big = np.max(np.abs(M))
            v = np.where(np.isinf(v), big * np.linalg.norm(M / big, axis=axis), v)
            if not np.isfinite(v).all():
                raise InvariantViolation("finite-norm", "the norm exceeds the largest float")
    return v


def ctrb_staircase(A: np.ndarray, B: np.ndarray, C: np.ndarray):
    """Orthogonal controllability staircase of the arrays (A, B, C).

    Returns ``(T' A T, T' B, C T, k, T)``, where the transformed pair has
    the block structure

        T' A T = [Ac  X ]   T' B = [Bc]
                 [0   Au]          [0 ]

    with the leading ``k`` states controllable.  T is orthogonal, so the
    transfer function is untouched; C may have no rows.
    """
    n = A.shape[0]
    T = np.eye(n)
    if n == 0:
        return A, B, C, 0, T
    A, B, C = A.copy(), B.copy(), C.copy()
    scale = max(1.0, float(finite_norm(A)), float(finite_norm(B)))
    j = prev = 0
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
    return A, B, C, j, T


def obsv_staircase(A: np.ndarray, B: np.ndarray, C: np.ndarray):
    """Orthogonal observability staircase of the arrays (A, B, C), the dual
    of ``ctrb_staircase``: ``(T' A T, T' B, C T, k, T)`` with the ``k``
    observable states leading,

        T' A T = [Ao  0 ]   C T = [Co  0]
                 [X   Au]
    """
    k, T = ctrb_staircase(A.T, C.T, B.T)[3:]
    return T.T @ A @ T, T.T @ B, C @ T, k, T


def minimal(sys: StateSpace) -> StateSpace:
    """Minimal realization: observable part first, then its controllable part."""
    A, B, C, k, _ = obsv_staircase(sys.A, sys.B, sys.C)
    A, B, C, k, _ = ctrb_staircase(A[:k, :k], B[:k], C[:, :k])
    return StateSpace(A[:k, :k], B[:k], C[:, :k], sys.D, sys.domain)


# ---------------------------------------------------------------------------
# stability and PBH audits


def is_unstable(lam, domain: StabilityDomain):
    """Whether lam lies outside the stability region shrunk by STABILITY_MARGIN:
    |lam| >= 1 - margin (discrete) or Re lam >= -margin (continuous).  The one
    stability rule of the package; it applies elementwise to an array."""
    if domain is StabilityDomain.DISCRETE:
        return np.abs(lam) >= 1.0 - STABILITY_MARGIN
    return np.real(lam) >= -STABILITY_MARGIN


def _pbh_passes(sys: StateSpace, side: str, lam: complex, *, full: bool) -> bool:
    """The one PBH test, of (A, B) on side "B" or (A', C') on side "C", at lam:
    the singular values S of [A - lam I, Bc] above RANK_REL_TOL * S[0] number
    n with ``full`` (Bc reaches every eigenvector), else more than those of
    A - lam I (Bc reaches some eigenvector), each a kept ``_pencil_spectrum``."""
    Bc = sys.B if side == "B" else sys.C.T
    S = _pencil_spectrum(sys, side, lam, Bc)
    cut = RANK_REL_TOL * S[0]
    rank = int(np.count_nonzero(S > cut))
    if full:
        return rank == sys.order
    return rank > int(np.count_nonzero(_pencil_spectrum(sys, side, lam, Bc[:, :0]) > cut))


def _pencil_spectrum(sys: StateSpace, side: str, lam: complex, Bc: np.ndarray) -> np.ndarray:
    """The singular values of [A - lam I, Bc] (A' on side "C"), a fact of A
    kept under the side, the bits of lam and the bytes of Bc: maps on one A
    that test the same columns share it, and no columns give A - lam I's."""
    A = sys.A if side == "B" else sys.A.T
    return sys._fact((side, lam.real.hex(), lam.imag.hex(), Bc.tobytes()), lambda: np.linalg.svd(
        np.hstack([A - lam * np.eye(sys.order), Bc]).astype(complex), compute_uv=False))


def unstable_map_poles(sys: StateSpace) -> tuple[complex, ...]:
    """Unstable poles of a map, ``reached_poles`` of its minimal realization;
    () without a reduction when sys.A has no unstable mode."""
    return reached_poles(sys, minimal(sys)) if sys.unstable_eigenvalues else ()


def reached_poles(sys: StateSpace, reduced: StateSpace) -> tuple[complex, ...]:
    """The unstable poles of ``reduced``, a staircase reduction of the map
    sys, that sys reaches and sees: a staircase can keep a mode the map
    reaches or sees only to rounding, so a pole is kept only when the nearest
    unstable mode of sys.A passes both PBH tests against the map's own B and
    C.  A repeated mode passes when the map reaches and sees it in some
    direction."""
    modes, poles = sys.unstable_eigenvalues, reduced.unstable_eigenvalues
    nearest = [modes[int(np.argmin(np.abs(np.asarray(modes) - lam)))] for lam in poles]
    return tuple(lam for lam, mu in zip(poles, nearest)
                 if all(_pbh_passes(sys, side, mu, full=False) for side in "BC"))


def _invertibility(Mat: np.ndarray) -> tuple[bool, float]:
    """(invertible, smallest/largest singular value)."""
    if Mat.size == 0:
        return True, 1.0
    s = np.linalg.svd(Mat, compute_uv=False)
    if s[0] == 0.0:
        return False, 0.0
    ratio = float(s[-1] / s[0])
    return ratio > RANK_REL_TOL, ratio


def pbh_failure(sys: StateSpace) -> str | None:
    """The first PBH test sys fails, "stabilizable" before "detectable", or
    None, each run once per distinct unstable eigenvalue of A off the kept
    pencil spectra, so a second call takes no SVD."""
    return next((name for name, side in (("stabilizable", "B"), ("detectable", "C"))
                 if not all(_pbh_passes(sys, side, lam, full=True)
                            for lam in dict.fromkeys(sys.unstable_eigenvalues))), None)


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


def entry_reductions(sys: StateSpace):
    """Each entry (i, j) of sys on its own minimal part, row by row: yields
    ``(i, j, A, B, C)``, the arrays of ``minimal(sys.select([i], [j]))``.  The
    observability staircase of (i, j) reads (A, c_i) and never B, so it runs
    once per output row; each column takes its own controllability staircase."""
    for i in range(sys.n_outputs):
        A, _, C, k_obs, T = obsv_staircase(sys.A, sys.B, sys.C[[i]])
        for j in range(sys.n_inputs):
            # one column at a time, as minimal forms it: a product with all
            # of B can round differently and shift the coefficients
            Aj, Bj, Cj, k, _ = ctrb_staircase(A[:k_obs, :k_obs], (T.T @ sys.B[:, [j]])[:k_obs],
                                              C[:, :k_obs])
            yield i, j, Aj[:k, :k], Bj[:k], Cj[:, :k]


def ss_to_tf(sys: StateSpace) -> RationalMatrix:
    """Entrywise transfer matrix, each entry off its ``entry_reductions`` part."""
    rows = [[] for _ in range(sys.n_outputs)]
    for i, j, A, B, C in entry_reductions(sys):
        rows[i].append(_faddeev_tf(A, B[:, 0], C[0], float(sys.D[i, j])))
    return RationalMatrix(rows, sys.domain)


def match_multisets(a, b, tol: float) -> bool:
    """Greedy nearest-neighbour multiset comparison of complex values."""
    a = list(map(complex, a))
    b = list(map(complex, b))
    if len(a) != len(b):
        return False
    rem = list(b)
    for x in a:  # one value of rem goes per value of a, so rem is never empty here
        j = min(range(len(rem)), key=lambda i: abs(rem[i] - x))
        if abs(rem[j] - x) > tol:
            return False
        rem.pop(j)
    return True


# ---------------------------------------------------------------------------
# JSON interchange


def ss_to_obj(sys: StateSpace) -> dict:
    return {"domain": sys.domain.value, **{key: getattr(sys, key).tolist() for key in "ABCD"}}


_SS_KEYS = ("domain", "A", "B", "C", "D")


def ss_from_obj(obj: dict) -> StateSpace:
    missing = [key for key in _SS_KEYS if key not in obj] if isinstance(obj, dict) else _SS_KEYS
    if missing:
        raise InvariantViolation("ss-fields-present", f"missing {list(missing)}")
    domain = _domain_from_obj(obj["domain"], "ss-fields-present")
    A, B, C, D = (_floats_from_obj(obj[key], "ss-finite") for key in "ABCD")
    if not all(np.isfinite(M).all() for M in (A, B, C, D)):
        raise InvariantViolation("ss-finite", "an entry of A, B, C or D is NaN or infinite")
    return StateSpace(A, B, C, D, domain)


def save_ss(sys: StateSpace, path: str):
    with open(path, "w") as fh:
        fh.write(json.dumps(ss_to_obj(sys), indent=1))


def load_ss(path: str) -> StateSpace:
    """A plant file: state-space JSON, or a rational matrix ``tfm_to_ss`` realizes."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    obj = obj if isinstance(obj, dict) else {}  # a file that is not an object misses every key
    if "A" in obj:
        return ss_from_obj(obj)
    if "entries" in obj:
        return tfm_to_ss(ratmat_from_obj(obj))
    raise NrfError(f"{path}: neither a state-space nor a rational-matrix file")
