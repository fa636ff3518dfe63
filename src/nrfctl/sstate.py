"""State-space realizations, staircase reductions, and pole extraction.

The realization entry point for a single proper rational row is an observable
companion form over the monic least common denominator of the row (denominator
coefficients sit in the last column of the state matrix, the output picks the
last state).  Minimality is obtained by an observability staircase followed by
a controllability staircase, both built on orthogonal SVD transforms, so the
transfer function is preserved exactly up to floating point.
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
    Polynomial,
    RationalFunction,
    RationalMatrix,
    StabilityDomain,
)
from .tolerances import LCM_CLUSTER_TOL, RANK_REL_TOL, STABILITY_MARGIN


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
        if self.order == 0:
            return self.D.astype(complex)
        resolvent = np.linalg.solve(
            point * np.eye(self.order) - self.A.astype(complex), self.B.astype(complex)
        )
        return self.D + self.C @ resolvent

    def gain_at_infinity(self) -> np.ndarray:
        """Continuous-time response at s = infinity: the feedthrough D."""
        return self.D

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


def _mult_tol(m: int, magnitude: float) -> float:
    """Grouping tolerance for a candidate root group of size m.

    A root of multiplicity m computed from coefficients carrying error eps
    scatters by roughly eps**(1/m), so copies of one multiple root can land
    much farther apart than two genuinely distinct roots ever sit in the
    plants this package targets.  The widths below assume coefficient errors
    up to ~1e-10 and give up on separations tighter than 2e-3 for
    multiplicity four and beyond.
    """
    widths = {2: 3e-5, 3: 3e-4}
    base = widths.get(m, 2e-3 if m >= 4 else LCM_CLUSTER_TOL)
    return max(LCM_CLUSTER_TOL, base) * max(1.0, magnitude)


def _cluster_roots(root_groups: list[np.ndarray]) -> tuple[list[list[complex]], list[list[int]]]:
    """Cluster roots from several polynomials into shared representatives.

    Within one polynomial, computed copies of a multiple root are averaged to
    a centroid first (the symmetric spread cancels, and the grouping width
    grows with the candidate multiplicity).  Across polynomials, clusters
    within LCM_CLUSTER_TOL merge.  Returns the cluster multiset as
    per-cluster root lists plus, for each input polynomial, the list of
    cluster indices it occupies (with multiplicity).
    """
    clusters: list[list[complex]] = []  # members, len = current multiplicity bound
    assignments: list[list[int]] = []
    for roots in root_groups:
        # group within the polynomial
        local: list[list[complex]] = []
        for r in sorted(roots, key=lambda z: (z.real, z.imag)):
            placed = False
            for grp in local:
                if abs(np.mean(grp) - r) <= _mult_tol(len(grp) + 1, abs(r)):
                    grp.append(r)
                    placed = True
                    break
            if not placed:
                local.append([r])
        my_clusters: list[int] = []
        for grp in local:
            centroid = complex(np.mean(grp))
            mult = len(grp)
            hit = None
            for ci, members in enumerate(clusters):
                if abs(complex(np.mean(members)) - centroid) <= LCM_CLUSTER_TOL:
                    hit = ci
                    break
            if hit is None:
                clusters.append([centroid] * mult)
                hit = len(clusters) - 1
            elif mult > len(clusters[hit]):
                clusters[hit] = [centroid] * mult
            my_clusters.extend([hit] * mult)
        assignments.append(my_clusters)
    return clusters, assignments


def tf_to_ss_obsv(row: RationalMatrix) -> StateSpace:
    """Observable companion realization of a proper 1 x k rational row.

    The order equals the degree of the monic least common denominator of the
    row.  The state matrix carries the LCM coefficients in its last column
    with ones on the first subdiagonal; C picks the last state, and input j
    feeds the ascending coefficients of its strictly proper numerator (over
    the common denominator) into B.
    """
    if row.rows != 1:
        raise DimensionMismatch("expected a single-row matrix")
    if not row.is_proper:
        raise NotProper("row has an improper entry")
    k = row.cols
    entries = [row.entry(0, j) for j in range(k)]
    dyn = [j for j in range(k) if entries[j].den.degree >= 1 and not entries[j].is_zero]
    D = np.array([[entries[j].gain_at_infinity() for j in range(k)]])
    if not dyn:
        return StateSpace(np.zeros((0, 0)), np.zeros((0, k)), np.zeros((1, 0)), D, row.domain)

    groups = [entries[j].den.roots() for j in dyn]
    clusters, assignments = _cluster_roots(groups)
    mults = [len(c) for c in clusters]
    reps = [complex(np.mean(c)) for c in clusters]
    lcm_roots: list[complex] = []
    for rep, mult in zip(reps, mults):
        lcm_roots.extend([rep] * mult)
    den = Polynomial.from_roots(lcm_roots)  # monic by construction
    n = len(lcm_roots)
    if den.degree != n:
        # coefficient stripping ate the leading term: the root cloud is too
        # ill-conditioned for a companion form to mean anything
        raise InvariantViolation(
            "lcm-conditioning",
            f"common denominator of degree {n} collapsed to {den.degree}",
        )

    A = np.zeros((n, n))
    for i in range(1, n):
        A[i, i - 1] = 1.0
    A[:, n - 1] = -np.asarray(den.coeffs[:-1], dtype=float)
    C = np.zeros((1, n))
    C[0, n - 1] = 1.0
    B = np.zeros((n, k))
    for idx, j in enumerate(dyn):
        e = entries[j]
        counts = {ci: assignments[idx].count(ci) for ci in set(assignments[idx])}
        cof_roots: list[complex] = []
        for ci, (rep, mult) in enumerate(zip(reps, mults)):
            extra = mult - counts.get(ci, 0)
            cof_roots.extend([rep] * extra)
        cof = Polynomial.from_roots(cof_roots)
        strict = e.num - e.den.scaled(D[0, j])
        num = strict * cof
        coeffs = list(num.coeffs)
        if len(coeffs) > n:
            coeffs = coeffs[:n]  # guard: trailing values are zero up to tolerance
        B[: len(coeffs), j] = coeffs
    # static entries contribute only through D
    return StateSpace(A, B, C, D, row.domain)


def tfm_to_ss(mat: RationalMatrix) -> StateSpace:
    """Minimal realization of a proper rational matrix via stacked row forms."""
    pieces = [tf_to_ss_obsv(mat.row(i)) for i in range(mat.rows)]
    return minimal(stack_outputs(pieces))


def stack_outputs(pieces: list[StateSpace]) -> StateSpace:
    """Block-diagonal state stacking of systems sharing one input vector."""
    m = pieces[0].n_inputs
    domain = pieces[0].domain
    for s in pieces:
        if s.n_inputs != m:
            raise DimensionMismatch("stacked systems must share the input dimension")
        if s.domain is not domain:
            raise DomainMismatch("stacked systems must share the domain")
    n = sum(s.order for s in pieces)
    p = sum(s.n_outputs for s in pieces)
    A = np.zeros((n, n))
    B = np.zeros((n, m))
    C = np.zeros((p, n))
    D = np.zeros((p, m))
    ni = 0
    pi = 0
    for s in pieces:
        A[ni : ni + s.order, ni : ni + s.order] = s.A
        B[ni : ni + s.order, :] = s.B
        C[pi : pi + s.n_outputs, ni : ni + s.order] = s.C
        D[pi : pi + s.n_outputs, :] = s.D
        ni += s.order
        pi += s.n_outputs
    return StateSpace(A, B, C, D, domain)


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


def minimal(sys: StateSpace) -> StateSpace:
    """Minimal realization: observable part first, then its controllable part."""
    staired, k_obs, _ = obsv_staircase(sys)
    obs = staired.truncated(k_obs)
    staired2, k_ctrb, _ = ctrb_staircase(obs)
    return staired2.truncated(k_ctrb)


# ---------------------------------------------------------------------------
# stability and PBH audits


class UnstableEigSet:
    """Multiset of eigenvalues outside the stability region."""

    __slots__ = ("values", "domain")

    def __init__(self, values, domain: StabilityDomain):
        vals = sorted((complex(v) for v in values), key=lambda z: (z.real, z.imag))
        self.values = tuple(vals)
        self.domain = domain

    def __len__(self) -> int:
        return len(self.values)

    @property
    def empty(self) -> bool:
        return not self.values

    def __repr__(self) -> str:
        return f"UnstableEigSet({list(self.values)})"


def _is_unstable(lam: complex, domain: StabilityDomain) -> bool:
    if domain is StabilityDomain.DISCRETE:
        return abs(lam) >= 1.0 - STABILITY_MARGIN
    return lam.real >= -STABILITY_MARGIN


def unstable_eigs(A: np.ndarray, domain: StabilityDomain) -> UnstableEigSet:
    """Eigenvalues of A outside the stability region, multiplicities kept."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.size == 0:
        return UnstableEigSet((), domain)
    lams = np.linalg.eigvals(A)
    return UnstableEigSet([l for l in lams if _is_unstable(l, domain)], domain)


def is_stable_matrix(A: np.ndarray, domain: StabilityDomain) -> bool:
    return unstable_eigs(A, domain).empty


def _pbh_rank_ok(A: np.ndarray, Bc: np.ndarray, lam: complex) -> bool:
    n = A.shape[0]
    M = np.hstack([A - lam * np.eye(n), Bc]).astype(complex)
    S = np.linalg.svd(M, compute_uv=False)
    return S.size > 0 and S[-1] > RANK_REL_TOL * S[0]


def is_stabilizable(sys: StateSpace) -> bool:
    """PBH test at every unstable eigenvalue of A."""
    for lam in unstable_eigs(sys.A, sys.domain).values:
        if not _pbh_rank_ok(sys.A, sys.B, lam):
            return False
    return True


def is_detectable(sys: StateSpace) -> bool:
    for lam in unstable_eigs(sys.A, sys.domain).values:
        if not _pbh_rank_ok(sys.A.T, sys.C.T, lam):
            return False
    return True


def transmission_zero_rank_test(sys: StateSpace, point: complex) -> bool:
    """Full row rank of the system pencil [A - pI, B; C, D] at one point."""
    n = sys.order
    top = np.hstack([sys.A - point * np.eye(n), sys.B]).astype(complex)
    bottom = np.hstack([sys.C, sys.D]).astype(complex)
    P = np.vstack([top, bottom])
    S = np.linalg.svd(P, compute_uv=False)
    want = min(P.shape)
    if P.shape[0] > P.shape[1]:
        return False
    if S.size == 0 or S[0] == 0.0:
        return False
    return int(np.sum(S > RANK_REL_TOL * S[0])) == P.shape[0] and want >= P.shape[0]


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
    """Entrywise transfer matrix; each entry is reduced over its own minimal part."""
    rows = []
    for i in range(sys.n_outputs):
        row = []
        for j in range(sys.n_inputs):
            sub = StateSpace(
                sys.A, sys.B[:, [j]], sys.C[[i], :], sys.D[[i], :][:, [j]], sys.domain
            )
            sub = minimal(sub)
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
    sys = minimal(stack_outputs([tf_to_ss_obsv(mat.row(i)) for i in range(mat.rows)]))
    eigs = unstable_eigs(sys.A, mat.domain)
    return eigs.values


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


def ss_from_obj(obj: dict) -> StateSpace:
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
    return StateSpace(A, B, C, D, domain)


def save_ss(sys: StateSpace, path: str):
    with open(path, "w") as fh:
        json.dump(ss_to_obj(sys), fh, indent=1)


def load_ss(path: str) -> StateSpace:
    with open(path) as fh:
        return ss_from_obj(json.load(fh))
