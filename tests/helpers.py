"""Test-only references: constructors and pole and zero tests that the
package itself never needs."""

import numpy as np

from nrfctl.errors import NotProper
from nrfctl.ratmat import Polynomial, RationalFunction, RationalMatrix, StabilityDomain
from nrfctl.sstate import StateSpace, minimal, tfm_to_ss
from nrfctl.tolerances import RANK_REL_TOL


def poly_from_roots(roots, lead: float = 1.0) -> Polynomial:
    """Build lead * prod (x - r).  Complex roots must come in conjugate pairs."""
    roots = list(roots)
    if not roots:
        return Polynomial((lead,))
    desc = np.atleast_1d(np.poly(np.asarray(roots, dtype=complex)))
    if np.abs(desc.imag).max() > 1e-6 * (1.0 + np.abs(desc.real).max()):
        raise ValueError("root multiset is not closed under conjugation")
    return Polynomial((desc.real * lead)[::-1])


def const_ratmat(mat, domain: StabilityDomain) -> RationalMatrix:
    """The constant matrix ``mat`` as a rational matrix."""
    arr = np.asarray(mat, dtype=float)
    return RationalMatrix([[RationalFunction.const(v) for v in row] for row in arr], domain)


def unstable_eigs(A, domain: StabilityDomain) -> tuple[complex, ...]:
    """Unstable eigenvalues of a bare matrix, sorted: the kept fact
    ``unstable_eigenvalues`` of a realization with no inputs or outputs on it."""
    return StateSpace(A, [], [], np.zeros((0, 0)), domain).unstable_eigenvalues


def pencil_ranks(A, Bc, lam) -> tuple[int, int]:
    """The PBH ranks at lam from their definition: the SVD ranks of the pencil
    [A - lam I, Bc] and of A - lam I, both counted above RANK_REL_TOL times the
    pencil's largest singular value."""
    n = A.shape[0]
    P = np.hstack([A - lam * np.eye(n), Bc]).astype(complex)
    cut = RANK_REL_TOL * np.linalg.svd(P, compute_uv=False)[0]
    return tuple(int(np.sum(np.linalg.svd(M, compute_uv=False) > cut)) for M in (P, P[:, :n]))


def pencil_svds(monkeypatch) -> list:
    """Patch np.linalg.svd to record the shape of each complex matrix it
    factors, the PBH pencils [A - lam I, Bc]; the list fills as calls run."""
    shapes, svd = [], np.linalg.svd

    def counting(M, *args, **kwargs):
        if np.ndim(M) == 2 and np.iscomplexobj(M):
            shapes.append(np.shape(M))
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return shapes


def pbh_at_every_copy(A, Bc, domain: StabilityDomain) -> bool:
    """The PBH test of (A, Bc): full row rank of the pencil at every copy of
    every unstable eigenvalue of A."""
    return all(pencil_ranks(A, Bc, lam)[0] == A.shape[0] for lam in unstable_eigs(A, domain))


def poles_tested_at_every_pole(sys: StateSpace) -> tuple[complex, ...]:
    """The per-pole reference of ``reached_poles``: each unstable pole of the
    minimal realization is kept when, at its nearest unstable mode mu of
    sys.A, appending B raises the rank of A - mu I and appending C' that of
    its transpose."""
    modes = unstable_eigs(sys.A, sys.domain)
    if not modes:
        return ()
    kept = []
    for lam in unstable_eigs(minimal(sys).A, sys.domain):
        mu = modes[int(np.argmin(np.abs(np.asarray(modes) - lam)))]
        if all(rank > floor for rank, floor in (pencil_ranks(sys.A, sys.B, mu),
                                                 pencil_ranks(sys.A.T, sys.C.T, mu))):
            kept.append(lam)
    return tuple(kept)


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


def tfm_unstable_poles(mat: RationalMatrix) -> tuple[complex, ...]:
    """Unstable pole multiset of a proper rational matrix.

    A joint realization of all rows is reduced to a minimal one; its unstable
    eigenvalues are exactly the unstable poles with structural multiplicity.
    """
    if not mat.is_proper:
        raise NotProper("pole extraction needs a proper matrix")
    return unstable_eigs(tfm_to_ss(mat).A, mat.domain)
