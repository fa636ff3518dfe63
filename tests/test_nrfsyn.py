"""NRF extraction, sparsity correspondence, and instability certificates."""

import numpy as np
import pytest

from nrfctl import dimpl, factor, nrfsyn
from nrfctl.errors import InvariantViolation, SingularDiagonal
from nrfctl.nrfsyn import (
    NrfPair,
    SparsityTriple,
    load_nrf,
    mr2_certificate,
    mr3_certificate,
    nrf_from_dcf,
    nrf_from_left_factorization,
    nrf_from_obj,
    nrf_to_obj,
    save_nrf,
    sls_like_rep,
    sparsity_correspondence,
)
from nrfctl.ratmat import (
    Polynomial,
    RationalFunction,
    RationalMatrix,
    SparsityPattern,
    StabilityDomain,
    diag_part,
    probe_points,
    ratmat_to_obj,
)
from nrfctl.sstate import StateSpace, match_multisets
from nrfctl import simkit

DISC = StabilityDomain.DISCRETE


def coeffs_match(entry, num_coeffs, den_coeffs, tol=1e-9):
    """Compare against a monic-denominator reference, coefficient by coefficient."""
    lead = entry.den.lead
    num = np.array(entry.num.coeffs) / lead
    den = np.array(entry.den.coeffs) / lead

    def gap(a, b):
        a, b = list(a), list(b)
        width = max(len(a), len(b))
        a = a + [0.0] * (width - len(a))
        b = b + [0.0] * (width - len(b))
        return max(abs(x - y) for x, y in zip(a, b))

    return gap(num, num_coeffs) <= tol and gap(den, den_coeffs) <= tol


def test_hollow_diagonal_enforced():
    one = RationalFunction.const(1.0)
    Phi = RationalMatrix([[one]], DISC)
    with pytest.raises(InvariantViolation):
        NrfPair(Phi, RationalMatrix([[one]], DISC))


def test_grid5_nrf_closed_form(grid5_pair):
    """The synthesized pair has the known grid closed form.

    Off-diagonal short edges share one first-order filter, the long
    two-hop entry is second order, and the sensing channel is one identical
    second-order function on the diagonal.
    """
    Phi, Gamma = grid5_pair.Phi, grid5_pair.Gamma
    short = ([-0.2], [-0.8, 1.0])
    for i, j in ((2, 1), (4, 1), (5, 1), (3, 2)):
        assert coeffs_match(Phi.entry(i - 1, j - 1), *short)
    assert coeffs_match(Phi.entry(2, 0), [0.12, -0.2], [0.64, -1.6, 1.0])
    nonzero = {(2, 1), (4, 1), (5, 1), (3, 2), (3, 1)}
    for i in range(5):
        for j in range(5):
            if (i + 1, j + 1) not in nonzero:
                assert Phi.entry(i, j).is_zero
    for i in range(5):
        for j in range(5):
            if i == j:
                assert coeffs_match(Gamma.entry(i, i), [-0.85, 1.05], [-0.8, -0.2, 1.0])
            else:
                assert Gamma.entry(i, j).is_zero


@pytest.mark.parametrize("n", range(2, 9))
def test_nrf_from_dcf_on_platoon(platoon, n):
    plant, dcf, shift = platoon(n)
    pair = nrf_from_dcf(dcf, shift)
    # loop sensitivity (I - Phi + Gamma G) M Omega = I, as the audit forms it
    omega = diag_part(shift.YQ)
    mats = (pair.Phi, pair.Gamma, dcf.M, dcf.Mt, dcf.Nt, omega)
    pts = probe_points(DISC, 20, avoid=factor._pole_cloud(*mats))
    Phi, Gamma, M, Mt, Nt, Om = (mat.eval_many(pts) for mat in mats)
    S = np.eye(n) - Phi + Gamma @ np.linalg.solve(Mt, Nt)
    assert np.max(np.abs(S @ M @ Om - np.eye(n))) <= 1e-12
    assert all(sys.order <= plant.order for sys in pair.row_systems)
    assert all(row.order <= plant.order for row in dimpl.realize_rows(pair))


def test_row_systems_match_the_pair(grid5_pair):
    # each kept row system is its row of [Phi Gamma], Phi_ii exactly zero
    pts = probe_points(DISC, 7)
    want = grid5_pair.Phi.hstack(grid5_pair.Gamma).eval_many(pts)
    for i, sys in enumerate(grid5_pair.row_systems):
        assert sys.D[0, i] == 0.0 and not np.any(sys.B[:, i])
        assert np.max(np.abs(sys.eval_many(pts)[:, 0, :] - want[:, i, :])) <= 1e-12


def test_nrf_reproduces_controller(grid5_pair, grid5_shift):
    K = factor.controller_tfm(grid5_shift)
    assert grid5_pair.reproduces(K)


def test_left_factorization_scaling():
    # row scaling by the diagonal reciprocal must leave ratios intact
    f = RationalFunction(Polynomial([1.0, 2.0]), Polynomial([-0.5, 1.0]))
    g = RationalFunction(Polynomial([0.5]), Polynomial([-0.3, 1.0]))
    R = RationalMatrix([[f, g], [g, f]], DISC)
    P = RationalMatrix.identity(2, DISC)
    pair = nrf_from_left_factorization(R, P)
    z = 1.7 + 0.4j
    assert abs(pair.Phi.entry(0, 1)(z) + g(z) / f(z)) < 1e-10
    assert abs(pair.Gamma.entry(0, 0)(z) - 1.0 / f(z)) < 1e-10
    assert pair.Phi.entry(0, 0).is_zero


def test_left_factorization_rejects_strictly_proper_diagonal():
    g = RationalFunction(Polynomial([0.5]), Polynomial([-0.3, 1.0]))
    R = RationalMatrix([[g]], DISC)
    with pytest.raises(SingularDiagonal):
        nrf_from_left_factorization(R, RationalMatrix.identity(1, DISC))


def test_sparsity_correspondence_grid5(grid5_pair, grid5_shift):
    triple = simkit.grid5_patterns()
    assert sparsity_correspondence(grid5_pair, grid5_shift, triple) is True


def test_sparsity_correspondence_rejecting_pattern(grid5_pair, grid5_shift):
    # dropping the long two-hop edge makes both characterizations say no
    mask = [[False] * 5 for _ in range(5)]
    for i, j in ((2, 1), (4, 1), (5, 1), (3, 2)):
        mask[i - 1][j - 1] = True
    triple = SparsityTriple(SparsityPattern(np.eye(5, dtype=bool)), SparsityPattern(mask))
    assert sparsity_correspondence(grid5_pair, grid5_shift, triple) is False


# --- certificates ---


def frozen_coupled_plant():
    """Two-state plant with an upper-triangular coupling and unstable mode 1.6.

    Kept verbatim so the positive mr2 finding below stays reproducible; a
    diagonal plant would not do, its witness cancels identically.
    """
    A = [[1.6, 0.11949821500338796], [0.0, 0.5]]
    B = [
        [0.8635987644484833, -0.2974939664989387],
        [0.018043080779231543, 1.40206457366636],
    ]
    C = [
        [0.8523380444346011, -0.18614246994598213],
        [0.14695261505555945, 1.1070661024480182],
    ]
    return StateSpace(A, B, C, np.zeros((2, 2)), DISC)


def test_mr2_detects_unstable_pole_on_coupled_plant():
    plant = frozen_coupled_plant()
    F, L = factor.place_gains(plant, [0.3, 0.4])
    dcf = factor.dcf_from_ss(plant, F, L)
    shift = factor.youla_shift(dcf, RationalMatrix.zeros(2, 2, DISC))
    cert = mr2_certificate(dcf, shift)
    assert not cert.empty
    assert match_multisets(cert.unstable_poles_found, [1.6], 1e-6)


def test_mr2_witness_vanishes_on_grid5(grid5_dcf, grid5_shift):
    # M YQ is diagonal for this instance, so the mr2 witness is identically
    # zero and no instability can be reported through it
    cert = mr2_certificate(grid5_dcf, grid5_shift)
    assert cert.empty
    response = cert.witness_map.eval_many(probe_points(DISC, 7))
    assert np.max(np.abs(response)) <= 1e-12


def test_mr3_flags_grid5_integrators(grid5_dcf, grid5_shift):
    cert = mr3_certificate(grid5_dcf, grid5_shift)
    assert match_multisets(cert.unstable_poles_found, [1.0] * 5, 1e-6)


@pytest.mark.parametrize("n", range(2, 9))
def test_mr3_finds_every_platoon_integrator(platoon, n):
    _, dcf, shift = platoon(n)
    poles = mr3_certificate(dcf, shift).unstable_poles_found
    assert len(poles) == n
    assert all(abs(p - 1.0) <= 1e-6 for p in poles)


@pytest.mark.parametrize("mode", ["mr2", "mr3"])
def test_certificate_omega_is_the_product_diagonal(grid5_dcf, grid5_shift, mode):
    if mode == "mr2":
        cert, product = mr2_certificate(grid5_dcf, grid5_shift), grid5_dcf.M @ grid5_shift.YQ
    else:
        cert, product = mr3_certificate(grid5_dcf, grid5_shift), grid5_shift.YtQ @ grid5_dcf.Mt
    assert ratmat_to_obj(cert.Omega) == ratmat_to_obj(diag_part(product))


def test_mr3_empty_for_stable_plant():
    lagf = RationalFunction(Polynomial([0.2]), Polynomial([-0.8, 1.0]))
    plant = StateSpace([[0.8]], [[1.0]], [[0.2]], [[0.0]], DISC)
    F, L = factor.place_gains(plant, [0.4])
    dcf = factor.dcf_from_ss(plant, F, L)
    z = 2.0 + 0.5j
    assert abs(dcf.plant().eval(z)[0, 0] - lagf(z)) < 1e-10
    shift = factor.youla_shift(dcf, RationalMatrix.zeros(1, 1, DISC))
    assert mr3_certificate(dcf, shift).empty


def test_sls_like_rep_eliminates_to_controller(grid5_dcf, grid5_shift):
    beta_phi, beta_gamma, u_beta, u_z = sls_like_rep(grid5_dcf, grid5_shift)
    K = factor.controller_tfm(grid5_shift)
    from nrfctl.ratmat import invert

    eye = RationalMatrix.identity(5, DISC)
    recov = u_beta @ invert(eye - beta_phi) @ beta_gamma + u_z
    for pt in probe_points(DISC, 6):
        assert np.max(np.abs(recov.eval(pt) - K.eval(pt))) < 1e-8


def test_nrf_json_roundtrip(tmp_path, grid5_pair):
    path = tmp_path / "nrf.json"
    save_nrf(grid5_pair, str(path))
    back = load_nrf(str(path))
    assert nrf_to_obj(back) == nrf_to_obj(grid5_pair)
    assert nrf_to_obj(nrf_from_obj(nrf_to_obj(grid5_pair))) == nrf_to_obj(grid5_pair)
