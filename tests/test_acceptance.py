"""Acceptance gate: one test per criterion, names carry the AC number.

Each test prints a single PASS line on success (visible with -s); the pytest
verdict line itself is the pass/fail record.  AC-5's first sub-claim is
marked as a strict expected failure with the mathematical reason inline.
"""

import time

import numpy as np
import pytest

from nrfctl import dimpl, factor, nrfsyn, simkit
from nrfctl.factor import closed_loop_maps, youla_shift
from nrfctl.nrfsyn import mr2_certificate, mr3_certificate
from nrfctl.ratmat import (
    Polynomial,
    RationalFunction,
    RationalMatrix,
    StabilityDomain,
    probe_points,
)
from nrfctl.sstate import (
    StateSpace,
    match_multisets,
    tfm_to_ss,
    tfm_unstable_poles,
    transmission_zero_rank_test,
)

DISC = StabilityDomain.DISCRETE


def _coeff_gap(entry, num_want, den_want):
    lead = entry.den.lead
    num = [c / lead for c in entry.num.coeffs]
    den = [c / lead for c in entry.den.coeffs]

    def gap(a, b):
        width = max(len(a), len(b))
        a = list(a) + [0.0] * (width - len(a))
        b = list(b) + [0.0] * (width - len(b))
        return max(abs(x - y) for x, y in zip(a, b))

    return max(gap(num, num_want), gap(den, den_want))


def test_ac1_nrf_closed_form_reproduction():
    start = time.perf_counter()
    dcf = simkit.grid5_dcf()
    shift = youla_shift(dcf, simkit.grid5_q())
    pair = nrfsyn.nrf_from_dcf(dcf, shift)
    elapsed = time.perf_counter() - start

    worst = 0.0
    for i, j in ((2, 1), (4, 1), (5, 1), (3, 2)):
        worst = max(worst, _coeff_gap(pair.Phi.entry(i - 1, j - 1), [-0.2], [-0.8, 1.0]))
    worst = max(worst, _coeff_gap(pair.Phi.entry(2, 0), [0.12, -0.2], [0.64, -1.6, 1.0]))
    for i in range(5):
        worst = max(worst, _coeff_gap(pair.Gamma.entry(i, i), [-0.85, 1.05], [-0.8, -0.2, 1.0]))
    nonzero = {(2, 1), (4, 1), (5, 1), (3, 2), (3, 1)}
    for i in range(5):
        for j in range(5):
            if (i + 1, j + 1) not in nonzero:
                assert pair.Phi.entry(i, j).is_zero
            if i != j:
                assert pair.Gamma.entry(i, j).is_zero
    assert worst <= 1e-9
    assert elapsed < 1.0
    print(f"AC-1 PASS: closed-form coefficients within {worst:.2e} in {elapsed:.2f}s")


def test_ac2_bezout_identities():
    dcf = simkit.grid5_dcf()
    res = dcf.bezout_residual()
    assert res < 1e-8
    shift = youla_shift(dcf, simkit.grid5_q())  # re-validates the shifted identity
    factor._check_shift_bezout(dcf, shift)
    print(f"AC-2 PASS: factorization residual {res:.2e}, shifted identity holds")


def test_ac3_closed_loop_stability_two_ways(grid5_dcf, grid5_shift, grid5_pair, grid5_tfm):
    # the factor-side table and the realized loop are independent computations
    start = time.perf_counter()
    maps = closed_loop_maps(grid5_dcf, grid5_shift)
    maps.assert_stable()
    report = dimpl.verify_internal_stability_tfm(grid5_pair, grid5_tfm)
    elapsed = time.perf_counter() - start
    assert report.stable
    assert report.max_disagreement < 1e-6
    gap = 0.0
    for (out, inp), block in maps.all_blocks():
        realized = report.loop.map((out,), (inp,))
        for pt in probe_points(DISC, 5):
            gap = max(gap, float(np.max(np.abs(block.eval(pt) - realized.eval(pt)))))
    assert gap < 1e-8
    assert elapsed < 5.0
    print(
        f"AC-3 PASS: all table blocks stable, realized loop agrees with the table to "
        f"{gap:.2e} and with the pointwise formula to {report.max_disagreement:.2e} "
        f"in {elapsed:.2f}s"
    )


def test_ac4_distributed_realization(grid5_plant, grid5_rows, grid5_ctrl):
    assert [r.order for r in grid5_rows] == [2, 3, 4, 3, 3]
    assert grid5_ctrl.order == 15
    assert grid5_plant.order == 9
    cl = dimpl.closed_loop_state_matrix(grid5_plant, grid5_ctrl)
    assert cl.A_CL.shape == (24, 24)
    radius = max(abs(v) for v in cl.eigenvalues())
    assert radius < 1.0 - 1e-6
    ok_schur, m_schur = dimpl._invertibility(cl.schur)
    ok_direct, m_direct = dimpl._invertibility(cl.Dtilde)
    assert ok_schur and ok_direct
    print(
        f"AC-4 PASS: orders [2,3,4,3,3], A_CL 24x24 with radius {radius:.9f}, "
        f"coupling margins {m_schur:.2e}/{m_direct:.2e}"
    )


@pytest.mark.xfail(
    strict=True,
    reason="mr2 witness is N YQ - G (M YQ)^diag = G (M YQ - (M YQ)^diag); on the "
    "five-node grid M YQ is diagonal, so the witness vanishes identically and "
    "cannot report any pole.  A nonempty mr2 finding needs cross-coupled "
    "unstable dynamics (see test_nrfsyn for a plant where it fires).",
)
def test_ac5_mr2_certificate_on_grid5(grid5_dcf, grid5_shift):
    cert = mr2_certificate(grid5_dcf, grid5_shift)
    if cert.empty:
        print("AC-5 FAIL (expected): mr2 witness cancels identically on the grid demo")
    assert not cert.empty
    assert any(abs(p - 1.0) <= 1e-6 for p in cert.unstable_poles_found)


def test_ac5_mr3_certificate_on_grid5(grid5_dcf, grid5_shift):
    cert = mr3_certificate(grid5_dcf, grid5_shift)
    assert not cert.empty
    assert match_multisets(cert.unstable_poles_found, [1.0] * 5, 1e-6)
    print("AC-5 PASS: mr3 reports the five integrator poles at z = 1")


def test_ac5_mr3_empty_for_stable_plant():
    plant = StateSpace([[0.8]], [[1.0]], [[0.2]], [[0.0]], DISC)
    F, L = factor.place_gains(plant, [0.4])
    dcf = factor.dcf_from_ss(plant, F, L)
    shift = youla_shift(dcf, RationalMatrix.zeros(1, 1, DISC))
    assert mr3_certificate(dcf, shift).empty
    print("AC-5 PASS: mr3 is empty for the stable single-lag plant")


def test_ac6_grid5_scenario_envelope(tmp_path, grid5_plant, grid5_ctrl):
    start = time.perf_counter()
    sc = simkit.grid5_scenario(grid5_plant, grid5_ctrl, seed=42, horizon=100)
    trace = simkit.simulate(sc)
    assert float(np.max(np.abs(trace.y))) <= 3.0
    err = np.mean(np.abs(trace.y[60:] - 1.0), axis=0)
    assert float(np.max(err)) <= 0.15
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    simkit.save_trace(str(a), trace)
    simkit.save_trace(str(b), simkit.simulate(sc))
    assert a.read_bytes() == b.read_bytes()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"AC-6 PASS: max|y| {float(np.max(np.abs(trace.y))):.3f} <= 3, "
        f"settle error {float(np.max(err)):.3f} <= 0.15, byte-identical rerun, "
        f"{elapsed:.2f}s"
    )


def _lag_ratio(a, b):
    return RationalFunction(Polynomial([-a, 1.0]), Polynomial([-b, 1.0]))


def _bordered(rng, funcs):
    k = len(funcs)
    while True:
        W = rng.uniform(-1.0, 1.0, size=(k, k))
        if abs(np.linalg.det(W)) > 0.3:
            break
    while True:
        V = rng.uniform(-1.0, 1.0, size=(k, k))
        if abs(np.linalg.det(V)) > 0.3:
            break
    D = RationalMatrix.diag(funcs, DISC)
    return RationalMatrix.from_const(W, DISC) @ D @ RationalMatrix.from_const(V, DISC)


def test_ac7_unstable_pole_preservation_suite():
    """Right-multiplying by a stable, full-rank factor with no zeros outside
    the disc preserves the unstable pole multiset; dropping the zero condition
    breaks it."""
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(100):
        b1 = rng.uniform(1.1, 1.8)
        b2 = rng.uniform(-0.9, 0.9)
        a1 = rng.uniform(-0.9, 0.9)
        a2 = rng.uniform(-0.9, 0.9)
        while abs(a2 - b2) < 0.05:
            a2 = rng.uniform(-0.9, 0.9)
        G1 = _bordered(rng, [_lag_ratio(a1, b1), _lag_ratio(a2, b2)])
        c = rng.uniform(-0.85, 0.85, size=2)
        d = rng.uniform(-0.85, 0.85, size=2)
        G2 = _bordered(rng, [_lag_ratio(c[0], d[0]), _lag_ratio(c[1], d[1])])
        # hypotheses: stable, and full rank at every unstable pole of G1
        assert not tfm_unstable_poles(G2)
        pu_g1 = tfm_unstable_poles(G1)
        assert pu_g1
        sys2 = tfm_to_ss(G2)
        assert all(transmission_zero_rank_test(sys2, lam) for lam in pu_g1)
        pu_prod = tfm_unstable_poles(G1 @ G2)
        assert match_multisets(pu_prod, pu_g1, 1e-6)
        checked += 1
    assert checked == 100

    # counterexamples: give G2 a transmission zero exactly on an unstable pole
    skipped = 0
    broke = 0
    for _ in range(10):
        b = rng.uniform(1.1, 1.8)
        a = rng.uniform(-0.8, 0.8)
        d1, d2 = rng.uniform(-0.8, 0.8, size=2)
        stable2 = _lag_ratio(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        G1 = RationalMatrix.diag([_lag_ratio(a, b), stable2], DISC)
        G2 = RationalMatrix.diag([_lag_ratio(b, d1), _lag_ratio(rng.uniform(-0.8, 0.8), d2)], DISC)
        assert not tfm_unstable_poles(G2)
        assert not transmission_zero_rank_test(tfm_to_ss(G2), b)  # hypothesis violated
        skipped += 1
        if not match_multisets(tfm_unstable_poles(G1 @ G2), tfm_unstable_poles(G1), 1e-6):
            broke += 1
    assert skipped == 10
    assert broke >= 1
    print(
        f"AC-7 PASS: 100 conforming instances preserve unstable poles; "
        f"10 zero-collision instances skipped, {broke} break the equality"
    )


def test_ac8_youla_soundness_and_affinity(grid5_dcf):
    rng = np.random.default_rng(7)
    zero_q = RationalMatrix.zeros(5, 5, DISC)
    maps0 = closed_loop_maps(grid5_dcf, youla_shift(grid5_dcf, zero_q))
    half = RationalFunction.const(0.5)
    worst = 0.0
    for _ in range(20):
        funcs = [
            RationalFunction(
                Polynomial([rng.uniform(-1.0, 1.0)]),
                Polynomial([-rng.uniform(-0.8, 0.8), 1.0]),
            )
            for _ in range(5)
        ]
        Q = RationalMatrix.diag(funcs, DISC)
        maps_q = closed_loop_maps(grid5_dcf, youla_shift(grid5_dcf, Q))  # asserts stability
        maps_h = closed_loop_maps(grid5_dcf, youla_shift(grid5_dcf, Q.scale(half)))
        for key, block_q in maps_q.all_blocks():
            block_0 = dict(maps0.all_blocks())[key]
            block_h = dict(maps_h.all_blocks())[key]
            for pt in probe_points(DISC, 4):
                mid = 0.5 * (block_q.eval(pt) + block_0.eval(pt))
                worst = max(worst, float(np.max(np.abs(block_h.eval(pt) - mid))))
    assert worst <= 1e-8
    print(f"AC-8 PASS: 20 random stable Q give stable tables, affinity gap {worst:.2e}")
