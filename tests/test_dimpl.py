"""Row-by-row realization, assembly, and closed-loop state-matrix checks."""

import csv

import numpy as np
import pytest

from nrfctl import dimpl, factor, nrfsyn, simkit, sstate
from nrfctl.errors import (
    InconsistentDimensions,
    InvariantViolation,
    SingularCoupling,
)
from nrfctl.nrfsyn import NrfPair
from nrfctl.ratmat import (
    RationalFunction,
    RationalMatrix,
    StabilityDomain,
    probe_points,
)
from nrfctl.sstate import match_multisets, tfm_unstable_poles

DISC = StabilityDomain.DISCRETE


def test_row_orders_grid5(grid5_rows):
    assert [r.order for r in grid5_rows] == [2, 3, 4, 3, 3]
    assert [r.index for r in grid5_rows] == [1, 2, 3, 4, 5]


def test_rows_match_compound_tfm(grid5_pair, grid5_rows):
    table = grid5_pair.Phi.hstack(grid5_pair.Gamma)
    for r in grid5_rows:
        i = r.index - 1
        row_tfm = table.row(i)
        for pt in probe_points(DISC, 6):
            assert np.max(np.abs(r.sys.eval(pt) - row_tfm.eval(pt))) < 1e-8


def test_grouping_deduplicates_shared_dynamics(grid5_pair):
    rows = dimpl.realize_rows(grid5_pair, [[1], [2, 3], [4], [5]])
    ctrl = dimpl.assemble(rows)
    assert list(ctrl.row_orders) == [2, 6, 3, 3]
    assert ctrl.order == 14


def test_grouping_must_partition(grid5_pair):
    with pytest.raises(InconsistentDimensions):
        dimpl.realize_rows(grid5_pair, [[1, 2], [2, 3], [4], [5]])
    with pytest.raises(InconsistentDimensions):
        dimpl.realize_rows(grid5_pair, [[1], [2]])


def test_assembled_controller_grid5(grid5_pair, grid5_ctrl):
    assert grid5_ctrl.order == 15
    assert grid5_ctrl.partition == (5, 5)
    table = grid5_pair.Phi.hstack(grid5_pair.Gamma)
    for pt in probe_points(DISC, 6):
        assert np.max(np.abs(grid5_ctrl.sys.eval(pt) - table.eval(pt))) < 1e-8


def test_controller_unstable_modes_equal_tfm_poles(grid5_pair, grid5_ctrl):
    """The assembled state matrix carries exactly the unstable pole multiset
    of [Phi Gamma], no more and no less."""
    table = grid5_pair.Phi.hstack(grid5_pair.Gamma)
    want = tfm_unstable_poles(table)
    got = grid5_ctrl.unstable_modes().values
    assert match_multisets(got, want, 1e-6)
    assert match_multisets(got, [1.0] * 5, 1e-6)


def test_closed_loop_state_matrix_grid5(grid5_plant, grid5_ctrl):
    cl = dimpl.closed_loop_state_matrix(grid5_plant, grid5_ctrl)
    assert cl.order == 24
    assert cl.A_CL.shape == (24, 24)
    radius = max(abs(v) for v in cl.eigenvalues())
    assert radius < 1.0 - 1e-6
    assert cl.is_stable
    # both invertibility certificates for the coupling matrix
    ok_schur, margin_schur = dimpl._invertibility(cl.schur)
    ok_direct, margin_direct = dimpl._invertibility(cl.Dtilde)
    assert ok_schur and ok_direct
    assert min(margin_schur, margin_direct) > 1e-8


def test_singular_coupling_detected():
    # u1 = u2 and u2 = u1 is an algebraic loop: the coupling matrix drops rank
    one = RationalFunction.const(1.0)
    zero = RationalFunction.const(0.0)
    Phi = RationalMatrix([[zero, one], [one, zero]], DISC)
    Gamma = RationalMatrix.identity(2, DISC)
    pair = NrfPair(Phi, Gamma)
    ctrl = dimpl.assemble(dimpl.realize_rows(pair))
    lagp = RationalMatrix.diag(
        [RationalFunction((0.5,), (-0.5, 1.0)), RationalFunction((0.5,), (-0.5, 1.0))],
        DISC,
    )
    from nrfctl.sstate import tfm_to_ss

    plant = tfm_to_ss(lagp)
    with pytest.raises(SingularCoupling):
        dimpl.closed_loop_state_matrix(plant, ctrl)


def test_internal_stability_two_routes_agree(grid5_pair, grid5_tfm):
    probe_only = dimpl.verify_internal_stability_tfm(grid5_pair, grid5_tfm)
    assert probe_only.stable
    assert probe_only.max_disagreement < 1e-6


@pytest.mark.parametrize("n", [3, 4])
def test_platoon_transfer_verdict_matches_eigenvalues(n):
    # chain of n vehicles with the platoon demo's gains and Q = 0
    plant = simkit.build_network_plant(np.eye(n, k=-1, dtype=bool))
    F, _ = factor.place_gains(plant, [0.6 + 0.03 * k for k in range(plant.order)])
    _, L = factor.place_gains(plant, [0.45 + 0.03 * k for k in range(plant.order)])
    dcf = factor.dcf_from_ss(plant, F, L)
    pair = nrfsyn.nrf_from_dcf(dcf, factor.youla_shift(dcf, RationalMatrix.zeros(n, n, DISC)))
    cl = dimpl.closed_loop_state_matrix(plant, dimpl.assemble(dimpl.realize_rows(pair)))
    report = dimpl.verify_internal_stability_tfm(pair, sstate.ss_to_tf(plant))
    assert report.stable == cl.is_stable


def test_internal_stability_flags_unstable_sensing():
    # Gamma carries an unstable filter and G = 0 cannot hide it
    unstable = RationalFunction((1.0,), (-1.4, 1.0))
    Phi = RationalMatrix.zeros(1, 1, DISC)
    Gamma = RationalMatrix([[unstable]], DISC)
    pair = NrfPair(Phi, Gamma)
    report = dimpl.verify_internal_stability_tfm(pair, RationalMatrix.zeros(1, 1, DISC))
    assert not report.stable
    assert report.unstable_entries


def test_bundle_roundtrip(tmp_path, grid5_rows):
    path = tmp_path / "rows.json"
    dimpl.save_bundle(str(path), grid5_rows)
    back = dimpl.load_bundle(str(path))
    assert [r.index for r in back] == [r.index for r in grid5_rows]
    assert [r.order for r in back] == [r.order for r in grid5_rows]
    ctrl = dimpl.assemble(back)
    assert ctrl.order == 15
    obj = dimpl.bundle_to_obj(grid5_rows)
    assert dimpl.bundle_to_obj(dimpl.bundle_from_obj(obj)) == obj


def test_bundle_rejects_foreign_objects():
    with pytest.raises(InvariantViolation):
        dimpl.bundle_from_obj({"rows": []})


def test_eigenvalue_report(tmp_path, grid5_plant, grid5_ctrl):
    cl = dimpl.closed_loop_state_matrix(grid5_plant, grid5_ctrl)
    path = tmp_path / "eigs.csv"
    dimpl.save_eigenvalue_report(str(path), cl)
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == ["re", "im", "modulus", "stable_flag"]
    assert len(rows) == 24
    moduli = [float(r[2]) for r in rows]
    assert moduli == sorted(moduli, reverse=True)
    assert all(r[3] == "1" for r in rows)
