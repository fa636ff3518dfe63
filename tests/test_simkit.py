"""Noise streams, scenario plumbing, and closed-loop simulation."""

import csv

import numpy as np
import pytest

from nrfctl import dimpl, nrfsyn, simkit
from nrfctl.errors import InvariantViolation, NonDiscrete
from nrfctl.nrfsyn import NrfPair
from nrfctl.ratmat import RationalMatrix, StabilityDomain, probe_points
from nrfctl.simkit import Scenario, SignalSpec
from nrfctl.sstate import StateSpace, is_detectable, is_stabilizable, tfm_to_ss

DISC = StabilityDomain.DISCRETE


def quiet(n):
    return [SignalSpec.zero()] * n


def steps(n, level=1.0):
    return [SignalSpec.step(level)] * n


# --- noise streams ---


def test_noise_stream_deterministic():
    a = simkit.noise_block(seed=7, channel=3, bound=0.2, count=50)
    b = simkit.noise_block(seed=7, channel=3, bound=0.2, count=50)
    assert np.array_equal(a, b)
    c = simkit.noise_block(seed=7, channel=4, bound=0.2, count=50)
    assert not np.array_equal(a, c)


def test_noise_stream_bound_and_mean():
    x = simkit.noise_block(seed=1, channel=0, bound=0.05, count=100_000)
    assert np.max(np.abs(x)) <= 0.05
    assert abs(float(np.mean(x))) < 1e-3
    assert np.array_equal(simkit.noise_block(seed=1, channel=0, bound=0.0, count=10), np.zeros(10))
    with pytest.raises(InvariantViolation):
        simkit.noise_block(seed=1, channel=0, bound=-0.1, count=10)


def test_signal_spec_materialize():
    step = SignalSpec.step(0.5, at=3).materialize(6, seed=0, channel=0)
    assert np.array_equal(step, [0.0, 0.0, 0.0, 0.5, 0.5, 0.5])
    assert np.array_equal(SignalSpec.zero().materialize(4, 0, 0), np.zeros(4))
    u = SignalSpec.uniform(0.1).materialize(100, seed=2, channel=5)
    assert np.max(np.abs(u)) <= 0.1
    obj = SignalSpec.uniform(0.1).to_obj()
    assert SignalSpec.from_obj(obj).to_obj() == obj


# --- the grid plant ---


def test_grid5_plant_matches_rational_model(grid5_plant, grid5_tfm):
    assert grid5_plant.order == 9
    for pt in probe_points(DISC, 8):
        assert np.max(np.abs(grid5_plant.eval(pt) - grid5_tfm.eval(pt))) < 1e-9
    assert is_stabilizable(grid5_plant)
    assert is_detectable(grid5_plant)


def test_grid5_incidence_edges():
    inc = simkit.grid5_incidence()
    want = {(2, 1), (3, 1), (3, 2), (4, 1), (5, 1)}
    got = {(i + 1, j + 1) for i in range(5) for j in range(5) if inc[i][j]}
    assert got == want


def test_grid5_closed_forms_are_reduced(grid5_tfm, grid5_dcf):
    # every entry is written over its least denominator, so realizing it
    # removes nothing; the closed forms need no cancellation code
    for mat in (grid5_tfm, *grid5_dcf.factors().values()):
        for row in mat.entries:
            for e in row:
                assert e.den.degree == tfm_to_ss(RationalMatrix([[e]], DISC)).order
    # Nt(3,1) = (phi + phi^2)/(z - 0.5) = 0.2 (z - 0.6)/((z - 0.8)^2 (z - 0.5))
    e = grid5_dcf.Nt.entry(2, 0)
    assert e.num.coeffs == (-0.12, 0.2)
    np.testing.assert_allclose(e.den.coeffs, [-0.32, 1.44, -2.1, 1.0], rtol=1e-15, atol=0.0)


# --- simulation ---


def test_simulate_loop_identities(grid5_plant, grid5_ctrl):
    sc = simkit.grid5_scenario(grid5_plant, grid5_ctrl, seed=42, horizon=100)
    t = simkit.simulate(sc)
    r, w, nu, du = sc.signals()
    assert np.array_equal(t.z, r - t.y)
    assert np.array_equal(t.v, t.u + w)
    assert t.horizon == 100

    # the loop equations, on the plant's and the controller's own coordinates
    def close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    G, K = grid5_plant, grid5_ctrl.sys
    xg, xk = t.x_plant, t.x_ctrl
    m = t.u.shape[1]
    fed = t.u + du
    close(xg[1:], xg[:-1] @ G.A.T + t.v[:-1] @ G.B.T)
    close(t.y, xg @ G.C.T + t.v @ G.D.T + nu)
    close(xk[1:], xk[:-1] @ K.A.T + fed[:-1] @ K.B[:, :m].T + t.z[:-1] @ K.B[:, m:].T)
    close(t.u, xk @ K.C.T + fed @ K.D[:, :m].T + t.z @ K.D[:, m:].T)
    met = simkit.trace_metrics(t, settle_from=60)
    assert not met.diverged
    assert np.max(met.max_abs_y) <= 3.0
    assert np.max(met.tracking_error) <= 0.15


def test_simulate_deterministic_and_csv_roundtrip(tmp_path, grid5_plant, grid5_ctrl):
    sc = simkit.grid5_scenario(grid5_plant, grid5_ctrl, seed=42, horizon=60)
    t1 = simkit.simulate(sc)
    t2 = simkit.simulate(sc)
    assert np.array_equal(t1.y, t2.y) and np.array_equal(t1.u, t2.u)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    simkit.save_trace(str(p1), t1)
    simkit.save_trace(str(p2), t2)
    assert p1.read_bytes() == p2.read_bytes()
    back = simkit.load_trace(str(p1))
    for name in ("r", "w", "nu", "du", "z", "u", "v", "y"):
        assert np.array_equal(getattr(back, name), getattr(t1, name))
    # the CSV is a signal boundary; states are not serialized
    assert back.x_plant.shape == (60, 0)


def _csv_writer_trace(path, t):
    """Reference writer: one csv.writer row per step with repr-shortest doubles."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(simkit._trace_header(t.u.shape[1], t.y.shape[1]))
        for n in range(t.horizon):
            row = [n]
            for block in (t.r, t.w, t.nu, t.du, t.z, t.u, t.v, t.y):
                row.extend(repr(float(x)) for x in block[n])
            writer.writerow(row)


@pytest.mark.parametrize("horizon", [0, 1, 7])
def test_trace_csv_bytes_and_bit_exact_roundtrip(tmp_path, horizon):
    m, p = 2, 3
    edge = [-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, -1e-300, 1.0, -7.5]
    rng = np.random.default_rng(horizon)
    blocks = []
    for width in (p, m, p, m, p, m, m, p):
        vals = rng.normal(size=(horizon, width)) * 10.0 ** rng.integers(-20, 20, (horizon, width))
        blocks.append(vals)
    if horizon:
        blocks[0][0] = edge[:p]
        blocks[-1][-1] = edge[-p:]
        blocks[5][0] = edge[3:5]
    t = simkit.SimTrace(*blocks, np.zeros((horizon, 0)), np.zeros((horizon, 0)))
    path, ref = tmp_path / "t.csv", tmp_path / "ref.csv"
    simkit.save_trace(str(path), t)
    _csv_writer_trace(str(ref), t)
    assert path.read_bytes() == ref.read_bytes()
    back = simkit.load_trace(str(path))
    for name, want in zip(("r", "w", "nu", "du", "z", "u", "v", "y"), blocks):
        got = getattr(back, name)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # bit-exact, signed zero included


def test_superposition_without_noise(grid5_plant, grid5_ctrl):
    """Reference responses add: the loop is linear and starts at rest."""

    def run(level):
        sc = Scenario(
            40, steps(5, level), quiet(5), quiet(5), quiet(5), 0, grid5_plant, grid5_ctrl
        )
        return simkit.simulate(sc)

    ya, yb, yab = run(0.7).y, run(0.3).y, run(1.0).y
    assert np.allclose(ya + yb, yab, atol=1e-9)


def test_step_reference_settles_to_one(grid5_plant, grid5_ctrl):
    sc = Scenario(
        220, steps(5), quiet(5), quiet(5), quiet(5), 0, grid5_plant, grid5_ctrl
    )
    t = simkit.simulate(sc)
    assert np.max(np.abs(t.y[-1] - 1.0)) < 1e-6


def test_simulate_requires_discrete():
    cont = tfm_to_ss(
        simkit.grid5_tfm()
    )  # discrete; build a continuous impostor via transform
    bad_plant = StateSpace(cont.A, cont.B, cont.C, cont.D, StabilityDomain.CONTINUOUS)
    sc_kwargs = dict(
        horizon=5,
        reference=quiet(5),
        input_disturbance=quiet(5),
        measurement_noise=quiet(5),
        command_disturbance=quiet(5),
        seed=0,
    )
    with pytest.raises(NonDiscrete):
        simkit.simulate(
            Scenario(plant=bad_plant, controller=_zero_ctrl(5, 5), **sc_kwargs)
        )


def _zero_ctrl(m, p):
    pair = NrfPair(RationalMatrix.zeros(m, m, DISC), RationalMatrix.zeros(m, p, DISC))
    return dimpl.assemble(dimpl.realize_rows(pair))


def test_horizon_zero_trace(grid5_plant, grid5_ctrl):
    sc = Scenario(0, quiet(5), quiet(5), quiet(5), quiet(5), 0, grid5_plant, grid5_ctrl)
    t = simkit.simulate(sc)
    assert t.horizon == 0
    assert t.y.shape == (0, 5)


def test_beta_iteration_diverges_while_output_matches(grid5_plant, grid5_dcf, grid5_shift, grid5_ctrl):
    """The beta recursion reproduces the external behaviour but its internal
    signal drifts: the representation is not internally stable around an
    unstable plant, which is exactly what the mr3 witness predicts.

    The recursion runs as an NRF pair on the stacked command [beta; u],
    Phi = [[beta_phi, 0], [u_beta, 0]], Gamma = [[beta_gamma], [u_z]],
    around the plant [0 G], which only the u part drives."""
    beta_phi, beta_gamma, u_beta, u_z = nrfsyn.sls_like_rep(grid5_dcf, grid5_shift)
    p, m = beta_phi.rows, u_beta.rows
    Phi = beta_phi.hstack(RationalMatrix.zeros(p, m, DISC)).vstack(
        u_beta.hstack(RationalMatrix.zeros(m, m, DISC))
    )
    beta_ctrl = dimpl.assemble(dimpl.realize_rows(NrfPair(Phi, beta_gamma.vstack(u_z))))
    assert beta_ctrl.row_orders == [3, 3, 3, 3, 3, 3, 4, 4, 4, 4]
    G = grid5_plant
    wide = StateSpace(G.A, np.hstack([np.zeros((G.order, p)), G.B]), G.C,
                      np.hstack([np.zeros((p, p)), G.D]), DISC)
    # the unstable map is the one from the input disturbance, so a step on w
    # is the exciting input.  Noise substreams are numbered through
    # (r, w, nu, du), so only the reference channels draw alike at command
    # widths 5 and 10: the noise goes there.
    refs = [SignalSpec.uniform(0.05)] * p
    wsig = [SignalSpec.step(0.5, at=20)] + quiet(m - 1)
    sc = Scenario(100, refs, quiet(p) + wsig, quiet(p), quiet(p + m), 42, wide, beta_ctrl)
    t_beta = simkit.simulate(sc)
    met = simkit.trace_metrics(t_beta, settle_from=60)
    assert met.diverged  # the internal beta channel grows without bound
    assert np.max(np.abs(t_beta.u[:, :p])) > 10.0

    sc_nrf = Scenario(100, refs, wsig, quiet(p), quiet(m), 42, grid5_plant, grid5_ctrl)
    t_nrf = simkit.simulate(sc_nrf)
    assert not simkit.trace_metrics(t_nrf, settle_from=60).diverged
    # external agreement despite the internal drift
    assert np.max(np.abs(t_beta.y - t_nrf.y)) < 1e-9


@pytest.mark.parametrize("n", [6, 7, 8])
def test_settled_platoon_is_not_diverged(platoon, n):
    """A stable platoon loop whose input channels settle to noise: with
    closed-loop poles near 0.96 a quarter of 50 steps holds few independent
    noise samples, so on this seed the late noise level more than doubles
    the second quarter's.  It stays far below the early transient."""
    plant, dcf, shift = platoon(n)
    ctrl = dimpl.assemble(dimpl.realize_rows(nrfsyn.nrf_from_dcf(dcf, shift)))
    assert dimpl.closed_loop_state_matrix(plant, ctrl).is_stable
    sc = Scenario(200, [SignalSpec.step(1.0, at=10)] * n, [SignalSpec.uniform(0.02)] * n,
                  [SignalSpec.uniform(0.01)] * n, quiet(n), 3, plant, ctrl)
    t = simkit.simulate(sc)
    assert not simkit.trace_metrics(t, settle_from=100).diverged


def test_scenario_json_roundtrip(tmp_path, grid5_plant, grid5_ctrl):
    sc = simkit.grid5_scenario(grid5_plant, grid5_ctrl, seed=9, horizon=30)
    path = tmp_path / "scenario.json"
    simkit.save_scenario(str(path), sc)
    back = simkit.load_scenario(str(path))
    t1, t2 = simkit.simulate(sc), simkit.simulate(back)
    assert np.array_equal(t1.y, t2.y)
    assert np.array_equal(t1.x_ctrl, t2.x_ctrl)
    with pytest.raises(InvariantViolation):
        simkit.scenario_from_obj({"horizon": 3})
