"""Coprime factorizations, pole placement, Youla shifts, the closed-loop table."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrfctl import dimpl, factor, nrfsyn, simkit
from nrfctl.errors import (
    DimensionMismatch,
    GainsNotStabilizing,
    InvalidGrid,
    InvariantViolation,
    NotStabilizable,
    PlacementFailed,
    UnstableParameter,
)
from nrfctl.factor import (
    closed_loop_maps,
    dcf_from_obj,
    dcf_from_ss,
    dcf_to_obj,
    default_targets,
    hinf_grid_norm,
    load_dcf,
    place_gains,
    save_dcf,
    youla_shift,
)
from nrfctl.ratmat import (
    Polynomial,
    RationalFunction,
    RationalMatrix,
    StabilityDomain,
    probe_points,
    ratmat_from_obj,
)
from nrfctl.sstate import StateSpace, is_stable_matrix, match_multisets, ss_to_tf

DISC = StabilityDomain.DISCRETE


def make_plant(seed, n, m, p):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, size=(n, n))
    B = rng.uniform(-1.0, 1.0, size=(n, m))
    C = rng.uniform(-1.0, 1.0, size=(p, n))
    return StateSpace(A, B, C, np.zeros((p, m)), DISC)


def spread_targets(n):
    return [complex(0.1 + 0.08 * i) for i in range(n)]


# --- placement ---


def test_place_scalar():
    plant = StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]], DISC)
    F, L = place_gains(plant, [0.5])
    assert np.allclose(F, [[-0.5]])
    assert np.allclose(L, [[-0.5]])


def test_place_decoupled_diagonal():
    plant = StateSpace(np.diag([1.0, 2.0]), np.eye(2), np.eye(2), np.zeros((2, 2)), DISC)
    F, _ = place_gains(plant, [0.4, 0.5])
    got = sorted(np.linalg.eigvals(plant.A + plant.B @ F).real)
    assert np.allclose(got, [0.4, 0.5], atol=1e-9)


def test_place_repeated_targets_defective():
    # repeated targets blur individual eigenvalues; the characteristic
    # polynomial still pins the placement down
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.3, -0.2, 1.1]])
    plant = StateSpace(A, [[0.0], [0.0], [1.0]], [[1.0, 0.0, 0.0]], [[0.0]], DISC)
    F, _ = place_gains(plant, [0.5, 0.5, 0.5])
    got = np.real(np.poly(np.linalg.eigvals(A + np.array([[0.0], [0.0], [1.0]]) @ F)))
    assert np.allclose(got, np.poly([0.5, 0.5, 0.5]), atol=1e-8)


def test_place_keeps_uncontrollable_stable_modes(grid5_plant):
    # three of the grid lags are driven by the same upstream node, leaving
    # two difference modes at 0.8 that no feedback can move
    F, L = place_gains(grid5_plant, default_targets(9, DISC))
    got_F = np.linalg.eigvals(grid5_plant.A + grid5_plant.B @ F)
    assert match_multisets(got_F, [0.5] * 7 + [0.8] * 2, 1e-5)
    got_L = np.linalg.eigvals(grid5_plant.A + L @ grid5_plant.C)
    assert np.max(np.abs(np.real(np.poly(got_L)) - np.poly([0.5] * 9))) < 1e-6


def test_place_input_validation():
    plant = StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], DISC)
    with pytest.raises(DimensionMismatch):
        place_gains(plant, [0.5, 0.5])
    with pytest.raises(PlacementFailed):
        place_gains(plant, [1.5])  # outside the unit disc
    with pytest.raises(NotStabilizable):
        place_gains(StateSpace([[2.0]], [[0.0]], [[1.0]], [[0.0]], DISC), [0.5])


def test_default_targets():
    assert default_targets(3, DISC) == [0.5, 0.5, 0.5]
    assert default_targets(2, StabilityDomain.CONTINUOUS) == [-1.0, -1.0]


# --- factorization ---


def test_dcf_from_ss_small_plant():
    plant = make_plant(11, 3, 2, 2)
    F, L = place_gains(plant, spread_targets(3))
    dcf = dcf_from_ss(plant, F, L)
    assert dcf.bezout_residual() < 1e-8
    G = ss_to_tf(plant)
    Gq = dcf.plant()
    for pt in probe_points(DISC, 8):
        assert np.max(np.abs(Gq.eval(pt) - G.eval(pt))) < 1e-7


def test_dcf_rejects_destabilizing_gains():
    plant = StateSpace([[1.2]], [[1.0]], [[1.0]], [[0.0]], DISC)
    with pytest.raises(GainsNotStabilizing):
        dcf_from_ss(plant, [[0.0]], [[-0.9]])


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 3),
    m=st.integers(1, 2),
    p=st.integers(1, 2),
)
@example(seed=322, n=3, m=2, p=2)  # the draw of test_plant_quotient_realization_matches_plant
def test_dcf_roundtrip_random_plants(seed, n, m, p):
    """Construction either rejects the sample or yields a valid factorization."""
    plant = make_plant(seed, n, m, p)
    try:
        F, L = place_gains(plant, spread_targets(n))
        dcf = dcf_from_ss(plant, F, L)
    except (NotStabilizable, PlacementFailed, InvariantViolation):
        return
    assert dcf.bezout_residual() < 1e-8
    # both quotients of the factors, formed pointwise, against C (zI - A)^-1 B
    pts = probe_points(DISC, 5)
    want = plant.eval_many(pts)
    M, N, Mt, Nt = (f.eval_many(pts) for f in (dcf.M, dcf.N, dcf.Mt, dcf.Nt))
    assert np.max(np.abs(N @ np.linalg.inv(M) - want)) < 1e-6
    assert np.max(np.abs(np.linalg.solve(Mt, Nt) - want)) < 1e-6


def test_plant_quotient_realization_matches_plant():
    # the draw where the symbolic quotient Mt^-1 Nt kept uncancelled
    # pole-zero pairs; the quotient read off a realization of [Mt Nt] does not
    plant = make_plant(322, 3, 2, 2)
    dcf = dcf_from_ss(plant, *place_gains(plant, spread_targets(3)))
    assert dcf.bezout_residual() < 1e-8
    G = ss_to_tf(plant)
    for pt in probe_points(DISC, 5):
        assert np.max(np.abs(dcf.plant().eval(pt) - G.eval(pt))) < 1e-6


def _bezout_blocks(dcf, pts):
    """[Y X; -Nt Mt] and [M -Xt; N Yt] formed from the rational factors."""
    f = {name: mat.eval_many(pts) for name, mat in dcf.factors().items()}
    return (np.block([[f["Y"], f["X"]], [-f["Nt"], f["Mt"]]]),
            np.block([[f["M"], -f["Xt"]], [f["N"], f["Yt"]]]))


def _numerically_factored_grid5(plant):
    # README's `nrfctl dcf` targets
    return dcf_from_ss(plant, *place_gains(plant, [0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7]))


def _bezout_realization_case(name, platoon, grid5_plant, grid5_dcf):
    """(plant, dcf) of a platoon size, of its JSON round trip ("json-n"), or
    of one of the two grid5 factorizations."""
    if name == "grid5-closed-form":
        return grid5_plant, grid5_dcf
    if name == "grid5-numeric":
        return grid5_plant, _numerically_factored_grid5(grid5_plant)
    if name.startswith("json-"):
        plant, dcf, _ = platoon(int(name[5:]))
        return plant, dcf_from_obj(dcf_to_obj(dcf))
    plant, dcf, _ = platoon(int(name))
    return plant, dcf


BEZOUT_CASES = [str(n) for n in range(2, 9)] + ["grid5-closed-form", "grid5-numeric"]


@pytest.mark.parametrize("case", BEZOUT_CASES + [f"json-{n}" for n in range(2, 9)])
def test_bezout_realizations_are_inverse(platoon, grid5_plant, grid5_dcf, case):
    # left right = I on the realizations; from dcf_from_ss, and from its JSON
    # round trip (left realized from the rational factors, right as its
    # inverse), both have the plant order and the plant quotient read off
    # left is the plant
    plant, dcf = _bezout_realization_case(case, platoon, grid5_plant, grid5_dcf)
    pts = probe_points(DISC, 20)
    prod = dcf.left.eval_many(pts) @ dcf.right.eval_many(pts)
    assert np.max(np.abs(prod - np.eye(prod.shape[1]))) <= 1e-12
    assert np.max(np.abs(dcf.plant().eval_many(pts) - plant.eval_many(pts))) <= 1e-10
    if case != "grid5-closed-form":
        assert dcf.left.order == dcf.right.order == plant.order


@pytest.mark.parametrize("case", [
    pytest.param(c, marks=pytest.mark.xfail(
        strict=True,
        reason="ss_to_tf's Leverrier-Faddeev recursion on the degree-14 entries of the "
        "n = 8 Yt leaves the rational factor 5.1e-10 away from its exact realization",
    )) if c == "8" else c
    for c in BEZOUT_CASES
])
def test_bezout_realizations_match_rational_factors(platoon, grid5_plant, grid5_dcf, case):
    _, dcf = _bezout_realization_case(case, platoon, grid5_plant, grid5_dcf)
    pts = probe_points(DISC, 20)
    left, right = _bezout_blocks(dcf, pts)
    assert np.max(np.abs(dcf.left.eval_many(pts) - left)) <= 1e-10
    assert np.max(np.abs(dcf.right.eval_many(pts) - right)) <= 1e-10


def test_dcf_grid5_invariants(grid5_dcf):
    assert grid5_dcf.bezout_residual() < 1e-8
    for name in ("Y", "Yt", "M", "Mt"):
        gain = getattr(grid5_dcf, name).gain_at_infinity()
        assert np.allclose(gain, np.eye(gain.shape[0]), atol=1e-10)


def test_dcf_json_roundtrip(tmp_path, grid5_dcf):
    path = tmp_path / "dcf.json"
    save_dcf(grid5_dcf, str(path))
    back = load_dcf(str(path))
    assert back.bezout_residual() < 1e-8
    assert dcf_to_obj(back) == dcf_to_obj(grid5_dcf)
    obj = dcf_to_obj(grid5_dcf)
    assert dcf_to_obj(dcf_from_obj(obj)) == obj


def _continuous_dcf():
    plant = StateSpace([[0.0, 1.0], [-2.0, 0.3]], np.eye(2), np.eye(2), np.zeros((2, 2)),
                       StabilityDomain.CONTINUOUS)
    return dcf_from_ss(plant, *place_gains(plant, [-1.0, -2.0]))


@pytest.mark.parametrize("domain, pole", [("discrete", 1.5), ("continuous", 0.5)])
def test_validate_rejects_one_unstable_entry(tmp_path, grid5_dcf, domain, pole):
    # every other entry of every factor is stable; one off-diagonal entry of
    # X gets a single unstable pole
    obj = dcf_to_obj(grid5_dcf if domain == "discrete" else _continuous_dcf())
    obj["X"]["entries"][0][1] = {"num": [1.0], "den": [-pole, 1.0]}
    bad = factor.DoublyCoprime(**{name: ratmat_from_obj(obj[name]) for name in obj})
    with pytest.raises(InvariantViolation) as exc:
        bad.validate()
    assert exc.value.invariant == "factor-stable"
    path = tmp_path / "dcf.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(InvariantViolation) as exc:
        load_dcf(str(path))
    assert exc.value.invariant == "factor-stable"


# --- Youla shifts ---


def test_youla_shift_rejects_unstable_q(grid5_dcf):
    bad = RationalMatrix.scalar(
        RationalFunction(Polynomial([1.0]), Polynomial([-1.5, 1.0])), 5, DISC
    )
    with pytest.raises(UnstableParameter):
        youla_shift(grid5_dcf, bad)


def test_youla_shift_rejects_off_diagonal_unstable_entry(grid5_dcf):
    # the diagonal is stable, and one off-diagonal entry has a pole at 1.2
    stable = RationalFunction(Polynomial([0.3]), Polynomial([-0.2, 1.0]))
    unstable = RationalFunction(Polynomial([0.1]), Polynomial([-1.2, 1.0]))
    zero = RationalFunction.const(0.0)
    entries = [[stable if i == j else zero for j in range(5)] for i in range(5)]
    entries[3][1] = unstable
    with pytest.raises(UnstableParameter):
        youla_shift(grid5_dcf, RationalMatrix(entries, DISC))


def test_youla_shift_dimension_guard(grid5_dcf):
    with pytest.raises(DimensionMismatch):
        youla_shift(grid5_dcf, RationalMatrix.zeros(2, 2, DISC))


def test_controller_quotients_agree(grid5_shift, grid5_pair):
    # K_Q = YQ^-1 XQ = XtQ YtQ^-1 pointwise, and the pair implements it
    pts = probe_points(DISC, 20, avoid=factor._pole_cloud(grid5_pair.Phi, grid5_pair.Gamma))
    YQ, XQ, XtQ, YtQ = (f.eval_many(pts) for f in (
        grid5_shift.YQ, grid5_shift.XQ, grid5_shift.XtQ, grid5_shift.YtQ))
    K = np.linalg.solve(YQ, XQ)
    K_right = np.swapaxes(np.linalg.solve(np.swapaxes(YtQ, 1, 2), np.swapaxes(XtQ, 1, 2)), 1, 2)
    assert np.max(np.abs(K - K_right)) < 1e-8
    Phi, Gamma = grid5_pair.Phi.eval_many(pts), grid5_pair.Gamma.eval_many(pts)
    assert np.max(np.abs(np.linalg.solve(np.eye(5) - Phi, Gamma) - K)) < 1e-8


def test_zero_q_reduces_to_central_controller(grid5_dcf):
    q0 = RationalMatrix.zeros(5, 5, DISC)
    shift = youla_shift(grid5_dcf, q0)
    for pt in probe_points(DISC, 5):
        assert np.allclose(shift.YQ.eval(pt), grid5_dcf.Y.eval(pt))
        assert np.allclose(shift.XQ.eval(pt), grid5_dcf.X.eval(pt))


# --- closed-loop tables ---


def test_closed_loop_maps_stable_and_consistent(grid5_dcf, grid5_shift):
    table = closed_loop_maps(grid5_dcf, grid5_shift)
    assert is_stable_matrix(table.A, DISC)
    # rows are (y, u, z, v) and columns (r, w, nu, du), five channels each;
    # z = r - y and v = u + w hold for every injection
    T = table.eval_many(probe_points(DISC, 5))
    y, u, z, v = (T[:, 5 * k : 5 * k + 5] for k in range(4))
    assert np.allclose(z, np.eye(5, 20) - y, atol=1e-9)
    assert np.allclose(v, u + np.eye(5, 20, k=5), atol=1e-9)


def test_closed_loop_maps_matches_realized_loop_on_platoon():
    # chain of three vehicles with the platoon demo's gains and Q = 0: the
    # loop is stable, and the table must agree with the realized loop
    n = 3
    plant = simkit.build_network_plant(np.eye(n, k=-1, dtype=bool))
    F, _ = place_gains(plant, [0.6 + 0.03 * k for k in range(plant.order)])
    _, L = place_gains(plant, [0.45 + 0.03 * k for k in range(plant.order)])
    dcf = dcf_from_ss(plant, F, L)
    shift = youla_shift(dcf, RationalMatrix.zeros(n, n, DISC))
    table = closed_loop_maps(dcf, shift)
    ctrl = dimpl.assemble(dimpl.realize_rows(nrfsyn.nrf_from_dcf(dcf, shift)))
    loop = dimpl.closed_loop_state_matrix(plant, ctrl)
    assert loop.is_stable
    realized = loop.map(dimpl.LOOP_OUTPUTS, dimpl.TABLE_INPUTS)
    pts = probe_points(DISC, 5)
    assert np.max(np.abs(table.eval_many(pts) - realized.eval_many(pts))) < 1e-8


def test_affinity_in_q(grid5_dcf):
    """Closed-loop blocks are affine in the parameter: the midpoint table is
    the average of the endpoint tables."""
    qa = RationalMatrix.scalar(
        RationalFunction(Polynomial([0.4]), Polynomial([-0.3, 1.0])), 5, DISC
    )
    qb = RationalMatrix.scalar(
        RationalFunction(Polynomial([-0.2]), Polynomial([0.5, 1.0])), 5, DISC
    )
    qm = (qa + qb).scale(RationalFunction.const(0.5))
    pts = probe_points(DISC, 4)
    ma, mb, mm = (closed_loop_maps(grid5_dcf, youla_shift(grid5_dcf, q)).eval_many(pts)
                  for q in (qa, qb, qm))
    assert np.max(np.abs(mm - 0.5 * (ma + mb))) < 1e-8


def test_hinf_grid_norm_continuous_first_order():
    CONT = StabilityDomain.CONTINUOUS
    lowpass = RationalMatrix([[RationalFunction([1.0], [1.0, 1.0])]], CONT)
    assert hinf_grid_norm(lowpass, grid=16) == 1.0  # at s = 0
    assert hinf_grid_norm(StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]], CONT), grid=16) == 1.0
    # s/(s+1) reaches 1 only at s = infinity, the grid's last point
    highpass = RationalMatrix([[RationalFunction([0.0, 1.0], [1.0, 1.0])]], CONT)
    assert hinf_grid_norm(highpass, grid=16) == 1.0


def test_hinf_grid_norm_bounds_samples(grid5_dcf, grid5_shift):
    table = closed_loop_maps(grid5_dcf, grid5_shift)
    norm = hinf_grid_norm(table, grid=64)
    assert np.isfinite(norm) and norm >= 1.0  # the table contains identity blocks


@pytest.mark.parametrize("grid", [0, -3])
def test_hinf_grid_norm_rejects_empty_grid(grid):
    lag = StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], DISC)
    with pytest.raises(InvalidGrid):
        hinf_grid_norm(lag, grid=grid)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_closed_loop_maps_on_long_platoons(platoon, n):
    # the table's own audits (stable modes, cross-check against the loop
    # solved pointwise) are the assertion
    _, dcf, shift = platoon(n)
    table = factor.closed_loop_maps(dcf, shift)
    assert table.n_outputs == table.n_inputs == 4 * n
