"""Coprime factorizations, pole placement, Youla shifts, the closed-loop table."""

import functools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrfctl import dimpl, factor, nrfsyn, simkit, sstate
from nrfctl.errors import (
    DimensionMismatch,
    GainsNotStabilizing,
    InvalidGrid,
    InvariantViolation,
    NotDetectable,
    NotStabilizable,
    PlacementFailed,
    UnstableParameter,
)
from nrfctl.factor import (
    _log2_sigma_bounds,
    _peak_singular_value,
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
    ratmat_to_obj,
)
from nrfctl.sstate import StateSpace, match_multisets, ss_to_tf, tfm_to_ss

from helpers import pbh_at_every_copy, pencil_svds, unstable_eigs

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


def _platoon_targets(order, base):
    """The benchmark's platoon targets base + s k, s = min(0.03, 0.36 / (order - 1))."""
    return [base + min(0.03, 0.36 / (order - 1)) * k for k in range(order)]


def test_place_refuses_missed_distinct_targets(grid5_plant):
    # at fourteen vehicles the state-feedback eigenvalues miss their distinct
    # targets by 1.0e-5; the characteristic-polynomial fallback is only for
    # repeated targets, so the miss is reported
    plant = simkit.build_network_plant(np.eye(14, k=-1, dtype=bool))
    with pytest.raises(PlacementFailed):
        place_gains(plant, _platoon_targets(plant.order, 0.6))
    # README's `nrfctl dcf` targets still place, eigenvalue by eigenvalue
    targets = [0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7]
    F, _ = place_gains(grid5_plant, targets)
    got = np.linalg.eigvals(grid5_plant.A + grid5_plant.B @ F)
    assert match_multisets(got, targets[:7] + [0.8, 0.8], 1e-6)


def _mesh_incidence(k):
    """Bidirectional k x k mesh: each node hears its row and column neighbours."""
    inc = np.zeros((k * k, k * k), dtype=bool)
    for i in range(k * k):
        r, c = divmod(i, k)
        for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= rr < k and 0 <= cc < k:
                inc[i, rr * k + cc] = True
    return inc


def test_place_refuses_missed_targets_beside_coincident_untouched_modes():
    # on the 4 x 4 mesh four lag modes at 0.8 stay untouched, two of them
    # 1e-16 apart; that coincidence is no excuse for the distinct targets the
    # state feedback misses, so the characteristic-polynomial fallback is shut
    plant = simkit.build_network_plant(_mesh_incidence(4))
    targets = [0.6 + 0.3 * k / 32 for k in range(plant.order)]
    with pytest.raises(PlacementFailed, match="state-feedback"):
        place_gains(plant, targets)
    F, (placed, untouched) = factor._place_onesided(plant.A, plant.B, targets)
    assert len(untouched) == 4 and np.allclose(untouched, 0.8)
    got = np.linalg.eigvals(plant.A + plant.B @ F)
    assert not match_multisets(got, placed + untouched, 1e-6)


def test_place_complex_conjugate_targets():
    # a double integrator-like Jordan block: the pair is placed as a pair
    plant = StateSpace([[1.0, 1.0], [0.0, 1.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]], DISC)
    targets = [0.5 + 0.2j, 0.5 - 0.2j]
    F, L = place_gains(plant, targets)
    assert np.allclose(F, [[-0.29, -1.0]], atol=1e-12)
    assert match_multisets(np.linalg.eigvals(plant.A + plant.B @ F), targets, 1e-9)
    assert match_multisets(np.linalg.eigvals(plant.A + L @ plant.C), targets, 1e-9)


def test_place_conjugate_pair_beside_uncontrollable_modes(grid5_plant):
    # seven controllable states: the surplus pair 0.6 +- 0.2i is dropped for
    # the two lag modes at 0.8 that no input moves
    targets = [0.5 + 0.1j, 0.5 - 0.1j, 0.3, 0.35, 0.4, 0.45, 0.6 + 0.2j, 0.6 - 0.2j, 0.7]
    F, L = place_gains(grid5_plant, targets)
    placed, untouched = factor._place_onesided(grid5_plant.A, grid5_plant.B, targets)[1]
    assert placed == [0.5 + 0.1j, 0.5 - 0.1j, 0.3, 0.35, 0.4, 0.45, 0.7]
    assert np.allclose(untouched, [0.8, 0.8])
    got = np.linalg.eigvals(grid5_plant.A + grid5_plant.B @ F)
    assert match_multisets(got, placed + untouched, 1e-6)
    assert match_multisets(np.linalg.eigvals(grid5_plant.A + L @ grid5_plant.C), targets, 1e-6)


def test_place_refuses_a_conjugate_pair_across_staircase_blocks():
    # each observer block holds one state, so the pair 0.5 +- 0.2i has no block
    # to go to once the real target 0.3 is placed; the state feedback still
    # places it in the two-state block of input 2
    plant = StateSpace(np.diag([1.1, 1.2, 1.3]), [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], np.eye(3),
                       np.zeros((3, 2)), DISC)
    targets = [0.5 + 0.2j, 0.5 - 0.2j, 0.3]
    F, (placed, untouched) = factor._place_onesided(plant.A, plant.B, targets)
    assert match_multisets(np.linalg.eigvals(plant.A + plant.B @ F), targets, 1e-9)
    assert placed == targets and untouched == []
    with pytest.raises(PlacementFailed, match="conjugate target pair straddles a staircase block"):
        place_gains(plant, targets)


def test_place_input_validation():
    plant = StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], DISC)
    with pytest.raises(DimensionMismatch):
        place_gains(plant, [0.5, 0.5])
    with pytest.raises(PlacementFailed):
        place_gains(plant, [1.5])  # outside the unit disc
    with pytest.raises(NotStabilizable):
        place_gains(StateSpace([[2.0]], [[0.0]], [[1.0]], [[0.0]], DISC), [0.5])


def test_place_refuses_target_within_the_stability_margin(grid5_plant):
    # the same margin as every later stability verdict: dcf_from_ss would
    # refuse gains placed there with GainsNotStabilizing
    targets = [0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 1.0 - 5e-10]
    with pytest.raises(PlacementFailed):
        place_gains(grid5_plant, targets)
    cont = StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]], StabilityDomain.CONTINUOUS)
    with pytest.raises(PlacementFailed):
        place_gains(cont, [-5e-10])


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
    with pytest.raises(GainsNotStabilizing, match=r"A \+ LC"):
        dcf_from_ss(plant, [[-0.9]], [[0.0]])


def test_dcf_checks_its_identities_clear_of_the_plant_poles():
    # A = 2 R(theta) puts a pole exactly on the first default probe point,
    # where Mt is singular to rounding (condition 9e15): the identities are
    # read at the probe points moved clear of the poles of Mt^-1 Nt
    theta = 2 * np.pi * 0.37 / 20
    A = 2 * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    plant = StateSpace(A, np.eye(2), np.eye(2), np.zeros((2, 2)), DISC)
    assert np.min(np.abs(np.linalg.eigvals(A) - probe_points(DISC, 20)[0])) < 1e-6
    dcf = dcf_from_ss(plant, *place_gains(plant, [0.3, 0.4]))
    pts = probe_points(DISC, 5, avoid=np.linalg.eigvals(A))
    assert np.max(np.abs(dcf.plant().eval_many(pts) - plant.eval_many(pts))) < 1e-8


def _count_calls(monkeypatch, owner, name, seen):
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        seen[name] = seen.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def _fresh(plant):
    """A copy of plant that keeps no spectral fact yet: session fixtures and
    the cached platoon gains share warm ones."""
    return StateSpace(plant.A, plant.B, plant.C, plant.D, plant.domain)


def _calls(monkeypatch, run, watched):
    """The calls of each watched function that ``run`` makes, and its PBH
    pencil SVDs, if any, under "pencil svd"."""
    seen = {}
    for owner, name in watched:
        _count_calls(monkeypatch, owner, name, seen)
    pencils = pencil_svds(monkeypatch)
    run()
    monkeypatch.undo()
    return seen | ({"pencil svd": len(pencils)} if pencils else {})


def test_dcf_from_ss_decides_each_fact_once(platoon_gains, monkeypatch):
    # on a plant that keeps no fact yet: eig(A) once, for the PBH tests and the
    # probe points alike, and eig(A + BF) with eig(A + LC) in one call; one
    # pencil SVD per test at the n integrators, all at 1; one probe contour;
    # both Bézout realizations in one batched solve, and one solve for the
    # plant quotient Mt^-1 Nt
    plant, F, L = platoon_gains(4)
    watched = ((np.linalg, "eigvals"), (StateSpace, "eval_many"),
               (factor, "_eval_stacked"), (np.linalg, "solve"), (factor, "probe_points"))
    cold = _fresh(plant)
    assert _calls(monkeypatch, lambda: dcf_from_ss(cold, F, L), watched) == {
        "eigvals": 2, "pencil svd": 2, "_eval_stacked": 1, "solve": 2, "probe_points": 1}
    # place_gains decided eig(A) and the PBH pencil spectra on the same plant object
    placed = _fresh(plant)
    place_gains(placed, _platoon_targets(placed.order, 0.6))
    assert _calls(monkeypatch, lambda: dcf_from_ss(placed, F, L), watched) == {
        "eigvals": 1, "_eval_stacked": 1, "solve": 2, "probe_points": 1}
    # and a second factorization of it reuses the probe contour too
    assert _calls(monkeypatch, lambda: dcf_from_ss(placed, F, L), watched) == {
        "eigvals": 1, "_eval_stacked": 1, "solve": 2}


@pytest.mark.parametrize("plant, error", [
    (StateSpace([[2.0]], [[0.0]], [[1.0]], [[0.0]], DISC), NotStabilizable),
    (StateSpace([[2.0]], [[1.0]], [[0.0]], [[0.0]], DISC), NotDetectable),
], ids=["not-stabilizable", "not-detectable"])
def test_a_failing_pbh_verdict_raises_on_every_call(plant, error):
    # the pencil spectra are kept on the plant, and each call reads the verdict
    # off them again
    for _ in range(2):
        with pytest.raises(error):
            place_gains(plant, [0.5])
        with pytest.raises(error):
            dcf_from_ss(plant, [[-1.5]], [[-1.5]])
    assert sstate.pbh_failure(plant) is not None
    assert sstate.pbh_failure(plant) == sstate.pbh_failure(_fresh(plant))


def test_a_factorization_keeps_its_plant_and_bezout_residual(monkeypatch):
    seen = {}
    _count_calls(monkeypatch, RationalMatrix, "eval_many", seen)
    dcf = simkit.grid5_dcf()  # from_factors audits the residual of the given factors
    residual = dcf.bezout_residual()
    monkeypatch.undo()
    assert seen == {"eval_many": 8}  # each factor once
    assert dcf.bezout_residual() == residual < 1e-8
    assert dcf.plant() is dcf.plant()


def test_place_gains_refuses_a_target_that_is_not_finite(grid5_plant):
    targets = [0.1, 0.2, float("nan"), 0.3, 0.3, 0.3, 0.3, 0.3, 0.3]
    with pytest.raises(PlacementFailed, match=r"target \(nan\+0j\) is not finite"):
        place_gains(grid5_plant, targets)
    with pytest.raises(PlacementFailed, match=r"target \(inf\+0j\) is not finite"):
        place_gains(StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], DISC), [float("inf")])


def _record(monkeypatch, owner, name):
    """Patch owner.name to record each call's arguments and result."""
    calls, original = [], getattr(owner, name)

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(owner, name, recording)
    return calls


def _padded_right(dcf):
    """dcf.json with one decoupled stable state (at 0.5, unobserved) added to
    ``right``, so the two realizations differ in order."""
    obj = dcf_to_obj(dcf)
    r = dcf.right
    A = np.block([[r.A, np.zeros((r.order, 1))], [np.zeros((1, r.order)), 0.5 * np.eye(1)]])
    padded = StateSpace(A, np.vstack([r.B, np.ones((1, r.n_inputs))]),
                        np.hstack([r.C, np.zeros((r.n_outputs, 1))]), r.D, r.domain)
    obj["right"] = sstate.ss_to_obj(padded)
    return json.loads(json.dumps(obj))


def _eval_alone(sys, pts):
    """D + C (x_k I - A)^-1 B from one solve of sys's own pencils, the
    reference for the bits of the shared evaluation kernel."""
    x = np.asarray(pts, dtype=complex)[:, None, None]
    rhs = np.broadcast_to(sys.B, (x.shape[0],) + sys.B.shape)
    return sys.D + sys.C @ np.linalg.solve(x * np.eye(sys.order) - sys.A, rhs)


@pytest.mark.parametrize("case", [*(f"chain-{n}" for n in range(2, 9)), "grid5-numeric",
                                  "grid5-closed-form", "grid5-shift", "padded-right"])
def test_check_inverse_values_have_the_bits_of_separate_evaluations(
        case, platoon_gains, grid5_plant, grid5_q, monkeypatch):
    if case.startswith("chain-"):
        run = functools.partial(dcf_from_ss, *platoon_gains(int(case[6:])))
    elif case == "grid5-numeric":
        run = functools.partial(_numerically_factored_grid5, grid5_plant)
    elif case == "grid5-closed-form":
        run = simkit.grid5_dcf  # from_factors runs validate
    elif case == "grid5-shift":
        run = functools.partial(youla_shift, simkit.grid5_dcf(), grid5_q)
    else:
        run = functools.partial(dcf_from_obj, _padded_right(dcf_from_ss(*platoon_gains(3))))
    audits = _record(monkeypatch, factor, "audit")
    checks = _record(monkeypatch, factor, "_check_inverse")
    dcf = run()
    monkeypatch.undo()
    [((left, right, _), kwargs, (L, R))] = checks
    pts = kwargs.get("points")  # the contour the check was given, else its default
    pts = probe_points(left.domain, 20) if pts is None else pts
    for got, sys in ((L, left), (R, right)):
        assert got.tobytes() == sys.eval_many(pts).tobytes() == _eval_alone(sys, pts).tobytes()
    if case == "padded-right":
        assert dcf.right.order == dcf.left.order + 1
        # the residuals the audits read, against those of separate evaluations
        m = dcf.shape[1]
        want = {"bezout-identity": L @ R - np.eye(L.shape[1]),
                "plant-quotients-agree": np.linalg.solve(L[:, m:, m:], -L[:, m:, :m])
                - R[:, m:, :m] @ np.linalg.inv(R[:, :m, :m])}
        got = {args[0]: args[1] for args, _, _ in audits if args[0] in want}
        assert {k: v.tobytes() for k, v in got.items()} == {k: v.tobytes() for k, v in want.items()}


def test_dcf_from_ss_and_validate_pick_the_same_probe_points(monkeypatch):
    # the plant of test_dcf_checks_its_identities_clear_of_the_plant_poles:
    # dcf_from_ss avoids the plant's unstable modes, validate every pole of
    # its realization of Mt^-1 Nt
    theta = 2 * np.pi * 0.37 / 20
    A = 2 * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    plant = StateSpace(A, np.eye(2), np.eye(2), np.zeros((2, 2)), DISC)
    gains = place_gains(plant, [0.3, 0.4])
    picked = _record(monkeypatch, factor, "probe_points")
    dcf_from_ss(plant, *gains).validate()
    monkeypatch.undo()
    [(_, _, ours), (_, _, validated)] = picked
    assert np.asarray(ours).tobytes() == np.asarray(validated).tobytes()
    assert ours[0] != probe_points(DISC, 20)[0]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: on these draws the rational factors that ss_to_tf "
                   "reads off the realizations miss the Bezout identity (6.6e-6 and 6.7e-7)")
@pytest.mark.parametrize("seed, n, m, p", [(1578, 3, 1, 1), (7875, 3, 2, 1)])
def test_rational_factors_of_the_known_failing_draws(seed, n, m, p):
    plant = make_plant(seed, n, m, p)
    dcf = dcf_from_ss(plant, *place_gains(plant, spread_targets(n)))
    assert dcf.bezout_residual() < 1e-8


@pytest.mark.parametrize("name", [*(f"chain-{n}" for n in range(2, 9)), "grid5", "cyclic-4",
                                  "mesh-3x3"])
def test_pbh_at_distinct_modes_equals_the_test_at_every_copy(name, grid5_plant):
    if name == "grid5":
        plant = grid5_plant
    elif name == "cyclic-4":
        plant = simkit.build_network_plant([[0, 0, 1, 1], [0, 0, 1, 0], [1, 1, 0, 1], [0, 1, 1, 0]])
    elif name == "mesh-3x3":
        plant = simkit.build_network_plant(_mesh_incidence(3))
    else:
        n = int(name.split("-")[1])
        plant = simkit.build_network_plant(np.eye(n, k=-1, dtype=bool))
    want = (pbh_at_every_copy(plant.A, plant.B, DISC),
            pbh_at_every_copy(plant.A.T, plant.C.T, DISC))
    assert want == (True, True)
    assert sstate.pbh_failure(plant) is None


def test_pbh_at_a_repeated_mode():
    # two integrators at exactly 1: one input reaches only one of them
    e1 = np.array([[1.0], [0.0]])
    plant = StateSpace(np.eye(2), e1, np.eye(2), np.zeros((2, 1)), DISC)
    assert sstate.pbh_failure(plant) == "stabilizable"
    with pytest.raises(NotStabilizable):
        place_gains(plant, [0.5, 0.5])
    with pytest.raises(NotStabilizable):
        dcf_from_ss(plant, np.zeros((1, 2)), np.zeros((2, 2)))
    dual = StateSpace(np.eye(2), np.eye(2), e1.T, np.zeros((1, 2)), DISC)
    assert sstate.pbh_failure(dual) == "detectable"
    with pytest.raises(NotDetectable):
        place_gains(dual, [0.5, 0.5])
    with pytest.raises(NotDetectable):
        dcf_from_ss(dual, np.zeros((2, 2)), np.zeros((2, 1)))
    # a 2 x 2 Jordan block at 1 is reached through its last state only
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    for b, reached in ((np.array([[0.0], [1.0]]), True), (e1, False)):
        jordan_plant = StateSpace(jordan, b, np.eye(2), np.zeros((2, 1)), DISC)
        assert (sstate.pbh_failure(jordan_plant) != "stabilizable") is reached


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


def _textbook_factors(plant, F, L) -> dict:
    """The eight factors, each on its own realization from (A, B, C, F, L)."""
    A, B, C, dom = plant.A, plant.B, plant.C, plant.domain
    AF, AL = A + B @ F, A + L @ C
    Im, Ip = np.eye(B.shape[1]), np.eye(C.shape[0])
    Zpm, Zmp = np.zeros((C.shape[0], B.shape[1])), np.zeros((B.shape[1], C.shape[0]))
    return {
        "M": StateSpace(AF, B, F, Im, dom), "N": StateSpace(AF, B, C, Zpm, dom),
        "Mt": StateSpace(AL, L, C, Ip, dom), "Nt": StateSpace(AL, B, C, Zpm, dom),
        "X": StateSpace(AL, L, F, Zmp, dom), "Y": StateSpace(AL, -B, F, Im, dom),
        "Xt": StateSpace(AF, L, F, Zmp, dom), "Yt": StateSpace(AF, L, -C, Ip, dom),
    }


@pytest.mark.parametrize("case", [str(n) for n in range(2, 9)] + ["grid5-readme", "grid5-default"])
def test_views_of_a_synthesized_dcf_match_their_own_realizations(platoon_gains, grid5_plant, case):
    # each rational view of a dcf_from_ss factorization, as JSON, is ss_to_tf
    # of that factor's own realization: the views are exact signed slices
    if case.startswith("grid5"):
        plant = grid5_plant
        targets = ([0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7] if case == "grid5-readme"
                   else default_targets(plant.order, plant.domain))
        F, L = place_gains(plant, targets)
    else:
        plant, F, L = platoon_gains(int(case))
    dcf = dcf_from_ss(plant, F, L)
    for name, sys in _textbook_factors(plant, F, L).items():
        got, want = ratmat_to_obj(getattr(dcf, name)), ratmat_to_obj(ss_to_tf(sys))
        assert json.dumps(got) == json.dumps(want), name


def test_dcf_grid5_invariants(grid5_dcf):
    assert grid5_dcf.bezout_residual() < 1e-8
    for name in ("Y", "Yt", "M", "Mt"):
        gain = getattr(grid5_dcf, name).gain_at_infinity()
        assert np.allclose(gain, np.eye(gain.shape[0]), atol=1e-10)


def test_dcf_json_roundtrip(tmp_path, grid5_dcf):
    # the grid5 factors are given in closed form, and a load does not keep
    # them: the realizations come back bit for bit, and the rational keys
    # written after a load are the realizations' views
    path = tmp_path / "dcf.json"
    save_dcf(grid5_dcf, str(path))
    back = load_dcf(str(path))
    assert back.bezout_residual() < 1e-8
    obj, again = dcf_to_obj(grid5_dcf), dcf_to_obj(back)
    assert [json.dumps(again[k]) for k in ("left", "right", "shape")] == [
        json.dumps(obj[k]) for k in ("left", "right", "shape")]
    assert all(again[name] == ratmat_to_obj(ss_to_tf(grid5_dcf.realized(name)))
               for name in ("M", "N", "Mt", "Nt", "X", "Y", "Xt", "Yt"))
    assert dcf_to_obj(dcf_from_obj(again)) == again


def _continuous_dcf():
    plant = StateSpace([[0.0, 1.0], [-2.0, 0.3]], np.eye(2), np.eye(2), np.zeros((2, 2)),
                       StabilityDomain.CONTINUOUS)
    return dcf_from_ss(plant, *place_gains(plant, [-1.0, -2.0]))


@pytest.mark.parametrize("domain, pole", [("discrete", 1.5), ("continuous", 0.5)])
def test_validate_rejects_one_unstable_entry(tmp_path, grid5_dcf, domain, pole):
    # every other entry of every factor is stable; one off-diagonal entry of
    # X, then of M, gets a single unstable pole.  An unstable left factor
    # shows in the eigenvalues of the left realization; the right realization
    # is the left one's inverse, so an unstable right factor shows as a
    # Bézout residual of the given factors instead.  An improper entry is
    # refused before anything is realized.
    unstable = {"num": [1.0], "den": [-pole, 1.0]}
    improper = {"num": [0.0, 0.0, 1.0], "den": [-0.5, 1.0]}
    cases = [("X", unstable, "factor-stable"), ("M", unstable, "bezout-identity"),
             ("X", improper, "factor-proper")]
    names = ("M", "N", "Mt", "Nt", "X", "Y", "Xt", "Yt")
    for k, (name, entry, invariant) in enumerate(cases):
        obj = dcf_to_obj(grid5_dcf if domain == "discrete" else _continuous_dcf())
        obj[name]["entries"][0][1] = entry
        with pytest.raises(InvariantViolation) as exc:
            factor.DoublyCoprime.from_factors(**{key: ratmat_from_obj(obj[key]) for key in names})
        assert exc.value.invariant == invariant
        if invariant == "bezout-identity":
            assert "tolerance 1e-08" in str(exc.value)
        # a file with the rational factors alone is read through them
        path = tmp_path / f"dcf-{k}.json"
        path.write_text(json.dumps({key: obj[key] for key in names}))
        with pytest.raises(InvariantViolation) as exc:
            load_dcf(str(path))
        assert exc.value.invariant == invariant


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
    # K_Q = YQ^-1 XQ = XtQ YtQ^-1 pointwise, and the pair implements it; the
    # probes clear the eigenvalues of the pair's row systems
    pts, _ = grid5_pair.probe_rows(20)
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
    assert not unstable_eigs(table.A, DISC)
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
    qm = RationalMatrix.scalar(RationalFunction.const(0.5), 5, DISC) @ (qa + qb)
    pts = probe_points(DISC, 4)
    ma, mb, mm = (closed_loop_maps(grid5_dcf, youla_shift(grid5_dcf, q)).eval_many(pts)
                  for q in (qa, qb, qm))
    assert np.max(np.abs(mm - 0.5 * (ma + mb))) < 1e-8


def test_hinf_grid_norm_continuous_first_order():
    CONT = StabilityDomain.CONTINUOUS
    lowpass = tfm_to_ss(RationalMatrix([[RationalFunction([1.0], [1.0, 1.0])]], CONT))
    assert hinf_grid_norm(lowpass, grid=16) == 1.0  # at s = 0
    assert hinf_grid_norm(StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]], CONT), grid=16) == 1.0
    # s/(s+1) reaches 1 only at s = infinity, the grid's last point
    highpass = tfm_to_ss(RationalMatrix([[RationalFunction([0.0, 1.0], [1.0, 1.0])]], CONT))
    assert hinf_grid_norm(highpass, grid=16) == 1.0


def test_hinf_grid_norm_bounds_samples(grid5_dcf, grid5_shift):
    table = closed_loop_maps(grid5_dcf, grid5_shift)
    norm = hinf_grid_norm(table, grid=64)
    assert np.isfinite(norm) and norm >= 1.0  # the table contains identity blocks


def _full_stack_peak(vals):
    """The grid norm's reduction as one batched SVD of every point."""
    return float(np.max(np.linalg.svd(vals, compute_uv=False)[:, 0], initial=0.0))


def _stable_map(seed, n, outputs, inputs, domain):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    if n and domain is DISC:
        A *= rng.uniform(0.1, 0.95) / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-3)
    elif n:
        A -= (np.max(np.linalg.eigvals(A).real) + rng.uniform(0.05, 2.0)) * np.eye(n)
    return StateSpace(A, rng.standard_normal((n, inputs)), rng.standard_normal((outputs, n)),
                      rng.standard_normal((outputs, inputs)), domain)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(0, 4),
    outputs=st.integers(1, 5),
    inputs=st.integers(1, 5),
    grid=st.integers(1, 64),
    continuous=st.booleans(),
)
@example(seed=3, n=0, outputs=2, inputs=4, grid=16, continuous=False)  # D only, wide
@example(seed=4, n=3, outputs=5, inputs=2, grid=64, continuous=True)  # tall
@example(seed=5, n=4, outputs=3, inputs=3, grid=64, continuous=False)  # square
def test_hinf_grid_norm_equals_the_full_stack_svd(seed, n, outputs, inputs, grid, continuous):
    domain = StabilityDomain.CONTINUOUS if continuous else DISC
    H = _stable_map(seed, n, outputs, inputs, domain)
    theta = np.pi * np.arange(grid + 1) / grid
    if continuous:
        vals = np.concatenate([H.eval_many(1j * np.tan(theta[:-1] / 2.0)), H.D[None] + 0j])
    else:
        vals = H.eval_many(np.exp(1j * theta))
    assert hinf_grid_norm(H, grid) == _full_stack_peak(vals)


@pytest.mark.parametrize("shape", [(6, 3), (3, 6), (4, 4)], ids=["tall", "wide", "square"])
@pytest.mark.parametrize("scale", [1e-200, 1e200, None], ids=["1e-200", "1e200", "mixed"])
def test_peak_singular_value_keeps_extreme_scales(shape, scale):
    rng = np.random.default_rng(11)
    vals = rng.standard_normal((65, *shape)) + 1j * rng.standard_normal((65, *shape))
    # None: points up to 1e400 apart in one stack
    vals *= scale or 10.0 ** rng.uniform(-200.0, 200.0, size=(65, 1, 1))
    assert _peak_singular_value(vals) == _full_stack_peak(vals)


def test_peak_singular_value_of_zero_and_equal_stacks():
    assert _peak_singular_value(np.zeros((9, 3, 2), dtype=complex)) == 0.0
    point = np.random.default_rng(12).standard_normal((4, 5)) + 0j
    vals = np.repeat(point[None], 33, axis=0)
    assert _peak_singular_value(vals) == _full_stack_peak(vals)


def test_peak_singular_value_raises_on_nan_like_the_full_svd():
    vals = np.random.default_rng(13).standard_normal((17, 3, 3)) + 0j
    vals[5, 1, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        _full_stack_peak(vals)
    with pytest.raises(np.linalg.LinAlgError):
        _peak_singular_value(vals)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    narrow=st.integers(1, 64),
    extra=st.integers(0, 16),
    tall=st.booleans(),
    kind=st.sampled_from(["general", "rank-one", "equal-top", "zero"]),
    exponents=st.lists(st.integers(-1000, 1000), min_size=1, max_size=4),
)
@example(seed=0, narrow=1, extra=0, tall=True, kind="general", exponents=[0])
@example(seed=1, narrow=64, extra=16, tall=False, kind="rank-one", exponents=[1000, -1000])
@example(seed=2, narrow=8, extra=0, tall=True, kind="equal-top", exponents=[-1000, 0, 1000])
@example(seed=3, narrow=5, extra=3, tall=False, kind="zero", exponents=[0])
def test_log2_sigma_bounds_never_fall_below_the_svd(seed, narrow, extra, tall, kind, exponents):
    """Three squarings after the exact per-point scaling need no rescaling:
    at every scale numpy holds, each bound stays above the largest singular
    value to within the grid norm's rounding tolerance."""
    rng = np.random.default_rng(seed)
    shape = (len(exponents), narrow + extra, narrow)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind == "rank-one":
        vals = vals[:, :, :1] @ vals[:, :1, :].conj()
    elif kind == "equal-top":
        vals = np.linalg.qr(vals)[0]  # orthonormal columns: every singular value is 1
    elif kind == "zero":
        vals[:] = 0.0
    vals = np.ldexp(vals.view(float), np.array(exponents)[:, None, None]).view(complex)
    if not tall:
        vals = vals.swapaxes(1, 2)
    bounds = _log2_sigma_bounds(vals)
    with np.errstate(divide="ignore"):
        sigma = np.log2(np.linalg.svd(vals, compute_uv=False)[:, 0])
    if kind == "zero":
        assert np.all(bounds == -np.inf)
    else:
        assert np.all(bounds >= sigma + np.log2(1.0 - factor.GRID_NORM_TOL))


@pytest.mark.parametrize("grid", [0, -3])
def test_hinf_grid_norm_rejects_empty_grid(grid):
    lag = StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], DISC)
    with pytest.raises(InvalidGrid):
        hinf_grid_norm(lag, grid=grid)


@pytest.mark.parametrize("domain", [DISC, StabilityDomain.CONTINUOUS], ids=["disc", "cont"])
def test_hinf_grid_norm_of_a_map_without_outputs_or_inputs_is_zero(domain):
    no_outputs = StateSpace([[0.5]], np.ones((1, 2)), np.zeros((0, 1)), np.zeros((0, 2)), domain)
    no_inputs = StateSpace([[0.5]], np.zeros((1, 0)), np.ones((2, 1)), np.zeros((2, 0)), domain)
    assert hinf_grid_norm(no_outputs, 16) == hinf_grid_norm(no_inputs, 16) == 0.0


def _grid_points(grid):
    return np.exp(1j * np.pi * np.arange(grid + 1) / grid)


SCREENED_LOOPS = ["grid5-check", "grid5-demo"] + [f"chain{n}" for n in range(2, 9)]


@pytest.fixture(scope="module")
def screened_loop(grid5_pair, grid5_plant, grid5_ctrl, platoon):
    """screened_loop(name) -> a table whose grid norm the CLI or the benchmark
    prints: grid5's 16-block check table and 12-block demo table, and the
    chain check tables at n = 2..8 (benchmark targets, Q = 0)."""
    def build(name):
        if name == "grid5-check":
            loop = dimpl.verify_internal_stability(grid5_pair, grid5_plant).loop
            return loop.map(dimpl.LOOP_OUTPUTS, dimpl.TABLE_INPUTS)
        if name == "grid5-demo":
            loop = dimpl.closed_loop_state_matrix(grid5_plant, grid5_ctrl)
            return loop.map(dimpl.LOOP_OUTPUTS, ("r", "w", "nu"))
        plant, dcf, shift = platoon(int(name.removeprefix("chain")))
        ctrl = dimpl.assemble(dimpl.realize_rows(nrfsyn.nrf_from_dcf(dcf, shift)))
        loop = dimpl.closed_loop_state_matrix(plant, ctrl)
        return loop.map(dimpl.LOOP_OUTPUTS, dimpl.TABLE_INPUTS)
    return build


@pytest.mark.parametrize("name", SCREENED_LOOPS)
def test_screened_grid_norm_equals_the_full_stack_svd(screened_loop, name):
    table = screened_loop(name)
    assert hinf_grid_norm(table, 256) == _full_stack_peak(table.eval_many(_grid_points(256)))


@pytest.mark.parametrize("name", SCREENED_LOOPS)
def test_grid_screen_lies_within_its_allowance(screened_loop, name):
    table = screened_loop(name)
    screen, allowance = factor._grid_screen(table, _grid_points(256))
    gap = screen - table.eval_many(_grid_points(256))
    assert np.sqrt(np.max(np.einsum("kij,kij->k", gap.conj(), gap).real)) <= allowance


def _count_eval_points(monkeypatch):
    evaluate, seen = StateSpace.eval_many, []

    def counting_eval_many(self, points):
        seen.append(np.size(points))
        return evaluate(self, points)

    monkeypatch.setattr(StateSpace, "eval_many", counting_eval_many)
    return seen


def test_grid_norm_of_the_check_table_evaluates_few_points(screened_loop, monkeypatch):
    table = screened_loop("grid5-check")
    seen = _count_eval_points(monkeypatch)
    norm = hinf_grid_norm(table, 256)
    monkeypatch.undo()
    assert sum(seen) <= 8  # of 257 points
    assert norm == _full_stack_peak(table.eval_many(_grid_points(256)))


@pytest.mark.parametrize("name", ["grid5-check", "grid5-demo"])
def test_grid_norm_runs_few_svds(screened_loop, name, monkeypatch):
    table = screened_loop(name)
    svd, seen = np.linalg.svd, []

    def counting_svd(a, *args, **kwargs):
        seen.append(1 if a.ndim == 2 else len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    norm = hinf_grid_norm(table, 256)
    monkeypatch.undo()
    assert sum(seen) <= 8  # of 257 points
    assert norm == _full_stack_peak(table.eval_many(_grid_points(256)))


def test_grid_norm_evaluates_every_point_when_the_screen_misses(screened_loop, monkeypatch):
    table = screened_loop("grid5-check")
    screen, allowance = factor._grid_screen(table, _grid_points(256))
    monkeypatch.setattr(factor, "_grid_screen", lambda H, points: (0.5 * screen, allowance))
    seen = _count_eval_points(monkeypatch)
    norm = hinf_grid_norm(table, 256)
    monkeypatch.undo()
    assert sum(seen) == 1 + 257  # the first top misses: every point is evaluated
    assert norm == _full_stack_peak(table.eval_many(_grid_points(256)))


def test_grid_norm_of_a_pole_on_the_grid_raises_like_the_full_evaluation():
    integrator = StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]], DISC)
    assert factor._grid_screen(integrator, _grid_points(16)) is None  # I - A^N is singular
    with pytest.raises(np.linalg.LinAlgError) as full:
        integrator.eval_many(_grid_points(16))
    with pytest.raises(np.linalg.LinAlgError, match=str(full.value)):
        hinf_grid_norm(integrator, 16)


def test_screened_grid_norm_of_an_unstable_map_equals_the_full_stack_svd():
    unstable = StateSpace([[1.5]], [[1.0]], [[1.0]], [[0.0]], DISC)
    assert factor._grid_screen(unstable, _grid_points(256)) is not None
    assert hinf_grid_norm(unstable, 256) == _full_stack_peak(unstable.eval_many(_grid_points(256)))


@pytest.mark.parametrize("n", [6, 7, 8])
def test_closed_loop_maps_on_long_platoons(platoon, n):
    # the table's own audits (stable modes, cross-check against the loop
    # solved pointwise) are the assertion
    _, dcf, shift = platoon(n)
    table = factor.closed_loop_maps(dcf, shift)
    assert table.n_outputs == table.n_inputs == 4 * n


@pytest.mark.parametrize("n", [9, 10, 12])
def test_realized_chain_on_long_platoons(n):
    # the benchmark's targets, placed by the one-sided staircase without
    # place_gains' refusal of the missed ones: every stage audits the
    # realizations, so the chain passes where rational copies of the factors
    # failed their Bézout check at n = 10
    plant = simkit.build_network_plant(np.eye(n, k=-1, dtype=bool))
    F, _ = factor._place_onesided(plant.A, plant.B, _platoon_targets(plant.order, 0.6))
    Lt, _ = factor._place_onesided(plant.A.T, plant.C.T, _platoon_targets(plant.order, 0.45))
    L = Lt.T
    dcf = dcf_from_ss(plant, F, L)
    shift = youla_shift(dcf, RationalMatrix.zeros(n, n, DISC))
    rows = dimpl.realize_rows(nrfsyn.nrf_from_dcf(dcf, shift))
    assert [r.order for r in rows] == [2 * n - 1] + [2 * k + 1 for k in range(1, n)]
    loop = dimpl.closed_loop_state_matrix(plant, dimpl.assemble(rows))
    placed = np.concatenate([np.linalg.eigvals(plant.A + plant.B @ F),
                             np.linalg.eigvals(plant.A + L @ plant.C)])
    assert abs(np.max(np.abs(loop.eigenvalues())) - np.max(np.abs(placed))) <= 1e-12
