"""State-space utilities: realizations, staircases, PBH tests, pole extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrfctl import simkit, sstate
from nrfctl.errors import DimensionMismatch, InvariantViolation, NotProper, NrfError
from nrfctl.factor import _probe_contour, place_gains
from nrfctl.nrfsyn import nrf_from_dcf
from nrfctl.ratmat import (
    Polynomial,
    RationalFunction,
    RationalMatrix,
    StabilityDomain,
    probe_points,
    save_ratmat,
)
from nrfctl.sstate import (
    StateSpace,
    ctrb_staircase,
    finite_norm,
    left_quotient,
    load_ss,
    match_multisets,
    _faddeev_tf,
    minimal,
    obsv_staircase,
    pbh_failure,
    save_ss,
    ss_from_obj,
    ss_to_obj,
    ss_to_tf,
    stack_outputs,
    tf_to_ss_obsv,
    tfm_to_ss,
    unstable_map_poles,
)

from helpers import (
    pbh_at_every_copy,
    pencil_ranks,
    pencil_svds,
    poles_tested_at_every_pole,
    tfm_unstable_poles,
    transmission_zero_rank_test,
    unstable_eigs,
)

DISC = StabilityDomain.DISCRETE
CONT = StabilityDomain.CONTINUOUS


def lag(num, pole):
    return RationalFunction(Polynomial([num]), Polynomial([-pole, 1.0]))


def test_eval_matches_formula():
    sys = StateSpace([[0.5, 1.0], [0.0, 0.3]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]], DISC)
    z = 2.0 + 0.5j
    want = np.array([[1.0, 0.0]]) @ np.linalg.solve(
        z * np.eye(2) - np.array([[0.5, 1.0], [0.0, 0.3]]), np.array([[0.0], [1.0]])
    )
    assert np.allclose(sys.eval(z), want)


def test_zero_order_system():
    sys = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((1, 0)), [[3.0, -1.0]], DISC)
    assert sys.order == 0
    assert np.allclose(sys.eval(1.0 + 1.0j), [[3.0, -1.0]])
    assert unstable_eigs(sys.A, DISC) == ()


def test_eval_many_matches_pointwise_solve():
    rng = np.random.default_rng(3)
    A, B, C, D = (rng.normal(size=s) for s in ((4, 4), (4, 3), (2, 4), (2, 3)))
    sys = StateSpace(0.3 * A, B, C, D, DISC)
    points = [2.0 + 0.5j, -1.5, 1j, 3.0 - 2.0j]
    got = sys.eval_many(points)
    assert got.shape == (4, 2, 3)
    for k, z in enumerate(points):
        want = D + C @ np.linalg.solve(z * np.eye(4) - 0.3 * A, B)
        np.testing.assert_allclose(got[k], want, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(sys.eval(z), got[k], rtol=1e-13, atol=1e-15)
    # a grid long enough to span several blocks of points
    grid = np.exp(1j * np.linspace(0.0, np.pi, 800))
    want = np.array([D + C @ np.linalg.solve(z * np.eye(4) - 0.3 * A, B) for z in grid])
    np.testing.assert_allclose(sys.eval_many(grid), want, rtol=1e-12, atol=1e-14)
    static = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((1, 0)), [[3.0, -1.0]], DISC)
    assert np.array_equal(static.eval_many(points), np.tile([[3.0, -1.0]], (4, 1, 1)))


def test_tf_to_ss_obsv_roundtrip():
    row = RationalMatrix([[lag(1.0, 0.5), lag(2.0, -0.3)]], DISC)
    sys = tf_to_ss_obsv(row)
    assert sys.order == 2
    back = ss_to_tf(sys)
    for z in (1.5 + 0.2j, 2.0 - 1.0j):
        assert np.allclose(back.eval(z), row.eval(z), atol=1e-10)


def _entrywise_tf(sys):
    """Coefficients of every entry reduced by its own ``minimal`` call."""
    out = []
    for i in range(sys.n_outputs):
        for j in range(sys.n_inputs):
            sub = minimal(StateSpace(sys.A, sys.B[:, [j]], sys.C[[i], :],
                                     sys.D[[i], :][:, [j]], sys.domain))
            f = _faddeev_tf(sub.A, sub.B[:, 0], sub.C[0, :], float(sub.D[0, 0]))
            out.append((f.num.coeffs, f.den.coeffs))
    return out


def _coeffs(mat):
    return [(e.num.coeffs, e.den.coeffs) for row in mat.entries for e in row]


@pytest.mark.parametrize("n", range(2, 9))
def test_ss_to_tf_row_staircase_is_exact_on_platoon_factor(n):
    # the A + BF factor [M; N] of a chain of n vehicles, placed at the
    # benchmark's feedback targets; sharing a row's observability staircase
    # must not change one bit of any coefficient
    plant = simkit.build_network_plant(np.eye(n, k=-1, dtype=bool))
    order = plant.order
    step = min(0.03, 0.36 / (order - 1))
    F, _ = place_gains(plant, [0.6 + step * k for k in range(order)])
    sys = StateSpace(plant.A + plant.B @ F, plant.B, np.vstack([F, plant.C]),
                     np.vstack([np.eye(n), np.zeros((n, n))]), DISC)
    assert _coeffs(ss_to_tf(sys)) == _entrywise_tf(sys)


def test_ss_to_tf_row_staircase_is_exact_on_random_mimo():
    rng = np.random.default_rng(17)
    sys = StateSpace(0.4 * rng.normal(size=(8, 8)), rng.normal(size=(8, 3)),
                     rng.normal(size=(4, 8)), rng.normal(size=(4, 3)), DISC)
    # one output row sees only part of the state, so its staircase truncates
    C = np.array(sys.C)
    C[1] = 0.0
    C[1, 0] = 1.0
    A = np.array(sys.A)
    A[0, 1:] = 0.0
    sys = StateSpace(A, sys.B, C, sys.D, DISC)
    got = ss_to_tf(sys)
    assert _coeffs(got) == _entrywise_tf(sys)
    assert got.entry(1, 0).den.degree == 1


@pytest.mark.parametrize("n", range(2, 9))
def test_ss_to_tf_degrees_are_staircase_orders_on_platoon(platoon, n):
    # the staircase is the one place common factors leave: every nonzero
    # entry read off the Bézout realizations and the NRF rows has the
    # degree of its own minimal realization (a zero entry is exempt: its
    # numerator can fall under COEFF_ZERO_REL while the staircase keeps states)
    _, dcf, shift = platoon(n)
    systems = [dcf.left, dcf.right, *nrf_from_dcf(dcf, shift).row_systems]
    for sys in systems:
        tf = ss_to_tf(sys)
        for i in range(tf.rows):
            for j in range(tf.cols):
                e = tf.entry(i, j)
                if not e.is_zero:
                    assert e.den.degree == minimal(sys.select([i], [j])).order, (i, j)


def test_left_quotient_divides_by_its_columns():
    rng = np.random.default_rng(5)
    sys = StateSpace(0.3 * rng.normal(size=(6, 6)), rng.normal(size=(6, 5)),
                     rng.normal(size=(2, 6)), rng.normal(size=(2, 5)), DISC)
    cols = [3, 1]
    q = left_quotient(sys, cols)
    assert q.order == sys.order
    # the divisor's own columns come out as the identity
    assert np.max(np.abs(q.B[:, cols])) <= 1e-14
    assert np.max(np.abs(q.D[:, cols] - np.eye(2))) <= 1e-14
    for z in (2.0 + 0.3j, -1.5 + 1.1j, 0.2 - 2.4j):
        full = sys.eval(z)
        assert np.allclose(q.eval(z), np.linalg.solve(full[:, cols], full), atol=1e-11)
    # dividing one output row by one column leaves that column exactly at e_1
    row = left_quotient(StateSpace(sys.A, sys.B, sys.C[[0]], sys.D[[0]], DISC), [2])
    assert not np.any(row.B[:, 2]) and row.D[0, 2] == 1.0


def test_tf_to_ss_obsv_shares_repeated_pole():
    # both entries sit over (z-0.5): the common denominator has degree 1
    row = RationalMatrix([[lag(1.0, 0.5), lag(3.0, 0.5)]], DISC)
    assert tf_to_ss_obsv(row).order == 1


def test_tf_to_ss_obsv_rejects_improper():
    f = RationalFunction(Polynomial([0.0, 0.0, 1.0]), Polynomial([1.0, 1.0]))
    with pytest.raises(NotProper):
        tf_to_ss_obsv(RationalMatrix([[f]], DISC))


def test_tfm_to_ss_is_minimal():
    # a diagonal of identical lags realizes with one state per output row
    mat = RationalMatrix.diag([lag(1.0, 0.4), lag(1.0, 0.4)], DISC)
    sys = tfm_to_ss(mat)
    assert sys.order == 2
    z = 1.3 + 0.7j
    assert np.allclose(sys.eval(z), mat.eval(z), atol=1e-10)


def test_staircases_split_dimensions():
    # second state unreachable, second output blind to it
    A = np.diag([0.5, 0.8])
    B = np.array([[1.0], [0.0]])
    C = np.array([[1.0, 0.0]])
    sys = StateSpace(A, B, C, [[0.0]], DISC)
    k_c = ctrb_staircase(A, B, C)[3]
    k_o = obsv_staircase(A, B, C)[3]
    assert k_c == 1 and k_o == 1
    assert minimal(sys).order == 1


def test_each_reduction_builds_one_state_space_its_result(monkeypatch):
    # the staircases run on arrays: minimal and tf_to_ss_obsv build their
    # result only, and ss_to_tf builds none
    A = np.diag([0.5, 0.8, -0.3])
    A[0, 1] = 0.2
    sys = StateSpace(A, [[1.0, 0.0], [0.0, 0.0], [0.5, 1.0]], [[1.0, 0.0, 1.0], [0.0, 0.0, 2.0]],
                     np.zeros((2, 2)), DISC)
    row = RationalMatrix([[lag(1.0, 0.2), lag(2.0, 0.2), lag(1.0, 0.7)]], DISC)
    built, init = [], StateSpace.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(StateSpace, "__init__", counting)
    for reduce, arg, count in ((minimal, sys, 1), (tf_to_ss_obsv, row, 1), (ss_to_tf, sys, 0)):
        built.clear()
        reduce(arg)
        assert len(built) == count, reduce.__name__
    assert minimal(sys).order == 2 and tf_to_ss_obsv(row).order == 2


def test_minimal_preserves_response():
    rng = np.random.default_rng(3)
    A = np.zeros((4, 4))
    A[:2, :2] = [[0.2, 0.1], [0.0, 0.4]]
    A[2:, 2:] = [[0.9, 0.0], [0.0, -0.6]]  # decoupled from input
    B = np.vstack([rng.normal(size=(2, 1)), np.zeros((2, 1))])
    C = rng.normal(size=(1, 4))
    sys = StateSpace(A, B, C, [[0.0]], DISC)
    red = minimal(sys)
    assert red.order <= 2
    for z in (1.4 + 0.2j, 2.0):
        assert np.allclose(red.eval(z), sys.eval(z), atol=1e-9)


def test_pbh_stabilizable_detectable():
    assert pbh_failure(StateSpace([[2.0]], [[0.0]], [[1.0]], [[0.0]], DISC)) == "stabilizable"
    assert pbh_failure(StateSpace([[0.5]], [[0.0]], [[1.0]], [[0.0]], DISC)) is None
    assert pbh_failure(StateSpace([[0.5]], [[1.0]], [[0.0]], [[0.0]], DISC)) is None
    assert pbh_failure(StateSpace([[1.5]], [[1.0]], [[0.0]], [[0.0]], DISC)) == "detectable"


@pytest.mark.parametrize("sys", [
    StateSpace([[0.5, 1.0], [0.0, -0.3]], [[1.0], [1.0]], [[1.0, 0.0]], [[0.0]], DISC),
    StateSpace([[-1.0]], [[1.0]], [[1.0]], [[2.0]], CONT),
    StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[1.0]], DISC),
], ids=["discrete", "continuous", "static"])
def test_map_with_a_stable_state_matrix_is_not_reduced(sys, monkeypatch):
    def refuse(sys):
        raise AssertionError("minimal called on a map with no unstable mode")

    monkeypatch.setattr(sstate, "minimal", refuse)
    assert unstable_map_poles(sys) == ()


def _direct_pbh_verdict(sys):
    """The PBH verdict from the reference test at every copy of every unstable
    eigenvalue."""
    for name, A, Bc in (("stabilizable", sys.A, sys.B), ("detectable", sys.A.T, sys.C.T)):
        if not pbh_at_every_copy(A, Bc, sys.domain):
            return name
    return None


def _repeated_mode_system(seed: int, n: int) -> StateSpace:
    """n states on a random orthogonal basis: the unstable mode 1.5 twice,
    on two directions of which B reaches one and C sees both, and n - 2
    stable modes."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    S = rng.standard_normal((n - 2, n - 2))
    S *= 0.9 / np.max(np.abs(np.linalg.eigvals(S)))
    A = np.zeros((n, n))
    A[:2, :2], A[2:, 2:] = 1.5 * np.eye(2), S
    B = np.vstack([[[1.0], [0.0]], rng.standard_normal((n - 2, 1))])
    return StateSpace(Q @ A @ Q.T, Q @ B, rng.standard_normal((2, n)) @ Q.T, np.zeros((2, 1)), DISC)


@pytest.mark.parametrize("seed", range(5))
def test_pbh_verdicts_at_a_repeated_mode_equal_the_reference(seed):
    # one PBH routine for both questions: B reaches the double mode in one
    # direction, so the full-rank test fails and the reach test passes
    sys = _repeated_mode_system(seed, 4 + seed)
    dual = StateSpace(sys.A.T, sys.C.T, sys.B.T, sys.D.T, DISC)
    lams = unstable_eigs(sys.A, DISC)
    assert len(lams) == 2
    for side, A, Bc in (("B", sys.A, sys.B), ("C", sys.A.T, sys.C.T)):
        for lam in lams:
            rank, floor = pencil_ranks(A, Bc, lam)
            for _ in range(2):  # the second reach test reads A - lam I's kept values
                assert sstate._pbh_passes(sys, side, lam, full=True) is (rank == sys.order)
                assert sstate._pbh_passes(sys, side, lam, full=False) is (rank > floor)
            assert (rank, floor) == ((sys.order - 1, sys.order - 2) if side == "B"
                                     else (sys.order, sys.order - 2))
    assert pbh_failure(sys) == _direct_pbh_verdict(sys) == "stabilizable"
    assert pbh_failure(dual) == _direct_pbh_verdict(dual) == "detectable"
    for system in (sys, dual):
        poles = sstate.unstable_map_poles(system)
        assert len(poles) == 1 and poles == poles_tested_at_every_pole(system)


@pytest.mark.parametrize("name", ["grid5", *(f"chain-{n}" for n in range(2, 9))])
def test_kept_spectral_facts_have_the_bits_of_direct_calls(name):
    if name == "grid5":
        plant = simkit.build_grid5_plant()
    else:
        plant = simkit.build_network_plant(np.eye(int(name[6:]), k=-1, dtype=bool))
    lams = np.linalg.eigvals(plant.A)
    unstable = unstable_eigs(plant.A, plant.domain)
    contour = probe_points(plant.domain, 20, avoid=lams)
    verdict = _direct_pbh_verdict(plant)
    pencils = [(side, lam, cols, np.linalg.svd(np.hstack([A - lam * np.eye(plant.order), cols])
                                               .astype(complex), compute_uv=False))
               for side, A, Bc in (("B", plant.A, plant.B), ("C", plant.A.T, plant.C.T))
               for lam in unstable for cols in (Bc, Bc[:, :0])]
    assert unstable and verdict is None
    for _ in range(2):  # the first read computes each fact, the second returns it as kept
        assert plant.eigenvalues.dtype == lams.dtype
        assert plant.eigenvalues.tobytes() == lams.tobytes()
        assert np.array(plant.unstable_eigenvalues).tobytes() == np.array(unstable).tobytes()
        assert pbh_failure(plant) == verdict
        for side, lam, cols, S in pencils:
            assert sstate._pencil_spectrum(plant, side, lam, cols).tobytes() == S.tobytes()
        assert np.array(_probe_contour(plant)).tobytes() == np.array(contour).tobytes()
    assert plant.eigenvalues is plant.eigenvalues and not plant.eigenvalues.flags.writeable


def test_a_realization_on_writable_memory_keeps_its_own_copy():
    base = np.array([[0.5, 1.0, 7.0], [0.0, 2.0, 7.0], [7.0, 7.0, 7.0]])
    B, C, D = np.array([[0.0], [1.0]]), np.array([[1.0, 0.0]]), np.zeros((1, 1))
    read_before = StateSpace(base[:2, :2], B, C, D, DISC)
    kept = (read_before.eigenvalues.tobytes(), read_before.unstable_eigenvalues,
            pbh_failure(read_before))
    read_after = StateSpace(base[:2, :2], B, C, D, DISC)
    base[:] = 0.0  # the caller's array stays writable, and its writes reach no realization
    for sys in (read_before, read_after):
        assert np.array_equal(sys.A, [[0.5, 1.0], [0.0, 2.0]])
        assert (sys.eigenvalues.tobytes(), sys.unstable_eigenvalues, pbh_failure(sys)) == kept
    assert kept[1:] == ((2.0 + 0j,), None)
    # a view of a realization's own read-only arrays is not copied
    view = StateSpace(read_before.A[:1, :1], B[:1], C[:, :1], D, DISC)
    assert np.shares_memory(view.A, read_before.A)


def test_a_realization_never_freezes_its_callers_arrays():
    A, B, C, D = 0.5 * np.eye(2), np.array([[1.0], [0.0]]), np.array([[1.0, 0.0]]), np.zeros((1, 1))
    sys = StateSpace(A, B, C, D, DISC)
    kept = (sys.eigenvalues.tobytes(), sys.unstable_eigenvalues, sys.eval(2.0).tobytes())
    assert all(M.flags.writeable for M in (A, B, C, D))
    A[0, 0], B[1, 0], C[0, 1], D[0, 0] = 3.0, 1.0, 1.0, 1.0
    assert np.array_equal(sys.A, 0.5 * np.eye(2)) and not sys.A.flags.writeable
    assert (sys.eigenvalues.tobytes(), sys.unstable_eigenvalues, sys.eval(2.0).tobytes()) == kept
    assert kept[1] == () and pbh_failure(sys) is None


def test_a_realization_keeps_no_array_its_caller_can_make_writable():
    # a caller's own read-only array: turning writing back on and writing
    # reaches neither the realization's A, its evaluations nor its kept facts
    A = 0.5 * np.eye(2)
    A.setflags(write=False)
    sys = StateSpace(A, [[1.0], [0.0]], [[1.0, 0.0]], [[0.0]], DISC)
    kept = (sys.eigenvalues.tobytes(), sys.unstable_eigenvalues, sys.eval(2.0).tobytes())
    A.setflags(write=True)
    A[0, 0] = 3.0
    assert sys.A[0, 0] == 0.5 and sys.eval(2.0)[0, 0] == 1.0 / 1.5
    assert (sys.eigenvalues.tobytes(), sys.unstable_eigenvalues, sys.eval(2.0).tobytes()) == kept
    for M in (sys.A, sys.B, sys.C, sys.D, sys.eigenvalues, sys.select([0], [0]).B):
        with pytest.raises(ValueError):
            M.setflags(write=True)


@pytest.mark.parametrize("order", ["C", "F"])
def test_a_realization_keeps_the_layout_of_its_arrays(order):
    A = np.asarray([[0.5, 0.1], [0.2, 0.3]], order=order)
    sys = StateSpace(A, np.ones((2, 1)), np.ones((1, 2)), [[0.0]], DISC)
    assert np.array_equal(sys.A, A) and sys.A.strides == A.strides
    assert StateSpace(A.T, sys.B, sys.C, sys.D, DISC).A.strides == A.T.strides


def test_norm_of_huge_entries_does_not_overflow():
    # finite norms keep np.linalg.norm's bits; an overflowing sum of squares
    # is rescaled by the largest magnitude
    rng = np.random.default_rng(3)
    for M in (rng.normal(size=(6, 4)), 1e150 * rng.normal(size=(3, 3)), np.zeros((2, 0))):
        assert finite_norm(M) == np.linalg.norm(M)
        assert finite_norm(M, axis=0).tobytes() == np.linalg.norm(M, axis=0).tobytes()
    M = np.array([[3e160, 1.0], [4e160, 2.0]])
    assert abs(finite_norm(M) / 5e160 - 1.0) < 1e-15
    assert abs(finite_norm(M, axis=0)[0] / 5e160 - 1.0) < 1e-15
    assert finite_norm(M, axis=0)[1] == np.sqrt(5.0)
    # a norm beyond the largest float is refused by name, never read as inf
    for M in (np.full((2, 1), 1.5e308), np.array([[np.inf, 1.0]])):
        with pytest.raises(InvariantViolation, match="finite-norm"):
            finite_norm(M)


def test_huge_coefficients_realize_at_their_order():
    # 1e160 / (z - 0.5): a rank scale that overflowed to inf read every
    # staircase block as rank zero and realized it at order 0
    big = RationalMatrix([[RationalFunction(Polynomial([1e160]), Polynomial([-0.5, 1.0]))]], DISC)
    sys = tfm_to_ss(big)
    assert sys.order == 1
    assert abs(sys.eval(2.0)[0, 0] / big.eval(2.0)[0, 0] - 1.0) < 1e-12
    assert ctrb_staircase(np.array([[0.5]]), np.array([[1e160]]), np.ones((1, 1)))[3] == 1
    beyond = [RationalFunction(Polynomial([1.5e308]), Polynomial([-p, 1.0])) for p in (0.5, 0.6)]
    with pytest.raises(InvariantViolation, match="finite-norm"):
        tfm_to_ss(RationalMatrix([beyond], DISC))


def test_cuts_share_one_store_of_the_facts_of_a(monkeypatch):
    # the input 2 reaches the unstable mode 1.5, the input 1 does not
    parent = StateSpace(np.diag([1.5, 0.5]), [[0.0, 1.0], [1.0, 0.0]], np.eye(2),
                        np.zeros((2, 2)), DISC)
    first, second = parent.select([0], [0]), -parent.select([0, 1], [1]).select([0], [0])
    shapes, eigvals = [], np.linalg.eigvals

    def counting(a):
        shapes.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    # the cuts read first, the parent last: eig(A) is computed once
    assert first.unstable_eigenvalues == second.unstable_eigenvalues == (1.5 + 0j,)
    assert parent.eigenvalues.size == 2
    assert shapes == [(2, 2)]
    assert parent.eigenvalues is first.eigenvalues is second.eigenvalues
    # the PBH verdict reads B and C, whose bytes key the pencil spectra
    assert pbh_failure(first) == "stabilizable"
    assert pbh_failure(parent) is None and pbh_failure(second) is None
    assert pbh_failure(parent.select([0], [0])) == "stabilizable"


def test_cuts_testing_the_same_columns_share_one_pencil_svd(monkeypatch):
    # B's first column reaches the unstable mode 1.5; the cuts from it to
    # either output test it once, each C row on its own, and a negated cut
    # tests its own C row, whose bytes differ
    parent = StateSpace(np.diag([1.5, 0.5]), [[1.0, 0.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 0.0]],
                        np.zeros((2, 2)), DISC)
    first, second = parent.select([0], [0]), parent.select([1], [0])
    pencils = pencil_svds(monkeypatch)
    counts = []
    for sys in (first, second, -first, first, second, -first):
        assert pbh_failure(sys) is None
        counts.append(len(pencils))
    assert counts == [2, 3, 4, 4, 4, 4] and set(pencils) == {(2, 3)}


def test_unstable_eigs_domain_split():
    A = np.diag([0.5, 1.5, -2.0])
    disc = unstable_eigs(A, DISC)
    assert match_multisets(disc, [1.5, -2.0], 1e-9)
    cont = unstable_eigs(A, CONT)
    assert match_multisets(cont, [0.5, 1.5], 1e-9)
    assert not unstable_eigs(np.diag([0.5, -0.5]), DISC)


def test_transmission_zero_rank_test():
    # G = (z - 1.3)/(z - 0.4): pencil loses rank exactly at the zero
    sys = tfm_to_ss(RationalMatrix([[RationalFunction(
        Polynomial([-1.3, 1.0]), Polynomial([-0.4, 1.0]))]], DISC))
    assert not transmission_zero_rank_test(sys, 1.3)
    assert transmission_zero_rank_test(sys, 0.9)


def test_tfm_unstable_poles_multiplicity():
    mat = RationalMatrix.diag([lag(1.0, 1.2), lag(1.0, 1.2)], DISC)
    poles = tfm_unstable_poles(mat)
    assert match_multisets(poles, [1.2, 1.2], 1e-6)
    # shared unstable pole across one row counts once
    row = RationalMatrix([[lag(1.0, 1.2), lag(2.0, 1.2)]], DISC)
    assert match_multisets(tfm_unstable_poles(row), [1.2], 1e-6)


def test_match_multisets():
    assert match_multisets([1.0, 2.0], [2.0 + 1e-8, 1.0], 1e-6)
    assert not match_multisets([1.0, 2.0], [1.0, 2.1], 1e-6)
    assert not match_multisets([1.0], [1.0, 1.0], 1e-6)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=4, unique_by=lambda v: round(v, 2)))
def test_obsv_companion_recovers_poles(poles):
    """Realizing a strictly proper row over distinct poles keeps them as eigenvalues."""
    entries = [lag(1.0, p) for p in poles]
    row = RationalMatrix([entries], DISC)
    sys = tf_to_ss_obsv(row)
    assert sys.order == len(poles)
    assert match_multisets(np.linalg.eigvals(sys.A), poles, 1e-6)


def test_stack_outputs_shapes():
    a = tf_to_ss_obsv(RationalMatrix([[lag(1.0, 0.2), lag(1.0, 0.3)]], DISC))
    b = tf_to_ss_obsv(RationalMatrix([[lag(1.0, 0.4), lag(1.0, 0.5)]], DISC))
    stacked = stack_outputs([a, b])
    assert stacked.order == a.order + b.order
    assert stacked.n_outputs == 2 and stacked.n_inputs == 2
    z = 1.8
    assert np.allclose(stacked.eval(z)[0], a.eval(z)[0])
    assert np.allclose(stacked.eval(z)[1], b.eval(z)[0])


def test_ss_json_roundtrip(tmp_path):
    sys = StateSpace([[0.5, 0.1], [0.0, 0.2]], [[1.0], [0.5]], [[1.0, 1.0]], [[0.0]], DISC)
    path = tmp_path / "sys.json"
    save_ss(sys, str(path))
    back = load_ss(str(path))
    assert back.order == 2 and back.domain is DISC
    assert np.array_equal(back.A, sys.A)
    assert ss_to_obj(ss_from_obj(ss_to_obj(sys))) == ss_to_obj(sys)


_PLANT_2X2 = {"domain": "discrete", "A": [[0.5, 0.0], [0.0, 0.2]], "B": [[1.0, 2.0], [3.0, 4.0]],
             "C": [[1.0, 0.0], [0.0, 1.0]], "D": [[0.0, 0.0], [0.0, 0.0]]}


@pytest.mark.parametrize("fields", [
    {"B": [[1.0, 2.0, 3.0, 4.0]]},  # four numbers in one row: not the 2 x 2 B
    {"C": [[1.0], [0.0]], "D": [[0.0]], "B": [[1.0], [0.0]]},  # one output's C as a column
    {"A": [], "B": [[5.0]], "C": [[1.0]], "D": [[0.0]]},  # a B for a system without states
], ids=["B-one-row", "C-column", "empty-A-with-B"])
def test_ss_from_obj_leaves_shapes_to_the_constructor(fields):
    with pytest.raises(DimensionMismatch):
        ss_from_obj(_PLANT_2X2 | fields)


def test_static_system_json_roundtrip():
    sys = StateSpace(np.zeros((0, 0)), np.zeros((0, 3)), np.zeros((2, 0)),
                     [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], DISC)
    obj = ss_to_obj(sys)
    back = ss_from_obj(obj)
    assert (back.order, back.n_outputs, back.n_inputs) == (0, 2, 3)
    assert ss_to_obj(back) == obj


def test_load_ss_reads_a_plant_file_in_either_form(tmp_path):
    plant = simkit.build_grid5_plant()  # what `nrfctl demo grid5` writes as plant.json
    save_ss(plant, str(tmp_path / "plant.json"))
    save_ratmat(ss_to_tf(plant), str(tmp_path / "plant-tf.json"))
    from_ss, from_tf = (load_ss(str(tmp_path / name)) for name in ("plant.json", "plant-tf.json"))
    assert ss_to_obj(from_ss) == ss_to_obj(plant)
    assert from_tf.order == 7  # minimal: three lags of the network form share their input
    pts = probe_points(DISC, 20)
    want = plant.eval_many(pts)
    assert np.max(np.abs(from_tf.eval_many(pts) - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("text", ['{"B": [[1.0]]}', "{}", "5", "null", "true", "[1, 2]", '"x"'],
                         ids=["other-keys", "empty", "int", "null", "bool", "list", "string"])
def test_load_ss_names_a_file_of_neither_form(text, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(NrfError) as exc:
        load_ss(str(path))
    assert type(exc.value) is NrfError
    assert str(exc.value) == f"{path}: neither a state-space nor a rational-matrix file"
