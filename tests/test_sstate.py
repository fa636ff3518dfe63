"""State-space utilities: realizations, staircases, PBH tests, pole extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrfctl import simkit
from nrfctl.errors import NotProper
from nrfctl.factor import place_gains
from nrfctl.nrfsyn import nrf_from_dcf
from nrfctl.ratmat import Polynomial, RationalFunction, RationalMatrix, StabilityDomain
from nrfctl.sstate import (
    StateSpace,
    ctrb_staircase,
    is_detectable,
    is_stabilizable,
    is_stable_matrix,
    left_quotient,
    load_ss,
    match_multisets,
    _faddeev_tf,
    minimal,
    obsv_staircase,
    save_ss,
    ss_from_obj,
    ss_to_obj,
    ss_to_tf,
    stack_outputs,
    tf_to_ss_obsv,
    tfm_to_ss,
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
    assert unstable_eigs(sys.A, DISC).empty


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
    _, k_c, _ = ctrb_staircase(sys)
    _, k_o, _ = obsv_staircase(sys)
    assert k_c == 1 and k_o == 1
    assert minimal(sys).order == 1


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
    assert not is_stabilizable(StateSpace([[2.0]], [[0.0]], [[1.0]], [[0.0]], DISC))
    assert is_stabilizable(StateSpace([[0.5]], [[0.0]], [[1.0]], [[0.0]], DISC))
    assert is_detectable(StateSpace([[0.5]], [[1.0]], [[0.0]], [[0.0]], DISC))
    assert not is_detectable(StateSpace([[1.5]], [[1.0]], [[0.0]], [[0.0]], DISC))


def test_unstable_eigs_domain_split():
    A = np.diag([0.5, 1.5, -2.0])
    disc = unstable_eigs(A, DISC)
    assert match_multisets(disc.values, [1.5, -2.0], 1e-9)
    cont = unstable_eigs(A, CONT)
    assert match_multisets(cont.values, [0.5, 1.5], 1e-9)
    assert is_stable_matrix(np.diag([0.5, -0.5]), DISC)


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
