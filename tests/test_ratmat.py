"""Rational function and matrix arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrfctl.errors import (
    DimensionMismatch,
    DivisionByZeroFunction,
    EvaluationAtPole,
)
from nrfctl.ratmat import (
    Polynomial,
    RationalFunction,
    RationalMatrix,
    StabilityDomain,
    _point_blocks,
    _strip,
    load_ratmat,
    probe_points,
    ratmat_from_obj,
    ratmat_to_obj,
    save_ratmat,
)
from nrfctl.sstate import tfm_to_ss
from nrfctl.tolerances import COEFF_ZERO_REL

from helpers import poly_from_roots, tfm_unstable_poles

DISC = StabilityDomain.DISCRETE
CONT = StabilityDomain.CONTINUOUS


def lag(num, pole):
    return RationalFunction(Polynomial([num]), Polynomial([-pole, 1.0]))


# --- polynomials ---


def test_polynomial_strip_and_degree():
    p = Polynomial([1.0, 2.0, 0.0, 0.0])
    assert p.coeffs == (1.0, 2.0)
    assert p.degree == 1
    assert Polynomial.zero().degree == -np.inf


def _strip_reference(coeffs):
    """The array form of ``_strip``."""
    arr = np.asarray(coeffs, dtype=float).ravel()
    if arr.size == 0:
        return (0.0,)
    tol = COEFF_ZERO_REL * (1.0 + np.abs(arr).max())
    arr = np.where(np.abs(arr) <= tol, 0.0, arr)
    last = arr.size - 1
    while last > 0 and arr[last] == 0.0:
        last -= 1
    return tuple(float(c) for c in arr[: last + 1])


def _same_floats(a, b):
    """Equal tuples of Python floats, NaN matching NaN and the signs of zeros compared."""
    return type(a) is tuple and len(a) == len(b) and all(
        type(x) is float and (x != x and y != y or x == y and math.copysign(1, x) == math.copysign(1, y))
        for x, y in zip(a, b))


def test_strip_matches_the_array_form():
    rng = np.random.default_rng(0)
    tol = COEFF_ZERO_REL * (1.0 + 1.0)
    cases = [[], (), np.zeros(0), [-0.0], [0.0, -0.0], [1.0, -0.0, 0.0], [-0.0, 2.0],
             [1.0, tol, -tol], [1.0, np.nextafter(tol, 1.0), -tol], [tol, 1.0],
             [np.nan], [1.0, np.nan, 0.0], [np.nan, 1e-12, 0.0], [1e-12, np.nan], [1e-12, 0.0, np.nan],
             [np.inf, 1.0], [1.0, -np.inf, 0.0], [np.nan, np.inf, 1.0], [np.inf, np.nan, 0.0],
             [3, 0, 0], np.array([[1.0, 1e-11], [0.0, 0.0]]), 2.5]
    for _ in range(3000):
        n = int(rng.integers(1, 17))
        c = rng.standard_normal(n) * 10.0 ** rng.integers(-14, 4, n)
        c[rng.random(n) < 0.25] = 0.0
        c[rng.random(n) < 0.1] = -0.0
        c[rng.random(n) < 0.1] *= 1e-10
        if rng.random() < 0.1:
            c[rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf])
        cases += [c, tuple(c), list(c), c.tolist()]
    for c in cases:
        assert _same_floats(_strip(c), _strip_reference(c)), c


def test_polynomial_arithmetic_matches_numpy():
    a = Polynomial([1.0, -3.0, 2.0])
    b = Polynomial([4.0, 5.0])
    prod = a * b
    want = np.polymul([2.0, -3.0, 1.0], [5.0, 4.0])[::-1]
    assert np.allclose(prod.coeffs, want)
    s = a + b
    assert np.allclose(s.coeffs, [5.0, 2.0, 2.0])


def test_from_roots_conjugation_guard():
    p = poly_from_roots([0.3 + 0.4j, 0.3 - 0.4j])
    assert np.allclose(p.coeffs, [0.25, -0.6, 1.0])
    with pytest.raises(ValueError):
        poly_from_roots([0.3 + 0.4j])


# --- rational functions ---


def test_reduction_cancels_common_root():
    # (z-1)(z-2) / (z-1)(z-3): the constructor keeps the common root, and
    # realization is where it leaves, as (z-2)/(z-3)
    num = poly_from_roots([1.0, 2.0])
    den = poly_from_roots([1.0, 3.0])
    f = RationalFunction(num, den)
    assert f.den.degree == 2
    sys = tfm_to_ss(RationalMatrix([[f]], DISC))
    assert sys.order == 1
    assert abs(sys.eval(5.0)[0, 0] - 3.0 / 2.0) < 1e-12


def test_zero_denominator_rejected():
    with pytest.raises(DivisionByZeroFunction):
        RationalFunction(Polynomial([1.0]), Polynomial([0.0]))


def test_evaluation_at_pole_raises():
    f = lag(1.0, 0.5)
    with pytest.raises(EvaluationAtPole):
        f(0.5)


def _entrywise(mat, points):
    """Reference evaluation: RationalFunction.__call__ per entry and point."""
    return np.array(
        [[[e(complex(x)) for e in row] for row in mat.entries] for x in points],
        dtype=complex,
    ).reshape(len(points), mat.rows, mat.cols)


def test_eval_many_matches_entrywise_on_mixed_entries():
    rng = np.random.default_rng(5)

    def stable_den(deg):
        # conjugate pairs and reals inside radius 0.9, so no probe point is a pole
        roots = []
        while len(roots) < deg - 1:
            z = 0.9 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.1, np.pi - 0.1))
            roots += [z, np.conj(z)]
        roots += [rng.uniform(-0.9, 0.9)] * (deg - len(roots))
        return poly_from_roots(roots)

    entries = [
        [RationalFunction.const(0.0), RationalFunction.const(-2.5),
         RationalFunction(Polynomial(rng.normal(size=9)), stable_den(9))],
        [RationalFunction(Polynomial(rng.normal(size=3)), stable_den(7)),
         lag(0.3, -0.4), RationalFunction(Polynomial(rng.normal(size=2)), stable_den(2))],
    ]
    mat = RationalMatrix(entries, DISC)
    points = probe_points(DISC, 20) + list(np.exp(1j * rng.uniform(0, 2 * np.pi, 1980)))
    assert len(_point_blocks(len(points), mat.rows * mat.cols)) > 1
    got = mat.eval_many(points)
    np.testing.assert_allclose(got, _entrywise(mat, points), rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(mat.eval(points[3]), got[3], rtol=1e-15, atol=0.0)


def test_eval_many_names_first_pole_in_point_order():
    mat = RationalMatrix([[lag(1.0, 0.5), lag(1.0, -0.25)]], DISC)
    with pytest.raises(EvaluationAtPole, match=r"at \(-0\.25\+0j\)$"):
        mat.eval_many([2.0, -0.25, 0.5])
    # across blocks of points too
    points = np.full(9000, 2.0 + 0j)
    points[[6000, 8500]] = [-0.25, 0.5]
    with pytest.raises(EvaluationAtPole, match=r"at \(-0\.25\+0j\)$"):
        mat.eval_many(points)
    with pytest.raises(EvaluationAtPole, match=r"at \(0\.5\+0j\)$"):
        mat.eval(0.5)
    with pytest.raises(EvaluationAtPole, match=r"at \(0\.5\+0j\)$"):
        mat.entry(0, 0)(0.5 + 0j)
    # near a pole the batched test decides as the scalar one does
    with pytest.raises(EvaluationAtPole):
        mat.entry(0, 0)(0.5 + 1e-13 + 0j)
    with pytest.raises(EvaluationAtPole):
        mat.eval_many([0.5 + 1e-13])
    assert np.isfinite(mat.entry(0, 0)(0.5 + 1e-10 + 0j))
    assert np.all(np.isfinite(mat.eval_many([0.5 + 1e-10])))


def test_reciprocal_and_properness():
    f = RationalFunction(Polynomial([1.0, 2.0]), Polynomial([3.0, 1.0]))
    assert f.is_proper and f.gain_at_infinity() != 0
    g = RationalFunction(f.den, f.num)
    assert abs(f(2.0) * g(2.0) - 1.0) < 1e-12
    assert lag(1.0, 0.5).gain_at_infinity() == 0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-3, 3).filter(lambda v: abs(v) > 1e-3), min_size=1, max_size=3),
    st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=3),
    st.lists(st.floats(-3, 3).filter(lambda v: abs(v) > 1e-3), min_size=1, max_size=3),
    st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=3),
)
def test_field_ops_agree_pointwise(na, pa, nb, pb):
    """Symbolic sum/product must agree with pointwise complex arithmetic."""
    a = RationalFunction(Polynomial(na), poly_from_roots(pa))
    b = RationalFunction(Polynomial(nb), poly_from_roots(pb))
    x = 1.7 + 0.9j  # away from every admissible pole
    try:
        va, vb = a(x), b(x)
    except EvaluationAtPole:
        return
    assert abs((a + b)(x) - (va + vb)) < 1e-6 * (1 + abs(va) + abs(vb))
    assert abs((a * b)(x) - va * vb) < 1e-6 * (1 + abs(va * vb))


# --- matrices ---


def test_matmul_matches_eval():
    A = RationalMatrix([[lag(1.0, 0.2), lag(2.0, 0.5)], [RationalFunction.const(1.0), lag(1.0, -0.4)]], DISC)
    B = RationalMatrix([[lag(1.0, 0.3)], [lag(0.5, 0.6)]], DISC)
    P = A @ B
    z = 2.0 + 1.0j
    assert np.allclose(P.eval(z), A.eval(z) @ B.eval(z))


def test_unstable_poles_by_domain():
    f_disc = lag(1.0, 1.5)
    assert tfm_unstable_poles(RationalMatrix([[f_disc]], DISC))
    assert not tfm_unstable_poles(RationalMatrix([[lag(1.0, 0.5)]], DISC))
    f_cont = RationalFunction(Polynomial([1.0]), Polynomial([-2.0, 1.0]))  # pole at +2
    assert tfm_unstable_poles(RationalMatrix([[f_cont]], CONT))


def test_probe_points_avoid_listed_poles():
    avoid = [complex(2.0, 0.0)]
    pts = probe_points(DISC, count=20, avoid=avoid)
    assert len(pts) == 20
    assert min(abs(p - avoid[0]) for p in pts) > 1e-3


def _probe_points_per_point(domain, count, avoid):
    """probe_points as a loop over the points: the oracle of its array form."""
    avoid = np.asarray(avoid, dtype=complex).ravel()
    pts = []
    for k in range(count):
        if domain is StabilityDomain.DISCRETE:
            theta = 2.0 * math.pi * (k + 0.37) / count
            z = 2.0 * complex(math.cos(theta), math.sin(theta))
        else:
            z = complex(1.0, -4.75 + 0.5 * k)
        shift = 0
        while np.any(np.abs(z - avoid) < 1e-6) and shift < 50:
            z += complex(0.0137, 0.0071)
            shift += 1
        pts.append(z)
    return pts


@pytest.mark.parametrize("domain", [DISC, CONT])
@pytest.mark.parametrize("nudges", [0, 1, 4, 49, 50, 70])
def test_probe_points_match_the_per_point_loop(domain, nudges):
    base = _probe_points_per_point(domain, 12, ())
    avoid = [base[5] + 1e-7]  # one nudge for point 5
    for k, count in ((0, nudges), (3, 2), (7, max(nudges - 1, 0))):
        z = base[k]  # avoid the whole path of `count` nudges
        for _ in range(count):
            avoid.append(z)
            z += complex(0.0137, 0.0071)
    pts = probe_points(domain, 12, avoid=avoid)
    assert pts == _probe_points_per_point(domain, 12, avoid)
    assert all(type(z) is complex for z in pts)
    z = base[0]
    for _ in range(min(nudges, 50)):  # at most 50 nudges, even when still near
        z += complex(0.0137, 0.0071)
    assert pts[0] == z and pts[5] != base[5] and pts[1] == base[1]


def test_support():
    A = RationalMatrix([[lag(1.0, 0.2), RationalFunction.const(0.0)]], DISC)
    mask = A.support()
    assert mask.dtype == bool and mask.tolist() == [[True, False]]


def test_json_roundtrip(tmp_path):
    A = RationalMatrix([[lag(1.0, 0.2), lag(2.0, -0.5)]], DISC)
    path = tmp_path / "a.json"
    save_ratmat(A, str(path))
    B = load_ratmat(str(path))
    assert B.rows == 1 and B.cols == 2
    z = 1.2 + 0.3j
    assert np.allclose(A.eval(z), B.eval(z))
    # object form is stable under a second round trip
    assert ratmat_to_obj(ratmat_from_obj(ratmat_to_obj(A))) == ratmat_to_obj(A)


def test_integer_shape_that_misses_the_entries_is_a_dimension_mismatch():
    obj = ratmat_to_obj(RationalMatrix([[lag(1.0, 0.2), lag(2.0, -0.5)]], DISC))
    with pytest.raises(DimensionMismatch, match="declared shape"):
        ratmat_from_obj(obj | {"cols": 3})
