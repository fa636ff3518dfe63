"""The one rule by which every residual audit reaches its verdict."""

import warnings

import numpy as np
import pytest

from nrfctl.errors import InvariantViolation, audit


def test_audit_reports_first_failing_point_of_a_stack():
    dev = np.zeros((5, 2, 3), dtype=complex)
    dev[1, 0, 2] = 1e-9  # below the tolerance
    dev[2] = np.nan  # no residual here: skipped
    dev[3, 1, 0] = -3e-8j
    dev[4, 0, 0] = 0.5  # larger, but later
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation) as exc:
            audit("some-identity", dev, 1e-8, "rows (1, 2)")
    assert exc.value.invariant == "some-identity"
    assert exc.value.detail == "rows (1, 2): residual 3.000e-08 >= tolerance 1e-08 at probe point 3"


def test_audit_passes_below_tolerance_and_on_nan():
    # a NaN point is skipped while another point has a residual
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dev = np.full((3, 2, 2), 1e-9)
        audit("x", dev, 1e-8)
        dev[[0, 2], 1, 1] = np.nan
        audit("x", dev, 1e-8)
        audit("x", np.zeros((0, 2, 2)), 1e-8)
        audit("x", np.zeros((3, 0, 2)), 1e-8)


@pytest.mark.parametrize("dev", [np.full((3, 2, 2), np.nan), np.full((2, 2), np.nan), np.nan],
                         ids=["stack", "matrix", "scalar"])
def test_audit_fails_when_no_point_has_a_residual(dev):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation) as exc:
            audit("x", dev, 1e-8, "where")
    assert str(exc.value) == "x: where: no point has a residual, each is NaN"


def test_audit_matrix_and_scalar_are_one_point():
    with pytest.raises(InvariantViolation) as exc:
        audit("gain", np.array([[0.0, 2e-6], [0.0, 0.0]]), 1e-6, "M(inf)")
    assert exc.value.detail == "M(inf): residual 2.000e-06 >= tolerance 1e-06"
    with pytest.raises(InvariantViolation) as exc:
        audit("scalar", -1e-8, 1e-8)  # reaching the tolerance fails
    assert str(exc.value) == "scalar: residual 1.000e-08 >= tolerance 1e-08"
    audit("scalar", 9.9e-9, 1e-8)
    with pytest.raises(InvariantViolation):
        audit("scalar", float("nan"), 1e-8)  # one point, and it has no residual
