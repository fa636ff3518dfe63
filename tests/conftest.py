"""Shared fixtures: the five-node grid demo instance, built once per session,
and platoon chains factored at the benchmark's pole targets."""

import functools

import numpy as np
import pytest

from nrfctl import dimpl, factor, nrfsyn, simkit
from nrfctl.ratmat import RationalMatrix, StabilityDomain


@pytest.fixture(scope="session")
def grid5_plant():
    return simkit.build_grid5_plant()


@pytest.fixture(scope="session")
def grid5_tfm():
    return simkit.grid5_tfm()


@pytest.fixture(scope="session")
def grid5_dcf():
    dcf = simkit.grid5_dcf()
    dcf.validate()
    return dcf


@pytest.fixture(scope="session")
def grid5_q():
    return simkit.grid5_q()


@pytest.fixture(scope="session")
def grid5_shift(grid5_dcf, grid5_q):
    return factor.youla_shift(grid5_dcf, grid5_q)


@pytest.fixture(scope="session")
def grid5_pair(grid5_dcf, grid5_shift):
    return nrfsyn.nrf_from_dcf(grid5_dcf, grid5_shift)


@pytest.fixture(scope="session")
def grid5_rows(grid5_pair):
    return dimpl.realize_rows(grid5_pair)


@pytest.fixture(scope="session")
def grid5_ctrl(grid5_rows):
    return dimpl.assemble(grid5_rows)


def _platoon_spread(order: int) -> float:
    """Spacing s of the platoon's pole targets for a plant of this order."""
    return min(0.03, 0.36 / (order - 1))


@functools.lru_cache(maxsize=None)
def _platoon_gains(n: int):
    """Chain of n vehicles and its gains (F, L).

    Targets 0.6 + s k (feedback) and 0.45 + s k (observer) with
    s = min(0.03, 0.36 / (order - 1)), as the benchmark's platoon sweep
    places them.
    """
    plant = simkit.build_network_plant(np.eye(n, k=-1, dtype=bool))
    order = plant.order
    step = _platoon_spread(order)
    F, _ = factor.place_gains(plant, [0.6 + step * k for k in range(order)])
    _, L = factor.place_gains(plant, [0.45 + step * k for k in range(order)])
    return plant, F, L


@functools.lru_cache(maxsize=None)
def _platoon(n: int):
    """Chain of n vehicles, its factorization and the Q = 0 shift."""
    plant, F, L = _platoon_gains(n)
    dcf = factor.dcf_from_ss(plant, F, L)
    shift = factor.youla_shift(dcf, RationalMatrix.zeros(n, n, StabilityDomain.DISCRETE))
    return plant, dcf, shift


@pytest.fixture(scope="session")
def platoon():
    """platoon(n) -> (plant, dcf, Q = 0 shift), each size built once."""
    return _platoon


@pytest.fixture(scope="session")
def platoon_gains():
    """platoon_gains(n) -> (plant, F, L) of the platoon fixture."""
    return _platoon_gains


@pytest.fixture(scope="session")
def platoon_spread():
    """platoon_spread(order) -> the spacing s of the platoon fixture's targets."""
    return _platoon_spread
