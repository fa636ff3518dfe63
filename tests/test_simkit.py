"""Noise streams, scenario plumbing, and closed-loop simulation."""

import csv
import tracemalloc

import numpy as np
import pytest

from nrfctl import dimpl, factor, nrfsyn, simkit
from nrfctl.errors import InconsistentDimensions, InvariantViolation, NonDiscrete
from nrfctl.nrfsyn import NrfPair
from nrfctl.ratmat import RationalMatrix, StabilityDomain, probe_points
from nrfctl.simkit import Scenario, SignalSpec
from nrfctl.sstate import StateSpace, pbh_failure, tfm_to_ss

DISC = StabilityDomain.DISCRETE


def quiet(n):
    return [SignalSpec.zero()] * n


def steps(n, level=1.0):
    return [SignalSpec.step(level)] * n


# --- noise streams ---


def _mix(x: int) -> int:
    """Reference SplitMix64 output function, on Python integers."""
    x &= simkit.MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & simkit.MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & simkit.MASK64
    x ^= x >> 31
    return x


def _noise_stream(seed: int, channel: int, bound: float):
    """Reference scalar stream: the definition ``noise_block`` vectorizes."""
    state = (int(seed) + simkit.GOLDEN * (int(channel) + 1)) & simkit.MASK64
    while True:
        state = (state + simkit.GOLDEN) & simkit.MASK64
        x = (_mix(state) >> 11) * 2.0**-53  # 53-bit mantissa in [0, 1)
        yield bound * (2.0 * x - 1.0)


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_noise_block_matches_scalar_reference(seed):
    for channel in (0, 3, 40):
        for bound in (0.0, 0.05, 1.0):
            for count in (0, 1, 1000):
                got = simkit.noise_block(seed, channel, bound, count)
                gen = _noise_stream(seed, channel, bound)
                want = np.array([next(gen) for _ in range(count)], dtype=float)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


def test_noise_block_first_draws_pinned():
    # integer and elementwise IEEE operations only: the same bits everywhere
    got = simkit.noise_block(42, 0, 1.0, 3)
    want = ["-0x1.5c40733136644p-1", "-0x1.c56cc54767834p-2", "-0x1.3f18f0078da90p-2"]
    assert [float(v).hex() for v in got] == want


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


@pytest.mark.parametrize("bound", [-0.1, float("nan"), float("inf"), float("-inf")])
def test_bad_noise_bound_is_named(bound):
    with pytest.raises(InvariantViolation) as exc:
        simkit.noise_block(seed=1, channel=0, bound=bound, count=10)
    assert exc.value.invariant == "noise-bound-nonnegative"
    with pytest.raises(InvariantViolation) as exc:
        SignalSpec.uniform(bound)
    assert exc.value.invariant == "noise-bound-nonnegative"


def test_signal_spec_materialize():
    step = SignalSpec.step(0.5, at=3).materialize(6, seed=0, channel=0)
    assert np.array_equal(step, [0.0, 0.0, 0.0, 0.5, 0.5, 0.5])
    assert np.array_equal(SignalSpec.zero().materialize(4, 0, 0), np.zeros(4))
    u = SignalSpec.uniform(0.1).materialize(100, seed=2, channel=5)
    assert np.max(np.abs(u)) <= 0.1
    obj = SignalSpec.uniform(0.1).to_obj()
    assert SignalSpec.from_obj(obj).to_obj() == obj


def test_negative_step_time_is_named():
    # numpy would read at = -3 as three samples before the end of the run
    with pytest.raises(InvariantViolation) as exc:
        SignalSpec.step(1.0, at=-3)
    assert exc.value.invariant == "signal-step-at-nonnegative"
    with pytest.raises(InvariantViolation) as exc:
        SignalSpec.from_obj({"kind": "step", "level": 1.0, "at": -3})
    assert exc.value.invariant == "signal-step-at-nonnegative"


def test_negative_horizon_fails_at_construction(grid5_plant, grid5_ctrl):
    with pytest.raises(InconsistentDimensions):
        Scenario(-1, quiet(5), quiet(5), quiet(5), quiet(5), 0, grid5_plant, grid5_ctrl)


@pytest.mark.parametrize("level", [float("nan"), float("inf"), float("-inf")])
def test_nonfinite_step_level_is_named(level):
    with pytest.raises(InvariantViolation) as exc:
        SignalSpec.step(level)
    assert exc.value.invariant == "signal-level-finite"
    with pytest.raises(InvariantViolation) as exc:
        SignalSpec.from_obj({"kind": "step", "level": level})
    assert exc.value.invariant == "signal-level-finite"


def test_fractional_integers_are_refused_not_truncated(grid5_plant, grid5_ctrl):
    with pytest.raises(InvariantViolation) as exc:
        SignalSpec.from_obj({"kind": "step", "level": 1.0, "at": 2.5})
    assert exc.value.invariant == "signal-step-at-integral"
    assert SignalSpec.from_obj({"kind": "step", "level": 1.0, "at": 2.0}).at == 2
    obj = simkit.scenario_to_obj(simkit.grid5_scenario(grid5_plant, grid5_ctrl, horizon=10))
    for field, bad in (("horizon", 10.7), ("seed", 42.5), ("seed", float("nan"))):
        with pytest.raises(InvariantViolation) as exc:
            simkit.scenario_from_obj({**obj, field: bad})
        assert exc.value.invariant == f"scenario-{field}-integral"
    assert simkit.scenario_from_obj({**obj, "horizon": 10.0}).horizon == 10
    ctl = obj["controller"]
    for field, bad in (("row_orders", [ctl["row_orders"][0] + 0.5] + ctl["row_orders"][1:]),
                       ("partition", [5.5, 5]), ("grouping", [[1.5]] + ctl["grouping"][1:])):
        with pytest.raises(InvariantViolation) as exc:
            simkit.scenario_from_obj({**obj, "controller": {**ctl, field: bad}})
        assert exc.value.invariant == f"scenario-{field.replace('_', '-')}-integral"
    whole = simkit.scenario_from_obj({**obj, "controller": {**ctl, "partition": [5.0, 5.0]}})
    assert whole.controller.partition == (5, 5)


def test_controller_must_agree_with_its_metadata(grid5_ctrl):
    sys, m = grid5_ctrl.sys, 5
    narrow = StateSpace(sys.A, sys.B[:, 1:], sys.C, sys.D[:, 1:], DISC)
    cases = [(narrow, grid5_ctrl.row_orders, grid5_ctrl.grouping),
             (sys, [99], grid5_ctrl.grouping),
             (sys, grid5_ctrl.row_orders, [[1], [2], [3], [4], [7]])]
    for ss, orders, grouping in cases:
        with pytest.raises(InconsistentDimensions):
            dimpl.AssembledController(ss, orders, (m, 5), grouping)


# --- the grid plant ---


def test_grid5_plant_matches_rational_model(grid5_plant, grid5_tfm):
    assert grid5_plant.order == 9
    for pt in probe_points(DISC, 8):
        assert np.max(np.abs(grid5_plant.eval(pt) - grid5_tfm.eval(pt))) < 1e-9
    assert pbh_failure(grid5_plant) is None


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
    r, w, nu, du = np.split(sc.signals(), np.cumsum([5, 5, 5]), axis=1)
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


def test_simulate_matches_per_step_recursion(grid5_plant, grid5_ctrl):
    """The state path is x[n] = A x[n-1] + B e[n-1], stepped by index.

    The input term is one matrix product over the run, as in ``simulate``:
    BLAS may round a per-row B e[n-1] differently (by an ulp on this loop).
    """
    sc = simkit.grid5_scenario(grid5_plant, grid5_ctrl, seed=42, horizon=200)
    t = simkit.simulate(sc)
    loop = dimpl.closed_loop_state_matrix(grid5_plant, grid5_ctrl).map(
        ("y", "u"), dimpl.TABLE_INPUTS
    )
    drive = sc.signals()[:-1] @ loop.B.T
    x = np.zeros((sc.horizon, loop.order))
    for n in range(1, sc.horizon):
        x[n] = loop.A @ x[n - 1] + drive[n - 1]
    assert np.hstack([t.x_plant, t.x_ctrl]).tobytes() == x.tobytes()


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


BLOCK = simkit._TRACE_BLOCK


@pytest.mark.parametrize("horizon", [0, 1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
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


def _random_trace(horizon, m, p, seed=0):
    rng = np.random.default_rng(seed)
    blocks = [rng.normal(size=(horizon, factor._signal_width(s, (m, p))))
              for s in simkit._TRACE_SIGNALS]
    return simkit.SimTrace(*blocks, np.zeros((horizon, 0)), np.zeros((horizon, 0)))


def test_trace_io_memory_is_bounded_by_the_arrays(tmp_path):
    """Saving and loading a 10,000-step, 40-channel trace never holds its text
    or one Python float per value: the traced peak stays within 1.5 times the
    array bytes plus a constant (the whole-trace ``tolist`` alone takes five
    times the array bytes, and so does a reader that splits the whole text)."""
    t = _random_trace(10_000, 5, 5)
    nbytes = sum(getattr(t, s).nbytes for s in simkit._TRACE_SIGNALS)  # 3.2 MB
    path = tmp_path / "t.csv"
    tracemalloc.start()
    try:
        simkit.save_trace(str(path), t)
        back = simkit.load_trace(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.y.tobytes() == t.y.tobytes()
    assert peak < 1.5 * nbytes + 4_000_000, \
        f"peak {peak / 1e6:.1f} MB for {nbytes / 1e6:.1f} MB of arrays"


def _trace_lines(tmp_path):
    """The lines of a saved 4-step trace with m = 2, p = 3."""
    path = tmp_path / "t.csv"
    simkit.save_trace(str(path), _random_trace(4, 2, 3))
    return path.read_text(encoding="utf-8").splitlines()


def _bad_trace(tmp_path, lines):
    path = tmp_path / "bad.csv"
    path.write_bytes("".join(line + "\r\n" for line in lines).encode())
    with pytest.raises(InvariantViolation) as exc:
        simkit.load_trace(str(path))
    return exc.value.invariant


def test_trace_without_its_y_block_is_named(tmp_path):
    lines = _trace_lines(tmp_path)
    cut = [",".join(line.split(",")[:-3]) for line in lines]  # y1, y2, y3
    assert _bad_trace(tmp_path, cut) == "trace-header-layout"


def test_trace_with_an_extra_column_is_named(tmp_path):
    lines = _trace_lines(tmp_path)
    extra = [lines[0] + ",q1"] + [line + ",0.0" for line in lines[1:]]
    assert _bad_trace(tmp_path, extra) == "trace-header-layout"


def test_empty_trace_file_is_named(tmp_path):
    assert _bad_trace(tmp_path, []) == "trace-header-layout"


def test_ragged_trace_row_is_named(tmp_path):
    lines = _trace_lines(tmp_path)
    lines[2] = lines[2].rsplit(",", 1)[0]
    assert _bad_trace(tmp_path, lines) == "trace-rows-well-formed"
    # every row one cell short: no row is ragged, but none fits the header
    assert _bad_trace(tmp_path, lines[:1] + [line.rsplit(",", 1)[0] for line in lines[1:]]) \
        == "trace-rows-well-formed"


def test_non_numeric_trace_cell_is_named(tmp_path):
    lines = _trace_lines(tmp_path)
    cells = lines[3].split(",")
    cells[4] = "abc"
    lines[3] = ",".join(cells)
    assert _bad_trace(tmp_path, lines) == "trace-rows-well-formed"


def test_trace_step_column_is_checked(tmp_path):
    """Column n must count 0, 1, 2, ...: rows numbered 5, 3, 9 are refused,
    not loaded as steps 0, 1, 2."""
    lines = _trace_lines(tmp_path)[:4]
    lines[1:] = [f"{n}," + line.split(",", 1)[1] for n, line in zip((5, 3, 9), lines[1:])]
    assert _bad_trace(tmp_path, lines) == "trace-rows-well-formed"


def test_trace_without_rows_loads_empty(tmp_path):
    """A header alone, or followed by blank lines, is a horizon-0 trace; loadtxt
    would warn that it got no data, and the warning is an error here."""
    header = _trace_lines(tmp_path)[0]
    for tail in ("", "\r\n", "\r\n\r\n"):
        path = tmp_path / "empty.csv"
        path.write_bytes((header + "\r\n" + tail).encode())
        back = simkit.load_trace(str(path))
        assert back.y.shape == (0, 3) and back.u.shape == (0, 2)


def test_diverged_trace_cells_load(tmp_path):
    t = _random_trace(3, 2, 3)
    t.y[0] = [np.inf, -np.inf, np.nan]
    path = tmp_path / "t.csv"
    simkit.save_trace(str(path), t)
    assert simkit.load_trace(str(path)).y.tobytes() == t.y.tobytes()


def test_a_diverging_run_raises_no_numpy_warning(grid5_plant, grid5_ctrl):
    # the grid5 loop around its plant with A[0, 0] = 10 overflows to inf and
    # nan in the recursion and the readout; a trace of finite values near the
    # largest double overflows the metrics' sums.  Under the suite's
    # filterwarnings = error, a numpy warning would fail the test
    A = grid5_plant.A.copy()
    A[0, 0] = 10.0
    plant = StateSpace(A, grid5_plant.B, grid5_plant.C, grid5_plant.D, DISC)
    t = simkit.simulate(simkit.grid5_scenario(plant, grid5_ctrl, horizon=320))
    assert not np.isfinite(t.y).all()
    assert simkit.trace_metrics(t, settle_from=60).diverged
    t.y[:] = 1e308
    t.u[:] = np.linspace(0.0, 1e308, t.horizon)[:, None]
    met = simkit.trace_metrics(t, settle_from=60)
    assert np.isinf(met.tracking_error).all() and (met.max_abs_y == 1e308).all()


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
    # is the exciting input.  Noise channels are numbered through
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
