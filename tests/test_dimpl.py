"""Row-by-row realization, assembly, and closed-loop state-matrix checks."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrfctl import dimpl, factor, nrfsyn, simkit, sstate
from nrfctl.errors import (
    DimensionMismatch,
    InconsistentDimensions,
    InvariantViolation,
    NotDetectable,
    NotStabilizable,
    NrfError,
    SingularCoupling,
)
from nrfctl.nrfsyn import NrfPair
from nrfctl.ratmat import (
    RationalFunction,
    RationalMatrix,
    StabilityDomain,
    probe_points,
)
from nrfctl.sstate import StateSpace, match_multisets
from nrfctl.tolerances import RANK_REL_TOL

from helpers import pencil_ranks, pencil_svds, tfm_unstable_poles

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


@pytest.mark.parametrize("grouping", [[[1.9], [2.2, 3], [4], [5.5]], [[True], [2, 3], [4], [5]],
                                      [[1], ["2", 3], [4], [5]], [1.5, 2, 3, 4, 5]],
                         ids=["fractional", "boolean", "string", "fractional-scalar"])
def test_grouping_rows_are_integers(grid5_pair, grid5_ctrl, grouping):
    # a row number that is not an integer is refused, never truncated to one
    message = "is not a partition of rows 1..5"
    with pytest.raises(InconsistentDimensions, match=message):
        dimpl.realize_rows(grid5_pair, grouping)
    with pytest.raises(InconsistentDimensions, match=message):
        dimpl.AssembledController(grid5_ctrl.sys, grid5_ctrl.row_orders, (5, 5), grouping)


def test_assemble_refuses_rows_of_unequal_input_width(grid5_rows):
    # one row reads nine of the ten inputs: stack_outputs names the mismatch
    narrow = dimpl.RowRealization(2, grid5_rows[1].sys.select([0], range(9)))
    with pytest.raises(DimensionMismatch):
        dimpl.assemble([grid5_rows[0], narrow, *grid5_rows[2:]])


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
    got = grid5_ctrl.sys.unstable_eigenvalues
    assert match_multisets(got, want, 1e-6)
    assert match_multisets(got, [1.0] * 5, 1e-6)


def test_closed_loop_state_matrix_grid5(grid5_plant, grid5_ctrl):
    cl = dimpl.closed_loop_state_matrix(grid5_plant, grid5_ctrl)
    assert cl.order == 24
    assert cl.sys.A.shape == (24, 24)
    radius = max(abs(v) for v in cl.eigenvalues())
    assert radius < 1.0 - 1e-6
    assert cl.is_stable
    # both invertibility certificates for the coupling matrix
    ok_schur, margin_schur = sstate._invertibility(cl.schur)
    ok_direct, margin_direct = sstate._invertibility(cl.Dtilde)
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
    quiet = [simkit.SignalSpec.zero()] * 2
    with pytest.raises(SingularCoupling):
        simkit.simulate(simkit.Scenario(5, quiet, quiet, quiet, quiet, 0, plant, ctrl))


def test_assembly_refuses_a_mode_no_input_stabilizes():
    # two rows 1/(z - 1) on one measurement: each row's integrator is
    # stabilizable on its own, but stacked they share one input column, so the
    # double mode at z = 1 fails the assembled PBH test
    integrator = RationalFunction((1.0,), (-1.0, 1.0))
    pair = NrfPair(RationalMatrix.zeros(2, 2, DISC),
                   RationalMatrix([[integrator], [integrator]], DISC))
    rows = dimpl.realize_rows(pair)
    assert [r.order for r in rows] == [1, 1]
    assert all(sstate.pbh_failure(r.sys) != "stabilizable" for r in rows)
    with pytest.raises(InvariantViolation, match="assembled-stabilizable"):
        dimpl.assemble(rows)


def test_internal_stability_two_routes_agree(grid5_pair, grid5_tfm):
    probe_only = dimpl.verify_internal_stability_tfm(grid5_pair, grid5_tfm)
    assert probe_only.stable
    assert probe_only.max_disagreement < 1e-6


def test_stable_loop_reduces_no_map(grid5_pair, grid5_plant, monkeypatch):
    """A stable A_CL settles every loop map: no map is cut out and reduced."""
    def refuse(*args):
        raise AssertionError("unstable_map_poles called on a stable loop")

    monkeypatch.setattr(sstate, "unstable_map_poles", refuse)
    report = dimpl.verify_internal_stability(grid5_pair, grid5_plant)
    assert report.stable
    assert len(report.block_poles) == 16
    assert not any(report.block_poles.values())
    assert report.unstable_entries == ()


def test_unstable_loop_takes_the_loop_spectrum_once(grid5_pair, grid5_plant, monkeypatch):
    # the demo pair, read back as `nrfctl check` reads nrf.json, around the
    # grid5 plant with B negated (CI's check-negB case): every map cut from
    # the loop keeps eig(A_CL), so of all eigvals calls one is on the 24 x 24 A_CL
    pair = nrfsyn.nrf_from_obj(json.loads(json.dumps(nrfsyn.nrf_to_obj(grid5_pair))))
    plant = StateSpace(grid5_plant.A, -grid5_plant.B, grid5_plant.C, grid5_plant.D, DISC)
    shapes, eigvals = [], np.linalg.eigvals

    def counting(a):
        shapes.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    report = dimpl.verify_internal_stability(pair, plant)
    assert not report.stable and report.loop.order == 24
    assert shapes.count((24, 24)) == 1
    assert len(shapes) == 175


def _negated_b_loop_check(grid5_pair, grid5_plant):
    """CI's check-negB case: the demo pair, read back as `nrfctl check` reads
    nrf.json, and the grid5 plant with B negated."""
    pair = nrfsyn.nrf_from_obj(json.loads(json.dumps(nrfsyn.nrf_to_obj(grid5_pair))))
    return pair, StateSpace(grid5_plant.A, -grid5_plant.B, grid5_plant.C, grid5_plant.D, DISC)


def test_unstable_loop_reduces_each_distinct_map_once(grid5_pair, grid5_plant, monkeypatch):
    # CI's check-negB case: the v = u + w blocks have the (A, B, C) of the u
    # blocks and H-tilde's rows -u the poles of its rows u, so of the 16 blocks
    # and 15 x 15 entries, 12 blocks are reduced one by one and the 10 x 15
    # entries in one entry_reductions pass
    pair, plant = _negated_b_loop_check(grid5_pair, grid5_plant)
    calls, reduce = [], sstate.unstable_map_poles
    passes, entries, entry_reductions = [], [], sstate.entry_reductions

    def counting(sys):
        calls.append(sys)
        return reduce(sys)

    def counting_entries(sys):
        passes.append(sys.D.shape)
        for entry in entry_reductions(sys):
            entries.append(entry[:2])
            yield entry

    monkeypatch.setattr(sstate, "unstable_map_poles", counting)
    monkeypatch.setattr(sstate, "entry_reductions", counting_entries)
    report = dimpl.verify_internal_stability(pair, plant)
    assert not report.stable and len(calls) == 12
    assert passes == [(10, 15)] and len(entries) == 150
    # the verdicts passed on are those of the maps' and the entries' own reductions
    loop = report.loop
    for (out, inp), poles in report.block_poles.items():
        assert reduce(loop.map((out,), (inp,))) == poles, (out, inp)
    H = loop.map(("u", "u", "y"), ("cmd", "du", "r"))
    assert report.unstable_entries == tuple(
        (i, j) for i in range(H.n_outputs) for j in range(H.n_inputs)
        if reduce(H.select([i], [j])))
    assert report.unstable_entries and report.block_poles["v", "w"]


def test_unstable_loop_runs_one_observability_staircase_per_row(grid5_pair, grid5_plant,
                                                                monkeypatch):
    # CI's check-negB case: the 5 row realizations, the 12 distinct blocks and
    # the 10 rows of H-tilde take one observability staircase each, where a
    # staircase per H-tilde entry took 167
    pair, plant = _negated_b_loop_check(grid5_pair, grid5_plant)
    calls, staircase = [], sstate.obsv_staircase

    def counting(*args):
        calls.append(args[0].shape)
        return staircase(*args)

    monkeypatch.setattr(sstate, "obsv_staircase", counting)
    report = dimpl.verify_internal_stability(pair, plant)
    assert not report.stable and len(calls) == 27
    assert calls.count((24, 24)) == 22


@pytest.mark.parametrize("case", ["grid5", 5])
def test_unstable_loop_takes_each_pencil_spectrum_once_per_side(case, grid5_pair, grid5_plant,
                                                                platoon, monkeypatch):
    # CI's check-negB case, or chain n = case (benchmark targets, Q = 0) with B
    # negated.  The pencil spectra are kept facts of the loop per side, mode
    # and tested columns, so per distinct unstable mode A_CL - lam I takes one
    # SVD per side, and with the 15 H-tilde columns and 4 block input sets on
    # side B and the 10 H-tilde rows and 3 block output sets on side C at most
    # 34, where each entry's tests took their own (294 on grid5, 1630 on chain n = 5)
    if case == "grid5":
        pair, plant = _negated_b_loop_check(grid5_pair, grid5_plant)
    else:
        plant, dcf, shift = platoon(case)
        pair = nrfsyn.nrf_from_dcf(dcf, shift)
        plant = StateSpace(plant.A, -plant.B, plant.C, plant.D, DISC)
    pencils = pencil_svds(monkeypatch)
    report = dimpl.verify_internal_stability(pair, plant)
    monkeypatch.undo()
    n = report.loop.order
    modes = len({(z.real.hex(), z.imag.hex()) for z in report.loop.sys.unstable_eigenvalues})
    on_loop = [shape for shape in pencils if shape[0] == n]
    assert not report.stable and modes == {"grid5": 8, 5: 5}[case]
    assert 0 < on_loop.count((n, n)) <= 2 * modes
    assert len(on_loop) <= 34 * modes


def test_kept_pencil_verdicts_equal_the_reference(platoon):
    # every pencil spectrum an unstable verify keeps on A_CL counts the ranks
    # of the reference test at its side, mode and tested columns: at each of
    # the 3 modes, the 9 H-tilde columns and 4 block input sets, and the 6
    # H-tilde rows and 3 block output sets
    plant, dcf, shift = platoon(3)
    negated = StateSpace(plant.A, -plant.B, plant.C, plant.D, DISC)
    loop = dimpl.verify_internal_stability(nrfsyn.nrf_from_dcf(dcf, shift), negated).loop.sys
    n, kept = loop.order, loop._facts
    pencils = [key for key in kept if isinstance(key, tuple) and key[3]]
    assert len(pencils) == 3 * (9 + 4 + 6 + 3)
    for side, re, im, columns in pencils:
        lam = complex(float.fromhex(re), float.fromhex(im))
        A = loop.A if side == "B" else loop.A.T
        S, S_A = kept[side, re, im, columns], kept[side, re, im, b""]
        cut = RANK_REL_TOL * S[0]
        ranks = (int(np.sum(S > cut)), int(np.sum(S_A > cut)))
        assert ranks == pencil_ranks(A, np.frombuffer(columns).reshape(n, -1), lam)


@pytest.mark.parametrize("key, scale, error", [("B", -1e8, NotStabilizable),
                                                ("C", 1e8, NotDetectable)])
def test_verify_refuses_a_plant_that_fails_pbh(key, scale, error, grid5_pair, grid5_plant):
    # the loop around the scaled plant has 10 unstable eigenvalues, which the
    # rank tests on the loop maps miss: the plant's own verdict is read first,
    # with dcf_from_ss's rule and errors
    B, C = grid5_plant.B, grid5_plant.C
    B, C = (scale * B, C) if key == "B" else (B, scale * C)
    plant = StateSpace(grid5_plant.A, B, C, grid5_plant.D, DISC)
    ctrl = dimpl.assemble(dimpl.realize_rows(grid5_pair))
    assert len(dimpl.closed_loop_state_matrix(plant, ctrl).sys.unstable_eigenvalues) == 10
    with pytest.raises(error):
        dimpl.verify_internal_stability(grid5_pair, plant)
    with pytest.raises(error):
        factor.dcf_from_ss(plant, np.zeros((plant.n_inputs, plant.order)),
                           np.zeros((plant.order, plant.n_outputs)))


def _negated_b_chain_loop(platoon, n):
    """Chain of n vehicles (benchmark targets, Q = 0): its pair's loop around
    the plant with B negated."""
    plant, dcf, shift = platoon(n)
    ctrl = dimpl.assemble(dimpl.realize_rows(nrfsyn.nrf_from_dcf(dcf, shift)))
    negated = StateSpace(plant.A, -plant.B, plant.C, plant.D, DISC)
    return dimpl.closed_loop_state_matrix(negated, ctrl)


@pytest.mark.parametrize("case", ["grid5", 3, 4, 5])
def test_entry_reductions_are_each_entrys_own_minimal_realization(
        case, grid5_pair, grid5_plant, platoon):
    # H-tilde of an unstable loop: the pass's arrays have the bytes of
    # minimal on each entry cut out alone
    if case == "grid5":
        pair, plant = _negated_b_loop_check(grid5_pair, grid5_plant)
        loop = dimpl.closed_loop_state_matrix(plant, dimpl.assemble(dimpl.realize_rows(pair)))
    else:
        loop = _negated_b_chain_loop(platoon, case)
    assert not loop.is_stable
    H = loop.map(("u", "y"), ("cmd", "du", "r"))
    seen = []
    for i, j, A, B, C in sstate.entry_reductions(H):
        alone = sstate.minimal(H.select([i], [j]))
        assert [M.tobytes() for M in (A, B, C)] == [M.tobytes() for M in (alone.A, alone.B, alone.C)]
        assert (A.shape, B.shape, C.shape) == (alone.A.shape, alone.B.shape, alone.C.shape)
        seen.append((i, j))
    assert seen == [(i, j) for i in range(H.n_outputs) for j in range(H.n_inputs)]


@pytest.mark.parametrize("n", range(3, 11))
def test_platoon_transfer_verdict_matches_eigenvalues(platoon, platoon_spread, n):
    # chain of n vehicles with the benchmark's gains and Q = 0
    plant, dcf, shift = platoon(n)
    pair = nrfsyn.nrf_from_dcf(dcf, shift)
    cl = dimpl.closed_loop_state_matrix(plant, dimpl.assemble(dimpl.realize_rows(pair)))
    report = dimpl.verify_internal_stability_tfm(pair, sstate.ss_to_tf(plant))
    assert report.stable == cl.is_stable
    # the loop's slowest mode is the largest placed target, 0.6 + s (order - 1)
    radius = max(abs(v) for v in cl.eigenvalues())
    assert abs(radius - (0.6 + platoon_spread(plant.order) * (plant.order - 1))) <= 1e-6


@pytest.mark.parametrize("form", ["realization", "rational"])
def test_json_pair_realizes_at_the_synthesized_orders(grid5_pair, form):
    # a pair read back from JSON takes its stored row systems, or, from a
    # file with phi and gamma alone, realizes its rows from the rational entries
    obj = nrfsyn.nrf_to_obj(grid5_pair)
    if form == "rational":
        del obj["row_systems"]
    back = nrfsyn.nrf_from_obj(obj)
    want = [r.order for r in dimpl.realize_rows(grid5_pair)]
    assert [r.order for r in dimpl.realize_rows(back)] == want == [2, 3, 4, 3, 3]
    grouping = [[1], [2, 3], [4], [5]]
    assert [r.order for r in dimpl.realize_rows(back, grouping)] == [
        r.order for r in dimpl.realize_rows(grid5_pair, grouping)
    ]


def test_numerically_factored_grid5_realizes(grid5_plant, grid5_q):
    # the README's `nrfctl dcf` targets, then the demo's Youla parameter
    targets = [0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7]
    dcf = factor.dcf_from_ss(grid5_plant, *factor.place_gains(grid5_plant, targets))
    pair = nrfsyn.nrf_from_dcf(dcf, factor.youla_shift(dcf, grid5_q))
    ctrl = dimpl.assemble(dimpl.realize_rows(pair))
    assert dimpl.closed_loop_state_matrix(grid5_plant, ctrl).is_stable


def _incidences(nodes):
    """Receiver-by-sender adjacency without self-loops on the given node count."""
    return st.lists(st.booleans(), min_size=nodes * nodes, max_size=nodes * nodes).map(
        lambda bits: np.array(bits).reshape(nodes, nodes) & ~np.eye(nodes, dtype=bool)
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4).flatmap(_incidences))
def test_random_topologies_pass_or_raise_named_errors(incidence):
    """Synthesis on a random network either passes every audit or stops at a
    named NrfError (anything else, such as a bare LinAlgError, escapes and
    fails the test), and the verdict of verify is the stability of A_CL."""
    plant = simkit.build_network_plant(incidence)
    n = incidence.shape[0]
    try:
        dcf = factor.dcf_from_ss(plant, *factor.place_gains(plant, factor.default_targets(plant.order, DISC)))
        shift = factor.youla_shift(dcf, RationalMatrix.zeros(n, n, DISC))
        report = dimpl.verify_internal_stability(nrfsyn.nrf_from_dcf(dcf, shift), plant)
    except NrfError:
        return
    assert report.stable == report.loop.is_stable


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
    back = dimpl.bundle_from_obj(json.loads(path.read_text(encoding="utf-8")))
    assert [r.index for r in back] == [r.index for r in grid5_rows]
    assert [r.order for r in back] == [r.order for r in grid5_rows]
    ctrl = dimpl.assemble(back)
    assert ctrl.order == 15
    obj = dimpl.bundle_to_obj(grid5_rows)
    assert dimpl.bundle_to_obj(dimpl.bundle_from_obj(obj)) == obj


def test_bundle_rejects_foreign_objects():
    with pytest.raises(InvariantViolation):
        dimpl.bundle_from_obj({"rows": []})
    for obj in (5, None, True, [1, 2], "x"):  # a file that is not an object
        with pytest.raises(InvariantViolation, match="bundle-fields-present"):
            dimpl.bundle_from_obj(obj)
    ss = sstate.ss_to_obj(StateSpace([[0.5]], [[1.0, 0.0]], [[1.0]], [[0.0, 0.0]], DISC))
    for rows in ([5], 5, [{}], [{"index": 1}], [{"index": "x", "ss": ss}]):  # malformed rows
        with pytest.raises(InvariantViolation, match="bundle-fields-present"):
            dimpl.bundle_from_obj({"rows": rows, "grouping": [[1]]})


@pytest.mark.parametrize("index", [True, False, [True], [1.0]],
                         ids=["true", "false", "[true]", "[1.0]"])
def test_bundle_refuses_an_index_that_is_not_an_integer(index):
    ss = sstate.ss_to_obj(StateSpace([[0.5]], [[1.0, 0.0]], [[1.0]], [[0.0, 0.0]], DISC))
    assert [r.rows for r in dimpl.bundle_from_obj({"rows": [{"index": 1, "ss": ss}],
                                                   "grouping": [[1]]})] == [(1,)]
    with pytest.raises(InvariantViolation, match="bundle-fields-present"):
        dimpl.bundle_from_obj({"rows": [{"index": index, "ss": ss}], "grouping": [[1]]})


@pytest.mark.parametrize("grouping", [
    [[9, 9]], [], [[1], [2], [3], [4]], [[2], [1], [3], [4], [5]], [[1, 2], [3], [4], [5]],
    [[True], [2], [3], [4], [5]], [[1.0], [2], [3], [4], [5]], "x", None,
], ids=["foreign", "empty", "short", "reordered", "merged", "bool", "float", "string", "null"])
def test_bundle_refuses_a_grouping_that_is_not_its_rows_groups(grouping, grid5_rows):
    obj = dimpl.bundle_to_obj(grid5_rows)
    assert obj["grouping"] == [[1], [2], [3], [4], [5]]
    obj["grouping"] = grouping
    with pytest.raises(InvariantViolation, match="bundle-fields-present: grouping"):
        dimpl.bundle_from_obj(obj)


def test_bundle_of_grouped_rows_round_trips(grid5_pair):
    rows = dimpl.realize_rows(grid5_pair, [[1], [2, 3], [4], [5]])
    obj = dimpl.bundle_to_obj(rows)
    assert obj["grouping"] == [[1], [2, 3], [4], [5]]
    assert dimpl.bundle_to_obj(dimpl.bundle_from_obj(obj)) == obj


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


def test_eigenvalue_flags_follow_the_stability_margin():
    # 1 - 5e-10 lies inside the unit disc but within the margin: the report
    # flags it unstable, as the loop's verdict does
    plant = StateSpace(np.diag([0.5, 1.0 - 5e-10]), [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]], DISC)
    zero = RationalMatrix.zeros(1, 1, DISC)
    ctrl = dimpl.assemble(dimpl.realize_rows(NrfPair(zero, zero)))
    cl = dimpl.closed_loop_state_matrix(plant, ctrl)
    assert not cl.is_stable
    assert [r[3] for r in dimpl.eigenvalue_rows(cl)] == [0, 1]


@pytest.mark.parametrize("n, m, p", [(3, 1, 2), (3, 2, 1), (4, 2, 3)])
def test_non_square_loop(tmp_path, n, m, p):
    """A plant with p != m: the symbolic table and the realized loop agree,
    both read z = r - y and v = u + w off (y, u), a simulation keeps the two
    identities and its trace survives the CSV, and a tall plant survives
    ss_to_tf and tfm_to_ss (which realizes it through its transpose)."""
    rng = np.random.default_rng(3)
    A = rng.normal(size=(n, n))
    A *= 1.1 / np.max(np.abs(np.linalg.eigvals(A)))
    plant = StateSpace(A, rng.normal(size=(n, m)), rng.normal(size=(p, n)), np.zeros((p, m)), DISC)
    dcf = factor.dcf_from_ss(plant, *factor.place_gains(plant, [0.3 + 0.1 * k for k in range(n)]))
    shift = factor.youla_shift(dcf, RationalMatrix.zeros(m, p, DISC))
    pair = nrfsyn.nrf_from_dcf(dcf, shift)
    table = factor.closed_loop_maps(dcf, shift)
    report = dimpl.verify_internal_stability(pair, plant)
    assert report.stable
    loop = report.loop.map(dimpl.LOOP_OUTPUTS, dimpl.TABLE_INPUTS)
    pts = probe_points(DISC, 5)
    assert np.max(np.abs(table.eval_many(pts) - loop.eval_many(pts))) < 1e-8

    # rows (y, u, z, v), columns (r, w, nu, du): z and v are read off (y, u)
    E_r, E_w = np.eye(p, 2 * (p + m)), np.eye(m, 2 * (p + m), k=p)
    for sys in (table, loop):
        Cy, Cu, Cz, Cv = np.split(sys.C, np.cumsum([p, m, p]))
        Dy, Du, Dz, Dv = np.split(sys.D, np.cumsum([p, m, p]))
        assert np.array_equal(Cz, -Cy) and np.array_equal(Cv, Cu)
        assert np.array_equal(Dz, E_r - Dy) and np.array_equal(Dv, Du + E_w)

    ctrl = dimpl.assemble(dimpl.realize_rows(pair))
    sc = simkit.Scenario(
        50,
        [simkit.SignalSpec.step(1.0)] * p,
        [simkit.SignalSpec.step(0.5, at=10)] + [simkit.SignalSpec.zero()] * (m - 1),
        [simkit.SignalSpec.uniform(0.05)] * p,
        [simkit.SignalSpec.uniform(0.05)] * m,
        7, plant, ctrl,
    )
    t = simkit.simulate(sc)
    assert t.y.shape == (50, p) and t.u.shape == (50, m)
    assert np.array_equal(t.z, t.r - t.y) and np.array_equal(t.v, t.u + t.w)
    path = tmp_path / "t.csv"
    simkit.save_trace(str(path), t)
    back = simkit.load_trace(str(path))
    for name in simkit._TRACE_SIGNALS:
        assert getattr(back, name).tobytes() == getattr(t, name).tobytes()

    if p > m:
        again = sstate.tfm_to_ss(sstate.ss_to_tf(plant))
        assert again.order == n
        want = plant.eval_many(pts)
        assert np.max(np.abs(again.eval_many(pts) - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))
