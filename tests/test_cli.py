"""Command-line frontend: exit codes, reports, artifact round trips."""

import ast
import json
import os
import subprocess
import sys

import pytest

from nrfctl import cli, factor, nrfsyn, simkit, sstate
from nrfctl.ratmat import (
    Polynomial,
    RationalFunction,
    RationalMatrix,
    StabilityDomain,
    ratmat_to_obj,
    save_ratmat,
)
from nrfctl.sstate import StateSpace

DISC = StabilityDomain.DISCRETE


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    code = cli.main(["demo", "grid5", "--out", str(out)])
    assert code == 0
    return out


def test_demo_writes_all_artifacts(demo_dir, capsys):
    for name in (
        "plant.json",
        "dcf.json",
        "q.json",
        "nrf.json",
        "patterns.json",
        "rows.json",
        "acl_eigs.csv",
        "scenario.json",
        "trace.csv",
    ):
        assert (demo_dir / name).exists(), name


def test_demo_report_lines(tmp_path, capsys):
    code = cli.main(["demo", "grid5", "--out", str(tmp_path / "d"), "--no-sim", "--grid", "256"])
    out = capsys.readouterr().out
    assert code == 0
    assert "matches the grid5 closed form coefficient-wise: True" in out
    assert "row orders: [2, 3, 4, 3, 3] (total 15)" in out
    line = [l for l in out.splitlines() if l.startswith("closed-loop grid norm (256 points): ")]
    assert len(line) == 1
    assert abs(float(line[0].split(":")[1]) / 7.25325527697 - 1.0) < 1e-9
    assert "status: ok" in out
    assert "trace.csv" not in out  # --no-sim stops before simulation


def test_demo_unknown_name(capsys):
    assert cli.main(["demo", "nosuch"]) == 1
    assert "status: error" in capsys.readouterr().out


def test_dcf_command_on_demo_plant(demo_dir, tmp_path, capsys):
    out = tmp_path / "dcf2.json"
    code = cli.main(["dcf", "--plant", str(demo_dir / "plant.json"), "--out", str(out)])
    report = capsys.readouterr().out
    assert code == 0
    assert "bezout residual:" in report
    residual = float(report.split("bezout residual:")[1].split()[0])
    assert residual < 1e-8
    assert out.exists()


# a four-node network with cycles whose rational factors, at the default
# all-0.5 targets, miss the Bézout identity by 2.4e-8, above PROBE_TOL
CYCLIC_NETWORK = [[0, 0, 1, 1], [0, 0, 1, 0], [1, 1, 0, 1], [0, 1, 1, 0]]


def test_dcf_writes_what_the_commands_read(tmp_path, capsys):
    plant, q = tmp_path / "plant.json", tmp_path / "q.json"
    sstate.save_ss(simkit.build_network_plant(CYCLIC_NETWORK), str(plant))
    save_ratmat(RationalMatrix.zeros(4, 4, DISC), str(q))
    dcf, nrf = tmp_path / "dcf.json", tmp_path / "nrf.json"
    codes = [cli.main([str(a) for a in argv]) for argv in (
        ["dcf", "--plant", plant, "--out", dcf],
        ["nrf", "--dcf", dcf, "--q", q, "--out", nrf],
        ["check", "--nrf", nrf, "--plant", plant],
        ["realize", "--nrf", nrf, "--out", tmp_path / "rows.json"],
        ["cert", "--dcf", dcf, "--q", q, "--mode", "mr3"],
    )]
    out = capsys.readouterr().out
    assert codes == [0, 0, 0, 0, 2]
    assert float(out.split("bezout residual:")[1].split()[0]) > 1e-8
    # the rational factors alone are refused where a file gives nothing else
    obj = json.loads(dcf.read_text())
    rational = tmp_path / "dcf-rational.json"
    rational.write_text(json.dumps({k: v for k, v in obj.items() if k not in ("left", "right", "shape")}))
    code = cli.main(["nrf", "--dcf", str(rational), "--q", str(q), "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert "InvariantViolation: bezout-identity: given factors" in capsys.readouterr().out


def test_demo_refuses_a_closed_form_mismatch(tmp_path, capsys, monkeypatch):
    entries = [list(row) for row in simkit.grid5_nrf().entries]
    entries[0][5] = RationalFunction(Polynomial([-0.85, 1.05 + 1e-6]), entries[0][5].den)
    monkeypatch.setattr(simkit, "grid5_nrf", lambda: RationalMatrix(entries, DISC))
    code = cli.main(["demo", "grid5", "--out", str(tmp_path / "d"), "--no-sim"])
    out = capsys.readouterr().out
    assert code == 1
    assert "InvariantViolation: grid5-closed-form" in out


_DROP = object()  # the value that deletes the key


def _set(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    if value is _DROP:
        del obj[path[-1]]
    else:
        obj[path[-1]] = value


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name, rational, path, invariant", [
    ("dcf.json", False, ("left", "A", 0, 0), "ss-finite"),
    ("dcf.json", True, ("M", "entries", 0, 0, "num", 0), "ratmat-finite"),
    ("nrf.json", False, ("row_systems", 0, "A", 0, 0), "ss-finite"),
    ("nrf.json", True, ("phi", "entries", 1, 0, "num", 0), "ratmat-finite"),
    ("plant.json", False, ("A", 0, 0), "ss-finite"),
    ("scenario.json", False, ("plant", "A", 0, 0), "ss-finite"),
], ids=["dcf", "dcf-rational", "nrf", "nrf-rational", "plant", "scenario"])
def test_nonfinite_numbers_are_named_at_the_reader(name, rational, path, invariant, value,
                                                   demo_dir, tmp_path, capsys):
    obj = json.loads((demo_dir / name).read_text())
    if rational:
        obj = {k: v for k, v in obj.items() if k not in ("left", "right", "shape", "row_systems")}
    _set(obj, path, value)
    bad = tmp_path / name
    bad.write_text(json.dumps(obj))
    argv = {
        "dcf.json": ["cert", "--dcf", bad, "--q", demo_dir / "q.json", "--mode", "mr3"],
        "nrf.json": ["check", "--nrf", bad, "--plant", demo_dir / "plant.json"],
        "plant.json": ["dcf", "--plant", bad, "--out", tmp_path / "x.json"],
        "scenario.json": ["simulate", "--scenario", bad, "--out", tmp_path / "t.csv"],
    }[name]
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr().out
    assert code == 1
    assert f"InvariantViolation: {invariant}" in out


@pytest.mark.parametrize("name, path, value, named", [
    ("scenario.json", ("reference", 0), 1.0, "InvariantViolation: signal-kind"),
    ("scenario.json", ("reference", 0), [1.0], "InvariantViolation: signal-kind"),
    ("scenario.json", ("reference",), 0, "InvariantViolation: scenario-fields-present"),
    ("scenario.json", ("controller",), [], "InvariantViolation: scenario-fields-present"),
    ("scenario.json", ("controller", "grouping"), 3, "InvariantViolation: scenario-fields-present"),
    ("scenario.json", ("seed",), None, "InvariantViolation: scenario-seed-integral"),
    ("scenario.json", ("horizon",), "100", "InvariantViolation: scenario-horizon-integral"),
    ("scenario.json", ("reference", 0, "level"), None, "InvariantViolation: signal-level-finite"),
    ("scenario.json", ("measurement_noise", 0, "bound"), "0.05",
     "InvariantViolation: noise-bound-nonnegative"),
    ("q.json", ("entries",), 5, "InvariantViolation: ratmat-fields-present"),
    ("q.json", ("entries", 0), [0.0] * 5, "InvariantViolation: ratmat-fields-present"),
    ("q.json", ("entries", 0, 0, "num"), [[0.0]], "InvariantViolation: ratmat-fields-present"),
    ("q.json", ("rows",), "5", "InvariantViolation: ratmat-fields-present"),
    ("scenario.json", ("controller", "partition"), [5, 5, 5], "InconsistentDimensions: partition"),
    ("scenario.json", ("controller", "partition"), [5], "InconsistentDimensions: partition"),
    ("scenario.json", ("reference", 0, "level"), _DROP,
     "InvariantViolation: scenario-fields-present"),
    ("scenario.json", ("measurement_noise", 0, "bound"), _DROP,
     "InvariantViolation: scenario-fields-present"),
    ("q.json", ("domain",), _DROP, "InvariantViolation: ratmat-fields-present"),
    ("q.json", ("rows",), _DROP, "InvariantViolation: ratmat-fields-present"),
    ("q.json", ("cols",), _DROP, "InvariantViolation: ratmat-fields-present"),
    ("q.json", ("domain",), "z-plane", "InvariantViolation: ratmat-fields-present"),
    ("plant.json", ("domain",), "z-plane", "InvariantViolation: ss-fields-present"),
    ("scenario.json", ("reference", 0), {"kind": ["step"], "level": 1.0},
     "InvariantViolation: signal-kind: unknown kind ['step']"),
    ("scenario.json", ("reference", 0), {"kind": {"a": 1}},
     "InvariantViolation: signal-kind: unknown kind {'a': 1}"),
    ("scenario.json", ("horizon",), True, "InvariantViolation: scenario-horizon-integral"),
    ("scenario.json", ("seed",), False, "InvariantViolation: scenario-seed-integral"),
    ("scenario.json", ("reference", 0, "level"), True, "InvariantViolation: signal-level-finite"),
], ids=["signal-number", "signal-list", "reference-number", "controller-list", "grouping-int",
        "seed-null", "horizon-string", "level-null", "bound-string", "entries-int",
        "row-of-numbers", "nested-num", "rows-string", "partition-3", "partition-1",
        "step-no-level", "uniform-no-bound", "q-no-domain", "q-no-rows", "q-no-cols",
        "q-unknown-domain", "plant-unknown-domain", "kind-list", "kind-object", "horizon-true",
        "seed-false", "level-true"])
def test_malformed_files_are_named_at_the_reader(name, path, value, named,
                                                 demo_dir, tmp_path, capsys):
    obj = json.loads((demo_dir / name).read_text())
    _set(obj, path, value)
    bad, out_file = tmp_path / name, tmp_path / "out"
    bad.write_text(json.dumps(obj))
    argv = {
        "scenario.json": ["simulate", "--scenario", bad, "--out", out_file],
        "q.json": ["nrf", "--dcf", demo_dir / "dcf.json", "--q", bad, "--out", out_file],
        "plant.json": ["dcf", "--plant", bad, "--out", out_file],
    }[name]
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith(named) and out.endswith("status: error\n")
    assert not out_file.exists()


@pytest.mark.parametrize("name, path, value, named", [
    ("plant.json", ("A",), {}, "InvariantViolation: ss-finite: {} is not a number"),
    ("plant.json", ("A", 0, 0), True, "InvariantViolation: ss-finite: True is not a number"),
    ("plant.json", ("C", 0), "1", "InvariantViolation: ss-finite: '1' is not a number"),
    ("plant.json", ("D", 0, 0), None, "InvariantViolation: ss-finite: None is not a number"),
    ("dcf.json", ("left", "B", 0, 0), False, "InvariantViolation: ss-finite: False is not a number"),
    ("q.json", ("entries", 0, 0, "den"), {}, "InvariantViolation: ratmat-finite: {} is not a number"),
    ("q.json", ("entries", 0, 0, "num", 0), True,
     "InvariantViolation: ratmat-finite: True is not a number"),
    ("plant-tfm.json", ("entries", 0, 0, "den"), {},
     "InvariantViolation: ratmat-finite: {} is not a number"),
], ids=["plant-A-object", "plant-A-true", "plant-C-string", "plant-D-null", "dcf-left-false",
        "q-den-object", "q-num-true", "plant-tfm-den-object"])
def test_non_numeric_matrix_cells_are_named_at_the_reader(name, path, value, named,
                                                          demo_dir, tmp_path, capsys):
    if name == "plant-tfm.json":
        obj = ratmat_to_obj(simkit.grid5_tfm())
    else:
        obj = json.loads((demo_dir / name).read_text())
    _set(obj, path, value)
    bad, out_file = tmp_path / name, tmp_path / "out.json"
    bad.write_text(json.dumps(obj))
    argv = {
        "plant.json": ["dcf", "--plant", bad, "--out", out_file],
        "plant-tfm.json": ["dcf", "--plant", bad, "--out", out_file],
        "dcf.json": ["nrf", "--dcf", bad, "--q", demo_dir / "q.json", "--out", out_file],
        "q.json": ["nrf", "--dcf", demo_dir / "dcf.json", "--q", bad, "--out", out_file],
    }[name]
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith(named) and out.endswith("status: error\n")
    assert not out_file.exists()


def test_dcf_refuses_a_target_that_is_not_finite(demo_dir, tmp_path, capsys):
    out_file = tmp_path / "dcf.json"
    code = cli.main(["dcf", "--plant", str(demo_dir / "plant.json"),
                     "--targets", "0.1,0.2,nan,0.3,0.3,0.3,0.3,0.3,0.3", "--out", str(out_file)])
    out = capsys.readouterr().out
    assert code == 1
    assert out == "PlacementFailed: target (nan+0j) is not finite\nstatus: error\n"
    assert not out_file.exists()


@pytest.mark.parametrize("text", ["5", "null", "true", "[1, 2]", '"x"'],
                         ids=["int", "null", "bool", "list", "string"])
@pytest.mark.parametrize("command, named", [
    ("dcf --plant BAD --out OUT", "NrfError: BAD: neither a state-space nor a rational-matrix"),
    ("nrf --dcf BAD --q q.json --out OUT", "InvariantViolation: dcf-fields-present"),
    ("nrf --dcf dcf.json --q q.json --patterns BAD --out OUT",
     "NrfError: BAD: pattern file needs boolean masks"),
    ("check --nrf BAD --plant plant.json", "InvariantViolation: nrf-fields-present"),
    ("check --nrf nrf.json --plant BAD", "NrfError: BAD: neither a state-space nor a rational"),
    ("realize --nrf BAD --out OUT", "InvariantViolation: nrf-fields-present"),
    ("cert --dcf BAD --q q.json --mode mr3", "InvariantViolation: dcf-fields-present"),
], ids=["dcf-plant", "nrf-dcf", "nrf-patterns", "check-nrf", "check-plant", "realize-nrf",
        "cert-dcf"])
def test_a_file_that_is_not_an_object_is_named_at_the_reader(text, command, named,
                                                             demo_dir, tmp_path, capsys):
    bad, out_file = tmp_path / "bad.json", tmp_path / "out.json"
    bad.write_text(text)
    paths = {"BAD": str(bad), "OUT": str(out_file)}
    argv = [paths.get(a, str(demo_dir / a) if a.endswith(".json") else a)
            for a in command.split()]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith(named.replace("BAD", str(bad))) and out.endswith("status: error\n")
    assert not out_file.exists()


def test_dcf_rejects_unstabilizable(tmp_path, capsys):
    bad = tmp_path / "bad_plant.json"
    sstate.save_ss(StateSpace([[2.0]], [[0.0]], [[1.0]], [[0.0]], DISC), str(bad))
    code = cli.main(["dcf", "--plant", str(bad), "--out", str(tmp_path / "x.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "NotStabilizable" in out


def test_malformed_json_reports_parse_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"truncated": ')
    code = cli.main(["dcf", "--plant", str(bad), "--out", str(tmp_path / "x.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "line" in out  # json decode errors carry position info


def test_nrf_command_with_patterns(demo_dir, tmp_path, capsys):
    out = tmp_path / "nrf2.json"
    code = cli.main(
        [
            "nrf",
            "--dcf", str(demo_dir / "dcf.json"),
            "--q", str(demo_dir / "q.json"),
            "--patterns", str(demo_dir / "patterns.json"),
            "--out", str(out),
        ]
    )
    report = capsys.readouterr().out
    assert code == 0
    assert "pattern correspondence (both characterizations): True" in report
    # same synthesis as the demo
    assert nrfsyn.nrf_to_obj(nrfsyn.load_nrf(str(out))) == nrfsyn.nrf_to_obj(
        nrfsyn.load_nrf(str(demo_dir / "nrf.json"))
    )


_EYE5 = [[i == j for j in range(5)] for i in range(5)]


@pytest.mark.parametrize("masks, line", [
    (lambda X, Y: ([True] * 5, Y), "DimensionMismatch: mask must be two-dimensional"),
    (lambda X, Y: (X, [r[:4] for r in Y]), "NotSquare: communication pattern must be square"),
    (lambda X, Y: (X[:4], Y),
     "DimensionMismatch: sensing pattern must have one row per input"),
    (lambda X, Y: ([r + [False] for r in X], Y),
     "DimensionMismatch: patterns of shape (5, 11) for [Phi Gamma] of shape (5, 10)"),
    (lambda X, Y: ([X[0][:3]] + X[1:], Y),
     "ValueError: setting an array element with a sequence."),
], ids=["1d-X", "nonsquare-Y", "X-rows", "X-width", "ragged-X"])
def test_nrf_refuses_malformed_patterns(masks, line, demo_dir, tmp_path, capsys):
    Y = json.loads((demo_dir / "patterns.json").read_text())["Y"]
    X, Y = masks(_EYE5, Y)
    bad = tmp_path / "patterns.json"
    bad.write_text(json.dumps({"X": X, "Y": Y}))
    code = cli.main(["nrf", "--dcf", str(demo_dir / "dcf.json"), "--q", str(demo_dir / "q.json"),
                     "--patterns", str(bad), "--out", str(tmp_path / "x.json")])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[0].startswith(line) and out[1:] == ["status: error"]
    assert not (tmp_path / "x.json").exists()  # the patterns are read before the write


@pytest.mark.parametrize("cell", ["false", None, {}, 2, 0.5],
                         ids=["string", "null", "object", "two", "fraction"])
def test_nrf_refuses_a_mask_cell_that_is_no_boolean(cell, demo_dir, tmp_path, capsys):
    # np.asarray(..., dtype=bool) would read "false" as True and null as False
    masks = json.loads((demo_dir / "patterns.json").read_text())
    masks["X"][2][4] = cell
    bad = tmp_path / "patterns.json"
    bad.write_text(json.dumps(masks))
    code = cli.main(["nrf", "--dcf", str(demo_dir / "dcf.json"), "--q", str(demo_dir / "q.json"),
                     "--patterns", str(bad), "--out", str(tmp_path / "x.json")])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out == [f"NrfError: {bad}: mask cell {cell!r} is neither a boolean nor 0/1",
                   "status: error"]
    assert not (tmp_path / "x.json").exists()


def test_nrf_refuses_a_pattern_file_of_strings(demo_dir, tmp_path, capsys):
    masks = json.loads((demo_dir / "patterns.json").read_text())
    strings = {k: [[json.dumps(v) for v in row] for row in M] for k, M in masks.items()}
    bad = tmp_path / "patterns.json"
    bad.write_text(json.dumps(strings))
    code = cli.main(["nrf", "--dcf", str(demo_dir / "dcf.json"), "--q", str(demo_dir / "q.json"),
                     "--patterns", str(bad), "--out", str(tmp_path / "x.json")])
    assert code == 1 and capsys.readouterr().out.endswith("status: error\n")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("text", [
    None,  # no pattern file at all
    "{not json",
    '{"X": [[true]]}',  # no Y
    '{"X": [[true]], "Y": [[false, true], [true]]}',  # ragged Y
], ids=["missing", "not-json", "no-Y", "ragged-Y"])
def test_nrf_writes_nothing_for_a_bad_pattern_file(text, demo_dir, tmp_path, capsys):
    bad = tmp_path / "patterns.json"
    if text is not None:
        bad.write_text(text)
    code = cli.main(["nrf", "--dcf", str(demo_dir / "dcf.json"), "--q", str(demo_dir / "q.json"),
                     "--patterns", str(bad), "--out", str(tmp_path / "x.json")])
    assert code == 1 and capsys.readouterr().out.endswith("status: error\n")
    assert not (tmp_path / "x.json").exists()


def test_nrf_rejects_unstable_q(demo_dir, tmp_path, capsys):
    qbad = tmp_path / "q_bad.json"
    save_ratmat(
        RationalMatrix.scalar(
            RationalFunction(Polynomial([0.8]), Polynomial([-1.2, 1.0])), 5, DISC
        ),
        str(qbad),
    )
    code = cli.main(
        ["nrf", "--dcf", str(demo_dir / "dcf.json"), "--q", str(qbad),
         "--out", str(tmp_path / "x.json")]
    )
    assert code == 1
    assert "UnstableParameter" in capsys.readouterr().out


def test_nrf_refuses_a_huge_q_it_cannot_realize(demo_dir, tmp_path, capsys):
    # Q = diag(1e160 / (z - 0.5)): an overflowing rank scale realized Q at
    # order 0, so nrf wrote the Q = 0 pair with status ok.  The shifted
    # Bezout product overflows, and its own audit refuses it without a warning
    huge = tmp_path / "q_huge.json"
    save_ratmat(RationalMatrix.scalar(
        RationalFunction(Polynomial([1e160]), Polynomial([-0.5, 1.0])), 5, DISC), str(huge))
    out = tmp_path / "x.json"
    code = cli.main(["nrf", "--dcf", str(demo_dir / "dcf.json"), "--q", str(huge),
                     "--out", str(out)])
    report = capsys.readouterr().out
    assert code == 1 and not out.exists()
    assert "status: ok" not in report and report.splitlines()[-1] == "status: error"
    assert "shifted-bezout-identity" in report


def test_check_grid5_all_stable(demo_dir, capsys):
    code = cli.main(
        ["check", "--nrf", str(demo_dir / "nrf.json"), "--plant", str(demo_dir / "plant.json"),
         "--grid", "256"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count(": stable") == 16
    assert "H-tilde entries: all stable" in out
    line = [l for l in out.splitlines() if l.startswith("closed-loop grid norm (256 points): ")]
    assert len(line) == 1
    assert abs(float(line[0].split(":")[1]) / 7.98606363595 - 1.0) < 1e-9


@pytest.mark.parametrize("command", ["check", "demo"])
def test_negative_grid_is_a_usage_error(command, demo_dir, tmp_path, capsys):
    argv = {
        "check": ["check", "--nrf", str(demo_dir / "nrf.json"), "--plant", str(demo_dir / "plant.json")],
        "demo": ["demo", "grid5", "--no-sim", "--out", str(tmp_path / "d")],
    }[command]
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["--grid", "-3"])
    assert info.value.code == 1
    assert "--grid" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()  # rejected before any work
    # 0 still means "no norm line"
    assert cli.main(argv + ["--grid", "0"]) == 0
    assert "grid norm" not in capsys.readouterr().out


def test_check_stable_for_shifted_youla_parameter(demo_dir, tmp_path, capsys):
    # Q = grid5_q() + diag(c_i / (z - a_i)) is stable, so the loop it closes
    # is stable: no block may report the plant's integrator poles near z = 1
    a = (-0.0763384, 0.130606, -0.21062, -0.289607, -0.0681333)
    c = (0.0923406, 0.0829715, -0.0840769, 0.0358429, 0.0644886)
    extra = RationalMatrix.diag(
        [RationalFunction(Polynomial([ci]), Polynomial([-ai, 1.0])) for ai, ci in zip(a, c)],
        DISC,
    )
    save_ratmat(simkit.grid5_q() + extra, str(tmp_path / "q.json"))
    assert cli.main(
        ["nrf", "--dcf", str(demo_dir / "dcf.json"), "--q", str(tmp_path / "q.json"),
         "--out", str(tmp_path / "nrf.json")]
    ) == 0
    capsys.readouterr()
    code = cli.main(
        ["check", "--nrf", str(tmp_path / "nrf.json"), "--plant", str(demo_dir / "plant.json")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert sum(l.endswith("]: stable") for l in out.splitlines()) == 16
    assert "H-tilde entries: all stable" in out.splitlines()


@pytest.mark.parametrize("key, scale, error", [("B", -1e8, "NotStabilizable"),
                                                ("C", 1e8, "NotDetectable")])
def test_check_refuses_a_plant_that_fails_pbh(key, scale, error, demo_dir, tmp_path, capsys):
    # the demo pair around the demo plant with B or C scaled: the loop has 10
    # unstable eigenvalues that the rank tests on the loop maps miss, so the
    # plant's own verdict is read first, as dcf reads it
    plant = json.loads((demo_dir / "plant.json").read_text())
    plant[key] = [[scale * v for v in row] for row in plant[key]]
    (tmp_path / "plant.json").write_text(json.dumps(plant))
    code = cli.main(["check", "--nrf", str(demo_dir / "nrf.json"),
                     "--plant", str(tmp_path / "plant.json")])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert captured.out.startswith(f"{error}: ") and captured.out.endswith("status: error\n")


def test_check_flags_unstable_loop(tmp_path, capsys):
    zero = RationalMatrix.zeros(2, 2, DISC)
    nrfsyn.save_nrf(nrfsyn.NrfPair(zero, zero), str(tmp_path / "nrf0.json"))
    unstable = RationalFunction(Polynomial([1.0]), Polynomial([-1.5, 1.0]))
    save_ratmat(RationalMatrix.diag([unstable, unstable], DISC), str(tmp_path / "g.json"))
    code = cli.main(
        ["check", "--nrf", str(tmp_path / "nrf0.json"), "--plant", str(tmp_path / "g.json")]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "status: violated" in out
    # the plant's two unstable modes are one repeated eigenvalue of A_CL,
    # and each diagonal entry of G reaches only one of its directions
    assert "H-tilde entries: unstable at ((4, 0), (5, 1))" in out


def test_check_zero_plant_ok(tmp_path, capsys):
    zero = RationalMatrix.zeros(2, 2, DISC)
    nrfsyn.save_nrf(nrfsyn.NrfPair(zero, zero), str(tmp_path / "nrf0.json"))
    save_ratmat(zero, str(tmp_path / "g0.json"))
    code = cli.main(
        ["check", "--nrf", str(tmp_path / "nrf0.json"), "--plant", str(tmp_path / "g0.json")]
    )
    assert code == 0


def _check_edited_nrf(demo_dir, tmp_path, capsys, edit):
    """`check` on the demo's nrf.json after ``edit(obj)``."""
    obj = json.loads((demo_dir / "nrf.json").read_text())
    edit(obj)
    path = tmp_path / "nrf_edited.json"
    path.write_text(json.dumps(obj))
    code = cli.main(["check", "--nrf", str(path), "--plant", str(demo_dir / "plant.json")])
    return code, capsys.readouterr().out


def _scale_entry(obj, key, i, j, factor):
    """Scale entry (i, j) of the rational matrix obj[key], and drop the row
    systems so the file is read through its rational keys."""
    entry = obj[key]["entries"][i][j]
    entry["num"] = [factor * c for c in entry["num"]]
    del obj["row_systems"]


def _scale_row_column(obj, i, j, factor):
    """Scale column j of row system i's B and D: entry j of row i of
    [Phi Gamma], edited on the realization the reader takes."""
    row = obj["row_systems"][i]
    for line in row["B"]:
        line[j] *= factor
    row["D"][0][j] *= factor


def _assert_scaled_coupling_not_misflagged(code, out):
    assert code == 0
    assert "UNSTABLE" not in out
    assert "H-tilde entries: all stable" in out


def test_check_scaled_coupling_not_misflagged(demo_dir, tmp_path, capsys):
    # scaling an off-diagonal coupling leaves this triangular loop's poles
    # alone; the verdict must come from entry poles, not a joint companion
    # form that scatters eigenvalues at these degrees
    edit = lambda obj: _scale_entry(obj, "phi", 1, 0, 40.0)
    _assert_scaled_coupling_not_misflagged(*_check_edited_nrf(demo_dir, tmp_path, capsys, edit))


def test_check_scaled_coupling_on_the_row_systems_not_misflagged(demo_dir, tmp_path, capsys):
    edit = lambda obj: _scale_row_column(obj, 1, 0, 40.0)
    _assert_scaled_coupling_not_misflagged(*_check_edited_nrf(demo_dir, tmp_path, capsys, edit))


def test_check_sign_flip_flags_both_routes(demo_dir, tmp_path, capsys):
    # a sign flip on a diagonal Gamma entry turns the node-1 loop into
    # positive feedback; the table and the H-tilde report must agree
    edit = lambda obj: _scale_entry(obj, "gamma", 0, 0, -1.0)
    _assert_sign_flip_flagged(*_check_edited_nrf(demo_dir, tmp_path, capsys, edit))


def test_check_sign_flip_on_the_row_systems_flags_both_routes(demo_dir, tmp_path, capsys):
    # Gamma[0, 0] is column m = 5 of row 0
    edit = lambda obj: _scale_row_column(obj, 0, 5, -1.0)
    _assert_sign_flip_flagged(*_check_edited_nrf(demo_dir, tmp_path, capsys, edit))


def _assert_sign_flip_flagged(code, out):
    assert code == 2
    assert "UNSTABLE" in out
    assert "H-tilde entries: unstable at" in out
    # every flagged block carries exactly the two unstable modes of A_CL
    flagged = [line for line in out.splitlines() if "UNSTABLE" in line]
    assert len(flagged) == 12
    assert all(line.endswith("['-1.23053958876', '1.5840590121']") for line in flagged)
    # entries that reach those modes only to rounding are not listed
    line = next(l for l in out.splitlines() if l.startswith("H-tilde entries:"))
    entries = ast.literal_eval(line.split("unstable at", 1)[1].strip())
    assert len(entries) == 22
    assert (2, 11) not in entries and (7, 11) not in entries


def test_usage_error_exits_one(capsys):
    # exit 2 is reserved for a completed check that found a violation
    with pytest.raises(SystemExit) as info:
        cli.main(["check", "--nrf", "x.json"])
    assert info.value.code == 1


def _main_in_process(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _main_in_own_process(argv):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-m", "nrfctl.cli", *argv], capture_output=True,
                         text=True, env=env, check=False)
    return run.returncode, run.stdout, run.stderr


def test_repeated_main_calls_print_what_separate_processes_print(demo_dir, capsys):
    # the parser is built once per process; reusing it changes no output
    calls = [
        ["check", "--nrf", "x.json"],  # usage error: exit 1, usage on stderr
        ["cert", "--dcf", str(demo_dir / "dcf.json"), "--q", str(demo_dir / "q.json"),
         "--mode", "mr3"],
        ["demo", "nosuch", "--grid", "-1"],
    ]
    want = [_main_in_own_process(argv) for argv in calls]
    assert [w[0] for w in want] == [1, 2, 1]
    for _ in range(2):
        assert [_main_in_process(argv, capsys) for argv in calls] == want


def test_main_runs_the_command_bound_at_call_time(monkeypatch, capsys):
    # a rebound cmd_* (as the benchmark's tracer binds them) is the one run
    assert cli.main(["demo", "nosuch"]) == 1
    monkeypatch.setattr(cli, "cmd_demo", lambda args: cli.CommandResult("ok", [args.name]))
    assert cli.main(["demo", "nosuch"]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["nosuch", "status: ok"]


def test_realize_reports_orders_and_grouping(demo_dir, tmp_path, capsys):
    code = cli.main(
        ["realize", "--nrf", str(demo_dir / "nrf.json"), "--out", str(tmp_path / "r1.json")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "row orders: [2, 3, 4, 3, 3] (total 15)" in out

    code = cli.main(
        ["realize", "--nrf", str(demo_dir / "nrf.json"), "--grouping", "1;2,3;4;5",
         "--out", str(tmp_path / "r2.json")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "(total 14)" in out


def test_cert_exit_codes(demo_dir, capsys):
    code = cli.main(
        ["cert", "--dcf", str(demo_dir / "dcf.json"), "--q", str(demo_dir / "q.json"),
         "--mode", "mr3"]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "unstable witness poles:" in out and "status: violated" in out

    # the mr2 witness cancels identically on this instance
    code = cli.main(
        ["cert", "--dcf", str(demo_dir / "dcf.json"), "--q", str(demo_dir / "q.json"),
         "--mode", "mr2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "no obstruction found" in out


def test_cert_on_numerically_factored_grid5(demo_dir, tmp_path, capsys):
    # README's `nrfctl dcf` targets: the certificate reads the plant's five
    # integrators off the numerically factored plant too
    dcf = tmp_path / "dcf.json"
    assert cli.main(
        ["dcf", "--plant", str(demo_dir / "plant.json"), "--targets",
         "0.3,0.35,0.4,0.45,0.5,0.55,0.6,0.65,0.7", "--out", str(dcf)]
    ) == 0
    capsys.readouterr()
    code = cli.main(["cert", "--dcf", str(dcf), "--q", str(demo_dir / "q.json"), "--mode", "mr3"])
    out = capsys.readouterr().out
    assert code == 2
    line = [l for l in out.splitlines() if l.startswith("unstable witness poles: ")]
    poles = [complex(t) for t in line[0].split("[")[1].rstrip("]").split(",")]
    assert len(poles) == 5
    assert all(abs(p - 1.0) <= 1e-6 for p in poles)


def test_dcf_places_complex_conjugate_targets(demo_dir, tmp_path, capsys):
    # the pair 0.6 +- 0.2i is the surplus the two uncontrollable lag modes leave
    dcf = tmp_path / "dcf.json"
    assert cli.main(
        ["dcf", "--plant", str(demo_dir / "plant.json"), "--targets",
         "0.5+0.1i,0.5-0.1i,0.3,0.35,0.4,0.45,0.6+0.2i,0.6-0.2i,0.7", "--out", str(dcf)]
    ) == 0
    assert capsys.readouterr().out.endswith("status: ok\n") and dcf.exists()


def test_simulate_idempotent_and_seed_override(demo_dir, tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    for path in (a, b):
        assert cli.main(
            ["simulate", "--scenario", str(demo_dir / "scenario.json"), "--out", str(path)]
        ) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() == (demo_dir / "trace.csv").read_bytes()
    assert cli.main(
        ["simulate", "--scenario", str(demo_dir / "scenario.json"), "--seed", "43",
         "--out", str(c)]
    ) == 0
    assert a.read_bytes() != c.read_bytes()
    # --seed changes the seed and nothing else: a file that carries seed 43 runs the same
    obj = json.loads((demo_dir / "scenario.json").read_text())
    obj["seed"] = 43
    seeded, d = tmp_path / "seed43.json", tmp_path / "d.csv"
    seeded.write_text(json.dumps(obj))
    assert cli.main(["simulate", "--scenario", str(seeded), "--out", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()
    capsys.readouterr()


def test_scenario_and_trace_files_round_trip_byte_for_byte(demo_dir, tmp_path):
    scenario, trace = tmp_path / "scenario.json", tmp_path / "trace.csv"
    simkit.save_scenario(str(scenario), simkit.load_scenario(str(demo_dir / "scenario.json")))
    simkit.save_trace(str(trace), simkit.load_trace(str(demo_dir / "trace.csv")))
    assert scenario.read_bytes() == (demo_dir / "scenario.json").read_bytes()
    assert trace.read_bytes() == (demo_dir / "trace.csv").read_bytes()


def test_simulate_negative_horizon_is_named_error(demo_dir, tmp_path, capsys):
    obj = json.loads((demo_dir / "scenario.json").read_text())
    obj["horizon"] = -1
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    code = cli.main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "t.csv")])
    out = capsys.readouterr().out
    assert code == 1
    assert "InconsistentDimensions: horizon -1 is negative" in out
    assert not (tmp_path / "t.csv").exists()


def _drop_first_controller_input(obj):
    ss = obj["controller"]["ss"]
    ss["B"], ss["D"] = ([row[1:] for row in ss[k]] for k in "BD")


@pytest.mark.parametrize(
    "change, named",
    [
        (lambda o: o["reference"][0].update(level=float("nan")), "InvariantViolation: signal-level"),
        (lambda o: o.update(horizon=10.7), "InvariantViolation: scenario-horizon-integral"),
        (lambda o: o["controller"].update(row_orders=[99]), "InconsistentDimensions: row orders"),
        (lambda o: o["controller"].update(grouping=[[7]]), "InconsistentDimensions: grouping"),
        (_drop_first_controller_input, "InconsistentDimensions: partition"),
    ],
    ids=["nan-level", "fractional-horizon", "row-orders", "grouping", "dropped-input"],
)
def test_simulate_refuses_inconsistent_scenario(change, named, demo_dir, tmp_path, capsys):
    obj = json.loads((demo_dir / "scenario.json").read_text())
    change(obj)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    code = cli.main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "t.csv")])
    out = capsys.readouterr().out
    assert code == 1
    assert named in out
    assert not (tmp_path / "t.csv").exists()


def test_report_numbers_use_twelve_significant_digits(demo_dir, capsys):
    code = cli.main(
        ["check", "--nrf", str(demo_dir / "nrf.json"), "--plant", str(demo_dir / "plant.json"),
         "--grid", "16"]
    )
    out = capsys.readouterr().out
    assert code == 0
    line = [l for l in out.splitlines() if "grid norm" in l][0]
    value = line.split(":")[1].strip()
    mantissa = value.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
    assert len(mantissa) <= 12


@pytest.mark.parametrize("rows, cols", [(True, True), (1.0, 1), (1, 1.0), (False, 1), ("1", 1),
                                        (1, None), ([1], 1)],
                         ids=["true-true", "float-rows", "float-cols", "false-rows", "string-rows",
                              "null-cols", "list-rows"])
def test_nrf_refuses_a_q_shape_that_is_not_integers(rows, cols, tmp_path, capsys):
    sstate.save_ss(StateSpace([[1.2]], [[1.0]], [[1.0]], [[0.0]], DISC), str(tmp_path / "p.json"))
    dcf, out_file = str(tmp_path / "dcf.json"), tmp_path / "nrf.json"
    assert cli.main(["dcf", "--plant", str(tmp_path / "p.json"), "--targets", "0.5",
                     "--out", dcf]) == 0
    q = ratmat_to_obj(RationalMatrix.zeros(1, 1, DISC))
    good, bad = tmp_path / "q.json", tmp_path / "q-bad.json"
    good.write_text(json.dumps(q))
    bad.write_text(json.dumps(q | {"rows": rows, "cols": cols}))
    assert cli.main(["nrf", "--dcf", dcf, "--q", str(good), "--out", str(out_file)]) == 0
    out_file.unlink()
    capsys.readouterr()
    code = cli.main(["nrf", "--dcf", dcf, "--q", str(bad), "--out", str(out_file)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("InvariantViolation: ratmat-fields-present")
    assert out.endswith("status: error\n")
    assert not out_file.exists()


def test_plant_file_may_be_rational(tmp_path, capsys):
    save_ratmat(simkit.grid5_tfm(), str(tmp_path / "g.json"))
    code = cli.main(
        ["dcf", "--plant", str(tmp_path / "g.json"), "--out", str(tmp_path / "dcf.json")]
    )
    out = capsys.readouterr().out
    assert code == 0
    # realization from the rational file is minimal (order 7); the node-wise
    # network form is order 9 because three lags share their driving signal
    assert "order 7" in out
