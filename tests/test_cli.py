"""Command-line frontend: exit codes, reports, artifact round trips."""

import json

import numpy as np
import pytest

from nrfctl import cli, nrfsyn, simkit, sstate
from nrfctl.ratmat import (
    Polynomial,
    RationalFunction,
    RationalMatrix,
    StabilityDomain,
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
    code = cli.main(["demo", "grid5", "--out", str(tmp_path / "d"), "--no-sim"])
    out = capsys.readouterr().out
    assert code == 0
    assert "matches the grid5 closed form coefficient-wise: True" in out
    assert "row orders: [2, 3, 4, 3, 3] (total 15)" in out
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


def test_check_zero_plant_ok(tmp_path, capsys):
    zero = RationalMatrix.zeros(2, 2, DISC)
    nrfsyn.save_nrf(nrfsyn.NrfPair(zero, zero), str(tmp_path / "nrf0.json"))
    save_ratmat(zero, str(tmp_path / "g0.json"))
    code = cli.main(
        ["check", "--nrf", str(tmp_path / "nrf0.json"), "--plant", str(tmp_path / "g0.json")]
    )
    assert code == 0


def test_check_scaled_coupling_not_misflagged(demo_dir, tmp_path, capsys):
    # scaling an off-diagonal coupling leaves this triangular loop's poles
    # alone; the verdict must come from entry poles, not a joint companion
    # form that scatters eigenvalues at these degrees
    obj = json.loads((demo_dir / "nrf.json").read_text())
    entry = obj["phi"]["entries"][1][0]
    entry["num"] = [40.0 * c for c in entry["num"]]
    path = tmp_path / "nrf_scaled.json"
    path.write_text(json.dumps(obj))
    code = cli.main(["check", "--nrf", str(path), "--plant", str(demo_dir / "plant.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "UNSTABLE" not in out
    assert "H-tilde entries: all stable" in out


def test_check_sign_flip_flags_both_routes(demo_dir, tmp_path, capsys):
    # a sign flip on a diagonal Gamma entry turns the node-1 loop into
    # positive feedback; the table and the H-tilde report must agree
    obj = json.loads((demo_dir / "nrf.json").read_text())
    entry = obj["gamma"]["entries"][0][0]
    entry["num"] = [-c for c in entry["num"]]
    path = tmp_path / "nrf_flip.json"
    path.write_text(json.dumps(obj))
    code = cli.main(["check", "--nrf", str(path), "--plant", str(demo_dir / "plant.json")])
    out = capsys.readouterr().out
    assert code == 2
    assert "UNSTABLE" in out
    assert "H-tilde entries: unstable at" in out


def test_usage_error_exits_one(capsys):
    # exit 2 is reserved for a completed check that found a violation
    with pytest.raises(SystemExit) as info:
        cli.main(["check", "--nrf", "x.json"])
    assert info.value.code == 1


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
    capsys.readouterr()


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
