"""dcf.json and nrf.json: the stored realizations, their faults, and the
rational-only form."""

import json

import numpy as np
import pytest

from nrfctl import cli, dimpl, factor, nrfsyn
from nrfctl.errors import DimensionMismatch, DomainMismatch, InvariantViolation
from nrfctl.ratmat import ratmat_to_obj
from nrfctl.sstate import ss_to_tf

FACTORS = ("M", "N", "Mt", "Nt", "X", "Y", "Xt", "Yt")
SIZES = [pytest.param(None, id="grid5"), *(pytest.param(n, id=f"platoon{n}") for n in range(2, 9))]


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    assert cli.main(["demo", "grid5", "--out", str(out), "--no-sim"]) == 0
    return out


def _design(n, grid5_dcf, grid5_shift, platoon):
    if n is None:
        return grid5_dcf, grid5_shift
    _, dcf, shift = platoon(n)
    return dcf, shift


def _through_json(obj):
    return json.loads(json.dumps(obj, indent=1))


def _same_arrays(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in "ABCD") and a.domain is b.domain


@pytest.mark.parametrize("n", SIZES)
def test_realizations_round_trip_bit_exact(n, grid5_dcf, grid5_shift, platoon):
    dcf, shift = _design(n, grid5_dcf, grid5_shift, platoon)
    obj = _through_json(factor.dcf_to_obj(dcf))
    back = factor.dcf_from_obj(obj)
    assert _same_arrays(back.left, dcf.left) and _same_arrays(back.right, dcf.right)
    assert back.shape == dcf.shape
    # the rational factors written back are the realizations' views: a
    # synthesized file's own keys, and in place of the grid5 closed form
    views = {name: ratmat_to_obj(ss_to_tf(dcf.realized(name))) for name in FACTORS}
    assert (views == {name: obj[name] for name in FACTORS}) == (n is not None)
    assert json.dumps(factor.dcf_to_obj(back), indent=1) == json.dumps(obj | views, indent=1)

    pair = nrfsyn.nrf_from_dcf(dcf, shift)
    obj = _through_json(nrfsyn.nrf_to_obj(pair))
    back = nrfsyn.nrf_from_obj(obj)
    assert len(back.row_systems) == len(pair.row_systems)
    assert all(_same_arrays(a, b) for a, b in zip(back.row_systems, pair.row_systems))
    assert json.dumps(nrfsyn.nrf_to_obj(back), indent=1) == json.dumps(obj, indent=1)


def _dcf_fault(obj, fault):
    if fault == "missing-key":
        del obj["right"]
    elif fault == "missing-field":
        del obj["left"]["B"]
    elif fault == "shape-not-pair":
        obj["shape"] = [5]
    elif fault == "shape-misfit":
        obj["shape"] = [4, 5]
    elif fault == "domain":
        obj["right"]["domain"] = "continuous"
    elif fault == "unstable":
        obj["left"]["A"] = [[3.0 * a for a in row] for row in obj["left"]["A"]]
    elif fault == "not-inverse":
        obj["right"]["C"][0][0] += 0.1


@pytest.mark.parametrize("fault, error, invariant", [
    ("missing-key", InvariantViolation, "dcf-fields-present"),
    ("missing-field", InvariantViolation, "ss-fields-present"),
    ("shape-not-pair", DimensionMismatch, None),
    ("shape-misfit", DimensionMismatch, None),
    ("domain", DomainMismatch, None),
    ("unstable", InvariantViolation, "factor-stable"),
    ("not-inverse", InvariantViolation, "bezout-identity"),
])
def test_dcf_realization_faults_are_named(grid5_dcf, fault, error, invariant):
    obj = _through_json(factor.dcf_to_obj(grid5_dcf))
    _dcf_fault(obj, fault)
    with pytest.raises(error) as exc:
        factor.dcf_from_obj(obj)
    assert getattr(exc.value, "invariant", None) == invariant


def _nrf_fault(obj, fault):
    rows = obj["row_systems"]
    if fault == "empty":
        obj["row_systems"] = []
    elif fault == "missing-field":
        del rows[2]["D"]
    elif fault == "two-outputs":
        rows[1]["C"].append(rows[1]["C"][0])
        rows[1]["D"].append(rows[1]["D"][0])
    elif fault == "width":
        rows[3]["B"] = [line[:-1] for line in rows[3]["B"]]
        rows[3]["D"] = [line[:-1] for line in rows[3]["D"]]
    elif fault == "domain":
        rows[4]["domain"] = "continuous"


@pytest.mark.parametrize("fault, error, invariant", [
    ("empty", InvariantViolation, "nrf-fields-present"),
    ("missing-field", InvariantViolation, "ss-fields-present"),
    ("two-outputs", DimensionMismatch, None),
    ("width", DimensionMismatch, None),
    ("domain", DomainMismatch, None),
])
def test_nrf_realization_faults_are_named(grid5_pair, fault, error, invariant):
    obj = _through_json(nrfsyn.nrf_to_obj(grid5_pair))
    _nrf_fault(obj, fault)
    with pytest.raises(error) as exc:
        nrfsyn.nrf_from_obj(obj)
    assert getattr(exc.value, "invariant", None) == invariant


def test_rational_only_files_take_the_rational_path(grid5_dcf, grid5_pair, monkeypatch):
    dcf_obj = {k: v for k, v in factor.dcf_to_obj(grid5_dcf).items() if k in FACTORS}
    nrf_obj = {k: v for k, v in nrfsyn.nrf_to_obj(grid5_pair).items() if k in ("phi", "gamma")}
    calls = []
    from_factors = factor.DoublyCoprime.from_factors.__func__
    monkeypatch.setattr(factor.DoublyCoprime, "from_factors",
                        classmethod(lambda cls, **kw: calls.append("dcf") or from_factors(cls, **kw)))
    back = factor.dcf_from_obj(dcf_obj)
    assert calls == ["dcf"]
    assert {k: v for k, v in factor.dcf_to_obj(back).items() if k in FACTORS} == dcf_obj
    pair = nrfsyn.nrf_from_obj(nrf_obj)
    assert nrfsyn.nrf_to_obj(pair)["phi"] == nrf_obj["phi"]
    # today's audits and errors: a missing factor, a nonzero Phi diagonal
    with pytest.raises(InvariantViolation, match="dcf-fields-present: missing factors: \\['Yt'\\]"):
        factor.dcf_from_obj({k: v for k, v in dcf_obj.items() if k != "Yt"})
    nrf_obj["phi"]["entries"][0][0] = {"num": [0.5], "den": [-0.5, 1.0]}
    with pytest.raises(InvariantViolation) as exc:
        nrfsyn.nrf_from_obj(nrf_obj)
    assert exc.value.invariant == "phi-zero-diagonal"


def test_internal_stability_reads_no_rational_view(grid5_pair, grid5_plant, monkeypatch):
    def refuse(self):
        raise AssertionError("Phi/Gamma view read")

    monkeypatch.setattr(nrfsyn.NrfPair, "_views", refuse)
    report = dimpl.verify_internal_stability(grid5_pair, grid5_plant)
    assert report.stable
    assert report.max_disagreement < 1e-12


def _run(argv, capsys, *paths):
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr().out
    for k, path in enumerate(paths):
        out = out.replace(str(path), f"<out{k}>")
    return code, out


def _corrupt_demo_files(demo_dir):
    """The demo's dcf.json and nrf.json with garbage in every rational key."""
    dcf = json.loads((demo_dir / "dcf.json").read_text())
    nrf = json.loads((demo_dir / "nrf.json").read_text())
    for key in FACTORS:
        dcf[key]["entries"][0][0] = {"num": [7.0, 1.0], "den": [3.0, -1.0, 1.0]}
    for key in ("phi", "gamma"):
        nrf[key]["entries"][0][0] = {"num": [7.0], "den": [0.0, 0.0, 1.0]}
    return dcf, nrf


def test_corrupt_rational_keys_do_not_change_the_commands(demo_dir, tmp_path, capsys):
    # the realization keys are authoritative: garbage in the rational keys
    # of dcf.json and nrf.json changes no command's output or file
    dcf, nrf = _corrupt_demo_files(demo_dir)
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "dcf.json").write_text(json.dumps(dcf))
    (bad / "nrf.json").write_text(json.dumps(nrf))
    q, plant, patterns = demo_dir / "q.json", demo_dir / "plant.json", demo_dir / "patterns.json"
    outputs = {}
    for side, d in (("clean", demo_dir), ("corrupt", bad)):
        a, b = tmp_path / f"{side}-nrf.json", tmp_path / f"{side}-rows.json"
        outputs[side] = (
            _run(["nrf", "--dcf", d / "dcf.json", "--q", q, "--patterns", patterns, "--out", a],
                 capsys, a),
            _run(["check", "--nrf", d / "nrf.json", "--plant", plant, "--grid", "64"], capsys),
            _run(["realize", "--nrf", d / "nrf.json", "--grouping", "1;2,3;4;5", "--out", b],
                 capsys, b),
            _run(["cert", "--dcf", d / "dcf.json", "--q", q, "--mode", "mr3"], capsys),
            a.read_bytes(), b.read_bytes(),
        )
    assert [o[0] for o in outputs["clean"][:4]] == [0, 0, 0, 2]
    assert outputs["corrupt"] == outputs["clean"]


def test_loaded_views_come_from_the_realizations(demo_dir):
    # with the realization keys present the rational keys are neither read
    # nor kept: the corrupted files load as the clean ones do, each view is
    # ss_to_tf of the realizations read, and both save to the same bytes,
    # the demo's own nrf.json and the views of its closed-form dcf.json
    clean = [json.loads((demo_dir / f"{k}.json").read_text()) for k in ("dcf", "nrf")]
    saved = []
    for dcf_obj, nrf_obj in (clean, _corrupt_demo_files(demo_dir)):
        dcf = factor.dcf_from_obj(dcf_obj)
        for name in FACTORS:
            assert ratmat_to_obj(getattr(dcf, name)) == ratmat_to_obj(ss_to_tf(dcf.realized(name)))
        pair = nrfsyn.nrf_from_obj(nrf_obj)
        assert ratmat_to_obj(pair.Phi.hstack(pair.Gamma))["entries"] == [
            ratmat_to_obj(ss_to_tf(s))["entries"][0] for s in pair.row_systems]
        saved.append((json.dumps(factor.dcf_to_obj(dcf), indent=1),
                      json.dumps(nrfsyn.nrf_to_obj(pair), indent=1)))
    assert saved[1] == saved[0]
    assert saved[0][1] == (demo_dir / "nrf.json").read_text()
    dcf_obj = json.loads(saved[0][0])
    assert all(dcf_obj[key] == clean[0][key] for key in ("left", "right", "shape"))


def test_cli_reads_named_errors_from_realization_keys(demo_dir, tmp_path, capsys):
    obj = json.loads((demo_dir / "dcf.json").read_text())
    del obj["left"]["A"]
    path = tmp_path / "dcf.json"
    path.write_text(json.dumps(obj))
    code, out = _run(["cert", "--dcf", path, "--q", demo_dir / "q.json", "--mode", "mr3"], capsys)
    assert code == 1
    assert "InvariantViolation: ss-fields-present: missing ['A']" in out
