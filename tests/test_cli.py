"""CLI contract: subcommands, config/flags, outputs, exit codes, determinism."""

import json
import os

import numpy as np
import pytest

from spinspec.cli import Scenario, canned_modifiers, run
from spinspec import make_surface
from spinspec.bounds import TOL_FEAS, feasibility_margin


def read(path):
    with open(path) as fh:
        return fh.read()


def test_catalog_runs():
    assert run(["catalog"]) == 0


def test_invalid_configs_exit_2(tmp_path):
    assert run(["spectrum", "--geometry", "nope", "--out", str(tmp_path)]) == 2
    assert run(["spectrum", "--geometry", "disk", "--bc", "dirichlet",
                "--out", str(tmp_path)]) == 2
    assert run(["spectrum", "--geometry", "disk", "--N", "128,64",
                "--out", str(tmp_path)]) == 2
    assert run(["spectrum", "--geometry", "disk", "--N", "8",
                "--out", str(tmp_path)]) == 2
    assert run(["spectrum", "--geometry", "disk", "--N", "x",
                "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"geometry": "disk", "turbo": true}')
    assert run(["spectrum", "--config", str(bad)]) == 2


def test_config_with_scalar_grid_exits_2(tmp_path, capsys):
    bad = tmp_path / "scalar_n.json"
    bad.write_text('{"geometry": "disk", "N": 256}')
    assert run(["spectrum", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_nonfinite_kmax_exits_2(tmp_path):
    for value in ("nan", "inf"):
        assert run(["spectrum", "--geometry", "disk", "--kmax", value,
                    "--out", str(tmp_path)]) == 2


def test_geometry_arithmetic_has_no_power(tmp_path):
    # only numbers, pi, + - * / and parentheses; '9**9**9' must not hang
    assert make_surface("cap:(pi - pi/2)/2").r_max == pytest.approx(np.pi / 4)
    for spec in ("cap:2**3/4", "cap:9**9**9", "cap:__import__('os')"):
        assert run(["spectrum", "--geometry", spec,
                    "--out", str(tmp_path)]) == 2


def test_spectrum_outputs_and_determinism(tmp_path):
    out = str(tmp_path / "o")
    args = ["spectrum", "--geometry", "disk", "--bc", "local+",
            "--N", "32,64", "--kmax", "1.5", "--out", out]
    assert run(args) == 0
    path = os.path.join(out, "spectrum_localplus_N64.csv")
    text = read(path)
    lines = text.strip().splitlines()
    assert lines[0] == "mode,index,lambda"
    modes = {float(ln.split(",")[0]) for ln in lines[1:]}
    assert modes == {-1.5, -0.5, 0.5, 1.5}
    lams = [float(ln.split(",")[2]) for ln in lines[1:]]
    root = 1.4346956508195643
    assert min(abs(l - root) for l in lams) <= 1e-3
    # byte-identical rerun
    assert run(args) == 0
    assert read(path) == text


def test_verify_hemisphere(tmp_path):
    out = str(tmp_path / "v")
    assert run(["verify", "--geometry", "hemisphere", "--bc", "local+",
                "--N", "64", "--kmax", "1.5", "--out", out]) == 0
    rows = [json.loads(ln) for ln in
            read(os.path.join(out, "verify_localplus.jsonl")).splitlines()]
    names = {r["name"] for r in rows}
    assert {"schrodinger_lichnerowicz", "eq1", "eq1:modified", "eq2",
            "trace_q_equals_lambda", "killing_residual",
            "rtc2:outer"} <= names
    for r in rows:
        if r.get("residual") is not None and r["name"] != "aps_strict_gap":
            assert r["residual"] <= r.get("tolerance", 1e-2)


def test_verify_aps_reports_strict_gap(tmp_path):
    out = str(tmp_path / "g")
    assert run(["verify", "--geometry", "hemisphere", "--bc", "aps-",
                "--N", "64", "--kmax", "1.5", "--out", out]) == 0
    rows = [json.loads(ln) for ln in
            read(os.path.join(out, "verify_apsminus.jsonl")).splitlines()]
    gap = [r for r in rows if r["name"] == "aps_strict_gap"]
    assert gap and gap[0]["residual"] > 5e-3


def test_verify_conformal_block(tmp_path):
    out = str(tmp_path / "c")
    assert run(["verify", "--geometry", "disk", "--bc", "local+",
                "--N", "64", "--kmax", "0.5", "--conformal-u", "bump:0.3",
                "--out", out]) == 0
    rows = [json.loads(ln) for ln in
            read(os.path.join(out, "verify_localplus.jsonl")).splitlines()]
    names = {r["name"] for r in rows}
    assert {"conformal_law_curvature", "conformal_law_laplacian",
            "conformal_law_mean_curvature:outer", "conformal_push_residual",
            "eq3", "eq4"} <= names
    law = [r for r in rows if r["name"] == "conformal_law_curvature"][0]
    assert law["residual"] <= 1e-8


def test_verify_conformal_factor_other_than_canned(tmp_path):
    # eq3/eq4 take the user's conformal factor as their modifier u
    out = str(tmp_path / "c2")
    assert run(["verify", "--geometry", "disk", "--bc", "local+",
                "--N", "64", "--kmax", "0.5", "--conformal-u", "bump:0.2",
                "--out", out]) == 0
    rows = [json.loads(ln) for ln in
            read(os.path.join(out, "verify_localplus.jsonl")).splitlines()]
    eq = {r["name"]: r["residual"] for r in rows if r["name"] in ("eq3", "eq4")}
    assert set(eq) == {"eq3", "eq4"} and max(eq.values()) <= 1e-3


def test_verify_exit_1_on_overrun(tmp_path, capsys):
    out = str(tmp_path / "f")
    assert run(["verify", "--geometry", "disk", "--bc", "local+",
                "--N", "64", "--kmax", "0.5", "--tol-identity", "1e-30",
                "--out", out]) == 1
    err = capsys.readouterr().err
    assert "FAIL" in err and "identity" in err


def test_bounds_subcommand(tmp_path):
    out = str(tmp_path / "b")
    assert run(["bounds", "--geometry", "hemisphere", "--bc", "local+",
                "--N", "64", "--kmax", "1.5", "--out", out]) == 0
    report = json.loads(read(os.path.join(out, "bounds_localplus.json")))
    fr = [e for e in report["entries"] if e["name"] == "friedrich"][0]
    assert abs(fr["value"] - 1.0) <= 1e-9
    assert fr["passed"] is True
    summary = read(os.path.join(out, "bounds_summary.csv")).splitlines()
    assert summary[0].startswith("scenario,bc,")
    assert summary[1].split(",")[0] == "hemisphere"


def test_bounds_with_optimizer(tmp_path):
    out = str(tmp_path / "bo")
    assert run(["bounds", "--geometry", "hemisphere", "--bc", "local+",
                "--N", "64", "--kmax", "1.5", "--optimize-bounds",
                "--budget", "120", "--out", out]) == 0
    report = json.loads(read(os.path.join(out, "bounds_localplus.json")))
    assert report["optimizer_summary"]["interior"]["n_eval"] <= 121
    assert report["passed"] is True


def test_bounds_exit_1_iff_entry_fails(tmp_path, capsys):
    # an impossible pass tolerance forces a failing entry and exit code 1
    out = str(tmp_path / "bf")
    assert run(["bounds", "--geometry", "hemisphere", "--bc", "local+",
                "--N", "64", "--kmax", "1.5", "--tol-report", "-10",
                "--out", out]) == 1
    assert "FAIL" in capsys.readouterr().err
    report = json.loads(read(os.path.join(out, "bounds_localplus.json")))
    assert report["passed"] is False


def test_spectrum_warns_when_kmax_attained(tmp_path, capsys):
    out = str(tmp_path / "w")
    assert run(["spectrum", "--geometry", "disk", "--bc", "local+",
                "--N", "32", "--kmax", "0.5", "--out", out]) == 0
    assert "kmax" in capsys.readouterr().err


def test_convergence_subcommand(tmp_path):
    out = str(tmp_path / "cv")
    assert run(["convergence", "--geometry", "disk", "--bc", "local+",
                "--N", "32,64,128", "--kmax", "0.5", "--out", out]) == 0
    lines = read(os.path.join(out, "convergence_localplus.csv")).splitlines()
    assert lines[0] == "N,lambda_min,order,converged"
    last = lines[-1].split(",")
    assert 1.7 <= float(last[2]) <= 2.4
    assert last[3] == "1"


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"geometry": "disk", "bc": ["local+"],
                               "N": [32], "kmax": 0.5,
                               "out": str(tmp_path / "a")}))
    out = str(tmp_path / "flags-win")
    assert run(["spectrum", "--config", str(cfg), "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "spectrum_localplus_N32.csv"))


def test_scenario_validation():
    with pytest.raises(Exception):
        Scenario(geometry="disk", bc=[]).validate()


def test_checked_in_scenarios_validate(tmp_path):
    import glob
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = sorted(glob.glob(os.path.join(here, "scenarios", "*.json")))
    assert len(paths) >= 5
    for path in paths:
        sc = Scenario.from_json(path)
        sc.validate()
    # drive one of them end to end at a reduced grid
    out = str(tmp_path / "scen")
    assert run(["spectrum", "--config",
                os.path.join(here, "scenarios", "disk_oracle.json"),
                "--N", "32", "--kmax", "0.5", "--out", out]) == 0


@pytest.mark.parametrize("geom", ["hemisphere", "cap:pi/3", "disk",
                                  "annulus:0.5,1.0", "cylinder:2.0"])
def test_canned_modifiers_feasible_on_builtins(geom):
    surface = make_surface(geom)
    mp = canned_modifiers(surface)
    assert feasibility_margin(surface, mp, "interior") >= -TOL_FEAS
    assert float(np.max(np.abs(mp.u.d(np.linspace(surface.r_min,
                                                  surface.r_max, 7))))) > 0
