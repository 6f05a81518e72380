"""CLI contract: subcommands, config/flags, outputs, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spinspec.cli import Scenario, run
from spinspec import make_surface
from spinspec.bounds import TOL_FEAS, canned_modifiers, feasibility_margin


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
    assert run(["verify", "--geometry", "disk", "--N", "16", "--kmax", "0.5",
                "--conformal-u", "bump:1e308", "--out", str(tmp_path)]) == 2


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


def test_bounds_optimizes_once_per_surface(tmp_path, monkeypatch):
    from spinspec import bounds
    calls = []
    optimize = bounds.optimize_modifiers

    def counted(surface, variant, **kwargs):
        calls.append(variant)
        return optimize(surface, variant, **kwargs)

    monkeypatch.setattr(bounds, "optimize_modifiers", counted)
    out = str(tmp_path / "ob")
    assert run(["bounds", "--geometry", "annulus:0.5,1.0", "--bc",
                "local+,aps-", "--optimize-bounds", "--budget", "120",
                "--N", "64", "--kmax", "1.5", "--out", out]) == 0
    assert sorted(calls) == ["conformal", "interior"]
    summaries = [json.loads(read(os.path.join(out, f"bounds_{slug}.json")))
                 ["optimizer_summary"] for slug in ("localplus", "apsminus")]
    assert summaries[0] == summaries[1]
    assert summaries[0]["interior"]["n_eval"] == 120


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


def test_spectrum_drift_ignores_the_sign_tie(tmp_path, capsys):
    """Under local+- the sign of lambda_min is a roundoff tie; the drift
    line compares |lambda_min| (it read 2.000e+00 when the sign flipped)."""
    assert run(["spectrum", "--geometry", "hemisphere", "--bc", "local+,local-",
                "--N", "64,128", "--kmax", "2.5",
                "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    drifts = [float(line.split(":")[1]) for line in out.splitlines()
              if "drift vs previous N" in line]
    assert len(drifts) == 2
    assert all(d < 0.05 for d in drifts)


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
                                  "annulus:0.5,1.0", "cylinder:2.0",
                                  "cap:2.18"])
def test_canned_modifiers_feasible_on_builtins(geom):
    surface = make_surface(geom)
    mp = canned_modifiers(surface)
    assert feasibility_margin(surface, mp, "interior") >= -TOL_FEAS
    assert float(np.max(np.abs(mp.u.d(np.linspace(surface.r_min,
                                                  surface.r_max, 7))))) > 0


@pytest.mark.parametrize("command", ["bounds", "verify"])
def test_wide_cap_runs_with_canned_modifiers(tmp_path, command):
    # a cap wider than a hemisphere: its one boundary circle has H < 0
    assert run([command, "--geometry", "cap:2.18", "--N", "34", "--kmax", "2",
                "--bc", "local+,aps-", "--out", str(tmp_path)]) == 0


def test_zone_with_two_concave_boundaries_runs(tmp_path, zone_csv):
    # H < 0 on both circles: no canned pair is feasible, so the modifier
    # bounds are skipped
    surface = make_surface(f"profile:{zone_csv}")
    assert feasibility_margin(surface, canned_modifiers(surface)) < -TOL_FEAS
    out = str(tmp_path / "zone")
    args = ["--geometry", f"profile:{zone_csv}", "--bc", "local+,aps-",
            "--N", "128", "--kmax", "2.5", "--out", out]
    assert run(["verify"] + args) == 0
    assert run(["bounds"] + args) == 0
    for slug in ("localplus", "apsminus"):
        report = json.loads(read(os.path.join(out, f"bounds_{slug}.json")))
        for e in report["entries"]:
            if e["name"] in ("est1", "est2", "est3", "est4"):
                assert e["value"] is None and e["feasible"] is False
                assert e["note"].endswith("skipped (infeasible)")


# ---------------------------------------------------------------------------
# bad input: one line on stderr, exit 2 (or 1/3), never a traceback
# ---------------------------------------------------------------------------

_BAD_PROFILES = {
    "nonincreasing": "r,f\n1.0,1.0\n0.9,1.0\n1.2,1.0\n1.5,1.0\n",
    "nonnumeric": "r,f\n1.0,1.0\n1.1,abc\n1.2,1.0\n1.5,1.0\n",
    "single_column": "r\n1.0\n1.1\n1.2\n1.5\n",
    "too_few_rows": "r,f\n1.0,1.0\n1.1,1.0\n1.2,1.0\n",
    "nan": "r,f\n1.0,1.0\n1.1,nan\n1.2,1.0\n1.5,1.0\n",
    "inf": "r,f\n1.0,1.0\n1.1,1.0\n1.2,inf\n1.5,1.0\n",
}


@pytest.mark.parametrize("case", sorted(_BAD_PROFILES))
def test_bad_profile_csv_exits_2(tmp_path, capsys, case):
    path = tmp_path / f"{case}.csv"
    path.write_text(_BAD_PROFILES[case])
    assert run(["spectrum", "--geometry", f"profile:{path}", "--N", "16",
                "--kmax", "0.5", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: profile") or \
        err.startswith("config error: cannot read profile")
    assert len(err.strip().splitlines()) == 1


def test_overflowing_input_prints_one_line(tmp_path):
    """numpy's overflow warnings on an extreme factor stay off stderr: the run
    ends with its one config-error line alone."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "spinspec.cli", "verify", "--geometry", "disk",
         "--N", "16", "--kmax", "0.5", "--conformal-u", "bump:1e308",
         "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("config error:")


def _mostly(valid, *bad):
    """`valid` in nine draws of ten, else one of the `bad` values."""
    return st.sampled_from([True] * 9 + [False]).flatmap(
        lambda ok: valid if ok else st.sampled_from(bad))


def _csv(rows) -> str:
    return "r,f\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)


_GEOMETRY = _mostly(
    st.one_of(st.sampled_from(["hemisphere", "disk", "cap:pi/3",
                               "annulus:0.5,1.0", "cylinder:2.0"]),
              st.builds("cap:{}".format, st.floats(0.05, 3.1)),
              st.builds("annulus:{},{}".format, st.floats(0.05, 1.0),
                        st.floats(1.1, 3.0)),
              st.builds("cylinder:{}".format, st.floats(0.05, 4.0)),
              st.just("profile:")),
    "cap:pi", "annulus:1,0.5", "cylinder:0", "cap:2**3", "cap:nan", "torus",
    "", "annulus:1e-300,1", "cap:1e-300")
_PROFILE_TEXT = st.one_of(
    st.lists(st.floats(0.05, 3.0), min_size=4, max_size=12, unique=True).map(
        lambda rs: _csv((r, r * (1.2 - r / 4)) for r in sorted(rs))),
    st.text(max_size=40),
    st.sampled_from(["", "r,f\n1,1\n", "r,f\n1,x\n2,1\n3,1\n4,1\n",
                     "r\n1\n2\n3\n4\n", "r,f\n1,1\n2,nan\n3,1\n4,1\n",
                     "r,f\n2,1\n1,1\n3,1\n4,1\n",
                     "r,f\n1,1\n2,-1\n3,1\n4,1\n",
                     "r,f\n0,0\n1,1e300\n2,1\n3,1\n"]))
_SCENARIO = st.fixed_dictionaries({
    "bc": _mostly(st.lists(st.sampled_from(["local+", "local-", "aps-",
                                            "aps+"]), min_size=1, max_size=2),
                  "aps-", [], ["dirichlet"]),
    "N": _mostly(st.lists(st.integers(16, 64), min_size=1,
                          max_size=3).map(sorted),
                 64, ["32"], [8, 16, 32], [64, 32, 16]),
    "kmax": _mostly(st.floats(0.5, 2.5), 0.0, 0.25, "2.5", None, True),
}, optional={
    "spin_structure": _mostly(st.sampled_from(["antiperiodic", "periodic"]),
                              "mobius"),
    "conformal_u": _mostly(
        st.one_of(st.none(), st.sampled_from(["bump:0.3", "const:0.1",
                                              "poly:0,0.2"]),
                  st.builds("bump:{}".format, st.floats(-3.0, 3.0))),
        "bump:", "wave:1", "bump:1e308"),
})
_FLAGS = _mostly(st.sampled_from([[], ["--kmax", "1.5"], ["--N", "16,24,32"],
                                  ["--bc", "aps-,local+"]]),
                 ["--kmax", "nan"], ["--N", "32,x"], ["--bc", ""])


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["spectrum", "convergence", "verify", "bounds"]),
       geometry=_GEOMETRY, profile=_PROFILE_TEXT, scenario=_SCENARIO,
       flags=_FLAGS)
def test_cli_run_fuzz(command, geometry, profile, scenario, flags):
    """Whatever the scenario, run() returns 0-3 and stderr holds no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        if geometry == "profile:":
            geometry = "profile:" + os.path.join(tmp, "p.csv")
            with open(geometry[len("profile:"):], "w") as fh:
                fh.write(profile)
        cfg = os.path.join(tmp, "scenario.json")
        with open(cfg, "w") as fh:
            json.dump(dict(scenario, geometry=geometry), fh)
        argv = [command, "--config", cfg, "--out", os.path.join(tmp, "o")]
        argv += flags
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = run(argv)
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert "RuntimeWarning" not in err.getvalue()
