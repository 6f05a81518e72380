"""CLI contract: subcommands, config/flags, outputs, exit codes, determinism."""

import contextlib
import errno
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spinspec import cli, dirac_core
from spinspec.cli import MAX_CONFIG_BYTES, Scenario, _spectrum_csv, fmt, run
from spinspec import ConfigError, NumericalError, make_surface
from spinspec.geometry import MAX_PROFILE_BYTES
from spinspec.bounds import TOL_FEAS, canned_modifiers, feasibility_margin

# the package source, for the tests that start a fresh interpreter
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


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


@pytest.mark.parametrize("command", ["spectrum", "bounds", "convergence",
                                     "verify"])
@pytest.mark.parametrize("factor", ["wave:1", "bump:1e308"])
def test_bad_conformal_factor_exits_2_under_every_command(command, factor,
                                                          tmp_path, capsys):
    """Every command checks conformal_u on the surface, though only verify
    rescales by it: a spec that does not parse, or a factor the rescaling
    refuses, is one config-error line and exit 2."""
    assert run([command, "--geometry", "disk", "--N", "16,32,64",
                "--kmax", "0.5", "--conformal-u", factor,
                "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert not os.listdir(tmp_path)


def test_config_with_scalar_grid_exits_2(tmp_path, capsys):
    bad = tmp_path / "scalar_n.json"
    bad.write_text('{"geometry": "disk", "N": 256}')
    assert run(["spectrum", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


COMMANDS = ("spectrum", "verify", "bounds", "convergence")

# config documents that are not a JSON object, cannot be decoded or nest too
# deep: each ended in a traceback (TypeError, RecursionError,
# UnicodeDecodeError), and "abc" was read as the fields a, b, c
_MALFORMED_CONFIGS = {"number": b"5", "null": b"null", "list": b"[]",
                      "pairs": b'[["N", 1]]', "string": b'"abc"',
                      "deep": b"[" * 100000, "not_utf8": b"\xff\xfe{"}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", sorted(_MALFORMED_CONFIGS))
def test_malformed_config_document_exits_2(command, case, tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(_MALFORMED_CONFIGS[case])
    out = tmp_path / "o"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert "'a', 'b', 'c'" not in err[0]
    assert not out.exists()


# a 300-byte component, over NAME_MAX; 25 components of 200 bytes, over
# PATH_MAX: each ended in an OSError traceback after the solve, and left
# part of the path behind
_LONG_OUTS = {"long_name": ("o", "x" * 300), "long_path": ("y" * 200,) * 25}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("where", ["file", "under_file", "long_name",
                                   "long_path", "read_only"])
def test_unwritable_out_exits_2_before_any_mode_is_assembled(
        command, where, tmp_path, capsys, monkeypatch):
    """An --out that is a file, lies under one, has a component or a length
    the file system refuses, or lies under a directory this process may not
    write, is refused by `validate` with one line: it used to end in an
    OSError (FileExistsError, NotADirectoryError, ENAMETOOLONG), exit 1,
    after the whole solve."""
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    out = {"file": blocker, "under_file": blocker / "sub" / "dir",
           "read_only": tmp_path / "sub" / "dir"}.get(where)
    if where in _LONG_OUTS:
        out = tmp_path.joinpath(*_LONG_OUTS[where])
    if where == "read_only":
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode: (
            path != str(tmp_path) and access(path, mode)))

    def assemble(*args):
        raise AssertionError("a mode was assembled")

    monkeypatch.setattr(dirac_core.ModeOperator, "__post_init__", assemble)
    assert run([command, "--geometry", "disk", "--N", "16,32,64",
                "--kmax", "0.5", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: output path")
    assert os.listdir(tmp_path) == ["blocker"]
    assert blocker.read_text() == "keep"


@pytest.mark.parametrize("command", COMMANDS)
def test_write_failure_is_one_line_and_keeps_earlier_files(
        command, tmp_path, capsys, monkeypatch):
    """An OSError of the writer after the solve (here a full file system on
    the second file) ends as one `cannot write` line and exit 2, not a
    traceback; the file written before it stays."""
    calls = []

    def write(path, text):
        calls.append(path)
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        atomic_write(path, text)

    atomic_write = cli.atomic_write
    monkeypatch.setattr(cli, "atomic_write", write)
    out = tmp_path / "o"
    assert run([command, "--geometry", "disk", "--N", "16,32,64", "--kmax",
                "0.5", "--bc", "local+,aps-", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: cannot write {calls[1]}: No space left on device"]
    assert [str(p) for p in out.iterdir()] == calls[:1]


def test_out_that_is_no_file_name_exits_2(tmp_path, capsys):
    """A config can carry a lone surrogate into `out`; os.makedirs raised
    UnicodeEncodeError on it after the solve."""
    cfg = tmp_path / "c.json"
    cfg.write_text('{"geometry": "disk", "N": [16], "kmax": 0.5, '
                   '"out": "o\\ud800"}')
    assert run(["spectrum", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: output path")
    assert os.listdir(tmp_path) == ["c.json"]


def test_out_with_a_nul_byte_exits_2(tmp_path, capsys):
    """Only a config can carry a NUL byte into `out`; os.makedirs raised
    ValueError on it after the solve."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"geometry": "disk", "N": [16], "kmax": 0.5,
                               "out": str(tmp_path / "a\0b")}))
    assert run(["spectrum", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: output path")
    assert os.listdir(tmp_path) == ["c.json"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", ["x\0.csv", "o\ud800.csv"])
def test_profile_path_that_is_no_file_name_exits_2(command, name, tmp_path,
                                                     capsys):
    """Only a config can carry a NUL byte or a lone surrogate into a
    profile: path; os.stat raised ValueError (UnicodeEncodeError) on it, a
    traceback and exit 1."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"geometry": f"profile:{tmp_path / name}",
                               "N": [16], "kmax": 0.5,
                               "out": str(tmp_path / "o")}))
    assert run([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: profile path {str(tmp_path / name)!r} is not a file "
        "name"]
    assert os.listdir(tmp_path) == ["c.json"]


@pytest.mark.parametrize("command", ["spectrum", "verify"])
def test_too_coarse_grid_is_a_config_error_naming_N(command, tmp_path, capsys):
    """On a cylinder of length 1e4 at N 256 the end half-cell weight
    0.5 h f (1 - h sigma / 2) is negative (h sigma about 20): one line
    naming N and the surface, exit 2, in place of an exit-3 line that named
    neither."""
    assert run([command, "--geometry", "cylinder:1e4", "--N", "256",
                "--kmax", "0.5", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: N = 256 is too coarse for the surface "
                   "cylinder:1e4 at |k| = 0.5: a quadrature weight is not "
                   "positive; raise N"]


def test_fine_enough_grid_solves_the_long_cylinder(tmp_path):
    assert run(["spectrum", "--geometry", "cylinder:1e4", "--N", "4096",
                "--kmax", "0.5", "--out", str(tmp_path)]) == 0


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
    # the hemisphere is the limiting case lambda_min^2 = friedrich = 1; a
    # pass tolerance below the O(h^2) deficit of lambda_min^2 (5e-5 at
    # N = 64) forces a failing entry and exit code 1
    out = str(tmp_path / "bf")
    assert run(["bounds", "--geometry", "hemisphere", "--bc", "local+",
                "--N", "64", "--kmax", "1.5", "--tol-report", "1e-6",
                "--out", out]) == 1
    assert "FAIL" in capsys.readouterr().err
    report = json.loads(read(os.path.join(out, "bounds_localplus.json")))
    assert report["passed"] is False


def test_spectrum_warns_when_kmax_attained(tmp_path, capsys):
    out = str(tmp_path / "w")
    assert run(["spectrum", "--geometry", "disk", "--bc", "local+",
                "--N", "32", "--kmax", "0.5", "--out", out]) == 0
    assert "kmax" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "verify", "bounds"])
def test_kmax_warning_in_every_command_reporting_lambda_min(command, tmp_path,
                                                            capsys):
    """On the disk the fundamental sits at |k| = 1/2: with kmax 1/2 each
    command that reports lambda_min prints the one warning line, once per
    spectrum, and with kmax 3/2 none."""
    for kmax, lines in (("0.5", 1), ("1.5", 0)):
        assert run([command, "--geometry", "disk", "--bc", "local+",
                    "--N", "32", "--kmax", kmax, "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == lines * ["warning: lambda_min attained at |k| = 0.5, "
                               "the largest mode solved; increase --kmax"]


@pytest.mark.parametrize("command", ["spectrum", "verify", "bounds"])
def test_top_mode_warning_names_a_solved_mode(command, tmp_path, capsys):
    """kmax 1.2 on the disk solves |k| = 1/2 only: the warning names 0.5,
    the largest mode solved, not kmax."""
    assert run([command, "--geometry", "disk", "--bc", "local+", "--N", "32",
                "--kmax", "1.2", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: lambda_min attained at |k| = 0.5, the largest mode solved; "
        "increase --kmax"]


def test_top_mode_warning_on_a_periodic_surface(tmp_path, capsys):
    """Under the periodic spin structure kmax 0.7 solves k = 0 alone."""
    assert run(["spectrum", "--geometry", "cylinder:1", "--spin", "periodic",
                "--bc", "aps-", "--N", "32", "--kmax", "0.7",
                "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: lambda_min attained at |k| = 0, the largest mode solved; "
        "increase --kmax"]


@pytest.mark.parametrize("command",
                         ["spectrum", "verify", "bounds", "convergence"])
def test_each_run_builds_its_surface_and_rescaling_once(command, tmp_path,
                                                        monkeypatch):
    """The surface and the conformal rescaling that validation builds are
    the ones the command runs on: one build each, whatever the number of
    boundary conditions."""
    from spinspec import cli
    counts = dict.fromkeys(("make_surface", "conformal_rescale"), 0)
    for name in counts:
        def counted(*args, _name=name, _build=getattr(cli, name)):
            counts[_name] += 1
            return _build(*args)
        monkeypatch.setattr(cli, name, counted)
    assert run([command, "--geometry", "disk", "--bc", "local+,local-",
                "--N", "32,48,64", "--kmax", "1.5", "--conformal-u", "bump:0.3",
                "--out", str(tmp_path)]) == 0
    assert counts == {"make_surface": 1, "conformal_rescale": 1}


@pytest.mark.parametrize("bc", ["local+", "local+,aps-"])
def test_verify_pushes_once_per_condition(bc, tmp_path, monkeypatch):
    """`verify --conformal-u` pushes each condition's fundamental once, and
    eq3/eq4 read that push.  On the checked-in conformal disk the
    rescaling's memo leaves at most 6 inversions of r(s)."""
    from spinspec import geometry, identities
    counts = {"conformal_push": 0, "_arclength_inverse": 0}
    for module, name in ((identities, "conformal_push"),
                         (geometry, "_arclength_inverse")):
        def counted(*args, _name=name, _fn=getattr(module, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["verify", "--config",
                    os.path.join(here, "scenarios", "disk_conformal.json"),
                    "--bc", bc, "--out", str(tmp_path)]) == 0
    assert counts["conformal_push"] == len(bc.split(","))
    if bc == "local+":
        assert 0 < counts["_arclength_inverse"] <= 6


def test_verify_and_bounds_share_the_friedrich_infimum(tmp_path):
    """R = 1/f falls toward the outer circle of this profile, so its
    infimum lies on the boundary, off every cell centre: verify's APS gap
    and bounds' friedrich entry read the same infimum."""
    path = tmp_path / "p.csv"
    r = np.linspace(0.3, 2.0, 40)
    path.write_text("r,f\n" + "".join(f"{x:.17g},{x * (1.2 - x / 4):.17g}\n"
                                       for x in r))
    args = ["--geometry", f"profile:{path}", "--bc", "aps-", "--N", "64",
            "--kmax", "2.5", "--out", str(tmp_path)]
    assert run(["verify"] + args) == 0
    assert run(["bounds"] + args) == 0
    rows = [json.loads(ln) for ln in
            read(tmp_path / "verify_apsminus.jsonl").splitlines()]
    gap = next(r for r in rows if r["name"] == "aps_strict_gap")
    report = json.loads(read(tmp_path / "bounds_apsminus.json"))
    friedrich = next(e for e in report["entries"] if e["name"] == "friedrich")
    assert gap["right"] == friedrich["value"]


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


def test_convergence_subcommand(tmp_path, capsys):
    """The disk's ladder at kmax 1/2: no order on the first two rows, a
    second-order estimate on the third, converged only on the last row;
    the fundamental sits on the top mode |k| = 1/2, one warning line.
    Grids out of order are refused, exit 2."""
    out = tmp_path / "cv"
    assert run(["convergence", "--geometry", "disk", "--bc", "local+",
                "--N", "32,64,128", "--kmax", "0.5", "--out", str(out)]) == 0
    lines = read(out / "convergence_localplus.csv").splitlines()
    assert lines[0] == "N,lambda_min,order,converged"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == ["32", "64", "128"]
    assert rows[0][2] == rows[1][2] == ""
    assert 1.7 <= float(rows[2][2]) <= 2.4
    assert [row[3] for row in rows] == ["0", "0", "1"]
    assert capsys.readouterr().err.splitlines() == [
        "warning: lambda_min attained at |k| = 0.5, the largest mode "
        "solved; convergence solves |k| <= min(kmax, 2.5)"]
    assert run(["convergence", "--geometry", "disk", "--N", "64,32,128",
                "--out", str(tmp_path / "bad")]) == 2
    assert "strictly ascending" in capsys.readouterr().err


def test_convergence_warns_when_its_top_mode_is_attained(tmp_path, capsys):
    """On the disk the fundamental sits at |k| = 1/2: convergence with kmax
    1/2 or 1.2 (no mode 3/2) prints one warning line per boundary condition
    naming the top mode solved, keeps its file and exit code, and with kmax
    3/2 none."""
    args = ["convergence", "--geometry", "disk", "--bc", "local+,aps-",
            "--N", "32,64,128"]
    assert run(args + ["--kmax", "1.5", "--out", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().err == ""
    for kmax in ("0.5", "1.2"):
        assert run(args + ["--kmax", kmax, "--out", str(tmp_path / "b")]) == 0
        assert capsys.readouterr().err.splitlines() == 2 * [
            "warning: lambda_min attained at |k| = 0.5, the largest mode "
            "solved; convergence solves |k| <= min(kmax, 2.5)"]
    for bc in ("localplus", "apsminus"):
        name = f"convergence_{bc}.csv"
        assert read(tmp_path / "b" / name).splitlines()[0] == \
            "N,lambda_min,order,converged"


def _rowwise_spectrum_csv(levels):
    """One % per row: the plain formatter, oracle of _spectrum_csv's one %
    per mode."""
    by_mode = levels[np.lexsort((levels[:, 0], levels[:, 1]))]
    ks, starts = np.unique(by_mode[:, 1], return_index=True)
    lines = ["mode,index,lambda"]
    for k, lams in zip(ks.tolist(), np.split(by_mode[:, 0], starts[1:])):
        lines.extend("%s,%d,%.17g" % (fmt(k), idx, lam)
                     for idx, lam in enumerate(lams.tolist()))
    return "\n".join(lines) + "\n"


def test_spectrum_csv_matches_the_rowwise_formatter(rng):
    ks = np.arange(-3.5, 4.0)
    lams = rng.normal(size=8 * 37) * 10.0 ** rng.integers(-320, 308, 8 * 37)
    lams[:6] = [-0.0, 0.0, 5e-324, -1.7976931348623157e308, 1e-310, 1 / 3]
    levels = np.column_stack([lams, np.repeat(ks, 37)])
    assert _spectrum_csv(levels) == _rowwise_spectrum_csv(levels)
    # one template per level count: modes of 1 to 12 levels, each count
    # twice, on integer k (-0.0 included) and half-integer k
    counts = [1, 12, 3, 1, 7, 12, 3, 7, 2, 2, 11, 11]
    ks = [-5.0, -1.0, -0.0, 2.0, 7.0, 40.0,
          -12.5, -0.5, 0.5, 1.5, 3.5, 24.5]
    lams = rng.normal(size=sum(counts)) * 10.0 ** rng.integers(
        -20, 20, sum(counts))
    lams[[0, 5, 9, 30, 31]] = [0.0, -0.0, 0.0, -0.0, -0.0]
    levels = np.column_stack([lams, np.repeat(ks, counts)])
    assert _spectrum_csv(levels) == _rowwise_spectrum_csv(levels)
    one = np.array([[-0.0, 0.5]])
    assert _spectrum_csv(one) == "mode,index,lambda\n0.5,0,-0\n"


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"geometry": "disk", "bc": ["local+"],
                               "N": [32], "kmax": 0.5,
                               "out": str(tmp_path / "a")}))
    out = str(tmp_path / "flags-win")
    assert run(["spectrum", "--config", str(cfg), "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "spectrum_localplus_N32.csv"))


@pytest.mark.parametrize("flag,value", [("--tol-report", "-5e-3"),
                                        ("--kmax", "-1e-3"), ("--kmax", "-inf"),
                                        ("--tol-identity", "-1E+2")])
def test_negative_flag_value_reaches_validation(flag, value, tmp_path):
    """A negative flag value that float() reads is a value, not an option,
    whether it follows its flag or an '=': both forms exit 2 with the same
    one validation line (argparse's own pattern took -5e-3 for an option)."""
    lines = []
    for form in ([flag, value], [f"{flag}={value}"]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(["spectrum", "--geometry", "disk", "--N", "16",
                        "--out", str(tmp_path / "o")] + form) == 2
        lines.append(err.getvalue())
    assert lines[0] == lines[1]
    assert len(lines[0].splitlines()) == 1
    assert lines[0].startswith("config error: ")
    assert not (tmp_path / "o").exists()


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


def test_profile_csv_byte_order_mark_is_no_header(tmp_path):
    """A profile CSV may open with a UTF-8 byte-order mark.  Without a
    header, with one, and with neither mark nor header, it gives the same
    surface bit for bit and the same convergence file byte for byte (the
    mark once made a first row of numbers pass for a header, dropped)."""
    r = np.linspace(0.5, 1.5, 33)
    rows = "".join(f"{x:.17g},{1 + 0.2 * np.sin(3 * x):.17g}\n" for x in r)
    rr = np.linspace(0.5, 1.5, 101)
    seen = set()
    for name, text in (("plain", rows), ("bom", "\ufeff" + rows),
                       ("bom_header", "\ufeffr,f\n" + rows)):
        path = tmp_path / f"{name}.csv"
        path.write_text(text, encoding="utf-8")
        surface = make_surface(f"profile:{path}")
        out = tmp_path / name
        assert run(["convergence", "--geometry", f"profile:{path}", "--bc",
                    "local+", "--N", "32,64,128", "--out", str(out)]) == 0
        with open(out / "convergence_localplus.csv", "rb") as fh:
            seen.add((surface.r_min, surface.r_max, surface.f(rr).tobytes(),
                      surface.fp(rr).tobytes(), fh.read()))
    assert len(seen) == 1
    assert next(iter(seen))[:2] == (0.5, 1.5)


def _input_argv(where, path, tmp_path):
    """spectrum reading `path` as its config or as its profile CSV."""
    if where == "config":
        args = ["--config", str(path)]
    else:
        args = ["--geometry", f"profile:{path}", "--N", "16", "--kmax", "0.5"]
    return ["spectrum", *args, "--out", str(tmp_path / "o")]


@contextlib.contextmanager
def _deadline(seconds: float):
    """TimeoutError once `seconds` have passed: a blocked read fails the test
    rather than hanging the suite."""
    def blocked(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, blocked)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("where", ["config", "profile"])
def test_named_pipe_input_exits_2_without_blocking(where, tmp_path, capsys):
    """A named pipe with no writer, given as --config or as a profile:, is
    refused before it is opened (opening it would block for good): one
    line, exit 2, well inside a second."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    start = time.perf_counter()
    with _deadline(5.0):
        code = run(_input_argv(where, fifo, tmp_path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {where} {fifo} is not a regular file"]


@pytest.mark.parametrize("where, cap", [("config", MAX_CONFIG_BYTES),
                                        ("profile", MAX_PROFILE_BYTES)])
def test_oversize_input_exits_2_without_reading_it(where, cap, tmp_path,
                                                    capsys):
    """A file one byte over its cap is refused from its size alone: one
    line, exit 2, nothing large allocated.  The file is sparse, so making
    it writes no data either."""
    path = tmp_path / "big"
    path.touch()
    os.truncate(path, cap + 1)
    tracemalloc.start()
    try:
        code = run(_input_argv(where, path, tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < cap // 4
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {where} {path} holds {cap + 1} bytes; "
        f"the cap is {cap}"]


def test_overflowing_input_prints_one_line(tmp_path):
    """numpy's overflow warnings on an extreme factor stay off stderr: the run
    ends with its one config-error line alone."""
    proc = subprocess.run(
        [sys.executable, "-m", "spinspec.cli", "verify", "--geometry", "disk",
         "--N", "16", "--kmax", "0.5", "--conformal-u", "bump:1e308",
         "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("config error:")


@pytest.mark.parametrize("command, geometry", [("spectrum", "annulus:1,1e300"),
                                               ("verify", "annulus:1,1e300")])
def test_overflowing_quadrature_weight_exits_3(command, geometry, tmp_path,
                                               capsys, monkeypatch):
    """A surface so long that a quadrature weight h f overflows is refused in
    assembly with one line and exit 3; its inf used to reach the window
    elimination as nan and end in an SVD traceback.  Admission refuses such
    a length first (`cli._admit_scale`); it is skipped here so that the
    check in assembly stays tested."""
    monkeypatch.setattr(cli, "_admit_scale", lambda surface: None)
    code = run([command, "--geometry", geometry, "--N", "16", "--kmax", "0.5",
                "--out", str(tmp_path / "o")])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: nonpositive or non-finite quadrature weight "
        "in assembly"]


@pytest.mark.parametrize("command", ["spectrum", "verify"])
@pytest.mark.parametrize("rows", [
    "0,1\n1,2\n2,3\n1e308,4\n", "1,1\n1.0000000000000002,1e300\n2,1\n3,1\n"],
    ids=["far_last_radius", "spike"])
def test_profile_not_finite_inside_exits_2(command, rows, tmp_path, capsys):
    """A profile whose spline overflows to nan between its samples is
    refused when the surface is built, with one line and exit 2.  The nan
    used to pass the positivity check (nan <= 0 is False) and reach
    admission, which misread it as a largest radius of nan."""
    path = tmp_path / "nan.csv"
    path.write_text("r,f\n" + rows)
    code = run([command, "--geometry", f"profile:{path}", "--N", "16",
                "--kmax", "0.5", "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: profile must be positive and finite on (r_min, r_max)"]


@pytest.mark.parametrize("command", ["verify", "bounds"])
def test_failed_run_drops_its_top_mode_warning(command, tmp_path, capsys,
                                               monkeypatch):
    """A command that warns about its top mode and then fails numerically
    prints the failure line alone: stderr lines wait for the command to
    return.  Admission refuses this length (`cli._admit_scale`); it is
    skipped here to reach the failure."""
    monkeypatch.setattr(cli, "_admit_scale", lambda surface: None)
    code = run([command, "--geometry", "cylinder:1e200", "--spin", "periodic",
                "--N", "16", "--kmax", "0.5", "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure:"), err


@pytest.mark.parametrize("command", ["spectrum", "verify", "bounds",
                                     "convergence"])
@pytest.mark.parametrize("geometry, message", [
    ("cylinder:1e200", "surface length 1e+200"),
    ("cap:1e-7", "surface length 1e-07"),
    ("wide", "surface largest radius 1e+07"),
])
def test_surface_scale_outside_the_range_exits_2(command, geometry, message,
                                                 tmp_path, capsys):
    """A surface whose length or largest radius leaves [1e-6, 1e6] is refused
    with one line.  The cylinder of length 1e200 gave `spectrum` levels of
    1e-199 (exit 0) and `verify` no eigenvectors (exit 3)."""
    if geometry == "wide":
        path = tmp_path / "wide.csv"
        path.write_text("r,f\n0,1e7\n1,1e7\n2,1e7\n3,1e7\n")
        geometry = f"profile:{path}"
    code = run([command, "--geometry", geometry, "--spin", "periodic",
                "--N", "16,24,32", "--kmax", "0.5", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {message} lies outside [1e-06, 1e+06]"]


def _mode_hook(monkeypatch, at: float, action) -> list:
    """Run `action()` inside solve_mode at |k| = at, on a pool of two
    workers; returns one entry per call there: True on the main thread."""
    real, threads = dirac_core.solve_mode, []

    def hooked(surface, k, *args):
        if k == at:
            threads.append(threading.current_thread()
                           is threading.main_thread())
            action()
        return real(surface, k, *args)

    monkeypatch.setattr(dirac_core, "_cpu_count", lambda: 2)
    monkeypatch.setattr(dirac_core, "solve_mode", hooked)
    return threads


def test_failure_on_a_pool_thread_exits_3_with_one_line(monkeypatch, tmp_path,
                                                        capsys):
    def fail():
        raise NumericalError("injected at |k| = 1.5")

    threads = _mode_hook(monkeypatch, 1.5, fail)
    code = run(["spectrum", "--geometry", "disk", "--N", "32", "--kmax", "4.5",
                "--out", str(tmp_path)])
    assert code == 3 and threads == [False]
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: injected at |k| = 1.5"]


def test_warning_on_a_pool_thread_is_counted(monkeypatch, tmp_path, capsys):
    """A RuntimeWarning raised in a solve on a pool thread reaches run()'s
    count: warnings.catch_warnings is process-wide, and numpy's default
    error state warns on a thread as on the main one."""
    threads = _mode_hook(monkeypatch, 1.5, lambda: np.array([1e308]) * 10.0)
    code = run(["spectrum", "--geometry", "disk", "--N", "32", "--kmax", "4.5",
                "--out", str(tmp_path)])
    assert code == 0 and threads == [False]
    assert capsys.readouterr().err.splitlines() == [
        "warning: 1 numerical warning(s) suppressed, the first: overflow "
        "encountered in multiply"]


def test_pooled_spectrum_files_are_the_serial_ones(monkeypatch, tmp_path):
    """`spectrum --bc local-,aps-,local+` on three grids, all on one pool,
    writes the bytes of the three single runs, and prints their stdout and
    stderr in plan order; in one thread it writes and prints the same."""
    runs = {}
    for workers in (1, 2):
        monkeypatch.setattr(dirac_core, "_cpu_count", lambda: workers)
        for bcs in ("local-,aps-,local+", "local-", "aps-", "local+"):
            out = tmp_path / f"{workers}{bcs}"
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                assert run(["spectrum", "--geometry", "hemisphere", "--bc",
                            bcs, "--N", "48,64,96", "--kmax", "6.5",
                            "--out", str(out)]) == 0
            runs[workers, bcs] = (
                {n: (out / n).read_bytes() for n in sorted(os.listdir(out))},
                stdout.getvalue().replace(str(out), "OUT"), stderr.getvalue())
    for workers in (1, 2):
        files, stdout, stderr = runs[workers, "local-,aps-,local+"]
        alone = [runs[workers, bc] for bc in ("local-", "aps-", "local+")]
        assert files == {n: data for f, _, _ in alone for n, data in f.items()}
        assert len(files) == 9
        assert stdout == "".join(out for _, out, _ in alone)
        assert stdout.count("wrote OUT/spectrum_") == 9
        assert stderr == "".join(err for _, _, err in alone)
    assert runs[1, "local-,aps-,local+"] == runs[2, "local-,aps-,local+"]


def test_spectrum_runs_on_one_pool_and_the_other_commands_on_none(
        monkeypatch, tmp_path):
    """One `spectrum` run builds exactly one ThreadPoolExecutor for all its
    conditions and grids, of min(_cpu_count(), solves) threads; the
    selective solves of verify, bounds and convergence build none."""
    import concurrent.futures
    built = []

    class Recorded(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)
    flags = ["--geometry", "disk", "--bc", "local+,aps-,local-", "--N",
             "32,48,64", "--out", str(tmp_path)]
    for cpus, kmax, threads in ((2, "2.5", 2), (3, "2.5", 3), (64, "0.5", 6)):
        monkeypatch.setattr(dirac_core, "_cpu_count", lambda: cpus)
        built.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["spectrum", "--kmax", kmax] + flags) == 0
        # kmax 0.5: one |k| on 3 grids under 2 native conditions, 6 solves
        assert built == [threads]
    monkeypatch.setattr(dirac_core, "_cpu_count", lambda: 2)
    built.clear()
    for command in ("verify", "bounds", "convergence"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert run([command, "--kmax", "2.5"] + flags) == 0
    assert built == []


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("failing, grids, written", [
    ("local+", (48, 64), ["spectrum_localplus_N32.csv"]),
    ("aps-", (48, 64), ["spectrum_localplus_N32.csv",
                        "spectrum_localplus_N48.csv",
                        "spectrum_localplus_N64.csv",
                        "spectrum_apsminus_N32.csv"]),
    ("local+", (32,), [])])
def test_spectrum_failure_is_the_serial_one(failing, grids, written, workers,
                                            monkeypatch, tmp_path, capsys):
    """Solves under `failing` fail at |k| = 1.5 on `grids`.  The pool solves
    the largest grid first, so N 64 fails before N 48, but the run reports
    the failure a serial run meets first, in one line with exit 3, and
    writes the files of the entries before it, in plan order, and none of
    it or after it, though every grid above N 32 is solved and formatted
    before N 32 fails.  The solves only later entries need are cancelled:
    a serial run makes none, the pool few (each pauses 50 ms)."""
    real, calls = dirac_core.solve_mode, []

    def hooked(surface, k, bc, N, *args):
        if bc.variant == "aps-":
            calls.append((k, N))
        if bc.variant == failing and k == 1.5 and N in grids:
            raise NumericalError(f"injected at |k| = {k:g}, N = {N}")
        if bc.variant == "aps-" and failing == "local+":
            time.sleep(0.05)
        return real(surface, k, bc, N, *args)

    monkeypatch.setattr(dirac_core, "_cpu_count", lambda: workers)
    monkeypatch.setattr(dirac_core, "solve_mode", hooked)
    out = tmp_path / "o"
    code = run(["spectrum", "--geometry", "disk", "--bc", "local+,aps-",
                "--N", "32,48,64", "--kmax", "2.5", "--out", str(out)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"numerical failure: injected at |k| = 1.5, N = {min(grids)}"]
    assert (sorted(os.listdir(out)) if out.exists() else []) == sorted(written)
    assert [line.split()[1] for line in captured.out.splitlines()
            if line.startswith("wrote")] == [str(out / n) for n in written]
    if failing == "local+" and 64 in grids:
        # uncancelled, the pool would run all of N 64 and 48 under aps-
        # before it reached local+ on N 32: 6 solves
        assert len(calls) < (1 if workers == 1 else 6)


@pytest.mark.parametrize("command, written", [
    ("verify", "verify_localplus.jsonl"),
    ("bounds", "bounds_localplus.json"),
    ("convergence", "convergence_localplus.csv")])
@pytest.mark.parametrize("failing", ["aps-", "local+"])
def test_selective_failure_is_the_first_in_plan_order(command, written,
                                                      failing, monkeypatch,
                                                      tmp_path, capsys):
    """verify, bounds and convergence solve inline, one condition after the
    other.  A failure under `failing` at |k| = 1.5 exits 3 with one line.
    Each condition's file is written before the next condition's first
    solve, so a failure under aps- leaves the local+ file alone
    (bounds_summary.csv is not written), and one under local+ writes
    nothing."""
    real, events = dirac_core.solve_mode, []

    def hooked(surface, k, bc, N, *args):
        events.append(bc.variant)
        if bc.variant == failing and k == 1.5:
            raise NumericalError(f"injected at |k| = {k:g}, N = {N}")
        return real(surface, k, bc, N, *args)

    def recorded(path, text):
        events.append(os.path.basename(path))
        atomic_write(path, text)

    atomic_write = cli.atomic_write
    monkeypatch.setattr(dirac_core, "_cpu_count", lambda: 2)
    monkeypatch.setattr(dirac_core, "solve_mode", hooked)
    monkeypatch.setattr(cli, "atomic_write", recorded)
    out = tmp_path / "o"
    code = run([command, "--geometry", "disk", "--bc", "local+,aps-",
                "--N", "32,48,64", "--kmax", "2.5", "--out", str(out)])
    assert code == 3
    captured = capsys.readouterr()
    first = 32 if command == "convergence" else 64
    assert captured.err.splitlines() == [
        f"numerical failure: injected at |k| = 1.5, N = {first}"]
    files = [written] if failing == "aps-" else []
    assert (sorted(os.listdir(out)) if out.exists() else []) == files
    assert [line.split()[1] for line in captured.out.splitlines()
            if line.startswith("wrote")] == [str(out / n) for n in files]
    if failing == "aps-":
        at = events.index(written)
        assert set(events[:at]) == {"local+"}
        assert set(events[at + 1:]) == {"aps-"}
    else:
        assert set(events) == {"local+"}


_IMPORT_PROBE = """
import json, sys
from spinspec import cli

out = sys.argv[1]
profile = out + "/profile.csv"
with open(profile, "w") as fh:
    fh.write("r,f\\n" + "".join(f"{0.5 + j / 16!r},{1 + j / 32!r}\\n"
                                  for j in range(17)))
flags = ["--N", "16", "--kmax", "1.5", "--out", out]
runs = [["spectrum", "--geometry", "hemisphere", "--bc", "aps-"] + flags,
        ["spectrum", "--geometry", "profile:" + profile,
         "--bc", "local+,local-"] + flags,
        ["verify", "--geometry", "disk"] + flags,
        ["verify", "--geometry", "disk", "--conformal-u", "bump:0.3",
         "--N", "64", "--kmax", "1.5", "--out", out],
        ["convergence", "--geometry", "profile:" + profile,
         "--N", "16,32,64", "--out", out],
        ["bounds", "--geometry", "cap:1.2", "--optimize-bounds",
         "--budget", "10"] + flags,
        ["bounds", "--geometry", "profile:" + profile, "--conformal-u",
         "const:0.1", "--optimize-bounds", "--budget", "10"] + flags]
codes, loaded = [], []
for argv in runs:
    codes.append(cli.run(argv))
    loaded.append(sorted(m for m in sys.modules
                         if m == "scipy" or m.startswith("scipy.")))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_built_in_runs_never_load_interpolate_or_optimize(tmp_path):
    """No CLI command loads any scipy module: not spectrum, verify, bounds
    or convergence, not for a profile geometry, verify's conformal push,
    nor --optimize-bounds.  LAPACK comes from numpy's bundled OpenBLAS, the
    splines and Nelder-Mead are in-house.  A structural check of the cold
    start, not a timing; it holds where that OpenBLAS resolves, as it does
    for numpy's wheels."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["codes"] == [0] * 7
    assert seen["loaded"] == [[]] * 7


def test_cli_import_loads_neither_scipy_nor_the_thread_pool():
    """Importing the CLI loads no scipy module and not concurrent.futures:
    every process pays its imports before the first solve, and the pool is
    imported inside `dirac_core.full_spectra`, where a full spectrum first
    needs it."""
    probe = ("import json, sys, spinspec.cli; print(json.dumps(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'scipy' "
             "or m.startswith('concurrent.futures'))))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("factor", ["poly:0,300", "bump:700"])
def test_conformal_factor_beyond_double_range_exits_2(factor, tmp_path):
    """A factor u whose e^(2u) overflows (bump:700) or spans more than 1/eps
    over the surface (poly:0,300: e^600, where the rescaled surface's pole
    test swallowed the grid and the curvature law read 2.5e+241) is refused
    with one config-error line, before any identity is evaluated."""
    proc = subprocess.run(
        [sys.executable, "-m", "spinspec.cli", "verify", "--geometry", "disk",
         "--N", "16", "--kmax", "0.5", "--conformal-u", factor,
         "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("config error: conformal factor u")


@pytest.mark.parametrize("command", ["spectrum", "verify", "bounds",
                                     "convergence"])
@pytest.mark.parametrize("override", [
    {"kmax": 1e12}, {"N": [10 ** 12]}, {"N": [16, 10 ** 12]},
    {"budget": 0}, {"budget": -3}, {"budget": 10 ** 12},
    {"tol_identity": -1.0}, {"tol_identity": 0.0}, {"tol_report": -10.0},
    {"kmax": 900.5, "N": [4096]}])
def test_admission_refuses_before_allocating(command, override, tmp_path,
                                             capsys):
    """Caps on kmax, N and budget and positive tolerances are checked from
    the config alone: one config-error line, exit 2, well inside a second
    and without a large allocation (the mode list of kmax = 1e12 alone
    would be 2e12 floats)."""
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(dict({"geometry": "disk", "N": [16],
                                    "kmax": 0.5}, **override)))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        rc = run([command, "--config", str(cfg), "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert time.perf_counter() - start < 1.0
    assert peak < 2 ** 20
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("form", ["config", "flag", "grid"])
def test_condition_listed_twice_exits_2_before_any_solve(command, form,
                                                         tmp_path, capsys,
                                                         monkeypatch):
    """A boundary condition listed twice, in the config or by --bc, or a
    grid size listed twice by --N, would be solved again and its file
    written twice: `validate` refuses it with one line, exit 2, before any
    mode is assembled and without making --out.  A ladder of three with a
    repeated size is refused for `convergence` too."""
    def assemble(*args):
        raise AssertionError("a mode was assembled")

    monkeypatch.setattr(dirac_core.ModeOperator, "__post_init__", assemble)
    out = tmp_path / "out"
    grid = "64,64,96" if form == "grid" else "64,80,96"
    argv = [command, "--geometry", "hemisphere", "--N", grid,
            "--kmax", "2.5", "--out", str(out)]
    if form == "config":
        cfg = tmp_path / "twice.json"
        cfg.write_text(json.dumps({"bc": ["aps-", "local+", "aps-"]}))
        argv += ["--config", str(cfg)]
    elif form == "flag":
        argv += ["--bc", "local+,local+"]
    assert run(argv) == 2
    twice = "aps-" if form == "config" else "local+"
    assert capsys.readouterr().err.splitlines() == [
        "config error: grid sizes must be strictly ascending and at least 16"
        if form == "grid" else
        f"config error: boundary condition {twice!r} is listed twice"]
    assert not out.exists()
    if form == "grid":
        with pytest.raises(ConfigError, match="strictly ascending"):
            Scenario(geometry="disk", N=[16, 16, 16],
                     out=str(out)).validate("convergence")


def test_spectrum_work_cap_spares_the_other_commands(tmp_path):
    """`spectrum` costs O(N^2) per mode, the other commands O(N): the same
    grids (three, as `convergence` needs) are refused for the one and
    admitted for the others."""
    sc = Scenario(geometry="disk", kmax=30.5, N=[2048, 4096, 8192],
                  out=str(tmp_path))
    with pytest.raises(ConfigError, match="spectrum work"):
        sc.validate("spectrum")
    for command in ("verify", "bounds", "convergence"):
        sc.validate(command)


def test_validate_admits_what_each_command_solves(tmp_path, monkeypatch):
    """Admission counts the grids and the |k| range a command solves:
    `convergence` solves |k| <= 2.5 whatever kmax, `verify` and `bounds`
    the finest grid only.  These inputs hold too many mode cells for
    `spectrum`, which solves every grid to kmax, and are admitted for the
    commands that solve less, without a mode assembled."""
    def assemble(*args):
        raise AssertionError("a mode was assembled")

    monkeypatch.setattr(dirac_core.ModeOperator, "__post_init__", assemble)
    ladder = Scenario(geometry="disk", kmax=12.5, N=[16384, 32768, 65536],
                      out=str(tmp_path))
    finest = Scenario(geometry="disk", kmax=12.5,
                      N=[1024, 2048, 4096, 8192, 16384, 32768],
                      out=str(tmp_path))
    for sc, commands in ((ladder, ["convergence"]),
                         (finest, ["verify", "bounds"])):
        with pytest.raises(ConfigError, match="mode cells"):
            sc.validate("spectrum")
        for command in commands:
            sc.validate(command)


@pytest.mark.parametrize("command, kmax, coarse, n_abs", [
    ("verify", 1.5, [16], 3), ("bounds", 1.5, [16], 3),
    ("convergence", 12.5, [16, 32], 4)])
def test_admission_refuses_the_cells_a_command_solves(command, kmax, coarse,
                                                      n_abs, tmp_path):
    """2 (floor(k_max + 1/2) + 1) sum(grids) <= MAX_CELLS over the grids and
    the |k| range `command` solves: n_abs = floor(k_max + 1/2) + 1 is 3 for
    |k| <= 1.5 and 4 for convergence's |k| <= 2.5.  The solved grids may
    hold MAX_CELLS cells and not one grid cell more; the coarse grids count
    for convergence only."""
    solved = cli.MAX_CELLS // (2 * n_abs) - (
        sum(coarse) if command == "convergence" else 0)
    Scenario(geometry="disk", kmax=kmax, N=coarse + [solved],
             out=str(tmp_path)).validate(command)
    with pytest.raises(ConfigError, match="mode cells; the cap is"):
        Scenario(geometry="disk", kmax=kmax, N=coarse + [solved + 1],
                 out=str(tmp_path)).validate(command)


def test_two_grid_convergence_exits_2_before_any_solve(tmp_path, capsys,
                                                       monkeypatch):
    """An order estimate needs three grids: `validate("convergence")`
    refuses two with one line, exit 2, before any mode is assembled and
    without making --out; the other commands take two grids."""
    def assemble(*args):
        raise AssertionError("a mode was assembled")

    monkeypatch.setattr(dirac_core.ModeOperator, "__post_init__", assemble)
    out = tmp_path / "out"
    assert run(["convergence", "--geometry", "disk", "--N", "32,64",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: convergence study needs at least 3 grid sizes"]
    assert not out.exists()
    sc = Scenario(geometry="disk", N=[32, 64], out=str(out))
    for command in ("spectrum", "verify", "bounds"):
        sc.validate(command)


def test_local_minus_spectrum_alone_matches_the_shared_solve(tmp_path):
    """`spectrum` serves each local condition from the other's solve when
    both are asked for; every file is byte-identical to a run of that
    condition alone."""
    base = ["spectrum", "--geometry", "annulus:0.5,1.0", "--N", "32,40",
            "--kmax", "2.5", "--out"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(base + [str(tmp_path / "both"), "--bc", "local+,local-"]) == 0
        assert run(base + [str(tmp_path / "minus"), "--bc", "local-"]) == 0
        assert run(base + [str(tmp_path / "plus"), "--bc", "local+"]) == 0
    for bc in ("localminus", "localplus"):
        alone = "minus" if bc == "localminus" else "plus"
        for N in (32, 40):
            name = f"spectrum_{bc}_N{N}.csv"
            assert read(tmp_path / "both" / name) == read(tmp_path / alone / name)


@pytest.mark.parametrize("order", ["local+,local-", "local-,aps-,local+"])
@pytest.mark.parametrize("command", COMMANDS)
def test_local_pair_shares_its_solve_in_every_command(command, order, tmp_path,
                                                      monkeypatch):
    """A run with both local conditions writes, file for file, the bytes of
    the one-condition runs (bounds_summary.csv: their rows, in order).  The
    second local condition shares the first one's solves: each |k| of
    the pair is solved once per grid (3 |k| on the disk at kmax 2.5, so
    convergence --bc local+,local- makes 9 solves, not 18), every solve_mode
    call of every command is made inside the one executor, `full_spectra`
    (a generator), and verify and bounds, which solve the last grid, add
    one assembly per condition, for the fundamental's field."""
    conditions = order.split(",")
    base = [command, "--geometry", "disk", "--N", "32,48,64", "--kmax", "2.5"]
    solve, merge = dirac_core.solve_mode, cli.full_spectra
    assemble = dirac_core.ModeOperator._assemble
    calls, merging, assembled = [], [], []

    def counted(*args, **kwargs):
        calls.append(bool(merging))
        return solve(*args, **kwargs)

    def pooled(*args, **kwargs):
        merging.append(True)
        try:
            yield from merge(*args, **kwargs)
        finally:
            merging.pop()

    def counted_assembly(op):
        assembled.append(op.k)
        assemble(op)

    monkeypatch.setattr(dirac_core, "solve_mode", counted)
    monkeypatch.setattr(cli, "full_spectra", pooled)
    monkeypatch.setattr(dirac_core.ModeOperator, "_assemble", counted_assembly)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(base + ["--bc", order, "--out", str(tmp_path / "all")]) == 0
    native = len({bc[:5] for bc in conditions})   # "local" and "aps-"
    grids = 1 if command in ("verify", "bounds") else 3
    assert calls == [True] * (3 * grids * native)
    assert len(assembled) == len(calls) + (
        len(conditions) if command in ("verify", "bounds") else 0)

    joint = {name: (tmp_path / "all" / name).read_bytes()
             for name in os.listdir(tmp_path / "all")}
    alone, summary = {}, []
    for bc in conditions:
        out = tmp_path / bc
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(base + ["--bc", bc, "--out", str(out)]) == 0
        for name in os.listdir(out):
            data = (out / name).read_bytes()
            if name == "bounds_summary.csv":
                header, row = data.decode().splitlines()
                summary += [header] * (not summary) + [row]
            else:
                alone[name] = data
    if summary:
        alone["bounds_summary.csv"] = ("\n".join(summary) + "\n").encode()
    assert joint == alone


@pytest.mark.parametrize("case, name, caller, command, geometry, bc", [
    ("probe", "eigvalsh_tridiagonal", "clear_of", "verify", "disk", "local+"),
    ("sturm_window", "eigvalsh_tridiagonal", "_low_values", "verify", "disk",
     "local+"),
    ("eigenvectors", "eigh_tridiagonal", "eigenvectors", "verify", "disk",
     "local+"),
    ("dsterf", "eigvalsh_tridiagonal", "eigensystem", "spectrum", "disk",
     "local+"),
    ("dlasq1", "bidiagonal_singular_values", "_bipartite_values", "spectrum",
     "hemisphere", "aps-"),
])
def test_every_lapack_failure_of_a_mode_solve_exits_3_with_one_line(
        case, name, caller, command, geometry, bc, tmp_path, capsys,
        monkeypatch):
    """A LinAlgError from any LAPACK call of a mode solve -- the probe, the
    Sturm window, the eigenvectors, and the full dsterf and dlasq1 paths --
    ends the run with exit 3 and one stderr line (solve_mode, or for the
    fundamental's eigenvectors Spectrum.fundamental, turns it into a
    NumericalError)."""
    real, hits = getattr(dirac_core, name), []

    def failing(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == caller:
            hits.append(case)
            raise np.linalg.LinAlgError(f"{case} injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(dirac_core, name, failing)
    code = run([command, "--geometry", geometry, "--bc", bc, "--N", "32",
                "--kmax", "2.5", "--out", str(tmp_path)])
    err = capsys.readouterr().err.splitlines()
    assert hits and code == 3
    assert len(err) == 1 and err[0].startswith("numerical failure: "), err
    assert err[0].endswith(f"{case} injected")


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
    "", "annulus:1e-300,1", "cap:1e-300", "annulus:1,1e300", "cylinder:1e200",
    "profile:pipe", "profile:sparse")
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
# every bad flag is refused with exit 2, whatever the scenario
_BAD_FLAGS = (["--kmax", "nan"], ["--N", "32,x"], ["--bc", ""],
              ["--budget", "0"], ["--tol-identity", "-0.01"],
              ["--tol-report", "-5e-3"], ["--kmax", "1e12"])
_FLAGS = _mostly(st.sampled_from([[], ["--kmax", "1.5"], ["--N", "16,24,32"],
                                  ["--bc", "aps-,local+"]]), *_BAD_FLAGS)
# the config as a regular file, or a named pipe with no writer, or a sparse
# file one byte over its cap
_CONFIG_FILE = _mostly(st.just("file"), "pipe", "sparse")
# --out as a directory to make, or one refused before the solve: a component
# over NAME_MAX, a path over PATH_MAX, an existing file, a path under a file
_OUT = _mostly(st.just("o"), "long_name", "long_path", "file", "under_file")


def _special_file(path: str, kind: str, cap: int) -> None:
    """A named pipe (`kind` "pipe") or a sparse file of cap + 1 bytes."""
    if kind == "pipe":
        os.mkfifo(path)
    else:
        with open(path, "wb"):
            pass
        os.truncate(path, cap + 1)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["spectrum", "convergence", "verify", "bounds"]),
       geometry=_GEOMETRY, profile=_PROFILE_TEXT, scenario=_SCENARIO,
       flags=_FLAGS, config_file=_CONFIG_FILE, out=_OUT)
@example(command="spectrum", geometry="profile:pipe", profile="",
         scenario={"bc": ["local+"], "N": [16], "kmax": 0.5}, flags=[],
         config_file="file", out="o")
@example(command="verify", geometry="profile:sparse", profile="",
         scenario={"bc": ["aps-"], "N": [16], "kmax": 0.5}, flags=[],
         config_file="file", out="o")
@example(command="convergence", geometry="disk", profile="",
         scenario={"bc": ["local+"], "N": [16, 24, 32], "kmax": 0.5},
         flags=["--tol-report", "-5e-3"], config_file="file", out="o")
@example(command="bounds", geometry="disk", profile="",
         scenario={"bc": ["aps-"], "N": [16], "kmax": 0.5},
         flags=["--kmax", "-1e-3"], config_file="file", out="o")
def test_cli_run_fuzz(command, geometry, profile, scenario, flags,
                      config_file, out):
    """Whatever the scenario, run() returns 0-3 (2 for a bad flag or a bad
    --out), stderr holds no traceback, and a refused or failed run prints
    one line.  A named pipe or an oversize file as the config or the
    profile never blocks the run."""
    special = (config_file != "file" or out != "o"
               or geometry in ("profile:pipe", "profile:sparse"))
    with tempfile.TemporaryDirectory() as tmp:
        if geometry.startswith("profile:"):
            path = os.path.join(tmp, "p.csv")
            if geometry == "profile:":
                with open(path, "w") as fh:
                    fh.write(profile)
            else:
                _special_file(path, geometry[len("profile:"):],
                              MAX_PROFILE_BYTES)
            geometry = "profile:" + path
        cfg = os.path.join(tmp, "scenario.json")
        if config_file == "file":
            with open(cfg, "w") as fh:
                json.dump(dict(scenario, geometry=geometry), fh)
        else:
            _special_file(cfg, config_file, MAX_CONFIG_BYTES)
        with open(os.path.join(tmp, "file"), "w") as fh:
            fh.write("keep")
        parts = {**_LONG_OUTS, "under_file": ("file", "o")}.get(out, (out,))
        argv = [command, "--config", cfg, "--out", os.path.join(tmp, *parts)]
        argv += flags
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()), _deadline(60.0):
            rc = run(argv)
    assert rc in (0, 1, 2, 3)
    if flags in _BAD_FLAGS or special:
        assert rc == 2
    assert "Traceback" not in err.getvalue()
    assert "RuntimeWarning" not in err.getvalue()
    if rc in (2, 3):
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()


_CAP = st.builds("cap:{}".format, st.floats(0.05, 3.1))
_FACTOR = st.one_of(
    st.builds("bump:{!r}".format, st.floats(-20.0, 20.0)),
    st.builds("poly:{!r},{!r}".format, st.floats(-20.0, 20.0),
              st.floats(-40.0, 40.0)),
    st.builds("poly:{!r},{!r},{!r}".format, st.floats(-20.0, 20.0),
              st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)))


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(geometry=st.one_of(st.just("disk"), _CAP), factor=_FACTOR,
       N=st.sampled_from([16, 64]))
@example(geometry="disk", factor="poly:0,17.9", N=256)
def test_conformal_laws_hold_or_the_factor_is_refused(geometry, factor, N):
    """Across poly: and bump: factors, admitted or not, `verify` either
    refuses the factor (exit 2) or reports every conformal_law_* row within
    its tolerance.  A factor that steepens towards the pole of a rescaled
    cap used to send real grid points down the pole-limit branch of the
    curvature (poly:0,17.9 on the disk read 1.9e+04)."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stderr(io.StringIO()), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = run(["verify", "--geometry", geometry, "--N", str(N),
                      "--kmax", "0.5", "--conformal-u", factor,
                      "--out", tmp])
        if rc == 2:
            return
        rows = [json.loads(line) for line in
                read(os.path.join(tmp, "verify_localplus.jsonl")).splitlines()]
    laws = [r for r in rows if r["name"].startswith("conformal_law_")]
    assert len(laws) == 3
    for r in laws:
        assert r["residual"] <= r["tolerance"], (r["name"], r["residual"])
