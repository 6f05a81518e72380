"""Golden scenario outputs: every checked-in scenario, rerun at reduced size,
must reproduce the reference files under tests/golden/.  `verify` and
`bounds` run on every scenario, `spectrum` and `convergence` on
hemisphere_aps_gap, `spectrum` on hemisphere_limiting and `convergence` on
disk_oracle.

Compared exactly: the file set, keys and their order, entry order, strings,
`passed`/`feasible` flags, integers and exit codes.  Compared to 1e-12
relative: every other number (eigenvalues, lambda_min_sq, bound values,
margins; for the half-integer k this is exact).  Rows of `verify` are identity values and residuals, which sit at
roundoff level, so they also get an absolute floor of 1e-12.

The reference files are data.  Regenerate them with

    PYTHONPATH=src python tests/test_golden.py --regenerate

and say in CHANGES.md why, quoting the largest change.  To quote how far a
tree's outputs move without regenerating,

    PYTHONPATH=src python tests/test_golden.py --drift

runs every case into a temporary directory and prints one line per case:
the largest relative and the largest absolute change of any number against
the reference files, each with its path.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from spinspec.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = sorted(p.stem for p in (ROOT / "scenarios").glob("*.json"))
CASES = [(s, c) for s in SCENARIOS for c in ("verify", "bounds")] + [
    ("hemisphere_limiting", "spectrum"), ("disk_oracle", "convergence"),
    ("hemisphere_aps_gap", "convergence"), ("hemisphere_aps_gap", "spectrum")]

REL = 1e-12
IDENTITY_FLOOR = 1e-12


def _argv(scenario: str, command: str, out: Path) -> list[str]:
    argv = [command, "--config", str(ROOT / "scenarios" / f"{scenario}.json"),
            "--kmax", "2.5", "--out", str(out)]
    if command == "spectrum":
        return argv + ["--N", "64,128"]
    if command == "convergence":
        return argv + ["--N", "64,128,256"]
    if command == "bounds":
        argv += ["--optimize-bounds", "--budget", "600"]
    return argv + ["--N", "64"]


def _files(d: Path) -> list[str]:
    return sorted(str(p.relative_to(d)) for p in d.rglob("*") if p.is_file())


def _numbers(ref, new, where: str):
    """(path, ref, new) of every float of ref and its counterpart in new,
    neither NaN; everything else (keys, order, lengths, strings, flags,
    integers) must be equal."""
    if isinstance(ref, dict):
        assert isinstance(new, dict) and list(new) == list(ref), where
        for key in ref:
            yield from _numbers(ref[key], new[key], f"{where}.{key}")
    elif isinstance(ref, list):
        assert isinstance(new, list) and len(new) == len(ref), where
        for i, (a, b) in enumerate(zip(ref, new)):
            yield from _numbers(a, b, f"{where}[{i}]")
    elif isinstance(ref, int) and not isinstance(ref, bool):
        assert type(new) is int and new == ref, f"{where}: {new!r} != {ref!r}"
    elif isinstance(ref, float):
        assert type(new) in (int, float), f"{where}: {new!r} is no number"
        if not (math.isnan(ref) and math.isnan(new)):
            yield where, ref, new
    else:
        assert new == ref and type(new) is type(ref), \
            f"{where}: {new!r} != {ref!r}"


def _compare(ref, new, floor: float, where: str) -> None:
    for at, a, b in _numbers(ref, new, where):
        assert abs(a - b) <= REL * max(abs(a), abs(b)) + floor, \
            f"{at}: {b!r} vs {a!r}"


def _drift(ref_dir: Path, new_dir: Path) -> tuple:
    """(largest relative change, its path, largest absolute change, its
    path) of the numbers of every reference file in ref_dir against its
    namesake in new_dir; 0.0 and None when nothing moved."""
    rel, rel_at, diff, diff_at = 0.0, None, 0.0, None
    for name in _files(ref_dir):
        for at, a, b in _numbers(_read(ref_dir / name), _read(new_dir / name),
                                 name):
            if abs(a - b) > diff:
                diff, diff_at = abs(a - b), at
            if abs(a - b) > rel * max(abs(a), abs(b)):
                rel, rel_at = abs(a - b) / max(abs(a), abs(b)), at
    return rel, rel_at, diff, diff_at


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _read(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in path.read_text().splitlines()]
    rows = list(csv.reader(path.read_text().splitlines()))
    return [dict(zip(rows[0], map(_cell, row))) for row in rows[1:]]


@pytest.mark.parametrize("scenario,command", CASES,
                         ids=[f"{s}-{c}" for s, c in CASES])
def test_golden_scenario_outputs(scenario, command, tmp_path):
    ref_dir = GOLDEN / scenario / command
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert run(_argv(scenario, command, tmp_path)) == \
        exit_codes[f"{scenario}/{command}"]
    assert _files(tmp_path) == _files(ref_dir)
    floor = IDENTITY_FLOOR if command == "verify" else 0.0
    for name in _files(ref_dir):
        _compare(_read(ref_dir / name), _read(tmp_path / name), floor, name)


def test_golden_set_covers_every_scenario():
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert sorted(exit_codes) == sorted(f"{s}/{c}" for s, c in CASES)


def test_drift_finds_the_largest_changes_and_their_paths(tmp_path):
    """--drift's measure: the largest relative and absolute change over
    every file, with the paths _compare's walk gives them; an unchanged
    tree reads 0, and a changed key is still refused."""
    ref, new = tmp_path / "ref", tmp_path / "new"
    for root, y in ((ref, [2.0, 100.0]), (new, [2.5, 101.0])):
        (root / "sub").mkdir(parents=True)
        (root / "a.json").write_text(json.dumps({"x": 1.0, "y": y, "n": 3}))
        (root / "sub" / "b.csv").write_text("lam,k\n1.0,0.5\n")
    assert _drift(ref, new) == (0.2, "a.json.y[0]", 1.0, "a.json.y[1]")
    assert _drift(ref, ref) == (0.0, None, 0.0, None)
    (new / "a.json").write_text(json.dumps({"x": 1.0, "y": [2.0, 100.0],
                                            "n": 4}))
    with pytest.raises(AssertionError, match="a.json.n"):
        _drift(ref, new)


def _regenerate() -> None:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    codes = {}
    for scenario, command in CASES:
        codes[f"{scenario}/{command}"] = run(
            _argv(scenario, command, GOLDEN / scenario / command))
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n")


def _print_drift() -> None:
    for scenario, command in CASES:
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            run(_argv(scenario, command, Path(tmp)))
            rel, rel_at, diff, diff_at = _drift(GOLDEN / scenario / command,
                                                Path(tmp))
        print(f"{scenario}/{command} rel={rel:.3g} at {rel_at} "
              f"abs={diff:.3g} at {diff_at}", flush=True)


if __name__ == "__main__":
    if sys.argv[1:] == ["--regenerate"]:
        _regenerate()
    elif sys.argv[1:] == ["--drift"]:
        _print_drift()
    else:
        sys.exit(__doc__)
