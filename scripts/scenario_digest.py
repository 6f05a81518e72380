#!/usr/bin/env python3
"""Digest every scenario command's outputs, to compare two trees byte for byte.

    python scripts/scenario_digest.py [--bc LIST] [--optimizer | --lapack] [SCENARIO.json ...]
    python scripts/scenario_digest.py [--bc LIST] [--optimizer | --lapack] --perfbench SEED

With no argument it takes every scenarios/*.json.  With --perfbench it
takes the job configs of the three benchmark workloads at that seed,
written with their inputs by `perfbench/workloads.write_inputs` into a
temporary directory that is removed afterwards (9 configs, 36 lines).  With
--bc (a comma list, as the CLI flag takes it) each scenario is digested as
a copy of its config, under the same file name in that directory, with
`bc` replaced by the list.  Each scenario runs the four commands spectrum, verify, bounds and convergence
through `spinspec.cli.run`, each into a fresh temporary directory, and
prints one line per command: the scenario, the command, the exit code, the
SHA-256 of each output file by its path relative to the output directory,
and the SHA-256 of stdout and stderr with the temporary path taken out.
Two trees that print the same lines wrote the same files, exit codes and
messages.

With --optimizer it digests, in place of the commands, every evaluation of
the bound optimizer that `bounds` runs: for each scenario with
`optimize_bounds`, one line per variant (interior, conformal) with the
evaluation count and the SHA-256 over every trace point's params, value,
margin and feasible flag, in order.  It calls `make_surface` and
`bounds.optimize_modifiers` as `bounds` does, so it runs on any tree's
`src` through PYTHONPATH.

With --lapack it counts, in place of the digests, the LAPACK work of each
command: one line per scenario and command with the exit code and the
number of calls of each LAPACK routine made through `spinspec._lapack._call`
(wrapped in process while the command runs), by routine name.  The
workspace queries that `_lapack` caches are cleared before each command, so
each line counts its own.  Two trees that print the same lines called the
same routines as often.
"""

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import struct
import sys
import tempfile

import numpy as np

from spinspec import _lapack, bounds, make_surface
from spinspec.cli import Scenario, run

COMMANDS = ("spectrum", "verify", "bounds", "convergence")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(scenario: str, command: str) -> str:
    """The digest line of one command on one scenario."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = run([command, "--config", scenario, "--out", out])
        files = []
        for path in sorted(glob.glob(os.path.join(out, "**"), recursive=True)):
            if os.path.isfile(path):
                with open(path, "rb") as fh:
                    files.append(f"{os.path.relpath(path, out)}={sha(fh.read())}")
        streams = [f"{name}={sha(text.getvalue().replace(tmp, '<tmp>').encode())}"
                   for name, text in (("stdout", stdout), ("stderr", stderr))]
    name = os.path.splitext(os.path.basename(scenario))[0]
    return " ".join([name, command, f"exit={code}"] + files + streams)


def lapack_counts(scenario: str, command: str) -> str:
    """The LAPACK line of one command on one scenario: its exit code and
    the calls of each routine, by name."""
    call, counts = _lapack._call, {}

    def counted(name, *args):
        counts[name] = counts.get(name, 0) + 1
        return call(name, *args)

    _lapack._lwork.cache_clear()
    _lapack._call = counted
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run([command, "--config", scenario,
                        "--out", os.path.join(tmp, "out")])
    finally:
        _lapack._call = call
    name = os.path.splitext(os.path.basename(scenario))[0]
    return " ".join([name, command, f"exit={code}"]
                    + [f"{r}={n}" for r, n in sorted(counts.items())])


def optimizer_digest(scenario: str) -> list[str]:
    """The digest lines of the optimizer runs `bounds` makes on one
    scenario: none without optimize_bounds."""
    sc = Scenario.from_json(scenario)
    if not sc.optimize_bounds:
        return []
    surface = make_surface(sc.geometry, sc.spin_structure)
    name = os.path.splitext(os.path.basename(scenario))[0]
    lines = []
    for variant in ("interior", "conformal"):
        res = bounds.optimize_modifiers(surface, variant, budget=sc.budget)
        h = hashlib.sha256()
        for point in res.trace:
            h.update(np.asarray(point.params, dtype="<f8").tobytes())
            h.update(struct.pack("<dd?", point.value, point.margin,
                                 point.feasible))
        lines.append(f"{name} optimizer:{variant} n_eval={res.n_eval} "
                     f"trace={h.hexdigest()}")
    return lines


def perfbench_configs(seed: int, input_dir: str) -> list[str]:
    """Write the seeded inputs of every benchmark workload into input_dir;
    returns the paths of their job configs, in workload and job order."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads
    return [workloads.config_path(input_dir, job)
            for workload in workloads.WORKLOADS
            for job in workloads.write_inputs(workload, seed, input_dir)]


def with_bc(scenario: str, bc: list[str], into: str) -> str:
    """Write a copy of the scenario config with `bc` replaced into the new
    directory `into`, under the same file name; returns its path."""
    with open(scenario) as fh:
        config = json.load(fh)
    config["bc"] = bc
    os.makedirs(into)
    path = os.path.join(into, os.path.basename(scenario))
    with open(path, "w") as fh:
        json.dump(config, fh)
    return path


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("scenarios", nargs="*", metavar="SCENARIO.json")
    p.add_argument("--perfbench", type=int, metavar="SEED",
                   help="digest the benchmark's job configs at this seed")
    p.add_argument("--bc", metavar="LIST",
                   help="replace the boundary conditions of every scenario")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--optimizer", action="store_true",
                      help="digest the optimizer traces of `bounds` instead")
    mode.add_argument("--lapack", action="store_true",
                      help="count each command's LAPACK calls instead")
    args = p.parse_args(argv)
    if args.perfbench is not None and args.scenarios:
        p.error("--perfbench takes no scenario files")
    with tempfile.TemporaryDirectory() as inputs:
        if args.perfbench is not None:
            scenarios = perfbench_configs(args.perfbench, inputs)
        else:
            scenarios = args.scenarios or sorted(
                glob.glob(os.path.join(ROOT, "scenarios", "*.json")))
        if args.bc is not None:
            bc = [b.strip() for b in args.bc.split(",") if b.strip()]
            scenarios = [with_bc(s, bc, os.path.join(inputs, f"bc{i}"))
                         for i, s in enumerate(scenarios)]
        for scenario in scenarios:
            per_command = lapack_counts if args.lapack else digest
            lines = (optimizer_digest(scenario) if args.optimizer else
                     (per_command(scenario, command) for command in COMMANDS))
            for line in lines:
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
