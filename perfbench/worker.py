"""One workload process: set up, say READY, run the jobs, report.

Started by run.py in a fresh interpreter, once per set-up sample.  The
set-up is what a user pays before the first job: importing spinspec (and
numpy/scipy with it), loading the generated scenarios and building every
surface.  After it the worker prints READY, so the parent can time it.

Jobs run one at a time through `spinspec.cli.run(argv)`, each into its own
output directory.  The first pass runs every job once; further jobs are run
in order while the next one is expected to end within --seconds.  With
--trace 1 the worker instead runs one untraced pass, then one pass with
spans around the public functions of each module, and reports the layer
metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

from tracing import (Tracer, children_of, per_size_slope, self_time,
                     total_time)
from workloads import Draw, config_path, jobs_for

IDENTITY_FUNCTIONS = ("sl_residual", "rtc2_residual", "eq_residual",
                      "energy_momentum", "killing_residual")

def instrument(tr: Tracer) -> None:
    """Wrap each layer's public callables at the name its caller looks up."""
    from spinspec import bounds, cli, dirac_core, identities

    def wrap(owner, attr, name, on_return=None):
        tr.patch(owner, attr, tr.wrap(getattr(owner, attr), name, on_return))

    # cli imported these by name, so its own names are the ones looked up
    wrap(cli, "make_surface", "geometry.make_surface")
    wrap(cli, "conformal_rescale", "geometry.conformal_rescale")
    wrap(cli, "atomic_write", "cli.atomic_write",
         lambda a, args, _: a.update(bytes=len(args[1].encode())))

    # aggregate runs solve_mode on pool threads, where the current span is
    # not visible: bind the aggregate span into solve_mode's wrapper
    solve_mode = dirac_core.solve_mode

    def traced_aggregate(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tr.span("dirac_core.aggregate"):
                dirac_core.solve_mode = tr.wrap(
                    solve_mode, "dirac_core.solve_mode", parent=tr.current)
                try:
                    return fn(*args, **kwargs)
                finally:
                    dirac_core.solve_mode = solve_mode
        return traced

    tr.patch(cli, "aggregate", traced_aggregate(cli.aggregate))
    # convergence_study looks aggregate up in dirac_core
    tr.patch(dirac_core, "aggregate", traced_aggregate(dirac_core.aggregate))

    op_cls = dirac_core.ModeOperator
    wrap(op_cls, "__post_init__", "dirac_core.assemble",
         lambda a, args, _: a.update(N=args[0].n_grid,
                                     bytes=args[0].matrix.nbytes))
    wrap(op_cls, "eigensystem", "dirac_core.eigensystem",
         lambda a, args, res: a.update(N=args[0].n_grid, n_vals=len(res[0])))

    solve_banded = dirac_core.solve_banded

    def counted_solve_banded(*args, **kwargs):
        tr.count("dirac_core.solve_banded_calls")
        return solve_banded(*args, **kwargs)

    tr.patch(dirac_core, "solve_banded", counted_solve_banded)

    for name in IDENTITY_FUNCTIONS + ("conformal_push",):
        wrap(identities, name, f"identities.{name}")

    wrap(bounds, "optimize_modifiers", "bounds.optimize",
         lambda a, _, res: a.update(
             n_eval=res.n_eval, n_feasible=sum(t.feasible for t in res.trace)))
    wrap(bounds, "evaluate_bounds", "bounds.evaluate")
    tr.patch(bounds.ModifierPair, "from_params", staticmethod(
        tr.wrap(bounds.ModifierPair.from_params, "bounds.from_params")))


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer totals of one traced pass (0 where a layer did not run)."""
    spans = tr.spans

    def named(name):
        return [s for s in spans if s.name == name]

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in named(name))

    kids = children_of(spans)
    solve_s = total_time(spans, "dirac_core.solve_mode")
    aggregate_s = total_time(spans, "dirac_core.aggregate")
    optimize_s = total_time(spans, "bounds.optimize")
    evals = attr_sum("bounds.optimize", "n_eval")
    return {
        "geometry.make_surface_s": total_time(spans, "geometry.make_surface"),
        "geometry.conformal_rescale_s":
            total_time(spans, "geometry.conformal_rescale"),
        "dirac_core.assemble_s": total_time(spans, "dirac_core.assemble"),
        "dirac_core.assemble_calls": len(named("dirac_core.assemble")),
        "dirac_core.operator_bytes": attr_sum("dirac_core.assemble", "bytes"),
        "dirac_core.assemble_exponent":
            per_size_slope(spans, "dirac_core.assemble"),
        "dirac_core.eigensystem_s": total_time(spans, "dirac_core.eigensystem"),
        "dirac_core.eigvals_computed":
            attr_sum("dirac_core.eigensystem", "n_vals"),
        "dirac_core.eigensystem_exponent":
            per_size_slope(spans, "dirac_core.eigensystem"),
        "dirac_core.solve_banded_calls":
            tr.counts["dirac_core.solve_banded_calls"],
        "dirac_core.solve_mode_s": solve_s,
        "dirac_core.solve_mode_calls": len(named("dirac_core.solve_mode")),
        "dirac_core.aggregate_s": aggregate_s,
        "dirac_core.mode_parallelism":
            solve_s / aggregate_s if aggregate_s else 0.0,
        "identities.eval_s": total_time(
            spans, *(f"identities.{n}" for n in IDENTITY_FUNCTIONS)),
        "identities.conformal_push_s":
            total_time(spans, "identities.conformal_push"),
        "bounds.optimize_s": optimize_s,
        "bounds.objective_evals": evals,
        "bounds.evals_per_s": evals / optimize_s if optimize_s else 0.0,
        "bounds.from_params_s": total_time(spans, "bounds.from_params"),
        "bounds.feasible_ratio":
            attr_sum("bounds.optimize", "n_feasible") / evals if evals else 0.0,
        "bounds.evaluate_s": total_time(spans, "bounds.evaluate"),
        "cli.write_s": total_time(spans, "cli.atomic_write"),
        "cli.bytes_written": attr_sum("cli.atomic_write", "bytes"),
        "cli.self_s": sum(self_time(s, kids.get(s.id, []))
                          for s in named("cli.run")),
    }


class Runner:
    """Runs jobs one at a time and records every execution."""

    def __init__(self, cli, jobs, input_dir: str, out_root: str):
        self.cli, self.jobs = cli, jobs
        self.input_dir, self.out_root = input_dir, out_root
        self.executions: list[dict] = []

    def execute(self, job, tracer: Tracer | None = None) -> dict:
        out = os.path.join(self.out_root,
                           f"{len(self.executions):03d}_{job.name}")
        argv = [job.command, "--config", config_path(self.input_dir, job),
                "--out", out]
        log = io.StringIO()
        with redirect_stdout(log), redirect_stderr(log):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = self.cli.run(argv)
                else:
                    with tracer.span("cli.run", job=job.name):
                        rc = self.cli.run(argv)
            except Exception:  # a traceback is a failed job, not a crash
                traceback.print_exc()
                rc = None
            seconds = time.perf_counter() - t0
        rec = {"job": job.name, "out": out, "rc": rc, "seconds": seconds,
               "traced": tracer is not None, "log": log.getvalue()[-2000:]}
        self.executions.append(rec)
        return rec

    def run_for(self, seconds: float) -> None:
        """One full pass, then more jobs while the next should fit."""
        start = time.perf_counter()
        last = {job.name: self.execute(job)["seconds"] for job in self.jobs}
        i = 0
        while True:
            job = self.jobs[i % len(self.jobs)]
            if time.perf_counter() - start + last[job.name] > seconds:
                break
            last[job.name] = self.execute(job)["seconds"]
            i += 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--input-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out-dir")
    p.add_argument("--result")
    p.add_argument("--spans")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args(argv)

    # --- set-up: everything a user pays before the first job -------------
    import numpy
    import scipy
    from spinspec import cli, geometry
    jobs = jobs_for(args.workload, Draw.from_seed(args.seed), args.input_dir)
    for job in jobs:
        sc = cli.Scenario.from_json(config_path(args.input_dir, job))
        geometry.make_surface(sc.geometry, sc.spin_structure)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(cli, jobs, args.input_dir, args.out_dir)
    result = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    if args.trace:
        for job in jobs:
            runner.execute(job)
        tr = Tracer(f"{args.workload}-seed{args.seed}")
        instrument(tr)
        try:
            for job in jobs:
                runner.execute(job, tr)
        finally:
            tr.restore()
        tr.write(args.spans)
        result["layers"] = layer_metrics(tr)
    else:
        runner.run_for(args.seconds)
    result["executions"] = runner.executions
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
