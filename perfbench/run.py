"""spinspec benchmark: one seeded workload through the real CLI entry point.

    python3 perfbench/run.py --workload spectrum_full --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (it needs `src/spinspec`).  The
benchmark writes the seeded inputs into a temporary directory under
`.perfbench_run/`, times SETUPS fresh worker processes to ready, and runs the
workload's jobs in the last of them: a closed loop with one client, one job
at a time.  It then checks every output and prints the metrics, by name and
unit; the last line of standard output is one JSON object.

--trace 0 reports the end-to-end metrics (setup_s, wall_s, peak_rss_mb,
lam_abs_err); --trace 1 reports the per-layer metrics of one traced pass and
the tracing overhead.  The exit code is 1 when a job or check failed and 2
when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

SETUPS = 5           # fresh processes timed to ready; setup_s is their median
DEADLINE_S = 170.0   # the whole run ends well within 180 s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench_run")


class WorkerError(RuntimeError):
    pass


def child_env() -> dict:
    """Program default SPINSPEC_THREADS; BLAS pinned to one thread."""
    env = dict(os.environ)
    env.pop("SPINSPEC_THREADS", None)
    env.update(PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def run_worker(args: list[str], work: str, deadline: float) -> float:
    """Start a worker, return its set-up time; wait until it has ended."""
    with open(os.path.join(work, "worker.log"), "a") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")] + args,
            stdout=subprocess.PIPE, stderr=log, env=child_env(), cwd=work,
            text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [],
                                       max(0.0, deadline - time.monotonic()))
            line = proc.stdout.readline() if ready else ""
            setup = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if line.strip() != "READY" or proc.returncode != 0:
        with open(os.path.join(work, "worker.log")) as fh:
            tail = fh.read()[-3000:]
        raise WorkerError(f"worker failed (exit {proc.returncode}):\n{tail}")
    return setup


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def digest(out_dir: str) -> str:
    """sha256 over every output file name and its bytes."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(out_dir, "*"))):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def anchor_values(job: workloads.Job, out_dir: str) -> list[tuple[int, float]]:
    """(N, |lambda_min|) of an anchor job's local+ solves, ascending N."""
    if job.command == "spectrum":
        vals = []
        for path in glob.glob(os.path.join(out_dir, "spectrum_localplus_N*.csv")):
            n = int(path.rsplit("_N", 1)[1][:-4])
            with open(path) as fh:
                vals.append((n, min(abs(float(r["lambda"]))
                                    for r in csv.DictReader(fh))))
        return sorted(vals)
    if job.command == "convergence":
        with open(os.path.join(out_dir, "convergence_localplus.csv")) as fh:
            return [(int(r["N"]), float(r["lambda_min"]))
                    for r in csv.DictReader(fh)]
    if job.command == "verify":
        with open(os.path.join(out_dir, "verify_localplus.jsonl")) as fh:
            rows = [json.loads(line) for line in fh]
        sl = next(r for r in rows if r["name"] == "schrodinger_lichnerowicz")
        return [(sl["n_grid"], abs(sl["lambda"]))]
    raise ValueError(f"job {job.name} has no anchor reader")


def reference(anchor: str) -> float:
    return {"hemisphere": workloads.HEMISPHERE_LAMBDA,
            "disk": workloads.DISK_LOCALPLUS_ROOT}[anchor]


def bounds_rows(out_dir: str) -> list[dict]:
    rows = []
    for path in sorted(glob.glob(os.path.join(out_dir, "bounds_*.json"))):
        with open(path) as fh:
            rows.append(json.load(fh))
    return rows


def check_execution(job: workloads.Job, rec: dict) -> list[str]:
    """Problems with one job execution; empty when it is correct.

    Stores what it read as rec["anchor"] and rec["bounds"].
    """
    if rec["rc"] != 0:
        return [f"exit code {rec['rc']}: {rec['log'].strip()[-400:]}"]
    problems = []
    try:
        rec["anchor"] = anchor_values(job, rec["out"]) if job.anchor else []
        rec["bounds"] = bounds_rows(rec["out"])
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        return [f"unreadable output: {exc!r}"]
    for n, lam in rec["anchor"]:
        ref, tol = reference(job.anchor), workloads.ANCHOR_TOL[job.anchor]
        if n >= workloads.ANCHOR_MIN_N and abs(lam - ref) > tol:
            problems.append(f"|lambda_min| = {lam!r} at N={n}, "
                            f"reference {ref!r} +- {tol}")
    if job.command == "bounds" and not rec["bounds"]:
        problems.append("no bounds_*.json written")
    problems += [f"bounds {r['bc']} not passed" for r in rec["bounds"]
                 if not r["passed"]]
    return problems


def source_key(versions: str) -> str:
    """Identifies the program version: its sources and numpy/scipy."""
    h = hashlib.sha256(versions.encode())
    pkg = os.path.join(SRC, "spinspec")
    for path in sorted(glob.glob(os.path.join(pkg, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, pkg).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


class DigestStore:
    """Output digests of earlier runs, so same-seed reruns are compared."""

    def __init__(self, path: str):
        self.path = path
        try:
            with open(path) as fh:
                self.known = json.load(fh)
        except (OSError, ValueError):
            self.known = {}

    def check(self, key: str, value: str) -> bool:
        return self.known.setdefault(key, value) == value

    def save(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.known, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(STATE, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=STATE)
    try:
        input_dir = os.path.join(work, "inputs")
        jobs = workloads.write_inputs(workload, seed, input_dir)
        base = ["--workload", workload, "--seed", str(seed),
                "--input-dir", input_dir]
        setups = [run_worker(base + ["--setup-only"], work, deadline)
                  for _ in range(SETUPS - 1)]
        result_path = os.path.join(work, "result.json")
        spans = os.path.join(STATE, f"spans-{workload}-seed{seed}.jsonl")
        setups.append(run_worker(
            base + ["--out-dir", os.path.join(work, "out"),
                    "--result", result_path, "--seconds", str(seconds),
                    "--trace", str(int(trace)), "--spans", spans],
            work, deadline))
        with open(result_path) as fh:
            result = json.load(fh)
        return evaluate(workload, seed, jobs, result, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def evaluate(workload, seed, jobs, result, setups) -> dict:
    by_name = {j.name: j for j in jobs}
    store = DigestStore(os.path.join(STATE, "digests.json"))
    key = source_key(f"numpy {result['numpy']} scipy {result['scipy']}")
    failures, first = [], {}
    for rec in result["executions"]:
        job = by_name[rec["job"]]
        problems = check_execution(job, rec)
        if rec["rc"] == 0:
            d = digest(rec["out"])
            if first.setdefault(job.name, (rec, d))[1] != d:
                problems.append("outputs differ from this run's first execution")
            if not store.check(f"{key}|{workload}|seed{seed}|{job.name}", d):
                problems.append("outputs differ from an earlier run "
                                "with the same seed and program")
        failures += [(job.name, p) for p in problems]
        rec["failed"] = bool(problems)
    store.save()

    lam_err, slacks = None, []
    for job in jobs:
        if job.name not in first:
            continue
        rec = first[job.name][0]
        if "bounds" not in rec:  # its outputs could not be read
            continue
        if rec["anchor"]:
            lam_err = abs(rec["anchor"][-1][1] - reference(job.anchor))
        slacks += [r["lambda_min_sq"] - e["value"]
                   for r in rec["bounds"] for e in r["entries"]
                   if e["name"] == "est1" and e["value"] is not None]

    untraced = {}
    traced = 0.0
    for rec in result["executions"]:
        if rec["traced"]:
            traced += rec["seconds"]
        else:
            untraced.setdefault(rec["job"], []).append(rec["seconds"])
    wall = sum(statistics.median(v) for v in untraced.values())
    return {
        "setup_s": statistics.median(setups), "setups": setups,
        "wall_s": wall, "traced_wall_s": traced,
        "peak_rss_mb": result["peak_rss_mb"],
        "lam_abs_err": lam_err,
        "bound_slack": statistics.fmean(slacks) if slacks else None,
        "attempted": len(result["executions"]),
        "failed": sum(rec["failed"] for rec in result["executions"]),
        "failures": failures, "layers": result.get("layers"),
        "versions": (result["numpy"], result["scipy"]),
        "executions": [(r["job"], r["seconds"], r["traced"])
                       for r in result["executions"]],
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def report(args, spec: dict, m: dict) -> dict:
    """Print the human-readable lines; return the result object.

    The metric names and units come from BENCHMARK.json (`spec`).
    """
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"  machine: nproc={os.cpu_count()} cpu={cpu_model()!r} "
          f"python={platform.python_version()} numpy={m['versions'][0]} "
          f"scipy={m['versions'][1]} SPINSPEC_THREADS=default "
          f"OPENBLAS_NUM_THREADS=1")
    for job, sec, traced in m["executions"]:
        print(f"  job {job:22s} {sec:9.3f} s{'  (traced)' if traced else ''}")
    rate = m["failed"] / m["attempted"]
    lines = [("setup_s", m["setup_s"], "s",
              f"median of {len(m['setups'])} fresh processes"),
             ("wall_s", m["wall_s"], "s", "sum over jobs of median job time"),
             ("peak_rss_mb", m["peak_rss_mb"], "MB", "workload process"),
             ("error_rate", rate, "1", f"{m['failed']}/{m['attempted']} jobs"),
             ("lam_abs_err", m["lam_abs_err"], "1", "anchor job, largest N")]
    if m["bound_slack"] is not None:
        lines.append(("bound_slack", m["bound_slack"], "1",
                      "mean lambda_min_sq - est1, optimized rows"))
    if args.trace:
        overhead = m["traced_wall_s"] / m["wall_s"]
        lines.append(("traced_wall_s", m["traced_wall_s"], "s",
                      f"tracing overhead x{overhead:.4f}"))
    for name, value, unit, note in lines:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:14s} {shown:>12s} {unit:5s} {note}")
    for job, problem in m["failures"]:
        print(f"  FAIL {job}: {problem}")

    if args.trace:
        values = dict(m["layers"])
        values["bounds.bound_slack"] = m["bound_slack"] or 0.0
        values["trace.overhead"] = overhead
    else:
        values = m
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
               for d in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        for k, v in metrics.items():
            print(f"  {k:34s} {v['value']:>14.6g} {v['unit']}")
    return {"correct": m["failed"] == 0, "attempted": m["attempted"],
            "failed": m["failed"], "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spinspec", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/spinspec is missing",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = report(args, spec, m)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
