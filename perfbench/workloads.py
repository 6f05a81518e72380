"""Seeded inputs, job lists and reference values of the three workloads.

A workload is a fixed list of CLI jobs.  Each job is one `spinspec` command
run on one generated scenario file.  The seed draws the free geometry
parameters only: the cap angle and a smooth profile CSV.  The anchor jobs,
whose answers have closed forms, do not depend on the seed.

This module uses only the standard library, so the benchmark parent process
never imports numpy and the generated files are the same wherever the same
Python runs them.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

# |lambda_min| on the hemisphere under local+: the Killing spinor eigenvalue.
HEMISPHERE_LAMBDA = 1.0
# |lambda_min| on the unit disk under local+ (k = 1/2), the Bessel-root
# constant of the repository's own oracle suite.
DISK_LOCALPLUS_ROOT = 1.4346956508195643

# Anchor tolerances of the acceptance gate, applied at N >= ANCHOR_MIN_N.
ANCHOR_TOL = {"hemisphere": 1e-3, "disk": 1e-4}
ANCHOR_MIN_N = 512

# The conformal factor of the verify job is not seeded: `verify` pairs it
# with the CLI's fixed modifier u = bump:0.3 in eq3/eq4, whose residual then
# stays at O(|c - 0.3|) for every N (0.026 at c = 0.2), so any other
# amplitude fails the identity check.  Draw it from the seed once that is
# fixed.
CONFORMAL_U = "bump:0.3"

PROFILE_FILE = "profile.csv"
_PROFILE_POINTS = 129
_PROFILE_R = (0.5, 1.5)

WORKLOADS = ("spectrum_full", "low_modes", "bounds_verify")


@dataclass(frozen=True)
class Draw:
    """The seeded parameters, drawn in a fixed order from one generator."""

    seed: int
    cap_angle: float          # in [pi/3, pi/2)
    profile: tuple            # (a1, a2, phase) of the profile CSV

    @staticmethod
    def from_seed(seed: int) -> "Draw":
        rng = random.Random(seed)
        cap = math.pi / 3 + rng.random() * (math.pi / 2 - math.pi / 3)
        prof = (0.2 * rng.random(), 0.1 * rng.random(),
                2 * math.pi * rng.random())
        return Draw(seed, cap, prof)

    def profile_csv(self) -> str:
        """Smooth, positive profile r,f with ascending radii (no cap)."""
        r0, r1 = _PROFILE_R
        a1, a2, phase = self.profile
        lines = ["r,f"]
        for i in range(_PROFILE_POINTS):
            r = r0 + (r1 - r0) * i / (_PROFILE_POINTS - 1)
            t = (r - r0) / (r1 - r0)
            f = r * (1 + a1 * math.sin(math.pi * t)
                     + a2 * math.sin(2 * math.pi * t + phase))
            lines.append(f"{r!r},{f!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Job:
    """One CLI invocation: `spinspec <command> --config <name>.json`."""

    name: str
    command: str
    config: dict
    anchor: str | None = None     # "hemisphere" or "disk" for anchor jobs


def jobs_for(workload: str, draw: Draw, input_dir: str) -> list[Job]:
    """The job list of a workload; `input_dir` holds the generated CSV."""
    cap = f"cap:{draw.cap_angle!r}"
    ladder = [128, 256, 512, 1024]
    if workload == "spectrum_full":
        return [
            Job("hemisphere_aps_gap", "spectrum",
                {"geometry": "hemisphere", "bc": ["aps-"], "kmax": 12.5,
                 "N": [256, 512, 1024]}),
            Job("hemisphere_limiting", "spectrum",
                {"geometry": "hemisphere", "bc": ["local+", "local-"],
                 "kmax": 12.5, "N": [256, 512]}, anchor="hemisphere"),
            Job("cap", "spectrum",
                {"geometry": cap, "bc": ["local+"], "kmax": 12.5,
                 "N": [256, 512]}),
        ]
    if workload == "low_modes":
        profile = os.path.join(input_dir, PROFILE_FILE)
        return [
            Job("disk", "convergence",
                {"geometry": "disk", "bc": ["local+"], "N": ladder},
                anchor="disk"),
            Job("hemisphere_aps", "convergence",
                {"geometry": "hemisphere", "bc": ["aps-"], "N": ladder}),
            Job("profile", "convergence",
                {"geometry": f"profile:{profile}", "bc": ["local+"],
                 "N": ladder}),
        ]
    if workload == "bounds_verify":
        return [
            Job("annulus_bounds", "bounds",
                {"geometry": "annulus:0.5,1.0", "bc": ["local+", "aps-"],
                 "kmax": 12.5, "N": [256], "optimize_bounds": True,
                 "budget": 1200}),
            Job("cap_bounds", "bounds",
                {"geometry": cap, "bc": ["local+"], "kmax": 12.5,
                 "N": [256], "optimize_bounds": True, "budget": 1200}),
            Job("disk_conformal", "verify",
                {"geometry": "disk", "bc": ["local+"], "kmax": 2.5,
                 "N": [128, 256], "conformal_u": CONFORMAL_U},
                anchor="disk"),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def write_inputs(workload: str, seed: int, input_dir: str) -> list[Job]:
    """Write the scenario JSON files (and the profile CSV) of one workload.

    The program reads only these files.  Returns the job list.
    """
    draw = Draw.from_seed(seed)
    os.makedirs(input_dir, exist_ok=True)
    jobs = jobs_for(workload, draw, input_dir)
    if any(j.config["geometry"].startswith("profile:") for j in jobs):
        with open(os.path.join(input_dir, PROFILE_FILE), "w") as fh:
            fh.write(draw.profile_csv())
    for job in jobs:
        with open(config_path(input_dir, job), "w") as fh:
            json.dump(job.config, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return jobs


def config_path(input_dir: str, job: Job) -> str:
    return os.path.join(input_dir, f"{job.name}.json")
