"""Scenario runner: spectra, identity suites, bound reports, convergence.

One JSON config document describes a scenario; every command-line flag
overrides the matching config field (flags win).  Outputs are plain CSV /
JSON / JSONL with all floats at 17 significant digits, written atomically
(temp file + rename), with fixed orderings and eigenvector phase convention,
so re-running a scenario reproduces its outputs byte for byte.

Exit codes:  0 success; 1 a theorem or identity check failed beyond
tolerance; 2 invalid configuration; 3 numerical failure (eigensolver or
optimizer).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import bounds as bounds_mod
from . import identities as ident
from .dirac_core import (BC_VARIANTS, BoundaryConditionSpec, NumericalError,
                         aggregate, convergence_study)
from .geometry import (DIM, ConfigError, WarpedSurface, catalog,
                       conformal_law_residuals, conformal_rescale,
                       make_surface, parse_radial_spec, scalar_curvature)

Array = np.ndarray


def fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-spinspec-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _slug(bc: str) -> str:
    return bc.replace("+", "plus").replace("-", "minus")


def _check_type(name: str, value, kind) -> None:
    """Reject a config value of the wrong JSON type (bool is no number)."""
    if isinstance(kind, list):
        ok = isinstance(value, list)
        if ok:
            for item in value:
                _check_type(name, item, kind[0])
    elif kind is float:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value))
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"config field {name!r} has a bad value {value!r}")


# JSON type of each Scenario field: a list holds items of the one type given
_FIELD_TYPES = {"geometry": str, "spin_structure": str, "bc": [str],
                "kmax": float, "N": [int], "conformal_u": (str, type(None)),
                "optimize_bounds": bool, "budget": int, "tol_report": float,
                "tol_identity": float, "out": str}


@dataclass
class Scenario:
    """Reproducible description of one run; JSON round-trippable."""

    geometry: str = "hemisphere"
    spin_structure: str = "antiperiodic"
    bc: list = dc_field(default_factory=lambda: ["local+"])
    kmax: float = 12.5
    N: list = dc_field(default_factory=lambda: [256])
    conformal_u: str | None = None
    optimize_bounds: bool = False
    budget: int = 1200
    tol_report: float = 5e-3
    tol_identity: float = 1e-2
    out: str = "out"

    @staticmethod
    def from_json(path: str) -> "Scenario":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        known = {f.name for f in dataclasses.fields(Scenario)}
        bad = set(data) - known
        if bad:
            raise ConfigError(f"unknown config fields: {sorted(bad)}")
        return Scenario(**data)

    def validate(self) -> None:
        for name, kind in _FIELD_TYPES.items():
            _check_type(name, getattr(self, name), kind)
        if not self.bc:
            raise ConfigError("at least one boundary condition is required")
        for bc in self.bc:
            if bc not in BC_VARIANTS:
                raise ConfigError(f"unknown boundary condition {bc!r}")
        if not self.N or list(self.N) != sorted(self.N) or min(self.N) < 16:
            raise ConfigError("grid sizes must be ascending and at least 16")
        if self.kmax < 0.5:
            raise ConfigError("kmax must be at least 1/2")
        make_surface(self.geometry, self.spin_structure)  # resolvable?

    def surface(self) -> WarpedSurface:
        return make_surface(self.geometry, self.spin_structure)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_catalog(_: Scenario) -> int:
    for name, desc in catalog().items():
        print(f"{name:24s} {desc}")
    return 0


def _cmd_spectrum(sc: Scenario) -> int:
    surface = sc.surface()
    for bc_name in sc.bc:
        bc = BoundaryConditionSpec(bc_name)
        lam_prev = None
        for N in sc.N:
            sp = aggregate(surface, bc, sc.kmax, N, n_fields_per_mode=0)
            lines = ["mode,index,lambda"]
            for k in sorted({row[1] for row in sp.levels}):
                for idx, lam in enumerate(sp.eigenvalues(k)):
                    lines.append(f"{fmt(k)},{idx},{fmt(lam)}")
            path = os.path.join(sc.out, f"spectrum_{_slug(bc_name)}_N{N}.csv")
            atomic_write(path, "\n".join(lines) + "\n")
            print(f"wrote {path} (lambda_min = {fmt(sp.lambda_min)}, "
                  f"attained at k = {fmt(sp.k_min)})")
            if sp.kmax_attained:
                print(f"warning: lambda_min attained at |k| = kmax = {sc.kmax}; "
                      "increase --kmax", file=sys.stderr)
            # |lambda_min|, as in convergence_study: under local+- the
            # fundamental level is an exact +-lambda tie between modes +-k,
            # settled on k = -1/2 by the ordering, not by the level's sign
            if lam_prev is not None:
                print(f"  drift vs previous N: "
                      f"{abs(abs(sp.lambda_min) - lam_prev):.3e}")
            lam_prev = abs(sp.lambda_min)
    return 0


def _identity_reports(sc: Scenario, surface: WarpedSurface,
                      bc: BoundaryConditionSpec) -> list[dict]:
    N = sc.N[-1]
    sp = aggregate(surface, bc, sc.kmax, N, n_fields_per_mode=2, n_levels=2)
    pair = sp.fundamental
    field, lam = pair.field, pair.lam
    mp = bounds_mod.canned_modifiers(surface)
    reports: list[ident.IdentityReport] = []

    reports.append(ident.sl_residual(field, lam))
    for which in surface.boundaries:
        reports.append(ident.rtc2_residual(field, which))
    reports.append(ident.eq_residual(field, lam, "eq1"))
    r = ident.eq_residual(field, lam, "eq1", mp)
    r.name = "eq1:modified"
    reports.append(r)
    reports.append(ident.eq_residual(field, lam, "eq2", mp))

    q = ident.energy_momentum(field)
    tr_res = float(np.max(np.abs(q.trace[q.mask] - lam)))
    reports.append(ident.IdentityReport("trace_q_equals_lambda", tr_res, 0.0,
                                        N, expected_order=2.0,
                                        extra={"excluded_nodes": q.excluded}))

    kill = ident.killing_residual(field, lam)
    out = [r.to_dict() for r in reports]
    out.append({"name": "killing_residual", "left": kill, "right": None,
                "residual": None, "n_grid": N, "expected_order": None,
                "note": "diagnostic: vanishes only in the limiting case"})

    if bc.variant == "aps-":
        coeff = DIM / (4 * (DIM - 1))
        inf_r = float(np.min(scalar_curvature(surface, field.r)))
        gap = sp.lambda_min_sq - coeff * inf_r
        out.append({"name": "aps_strict_gap", "left": sp.lambda_min_sq,
                    "right": coeff * inf_r, "residual": gap, "n_grid": N,
                    "expected_order": None,
                    "note": "strict inequality under APS; gap must stay positive"})

    if sc.conformal_u:
        u = parse_radial_spec(sc.conformal_u, surface.r_min, surface.r_max)
        resc = conformal_rescale(surface, u)
        laws = conformal_law_residuals(resc, field.r)
        law_tol = 1e-8 if surface.profile_exact else 1e-4
        for name, arr in (("conformal_law_curvature", laws["curvature"]),
                          ("conformal_law_laplacian", laws["laplacian"])):
            out.append({"name": name,
                        "left": float(np.max(np.abs(arr))), "right": 0.0,
                        "residual": float(np.max(np.abs(arr))), "n_grid": N,
                        "expected_order": None, "tolerance": law_tol})
        for which, v in laws["mean_curvature"].items():
            out.append({"name": f"conformal_law_mean_curvature:{which}",
                        "left": abs(v), "right": 0.0, "residual": abs(v),
                        "n_grid": N, "expected_order": None,
                        "tolerance": law_tol})
        _, push_res = ident.conformal_push(field, resc, lam)
        out.append({"name": "conformal_push_residual", "left": push_res,
                    "right": 0.0, "residual": push_res, "n_grid": N,
                    "expected_order": 2.0})
        # the rescaling's own factor is the modifier u of eq3/eq4
        for which in ("eq3", "eq4"):
            r = ident.eq_residual(field, lam, which,
                                  bounds_mod.ModifierPair(mp.a, u), resc)
            out.append(r.to_dict())
    return out


def _cmd_verify(sc: Scenario) -> int:
    surface = sc.surface()
    failures = []
    for bc_name in sc.bc:
        bc = BoundaryConditionSpec(bc_name)
        rows = _identity_reports(sc, surface, bc)
        path = os.path.join(sc.out, f"verify_{_slug(bc_name)}.jsonl")
        atomic_write(path, "\n".join(json.dumps(r, sort_keys=True)
                                     for r in rows) + "\n")
        print(f"wrote {path}")
        for r in rows:
            res = r.get("residual")
            if res is None:
                continue
            tol = r.get("tolerance", sc.tol_identity)
            if r["name"] == "aps_strict_gap":
                if res <= 0:
                    failures.append((bc_name, r["name"], res))
                continue
            if res > tol:
                failures.append((bc_name, r["name"], res))
    for bc_name, name, res in failures:
        print(f"FAIL [{bc_name}] identity {name}: residual {res:.3e}",
              file=sys.stderr)
    return 1 if failures else 0


def _cmd_bounds(sc: Scenario) -> int:
    surface = sc.surface()
    rows = ["scenario,bc,n_grid,lambda_min_sq,k_min,friedrich,hijazi_q,"
            "est1,est2,est3,est4,margin_interior,margin_conformal,passed"]
    code = 0
    # the optimizer reads only the surface and the budget: one run per
    # variant serves every boundary condition
    summary = {}
    if sc.optimize_bounds:
        res_i = bounds_mod.optimize_modifiers(surface, "interior",
                                              budget=sc.budget)
        res_c = bounds_mod.optimize_modifiers(surface, "conformal",
                                              budget=sc.budget)
        mp, mpc = res_i.pair, res_c.pair
        summary = {"interior": res_i.summary(), "conformal": res_c.summary()}
    else:
        mp = mpc = bounds_mod.canned_modifiers(surface)
    for bc_name in sc.bc:
        bc = BoundaryConditionSpec(bc_name)
        N = sc.N[-1]
        sp = aggregate(surface, bc, sc.kmax, N, n_fields_per_mode=2,
                       n_levels=2)
        field = sp.fundamental.field
        report = bounds_mod.evaluate_bounds(sp, field, mp, mpc,
                                            tol_report=sc.tol_report,
                                            optimizer_summary=summary)
        path = os.path.join(sc.out, f"bounds_{_slug(bc_name)}.json")
        atomic_write(path, report.to_json() + "\n")
        print(f"wrote {path}")

        def val(name):
            try:
                return report.entry(name).value
            except KeyError:
                return None

        margins = {e.name: e.margin for e in report.entries}
        rows.append(",".join([
            surface.name, bc_name, str(N), fmt(report.lambda_min_sq),
            fmt(report.k_min), fmt(val("friedrich")), fmt(val("hijazi_q")),
            fmt(val("est1")), fmt(val("est2")), fmt(val("est3")),
            fmt(val("est4")), fmt(margins.get("est1")),
            fmt(margins.get("est3")), fmt(report.passed)]))
        for e in report.entries:
            if e.passed is False:
                print(f"FAIL [{bc_name}] bound {e.name}: value {e.value!r} "
                      f"vs lambda_min^2 {report.lambda_min_sq!r}",
                      file=sys.stderr)
                code = 1
    atomic_write(os.path.join(sc.out, "bounds_summary.csv"),
                 "\n".join(rows) + "\n")
    print(f"wrote {os.path.join(sc.out, 'bounds_summary.csv')}")
    return code


def _cmd_convergence(sc: Scenario) -> int:
    surface = sc.surface()
    for bc_name in sc.bc:
        bc = BoundaryConditionSpec(bc_name)
        table = convergence_study(surface, bc, list(sc.N), k_max=min(sc.kmax, 2.5))
        lines = ["N,lambda_min,order,converged"]
        for row in table:
            lines.append(f"{row['N']},{fmt(row['lambda_min'])},"
                         f"{fmt(row['order'])},{fmt(row['converged'])}")
        path = os.path.join(sc.out, f"convergence_{_slug(bc_name)}.csv")
        atomic_write(path, "\n".join(lines) + "\n")
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

_COMMANDS = {"spectrum": _cmd_spectrum, "verify": _cmd_verify,
             "bounds": _cmd_bounds, "convergence": _cmd_convergence,
             "catalog": _cmd_catalog}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spinspec",
        description="Dirac spectra and eigenvalue bounds on surfaces of "
                    "revolution with chirality-bag / APS boundary conditions")
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--config", help="scenario JSON; flags override its fields")
    p.add_argument("--geometry")
    p.add_argument("--spin", dest="spin_structure",
                   choices=["antiperiodic", "periodic"])
    p.add_argument("--bc", help="comma list of local+,local-,aps-,aps+")
    p.add_argument("--N", help="comma list of grid sizes, ascending")
    p.add_argument("--kmax", type=float)
    p.add_argument("--conformal-u", dest="conformal_u",
                   help="radial factor spec: const:<c> | bump:<c> | poly:<c0>,<c1>,...")
    p.add_argument("--optimize-bounds", action="store_true", default=None)
    p.add_argument("--budget", type=int)
    p.add_argument("--out")
    p.add_argument("--tol-report", dest="tol_report", type=float)
    p.add_argument("--tol-identity", dest="tol_identity", type=float)
    return p


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    sc = Scenario.from_json(args.config) if args.config else Scenario()
    for name in ("geometry", "spin_structure", "kmax", "conformal_u",
                 "budget", "out", "tol_report", "tol_identity",
                 "optimize_bounds"):
        v = getattr(args, name, None)
        if v is not None:
            setattr(sc, name, v)
    if args.bc is not None:
        sc.bc = [b.strip() for b in args.bc.split(",") if b.strip()]
    if args.N is not None:
        try:
            sc.N = [int(x) for x in args.N.split(",")]
        except ValueError as exc:
            raise ConfigError(f"cannot parse --N {args.N!r}") from exc
    sc.validate()
    return sc


def run(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # numpy signals overflow on extreme input by RuntimeWarnings: they are
    # recorded, so that a failed run keeps to its one-line message and a
    # finished one adds a single line that counts them
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        try:
            if args.command == "catalog":
                return _cmd_catalog(None)
            sc = _scenario_from_args(args)
            code = _COMMANDS[args.command](sc)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except NumericalError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 3
    if caught:
        first = " ".join(str(caught[0].message).split())
        print(f"warning: {len(caught)} numerical warning(s) suppressed, "
              f"the first: {first}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
