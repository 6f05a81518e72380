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
from .dirac_core import (BoundaryConditionSpec, NumericalError, Spectrum,
                         full_spectra)
# unused here; perfbench --trace patches this name
from .dirac_core import aggregate  # noqa: F401
from .geometry import (LAW_TOL, ConfigError,
                       ConformalRescaling, WarpedSurface, catalog,
                       check_input_file, conformal_law_residuals,
                       conformal_rescale, make_surface, parse_radial_spec)

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
    fd, tmp = tempfile.mkstemp(dir=d, prefix=_TMP_PREFIX)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _out_name(command: str, bc_name: str, N: int = 0) -> str:
    """The file `command` writes for one condition (spectrum: and grid N)."""
    ext = {"verify": "jsonl", "bounds": "json"}.get(command, "csv")
    grid = f"_N{N}" if command == "spectrum" else ""
    slug = bc_name.replace("+", "plus").replace("-", "minus")
    return f"{command}_{slug}{grid}.{ext}"


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


# Admission caps (docs/formats.md), checked before anything is allocated.
# The largest scenario solves 13 |k| at N up to 1024 with a budget of 1200,
# the largest test a single mode at N = 2^15: the caps sit far above.
MAX_KMAX = 1000.0
MAX_N = 2 ** 18               # radial cells of one grid, O(N) memory per solve
MAX_BUDGET = 10 ** 5          # optimizer evaluations, each one kept in a trace
MAX_CELLS = 2 ** 20           # modes x sum of the grids a command solves
MAX_SPECTRUM_WORK = 2 ** 30   # |k| solved x sum of N^2 in `spectrum`, where
                              # every eigenvalue costs O(N): about 100 s
MAX_CONFIG_BYTES = 2 ** 20    # a scenario config file
# A surface's length and largest radius must lie in this range.  The solve
# and the identities hold absolute floors of order 1 (the eigenvector bracket
# is 1e-10 max(scale, 1)), so far outside it their results mean nothing: a
# cylinder of length 1e200 gave levels of 1e-199 and no eigenvectors.
SCALE_RANGE = (1e-6, 1e6)
CONVERGENCE_KMAX = 2.5    # the largest |k| `convergence` solves
DRIFT_TOL = 1e-3          # |lambda_min| drift of a converged ladder
_TMP_PREFIX = ".tmp-spinspec-"  # atomic_write's, before 8 random characters

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
    tol_report: float = bounds_mod.TOL_REPORT
    tol_identity: float = 1e-2
    out: str = "out"

    @staticmethod
    def from_json(path: str) -> "Scenario":
        check_input_file(path, "config", MAX_CONFIG_BYTES)
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            # ValueError: not UTF-8, or not JSON; RecursionError: nested
            # deeper than the decoder goes
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} holds a JSON "
                              f"{type(data).__name__}, not an object")
        known = {f.name for f in dataclasses.fields(Scenario)}
        bad = set(data) - known
        if bad:
            raise ConfigError(f"unknown config fields: {sorted(bad)}")
        return Scenario(**data)

    def validate(self, command: str = "spectrum"
                 ) -> tuple[WarpedSurface, ConformalRescaling | None]:
        """ConfigError unless every field is well formed and the work that
        `command` would do stays inside the admission caps.  Returns the
        run's surface and, with `conformal_u`, its rescaling (else None):
        the command runs on these, not on a second build."""
        for name, kind in _FIELD_TYPES.items():
            _check_type(name, getattr(self, name), kind)
        if not self.bc:
            raise ConfigError("at least one boundary condition is required")
        for i, bc in enumerate(self.bc):
            BoundaryConditionSpec(bc)
            if bc in self.bc[:i]:   # it would solve and write the same again
                raise ConfigError(f"boundary condition {bc!r} is listed twice")
        if not self.N or list(self.N) != sorted(set(self.N)) or min(self.N) < 16:
            raise ConfigError("grid sizes must be strictly ascending and at least 16")
        if self.kmax < 0.5:
            raise ConfigError("kmax must be at least 1/2")
        if not 1 <= self.budget <= MAX_BUDGET:
            raise ConfigError(f"budget must lie in [1, {MAX_BUDGET}]")
        for name in ("tol_report", "tol_identity"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        self._admit(command)
        surface = make_surface(self.geometry, self.spin_structure)
        _admit_scale(surface)
        resc = None
        if self.conformal_u:
            # only verify rescales by it, but every command refuses a factor
            # that verify would refuse (about 2 ms)
            resc = conformal_rescale(surface, parse_radial_spec(
                self.conformal_u, surface.r_min, surface.r_max))
        _admit_out(self.out, max((_out_name(command, bc, N) for bc in self.bc
                                  for N in self.N), key=len))
        if command == "convergence" and len(self.N) < 3:   # an order needs 3
            raise ConfigError("convergence study needs at least 3 grid sizes")
        return surface, resc

    def _admit(self, command: str) -> None:
        """Refuse kmax and N past the caps, from counts alone and for what
        `command` solves (`_plan`): |k| <= k_max holds at most
        floor(k_max + 1/2) + 1 wave numbers of either sign."""
        if self.kmax > MAX_KMAX:
            raise ConfigError(f"kmax {self.kmax:g} exceeds the cap {MAX_KMAX:g}")
        if max(self.N) > MAX_N:
            raise ConfigError(f"grid size {max(self.N)} exceeds the cap {MAX_N}")
        grids, k_max, _ = _plan(self, command)
        n_abs = math.floor(k_max + 0.5) + 1
        cells = 2 * n_abs * sum(grids)
        if cells > MAX_CELLS:
            raise ConfigError(f"kmax {k_max:g} with N {grids} holds about "
                              f"{cells:.3g} mode cells; the cap is {MAX_CELLS}")
        work = n_abs * sum(N * N for N in grids)
        if command == "spectrum" and work > MAX_SPECTRUM_WORK:
            raise ConfigError(f"kmax {k_max:g} with N {grids} is about "
                              f"{work:.3g} spectrum work; the cap is "
                              f"{MAX_SPECTRUM_WORK}")


def _plan(sc: Scenario, command: str) -> tuple[list, float, int | None]:
    """What `command` solves: its grids, its largest |k| and its levels per
    mode (None: all).  `verify` and `bounds` need only the fundamental of
    the finest grid, `convergence` only each grid's lowest level: one level
    per mode."""
    if command == "spectrum":
        return sc.N, sc.kmax, None
    if command == "convergence":
        return sc.N, min(sc.kmax, CONVERGENCE_KMAX), 1
    return sc.N[-1:], sc.kmax, 1


def _admit_scale(surface: WarpedSurface) -> None:
    """ConfigError unless the surface's length and its largest radius (at 65
    equally spaced radii, the ends included) lie in SCALE_RANGE."""
    lo, hi = SCALE_RANGE
    radius = float(np.max(surface.f(np.linspace(surface.r_min, surface.r_max,
                                                 65))))
    for what, size in (("length", surface.length), ("largest radius", radius)):
        if not lo <= size <= hi:
            raise ConfigError(f"surface {what} {size:.3g} lies outside "
                              f"[{lo:g}, {hi:g}]")


def _admit_out(out: str, name: str) -> None:
    """ConfigError unless `out`, or else its nearest existing ancestor, is a
    directory this process may write and search, no missing component
    exceeds NAME_MAX, and `out` (as given, or absolute as mkstemp makes it)
    joined with `name`, the longest file name per boundary condition, or
    the temporary name stays below PATH_MAX.  Creates nothing."""
    if "\0" in out:
        raise ConfigError(f"output path {out!r} holds a NUL byte")
    target = path = os.path.abspath(out)
    try:    # the longest path the writer hands to the kernel, in bytes
        size = max(len(os.fsencode(os.path.join(d, f))) for d in (out, target)
                   for f in (name, _TMP_PREFIX + 8 * "x"))
    except UnicodeEncodeError as exc:    # a lone surrogate from a config
        raise ConfigError(f"output path {out!r} is not a file name") from exc
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    where = "is" if path == target else f"lies under {path!r}, which is"
    if not os.path.isdir(path):
        raise ConfigError(f"output path {out!r} {where} not a directory")
    if not os.access(path, os.W_OK | os.X_OK):
        raise ConfigError(f"output path {out!r} {where} not writable")
    name_max, path_max = (os.pathconf(path, key)
                          for key in ("PC_NAME_MAX", "PC_PATH_MAX"))
    part = max(len(os.fsencode(p))
               for p in os.path.relpath(target, path).split(os.sep))
    if part > name_max:
        raise ConfigError(f"output path {out!r} has a component of {part} "
                          f"bytes; the limit is {name_max}")
    if size >= path_max:
        raise ConfigError(f"output path {out!r} makes file paths of {size} "
                          f"bytes; the limit is {path_max - 1}")


def _write(sc: Scenario, name: str, text: str, note: str = "") -> None:
    """Write the file `name` under sc.out and say so.  An OSError (a full or
    read-only file system, EIO, a race) is a ConfigError after the fact."""
    path = os.path.join(sc.out, name)
    try:
        atomic_write(path, text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    print(f"wrote {path}{note}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_catalog(_: Scenario) -> int:
    for name, desc in catalog().items():
        print(f"{name:24s} {desc}")
    return 0


def _spectrum_csv(levels: Array) -> str:
    """`mode,index,lambda` rows: modes ascending, each mode's levels
    ascending and indexed from 0.  Each mode is one % of a template per
    level count n, "<k>,0,%.17g\n<k>,1,%.17g\n...": its n index fields are
    built once per call, and the mode's k joins the pieces."""
    by_mode = levels[np.lexsort((levels[:, 0], levels[:, 1]))]
    ks, starts = np.unique(by_mode[:, 1], return_index=True)
    parts, pieces = ["mode,index,lambda\n"], {}
    for k, lams in zip(ks.tolist(), np.split(by_mode[:, 0], starts[1:])):
        n = len(lams)
        if n not in pieces:
            pieces[n] = [""] + [f",{i},%.17g\n" for i in range(n)]
        parts.append(fmt(k).join(pieces[n]) % tuple(lams.tolist()))
    return "".join(parts)


def _warn_top(top: float, hint: str = "increase --kmax") -> str:
    """The one line saying lambda_min sits on `top`, the largest |k| assessed."""
    return (f"warning: lambda_min attained at |k| = {top:g}, the largest mode "
            f"solved; {hint}")


def _spectra(sc: Scenario, surface: WarpedSurface, command: str, err: list):
    """(condition name, Spectrum) per entry of sc.bc, then per grid of
    `command`'s plan (`_plan`), from the one executor (`full_spectra`):
    for verify, bounds and convergence it solves inline, in this order, as
    each is asked for.  A spectrum whose lambda_min sits on its top mode
    adds the warning to err."""
    grids, k_max, n_levels = _plan(sc, command)
    plan = [(bc_name, N) for bc_name in sc.bc for N in grids]
    for i, sp in full_spectra(surface, k_max, [
            (BoundaryConditionSpec(bc_name), N) for bc_name, N in plan],
            n_levels):
        if sp.kmax_attained:
            err.append(_warn_top(sp.k_top))
        yield plan[i][0], sp


def _cmd_spectrum(sc: Scenario, surface: WarpedSurface, _, err: list) -> int:
    """One CSV per entry of sc.bc and grid.  Every solve of the plan runs on
    one pool (`full_spectra`), largest grid first; each CSV is formatted as
    its spectrum comes in, while the pool solves the rest.  The files are
    written, and their lines printed, in plan order at the end: after a
    failure, only those of the entries before it."""
    grids, k_max, n_levels = _plan(sc, "spectrum")
    plan = [(bc_name, N) for bc_name in sc.bc for N in grids]
    done = {}                 # plan index -> (text, note, |lambda_min|, warning)
    try:
        for i, sp in full_spectra(surface, k_max, [
                (BoundaryConditionSpec(bc_name), N) for bc_name, N in plan],
                n_levels):
            done[i] = (_spectrum_csv(sp.levels),
                       f" (lambda_min = {fmt(sp.lambda_min)}, "
                       f"attained at k = {fmt(sp.k_min)})",
                       abs(sp.lambda_min),
                       _warn_top(sp.k_top) if sp.kmax_attained else None)
    finally:
        for i, (bc_name, N) in enumerate(plan):
            if i not in done:
                break
            text, note, lam, warning = done.pop(i)
            if warning:
                err.append(warning)
            _write(sc, _out_name("spectrum", bc_name, N), text, note)
            # |lambda_min| against the previous grid of this entry of sc.bc,
            # as in convergence: under local+- the fundamental level is an
            # exact +-lambda tie between modes +-k, settled on k = -1/2 by
            # the ordering, not by the level's sign
            if i % len(grids):
                print(f"  drift vs previous N: {abs(lam - lam_prev):.3e}")
            lam_prev = lam
    return 0


def _identity_reports(sp: Spectrum, resc: ConformalRescaling | None
                      ) -> list[dict]:
    surface, N = sp.surface, sp.n_grid
    field, lam = sp.fundamental.field, sp.fundamental.lam
    mp = bounds_mod.canned_modifiers(surface)
    q = ident.energy_momentum(field)
    reports = [
        ident.sl_residual(field, lam),
        *(ident.rtc2_residual(field, which) for which in surface.boundaries),
        ident.eq_residual(field, lam, "eq1"),
        dataclasses.replace(ident.eq_residual(field, lam, "eq1", mp),
                            name="eq1:modified"),
        ident.eq_residual(field, lam, "eq2", mp),
        ident.IdentityReport("trace_q_equals_lambda",
                             float(np.max(np.abs(q.trace[q.mask] - lam))), 0.0,
                             N, expected_order=2.0,
                             extra={"excluded_nodes": q.excluded}),
        ident.IdentityReport(
            "killing_residual", ident.killing_residual(field, lam), None, N,
            extra={"note": "diagnostic: vanishes only in the limiting case"})]
    out = [r.to_dict() for r in reports]

    if sp.bc.variant == "aps-":
        friedrich = bounds_mod.friedrich_bound(surface, N)
        out.append({"name": "aps_strict_gap", "left": sp.lambda_min_sq,
                    "right": friedrich, "residual": sp.lambda_min_sq - friedrich,
                    "n_grid": N, "expected_order": None,
                    "note": "strict inequality under APS; gap must stay positive"})

    if resc is not None:
        laws = conformal_law_residuals(resc, field.r)
        law_tol = {"tolerance": LAW_TOL}
        reports = [ident.IdentityReport(f"conformal_law_{name}",
                                        float(np.max(np.abs(laws[name]))),
                                        0.0, N, extra=law_tol)
                   for name in ("curvature", "laplacian")]
        reports += [ident.IdentityReport(f"conformal_law_mean_curvature:{which}",
                                         abs(v), 0.0, N, extra=law_tol)
                    for which, v in laws["mean_curvature"].items()]
        push = ident.conformal_push(field, resc, lam)
        reports.append(ident.IdentityReport(
            "conformal_push_residual", push.residual, 0.0, N, expected_order=2.0))
        # the rescaling's own factor is the modifier u of eq3/eq4
        for which in ("eq3", "eq4"):
            reports.append(ident.eq_residual(
                field, lam, which, ident.ModifierPair(mp.a, resc.u), push))
        out += [r.to_dict() for r in reports]
    return out


def _cmd_verify(sc: Scenario, surface: WarpedSurface,
                resc: ConformalRescaling | None, err: list) -> int:
    failures = []
    for bc_name, sp in _spectra(sc, surface, "verify", err):
        rows = _identity_reports(sp, resc)
        _write(sc, _out_name("verify", bc_name),
               "\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n")
        for r in rows:
            # a diagnostic has no residual; the APS gap must stay positive
            res, gap = r["residual"], r["name"] == "aps_strict_gap"
            if res is not None and (res <= 0 if gap else
                                    res > r.get("tolerance", sc.tol_identity)):
                failures.append(f"FAIL [{bc_name}] identity {r['name']}: "
                                f"residual {res:.3e}")
    err += failures
    return 1 if failures else 0


def _cmd_bounds(sc: Scenario, surface: WarpedSurface, _, err: list) -> int:
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
    for bc_name, sp in _spectra(sc, surface, "bounds", err):
        report = bounds_mod.evaluate_bounds(sp, mp, mpc,
                                            tol_report=sc.tol_report,
                                            optimizer_summary=summary)
        _write(sc, _out_name("bounds", bc_name), report.to_json() + "\n")
        values = [report.entry(name).value for name in
                  ("friedrich", "hijazi_q", "est1", "est2", "est3", "est4")]
        rows.append(",".join([
            surface.name, bc_name, str(sp.n_grid), fmt(report.lambda_min_sq),
            fmt(report.k_min), *map(fmt, values),
            fmt(report.entry("est1").margin), fmt(report.entry("est3").margin),
            fmt(report.passed)]))
        for e in report.entries:
            if e.passed is False:
                err.append(f"FAIL [{bc_name}] bound {e.name}: value "
                           f"{e.value!r} vs lambda_min^2 "
                           f"{report.lambda_min_sq!r}")
                code = 1
    _write(sc, "bounds_summary.csv", "\n".join(rows) + "\n")
    return code


def _cmd_convergence(sc: Scenario, surface: WarpedSurface, _, err: list) -> int:
    """Per condition, |lambda_min| on each grid (the fundamental level often
    comes as a +-pair), the Richardson order from each three grids, and
    whether the last two drift by less than DRIFT_TOL."""
    # the ladder warns once per condition, with its own hint, not per grid
    ladders = _spectra(sc, surface, "convergence", [])
    for bc_name in sc.bc:
        spectra = [next(ladders)[1] for _ in sc.N]
        lams = [abs(sp.lambda_min) for sp in spectra]
        lines = ["N,lambda_min,order,converged"]
        for i, (sp, lam) in enumerate(zip(spectra, lams)):
            order = None
            if i >= 2:
                d1, d2 = abs(lams[i - 1] - lams[i - 2]), abs(lam - lams[i - 1])
                if d2 > 0 and d1 > 0:
                    order = float(np.log(d1 / d2) / np.log(
                        sp.n_grid / spectra[i - 1].n_grid))
            converged = i == len(lams) - 1 and abs(lam - lams[i - 1]) < DRIFT_TOL
            lines.append(f"{sp.n_grid},{fmt(lam)},{fmt(order)},"
                         f"{fmt(converged)}")
        _write(sc, _out_name("convergence", bc_name), "\n".join(lines) + "\n")
        # no "increase --kmax": past CONVERGENCE_KMAX it would add no mode
        if any(sp.kmax_attained for sp in spectra):
            err.append(_warn_top(spectra[0].k_top, "convergence solves "
                                 f"|k| <= min(kmax, {CONVERGENCE_KMAX:g})"))
    return 0


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

_COMMANDS = {"spectrum": _cmd_spectrum, "verify": _cmd_verify,
             "bounds": _cmd_bounds, "convergence": _cmd_convergence,
             "catalog": _cmd_catalog}


class _NegativeNumber:
    """argparse's test for an argument that is a negative number, not an
    option (it calls `match`): every string float() reads, -5e-3 and -inf
    included, where argparse's own pattern takes only -5 and -.5."""

    @staticmethod
    def match(text: str) -> bool:
        if not text.startswith("-"):
            return False
        try:
            float(text)
        except ValueError:
            return False
        return True


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
    p.add_argument("--N", help="comma list of grid sizes, strictly ascending")
    p.add_argument("--kmax", type=float)
    p.add_argument("--conformal-u", dest="conformal_u",
                   help="radial factor spec: const:<c> | bump:<c> | poly:<c0>,<c1>,...")
    p.add_argument("--optimize-bounds", action="store_true", default=None)
    p.add_argument("--budget", type=int)
    p.add_argument("--out")
    p.add_argument("--tol-report", dest="tol_report", type=float)
    p.add_argument("--tol-identity", dest="tol_identity", type=float)
    p.print_usage = lambda file=None: None    # an error is its one line
    p._negative_number_matcher = _NegativeNumber
    return p


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    sc = Scenario.from_json(args.config) if args.config else Scenario()
    for name in _FIELD_TYPES.keys() - {"bc", "N"}:     # the plain flags
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
    return sc


def run(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # numpy signals overflow on extreme input by RuntimeWarnings: they are
    # recorded, so that a failed run keeps to its one-line message and a
    # finished one adds a single line that counts them; the command's own
    # stderr lines wait in `err` for the same reason
    err: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        try:
            if args.command == "catalog":
                return _cmd_catalog(None)
            sc = _scenario_from_args(args)
            code = _COMMANDS[args.command](sc, *sc.validate(args.command), err)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except NumericalError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 3
    for line in err:
        print(line, file=sys.stderr)
    if caught:
        first = " ".join(str(caught[0].message).split())
        print(f"warning: {len(caught)} numerical warning(s) suppressed, "
              f"the first: {first}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
