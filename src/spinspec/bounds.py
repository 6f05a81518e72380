"""Eigenvalue lower bounds from modified connections, and their optimization.

The four bounds evaluated here share one pattern: a curvature-like radial
quantity built from a modifier pair (a, u), an infimum over the surface, and
a mean-curvature feasibility condition on the boundary.  With the positive
Laplacian convention (Delta u = -(1/f)(f u')'),

    R_{a,u}   = R - 4 a Delta u + 4 a'u' - 4 (1 - 1/n) a^2 u'^2
    R^_{a,u}  = R + 4((n-1)/2 - a) Delta u + 4 a'u'
                  - ((n-1)(n-2) + 4(2-n) a + 4(1 - 1/n) a^2) u'^2

feasibility (interior bounds):   H >= 2 a du(e0)      on each boundary circle
feasibility (conformal bounds):  H >= (2a - n + 1) du(e0)

and the bound values are n/(4(n-1)) inf R_{a,u} (plus the energy-momentum
refinements inf(R_{a,u}/4 + |Q_phi|^2)).  Taking a = 0 or u constant
recovers the classical unmodified inequalities, which every report includes
as a baseline.  The code keeps these formulas in terms of the paper's
dimension n, the constant geometry.DIM = 2 of every surface here.

Both curvature quantities and the margin are computed by private helpers
that take sampled arrays: R, f'/f and the jets a, a', u', u'' for the
quantities, H, a and du(e0) on the boundary circles for the margin.  The
public functions fill those arrays from RadialFunctions; the optimizer fills
them from a precomputed spline basis, so both paths share one copy of each
formula.

The sup over (a, u) is explored with derivative-free Nelder-Mead over cubic
spline coefficients, feasibility enforced by an exact penalty; the result is
a certified-feasible best iterate, never claimed globally optimal.  A spline
through fixed knots is linear in its control values, so each optimizer call
evaluates the not-a-knot cardinal splines once (values and two derivatives
on the grid, values and slopes on the boundary circles) and every objective
evaluation is a few mat-vecs.  Every evaluated pair is recorded in a trace
so the theorems themselves can be replayed as oracles over the whole search
history.

The conformal bounds are stated for the local boundary conditions only;
under APS conditions they are reported as experimental, with no pass/fail
semantics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

import numpy as np
from numpy.polynomial import Polynomial
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize

from .geometry import (DIM, RadialFunction, WarpedSurface, boundary_data,
                       parse_radial_spec, scalar_curvature)

Array = np.ndarray

TOL_REPORT = 5e-3   # discretization slack folded into pass/fail margins
TOL_FEAS = 1e-9     # feasibility margins this negative still count as boundary cases

_ZERO = RadialFunction.constant(0.0)


@dataclass(frozen=True)
class ModifierPair:
    """The functions (a, u) twisting the spinor connection; ModifierPair()
    is the zero pair, the untwisted connection."""

    a: RadialFunction = _ZERO
    u: RadialFunction = _ZERO

    @staticmethod
    def from_params(surface: WarpedSurface, params: Array,
                    n_ctrl: int = 8) -> "ModifierPair":
        """Cubic-spline pair from 2*n_ctrl control values on the surface."""
        params = np.asarray(params, dtype=float)
        if params.shape != (2 * n_ctrl,):
            raise ValueError(f"expected {2 * n_ctrl} parameters")
        knots = np.linspace(surface.r_min, surface.r_max, n_ctrl)
        a = RadialFunction.from_samples(knots, params[:n_ctrl])
        u = RadialFunction.from_samples(knots, params[n_ctrl:])
        return ModifierPair(a, u)


def _curvature(variant: str, R: Array, fpf: Array, a: Array, da: Array,
               du: Array, d2u: Array) -> Array:
    """R_{a,u} (interior) or R^_{a,u} (conformal) from R, f'/f and the
    jets a, a', u', u'' sampled on one grid."""
    lap_u = -(d2u + fpf * du)   # geometry.radial_laplacian of u
    if variant == "interior":
        return R - 4 * a * lap_u + 4 * da * du \
            - 4 * (1 - 1 / DIM) * a ** 2 * du ** 2
    coeff = (DIM - 1) * (DIM - 2) + 4 * (2 - DIM) * a \
        + 4 * (1 - 1 / DIM) * a ** 2
    return R + 4 * ((DIM - 1) / 2 - a) * lap_u + 4 * da * du - coeff * du ** 2


def _jets(surface: WarpedSurface, mp: ModifierPair, r: Array) -> tuple:
    """R, f'/f, a, a', u', u'' at the radii r."""
    rr = np.asarray(r, dtype=float)
    return (scalar_curvature(surface, rr), surface.fp(rr) / surface.f(rr),
            mp.a(rr), mp.a.d(rr), mp.u.d(rr), mp.u.d2(rr))


def modified_scalar(surface: WarpedSurface, mp: ModifierPair,
                    r: Array) -> Array:
    """R_{a,u} sampled at the radii r (positive Laplacian throughout)."""
    return _curvature("interior", *_jets(surface, mp, r))


def conformal_modified_scalar(surface: WarpedSurface, mp: ModifierPair,
                              r: Array) -> Array:
    """R^_{a,u} sampled at the radii r."""
    return _curvature("conformal", *_jets(surface, mp, r))


# per feasibility variant: the inf-curvature bound and its energy-momentum
# refinement, both built on the variant's curvature quantity
_ESTIMATES = {"interior": ("est1", "est2"), "conformal": ("est3", "est4")}


def _grid(surface: WarpedSurface, n_grid: int) -> Array:
    """The n_grid cell centres plus the boundary circles."""
    inner = [] if surface.cap else [surface.r_min]
    return np.concatenate([inner, surface.centers(n_grid), [surface.r_max]])


def _boundary_circles(surface: WarpedSurface) -> tuple:
    """Radius, mean curvature H and outward sign of each boundary circle."""
    bds = [boundary_data(surface, which) for which in surface.boundaries]
    return (np.array([bd.r_b for bd in bds]),
            np.array([bd.mean_curvature for bd in bds]),
            np.array([bd.outward_sign for bd in bds]))


def _feasibility_margin(H: Array, a_b: Array, du_e0: Array,
                        variant: str) -> float:
    """min of the margins from H, a and du(e0) on each boundary circle."""
    if variant == "interior":
        return float(np.min(H - 2 * a_b * du_e0))
    if variant == "conformal":
        return float(np.min(H - (2 * a_b - DIM + 1) * du_e0))
    raise ValueError(f"unknown feasibility variant {variant!r}")


def feasibility_margin(surface: WarpedSurface, mp: ModifierPair,
                       variant: str = "interior") -> float:
    """min over boundary circles of the mean-curvature feasibility margin.

    interior:   H - 2 a du(e0)
    conformal:  H - (2a - n + 1) du(e0)
    """
    r_b, H, sign = _boundary_circles(surface)
    return _feasibility_margin(H, mp.a(r_b), sign * mp.u.d(r_b), variant)


def canned_modifiers(surface: WarpedSurface) -> ModifierPair:
    """A nontrivial (a, u) pair for identity and bound suites.

    When every boundary has H >= 0 a mild outward-decreasing conformal
    factor is feasible.  Otherwise the boundary with the lowest H (the inner
    circle of a flat annulus, the rim of a cap wider than a hemisphere)
    gets a du(e0) large enough to pay for it, with a = 1.  The pair is
    feasible whenever at most one boundary has H < 0; with two (a zone
    across the equator of a sphere) it is returned all the same: the
    identities hold for any pair, and evaluate_bounds reports the
    modifier-dependent bounds as skipped (infeasible).
    """
    bd = min((boundary_data(surface, b) for b in surface.boundaries),
             key=lambda b: b.mean_curvature)
    if bd.mean_curvature >= 0:
        return ModifierPair(RadialFunction.constant(0.4),
                            parse_radial_spec("bump:0.3", surface.r_min,
                                              surface.r_max))

    # |u'| = slope at bd, falling linearly to 0 at the far end, so that
    # H - 2 du(e0) = 1 there
    slope = -bd.mean_curvature / 2.0 + 0.5
    t = -bd.outward_sign * Polynomial([-bd.r_b, 1.0])   # distance from bd
    u_poly = slope * (t - t ** 2 / (2 * surface.length))
    return ModifierPair(RadialFunction.constant(1.0),
                        RadialFunction.from_poly(u_poly.coef))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class BoundEntry:
    name: str
    value: float | None
    margin: float | None
    feasible: bool | None
    passed: bool | None          # None: skipped / not applicable / experimental
    note: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "margin": self.margin,
                "feasible": self.feasible, "passed": self.passed,
                "note": self.note}


@dataclass
class BoundReport:
    scenario: str
    bc_variant: str
    n_grid: int
    lambda_min_sq: float
    k_min: float
    entries: list
    limit_diagnostics: dict = dc_field(default_factory=dict)
    optimizer_summary: dict = dc_field(default_factory=dict)

    def entry(self, name: str) -> BoundEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    @property
    def passed(self) -> bool:
        return all(e.passed is not False for e in self.entries)

    def to_dict(self) -> dict:
        return {"scenario": self.scenario, "bc": self.bc_variant,
                "n_grid": self.n_grid, "lambda_min_sq": self.lambda_min_sq,
                "k_min": self.k_min,
                "entries": [e.to_dict() for e in self.entries],
                "limit_diagnostics": self.limit_diagnostics,
                "optimizer_summary": self.optimizer_summary,
                "passed": self.passed}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)


def evaluate_bounds(spectrum, field_min=None, mp: ModifierPair | None = None,
                    mp_conformal: ModifierPair | None = None,
                    tol_report: float = TOL_REPORT,
                    optimizer_summary: dict | None = None) -> BoundReport:
    """Evaluate every applicable lower bound against lambda_min^2.

    The a = 0 baselines (classical curvature and energy-momentum bounds) are
    always included; modifier-dependent entries appear when pairs are given
    and are marked skipped when infeasible.  Conformal entries carry
    pass/fail semantics under the local conditions only.
    """
    from .identities import energy_momentum

    surface = spectrum.surface
    lam2 = spectrum.lambda_min_sq
    coeff = DIM / (4.0 * (DIM - 1))
    rr = _grid(surface, spectrum.n_grid)
    entries: list[BoundEntry] = []

    margin0 = feasibility_margin(surface, ModifierPair(), "interior")
    feas0 = margin0 >= -TOL_FEAS
    r_min_val = float(np.min(scalar_curvature(surface, rr)))
    friedrich = coeff * r_min_val
    entries.append(BoundEntry(
        "friedrich", friedrich, margin0, feas0,
        bool(lam2 >= friedrich - tol_report) if feas0 else None,
        "" if feas0 else "skipped (infeasible: H < 0 somewhere)"))

    q_norm_sq = mask = None
    if field_min is not None:
        q = energy_momentum(field_min)
        q_norm_sq, mask = q.norm_sq, q.mask
        r_ctr = scalar_curvature(surface, field_min.r)
        hq = float(np.min((r_ctr / 4.0 + q_norm_sq)[mask]))
        entries.append(BoundEntry(
            "hijazi_q", hq, margin0, feas0,
            bool(lam2 >= hq - tol_report) if feas0 else None,
            "" if feas0 else "skipped (infeasible)"))

    local_bc = spectrum.bc.is_local
    mpc = mp_conformal if mp_conformal is not None else mp
    for variant, pair in (("interior", mp), ("conformal", mpc)):
        if pair is None:
            continue
        inf_name, q_name = _ESTIMATES[variant]
        names = (inf_name,) if field_min is None else (inf_name, q_name)
        margin = feasibility_margin(surface, pair, variant)
        judged = variant == "interior" or local_bc
        note = "" if judged else \
            "experimental: conformal bounds are stated for local conditions"
        if not margin >= -TOL_FEAS:
            skipped = (note + "; " if note else "") + "skipped (infeasible)"
            entries += [BoundEntry(name, None, margin, False, None, skipped)
                        for name in names]
            continue
        values = [coeff * float(np.min(
            _curvature(variant, *_jets(surface, pair, rr))))]
        if field_min is not None:
            curv_ctr = _curvature(variant, *_jets(surface, pair, field_min.r))
            values.append(float(np.min((curv_ctr / 4.0 + q_norm_sq)[mask])))
        for name, value in zip(names, values):
            entries.append(BoundEntry(
                name, value, margin, True,
                bool(lam2 >= value - tol_report) if judged else None, note))

    diagnostics = {}
    for which in surface.boundaries:
        bd = boundary_data(surface, which)
        d = {"H": bd.mean_curvature}
        for tag, pair in (("", mp), ("conformal_", mpc)):
            if pair is None:
                continue
            du_e0 = bd.outward_sign * float(pair.u.d(bd.r_b))
            # both disjuncts of the conformal limiting case, recorded not adjudicated
            d[tag + "du_e0"] = du_e0
            d[tag + "H_minus_du_e0"] = bd.mean_curvature - du_e0
        diagnostics[which] = d

    return BoundReport(surface.name, spectrum.bc.variant, spectrum.n_grid,
                       lam2, spectrum.k_min, entries, diagnostics,
                       optimizer_summary or {})


# ---------------------------------------------------------------------------
# derivative-free ascent over modifier pairs
# ---------------------------------------------------------------------------

@dataclass
class TracePoint:
    params: Array
    value: float       # inf over the grid of the curvature quantity
    margin: float
    feasible: bool


@dataclass
class OptimizerResult:
    pair: ModifierPair
    value: float
    margin: float
    feasible_found: bool
    fell_back_to_baseline: bool
    n_eval: int
    baseline_value: float
    trace: list

    @property
    def best_series(self) -> Array:
        """Best feasible value seen so far, per evaluation (monotone)."""
        best = -np.inf
        out = []
        for t in self.trace:
            if t.feasible:
                best = max(best, t.value)
            out.append(best)
        return np.asarray(out)

    def summary(self) -> dict:
        return {"n_eval": self.n_eval, "value": self.value,
                "margin": self.margin, "feasible_found": self.feasible_found,
                "fell_back_to_baseline": self.fell_back_to_baseline,
                "baseline_value": self.baseline_value}


def _basis_measure(surface: WarpedSurface, variant: str, n_ctrl: int,
                   n_grid: int):
    """params -> (inf of the variant's curvature quantity on _grid, margin)
    of ModifierPair.from_params(surface, params, n_ctrl), by mat-vecs.

    The cardinal splines of from_params (same knots, same not-a-knot ends):
    column j interpolates e_j at the knots, so the spline through control
    values p is basis @ p wherever it is sampled.
    """
    basis = CubicSpline(np.linspace(surface.r_min, surface.r_max, n_ctrl),
                        np.eye(n_ctrl))
    rr = _grid(surface, n_grid)
    b0, b1, b2 = (basis(rr, nu) for nu in range(3))
    curv, fpf = scalar_curvature(surface, rr), surface.fp(rr) / surface.f(rr)
    r_b, H, sign = _boundary_circles(surface)
    rim0, rim1 = basis(r_b), basis(r_b, 1)

    def measure(params: Array) -> tuple[float, float]:
        pa, pu = params[:n_ctrl], params[n_ctrl:]
        value = float(np.min(_curvature(variant, curv, fpf, b0 @ pa, b1 @ pa,
                                        b1 @ pu, b2 @ pu)))
        return value, _feasibility_margin(H, rim0 @ pa, sign * (rim1 @ pu),
                                          variant)

    return measure


def optimize_modifiers(surface: WarpedSurface, variant: str = "interior",
                       budget: int = 1200, n_ctrl: int = 8,
                       n_grid: int = 256,
                       penalty: float = 1e3) -> OptimizerResult:
    """Maximize inf R_{a,u} (or inf R^_{a,u}) over spline modifier pairs.

    Nelder-Mead on the 2*n_ctrl spline coefficients with an exact penalty on
    the feasibility margin; every evaluation runs on the spline basis that
    _basis_measure builds once per call.  The a = 0 baseline is always
    evaluated first and the returned pair can never be worse than it; if no
    feasible point shows up within the budget the baseline is returned with
    a flag.
    """
    if variant not in _ESTIMATES:
        raise ValueError(f"unknown optimizer variant {variant!r}")
    basis_measure = _basis_measure(surface, variant, n_ctrl, n_grid)
    trace: list[TracePoint] = []

    def measure(params: Array) -> TracePoint:
        val, margin = basis_measure(params)
        point = TracePoint(np.array(params, dtype=float), val, margin,
                           bool(margin >= -TOL_FEAS))
        trace.append(point)
        return point

    def objective(params: Array) -> float:
        point = measure(params)
        return -point.value + penalty * max(0.0, -point.margin)

    x0 = np.zeros(2 * n_ctrl)
    baseline = measure(x0)

    # restart the simplex around the incumbent until the evaluation budget
    # is spent; plain Nelder-Mead stalls long before desk-scale budgets
    rng = np.random.default_rng(7)
    incumbent = x0
    restart = 0
    while len(trace) < budget:
        step = 0.25 / (1 + restart)
        start = incumbent + (0.02 * step * rng.standard_normal(2 * n_ctrl)
                             if restart else 0.0)
        simplex = np.vstack([start] + [start + step * e
                                       for e in np.eye(2 * n_ctrl)])
        minimize(objective, start, method="Nelder-Mead",
                 options={"maxfev": max(budget - len(trace), 1),
                          "initial_simplex": simplex,
                          "xatol": 1e-8, "fatol": 1e-12})
        feas_now = [t for t in trace if t.feasible]
        if feas_now:
            incumbent = max(feas_now, key=lambda t: t.value).params
        restart += 1
        if restart > 200:  # pragma: no cover - budget should bind first
            break

    feasible = [t for t in trace if t.feasible]
    if feasible:
        best = max(feasible, key=lambda t: t.value)
        fell_back = False
        if baseline.feasible and baseline.value >= best.value:
            best = baseline
    else:
        best = baseline
        fell_back = True
    pair = ModifierPair.from_params(surface, best.params, n_ctrl)
    return OptimizerResult(pair, best.value, best.margin,
                           bool(feasible), fell_back, len(trace),
                           baseline.value, trace)
