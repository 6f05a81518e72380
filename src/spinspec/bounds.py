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

Both curvature quantities live in `identities`, with the twisted connection
they belong to, as `_curvature` on sampled R, f'/f and jets a, a', u', u'';
the margin is computed here from H, a and du(e0) on the boundary circles.
The public functions fill those arrays from RadialFunctions; the optimizer
fills them from a precomputed spline basis, so both paths share one copy of
each formula.

The sup over (a, u) is explored with derivative-free Nelder-Mead
(`_nelder_mead`, scipy's method evaluation for evaluation) over cubic
spline coefficients, feasibility enforced by charging _PENALTY per unit of
margin deficit; the result is a certified-feasible best iterate, never
claimed globally optimal.  A spline through fixed knots is linear in its
control values, so each optimizer call evaluates the not-a-knot cardinal
splines once (values and two derivatives on the grid, values and slopes on
the boundary circles) and an evaluation is six mat-vecs, `_curvature` in
four reused buffers and the margin in Python floats: about 33 us with its
Nelder-Mead step on a 2-core host, 256 cells.  It is bit for bit the plain
expressions (`@`, np.min, a new array per operation), because `ndarray.dot`
reaches the same OpenBLAS dgemv as `@` and every operation keeps the
formula's operands and order.  Every evaluated pair is recorded in a trace
so the theorems themselves can be replayed as oracles over the whole search
history.

The conformal bounds are stated for the local boundary conditions only;
under APS conditions they are reported as experimental, with no pass/fail
semantics.

spinspec loads no scipy module: the splines are `geometry._Spline` and the
optimizer is `_nelder_mead`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

import numpy as np
from numpy.polynomial import Polynomial

from . import identities
from .geometry import (DIM, RadialFunction, WarpedSurface, _Spline,
                       boundary_data, parse_radial_spec, scalar_curvature)
from .identities import ModifierPair, _curvature, _jets

Array = np.ndarray

# n/(4(n-1)), the coefficient of inf R in Friedrich's inequality and of every
# curvature bound built on it
FRIEDRICH = DIM / (4 * (DIM - 1))

TOL_REPORT = 5e-3   # discretization slack folded into pass/fail margins
TOL_FEAS = 1e-9     # feasibility margins this negative still count as boundary cases
_PENALTY = 1e3      # optimizer objective cost per unit of feasibility deficit

# per feasibility variant: the inf-curvature bound and its energy-momentum
# refinement, both built on the variant's curvature quantity
_ESTIMATES = {"interior": ("est1", "est2"), "conformal": ("est3", "est4")}


def _grid(surface: WarpedSurface, n_grid: int) -> Array:
    """The n_grid cell centres plus the boundary circles."""
    inner = [] if surface.cap else [surface.r_min]
    return np.concatenate([inner, surface.centers(n_grid), [surface.r_max]])


def friedrich_bound(surface: WarpedSurface, n_grid: int) -> float:
    """Friedrich's bound n/(4(n-1)) inf R, the infimum taken on _grid."""
    return FRIEDRICH * float(np.min(scalar_curvature(surface,
                                                     _grid(surface, n_grid))))


def _boundary_circles(surface: WarpedSurface) -> tuple:
    """Radius, mean curvature H and outward sign of each boundary circle."""
    bds = [boundary_data(surface, which) for which in surface.boundaries]
    return (np.array([bd.r_b for bd in bds]),
            np.array([bd.mean_curvature for bd in bds]),
            np.array([bd.outward_sign for bd in bds]))


def _feasibility_margin(H, a_b, du_e0, variant: str) -> float:
    """min of the margins from H, a and du(e0) on each boundary circle, one
    scalar operation at a time on the items given (floats, or an array's).
    As under np.min, a NaN margin is the result and a tie (0.0 and -0.0)
    goes to the later circle."""
    if variant == "interior":
        margins = [h - 2 * a * d for h, a, d in zip(H, a_b, du_e0)]
    elif variant == "conformal":
        margins = [h - (2 * a - DIM + 1) * d for h, a, d in zip(H, a_b, du_e0)]
    else:
        raise ValueError(f"unknown feasibility variant {variant!r}")
    low = margins[0]
    for m in margins[1:]:
        if low == low and not low < m:
            low = m
    return float(low)


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


def evaluate_bounds(spectrum, mp: ModifierPair | None = None,
                    mp_conformal: ModifierPair | None = None,
                    tol_report: float = TOL_REPORT,
                    optimizer_summary: dict | None = None) -> BoundReport:
    """Evaluate every applicable lower bound against lambda_min^2.

    The a = 0 baselines (classical curvature and energy-momentum bounds) are
    always included; modifier-dependent entries appear when pairs are given
    and are marked skipped when infeasible.  The energy-momentum bounds read
    the field of `spectrum.fundamental`.  Conformal entries carry pass/fail
    semantics under the local conditions only.
    """
    surface = spectrum.surface
    lam2 = spectrum.lambda_min_sq
    field = spectrum.fundamental.field
    rr = _grid(surface, spectrum.n_grid)
    entries: list[BoundEntry] = []

    margin0 = feasibility_margin(surface, ModifierPair(), "interior")
    feas0 = margin0 >= -TOL_FEAS
    friedrich = friedrich_bound(surface, spectrum.n_grid)
    entries.append(BoundEntry(
        "friedrich", friedrich, margin0, feas0,
        bool(lam2 >= friedrich - tol_report) if feas0 else None,
        "" if feas0 else "skipped (infeasible: H < 0 somewhere)"))

    q = identities.energy_momentum(field)
    r_ctr = scalar_curvature(surface, field.r)
    hq = float(np.min((r_ctr / 4.0 + q.norm_sq)[q.mask]))
    entries.append(BoundEntry(
        "hijazi_q", hq, margin0, feas0,
        bool(lam2 >= hq - tol_report) if feas0 else None,
        "" if feas0 else "skipped (infeasible)"))

    local_bc = spectrum.bc.is_local
    mpc = mp_conformal if mp_conformal is not None else mp
    for variant, pair in (("interior", mp), ("conformal", mpc)):
        if pair is None:
            continue
        names = _ESTIMATES[variant]
        margin = feasibility_margin(surface, pair, variant)
        judged = variant == "interior" or local_bc
        note = "" if judged else \
            "experimental: conformal bounds are stated for local conditions"
        if not margin >= -TOL_FEAS:
            skipped = (note + "; " if note else "") + "skipped (infeasible)"
            entries += [BoundEntry(name, None, margin, False, None, skipped)
                        for name in names]
            continue
        inf_curv = float(np.min(_curvature(variant, *_jets(surface, pair, rr))))
        curv_ctr = _curvature(variant, *_jets(surface, pair, field.r))
        values = [FRIEDRICH * inf_curv,
                  float(np.min((curv_ctr / 4.0 + q.norm_sq)[q.mask]))]
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
    basis = _Spline.not_a_knot(identities._modifier_knots(surface, n_ctrl),
                               np.eye(n_ctrl))
    rr = _grid(surface, n_grid)
    b0, b1, b2 = (basis(rr, nu) for nu in range(3))
    curv, fpf = scalar_curvature(surface, rr), surface.fp(rr) / surface.f(rr)
    r_b, H, sign = _boundary_circles(surface)
    rim0, rim1 = basis(r_b), basis(r_b, 1)
    H, sign = H.tolist(), sign.tolist()
    out = [np.empty(len(rr)) for _ in range(4)]

    def measure(params: Array) -> tuple[float, float]:
        pa, pu = params[:n_ctrl], params[n_ctrl:]
        value = _curvature(variant, curv, fpf, b0.dot(pa), b1.dot(pa),
                           b1.dot(pu), b2.dot(pu), out).min()
        du_e0 = [s * d for s, d in zip(sign, rim1.dot(pu).tolist())]
        return float(value), _feasibility_margin(H, rim0.dot(pa).tolist(),
                                                 du_e0, variant)

    return measure


class _BudgetSpent(Exception):
    """One Nelder-Mead run has made its maxfev evaluations."""


def _nelder_mead(func, simplex: Array, maxfev: int, xatol: float,
                 fatol: float) -> Array:
    """Minimize func from the initial simplex (N + 1 points, one per row);
    returns the best point.

    scipy 1.17's _minimize_neldermead step for step, and so evaluation for
    evaluation, with the options optimize_modifiers uses: the standard
    coefficients (not adaptive), no bounds, an initial simplex, maxfev and
    no iteration cap, xatol and fatol.  As under scipy.optimize.minimize,
    func gets a copy of each point, and a step that would exceed maxfev
    ends the run where it stands.  Stops when maxfev evaluations are spent,
    or when every vertex lies within xatol of the best and every value
    within fatol of its value.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    sim = np.array(simplex, dtype=float)
    N = sim.shape[1]
    fsim = np.full((N + 1,), np.inf, dtype=float)
    calls = 0

    def f(x: Array) -> float:
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return func(np.copy(x))

    try:
        for k in range(N + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    for _ in range(2):      # scipy sorts in a finally clause, then again
        ind = fsim.argsort()
        sim, fsim = sim[ind], fsim[ind]

    while calls < maxfev:
        try:
            if (abs(fsim[0] - fsim[1:]).max() <= fatol and
                    abs(sim[1:] - sim[0]).max() <= xatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = (1 + rho) * xbar - sim[-1]
            fxr = f(xr)
            doshrink = 0
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - chi * sim[-1]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    # outside contraction
                    xc = (1 + psi * rho) * xbar - psi * sim[-1]
                    fxc = f(xc)
                    if fxc <= fxr:
                        sim[-1], fsim[-1] = xc, fxc
                    else:
                        doshrink = 1
                else:
                    # inside contraction
                    xcc = (1 - psi) * xbar + psi * sim[-1]
                    fxcc = f(xcc)
                    if fxcc < fsim[-1]:
                        sim[-1], fsim[-1] = xcc, fxcc
                    else:
                        doshrink = 1
                if doshrink:
                    for j in range(1, N + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        ind = fsim.argsort()
        sim, fsim = sim[ind], fsim[ind]
    return sim[0]


def optimize_modifiers(surface: WarpedSurface, variant: str = "interior",
                       budget: int = 1200, n_ctrl: int = identities.N_CTRL,
                       n_grid: int = 256) -> OptimizerResult:
    """Maximize inf R_{a,u} (or inf R^_{a,u}) over spline modifier pairs.

    Nelder-Mead on the 2*n_ctrl spline coefficients, an infeasible point
    charged _PENALTY per unit of margin deficit; every evaluation runs on
    the spline basis that _basis_measure builds once per call.  The a = 0 baseline is always
    evaluated first and the returned pair can never be worse than it; if no
    feasible point shows up within the budget the baseline is returned with
    a flag.
    """
    if variant not in _ESTIMATES:
        raise ValueError(f"unknown optimizer variant {variant!r}")
    measure = _basis_measure(surface, variant, n_ctrl, n_grid)
    trace: list[TracePoint] = []

    def objective(params: Array) -> float:
        """The penalized cost of params, which it keeps in the trace: each
        point is the copy _nelder_mead made for this call, or x0."""
        value, margin = measure(params)
        trace.append(TracePoint(params, value, margin, margin >= -TOL_FEAS))
        return -value + _PENALTY * max(0.0, -margin)

    x0 = np.zeros(2 * n_ctrl)
    objective(x0)
    baseline = trace[0]

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
        _nelder_mead(objective, simplex, max(budget - len(trace), 1),
                     xatol=1e-8, fatol=1e-12)
        feas_now = [t for t in trace if t.feasible]
        if feas_now:
            incumbent = max(feas_now, key=lambda t: t.value).params
        restart += 1
        if restart > 200:  # pragma: no cover - budget should bind first
            break

    # the baseline is trace[0] and max keeps the first of equal values, so a
    # feasible baseline wins every tie
    feasible = [t for t in trace if t.feasible]
    best = max(feasible, key=lambda t: t.value) if feasible else baseline
    pair = ModifierPair.from_params(surface, best.params, n_ctrl)
    return OptimizerResult(pair, best.value, best.margin,
                           bool(feasible), not feasible, len(trace),
                           baseline.value, trace)
