"""Warped-product surfaces with boundary and their conformal rescalings.

A surface here is a surface of revolution M = [r_min, r_max] x S^1 with
metric dr^2 + f(r)^2 dtheta^2.  If f(r_min) = 0 and f'(r_min) = 1 the inner
end is a smooth pole ("cap") and only r = r_max is a boundary circle;
otherwise both ends are boundary circles.

Sign conventions used throughout the package (they matter):

* scalar curvature          R(r) = -2 f''(r) / f(r)
* the scalar Laplacian is POSITIVE:  Delta w = -(1/f) (f w')'
* mean curvature of a boundary circle is taken with the OUTWARD normal,
  H = s * f'(r_b) / f(r_b),  s = +1 at r_max and s = -1 at r_min,
  so the unit flat disk has H = 1 on its boundary (H = n/r on round
  spheres) and the unit hemisphere has H = 0.

A conformal rescaling g -> e^{2u} g with radial u stays inside the warped
class after the arclength reparametrization s(r) = int e^u dr, with new
profile f~(s) = e^{u(r)} f(r).  `conformal_rescale` builds the target
surface with analytic chain-rule derivatives, so transformation-law
residuals are limited only by roundoff for analytic profiles.  s(r) is
Gauss-Legendre quadrature on equal panels in r; its inverse r(s) runs a
Newton iteration, safeguarded by bisection inside each point's panel, on all
points at once, and agrees with a per-point brentq root to 1e-14 (1 + |r|).
"""

from __future__ import annotations

import ast
import math
import operator
import os
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import Polynomial
from scipy.interpolate import CubicSpline

Array = np.ndarray

_CAP_TOL = 1e-10

# The dimension n of the paper's formulas: every surface here has n = 2.
DIM = 2

# One-sided second-order stencils at a boundary circle, on the values at
# distances h/2, 3h/2, 5h/2 from it, nearest first: the boundary trace, and
# h times the derivative along the inward normal.  The trace is the companion
# of the slope that keeps the assembled Dirac operator exactly Hermitian.
TRACE_STENCIL = (2.0, -1.5, 0.5)
SLOPE_STENCIL = (-2.0, 3.0, -1.0)


def apply_stencil(stencil: tuple, near) -> Array:
    """sum_i stencil[i] near[i] over the three values nearest a boundary."""
    return stencil[0] * near[0] + stencil[1] * near[1] + stencil[2] * near[2]


class ConfigError(ValueError):
    """Invalid geometry/scenario specification."""


@dataclass(frozen=True)
class RadialFunction:
    """A real function of the radial coordinate with derivatives.

    Wraps value/derivative callables so that analytic profiles keep exact
    derivatives while sampled profiles fall back on spline differentiation.
    """

    value: Callable[[Array], Array]
    deriv: Callable[[Array], Array]
    deriv2: Callable[[Array], Array]
    deriv3: Callable[[Array], Array] | None = None

    def __call__(self, r) -> Array:
        r = np.asarray(r, dtype=float)
        return np.asarray(self.value(r), dtype=float) + np.zeros_like(r)

    def d(self, r) -> Array:
        r = np.asarray(r, dtype=float)
        return np.asarray(self.deriv(r), dtype=float) + np.zeros_like(r)

    def d2(self, r) -> Array:
        r = np.asarray(r, dtype=float)
        return np.asarray(self.deriv2(r), dtype=float) + np.zeros_like(r)

    def d3(self, r) -> Array:
        r = np.asarray(r, dtype=float)
        if self.deriv3 is not None:
            return np.asarray(self.deriv3(r), dtype=float) + np.zeros_like(r)
        eps = 1e-5 * (1.0 + np.max(np.abs(r)))
        return (self.d2(r + eps) - self.d2(r - eps)) / (2 * eps)

    @staticmethod
    def constant(c: float) -> "RadialFunction":
        return RadialFunction(lambda r: c + 0.0 * r,
                              lambda r: 0.0 * r,
                              lambda r: 0.0 * r,
                              lambda r: 0.0 * r)

    @staticmethod
    def from_poly(coeffs: Sequence[float]) -> "RadialFunction":
        """Polynomial in r, coefficients in ascending order."""
        p = Polynomial(list(coeffs))
        p1, p2, p3 = p.deriv(1), p.deriv(2), p.deriv(3)
        return RadialFunction(lambda r: p(r), lambda r: p1(r),
                              lambda r: p2(r), lambda r: p3(r))

    @staticmethod
    def from_samples(r: Array, y: Array) -> "RadialFunction":
        """Cubic-spline interpolant; derivative accuracy O(h^2)."""
        sp = CubicSpline(np.asarray(r, float), np.asarray(y, float))
        d1, d2, d3 = sp.derivative(1), sp.derivative(2), sp.derivative(3)
        return RadialFunction(sp, d1, d2, d3)


@dataclass(frozen=True)
class WarpedSurface:
    """Surface of revolution with metric dr^2 + f(r)^2 dtheta^2."""

    name: str
    r_min: float
    r_max: float
    profile: RadialFunction
    cap: bool
    spin_structure: str = "antiperiodic"
    profile_exact: bool = True  # False for spline-sampled profiles

    def __post_init__(self):
        if not self.r_max > self.r_min:
            raise ConfigError(f"empty radial interval [{self.r_min}, {self.r_max}]")
        if self.spin_structure not in ("antiperiodic", "periodic"):
            raise ConfigError(f"unknown spin structure {self.spin_structure!r}")
        if self.cap:
            if self.spin_structure != "antiperiodic":
                raise ConfigError("a cap forces the antiperiodic spin structure")
            f0 = float(self.profile(self.r_min))
            fp0 = float(self.profile.d(self.r_min))
            if abs(f0) > _CAP_TOL or abs(fp0 - 1.0) > _CAP_TOL:
                raise ConfigError(
                    f"cap requires f(r_min)=0, f'(r_min)=1; got {f0:.3e}, {fp0:.6f}")
        rs = np.linspace(self.r_min, self.r_max, 65)[1:-1]
        if np.any(self.profile(rs) <= 0):
            raise ConfigError("profile must be positive on the open interval")

    # -- metric data ---------------------------------------------------

    def f(self, r) -> Array:
        return self.profile(r)

    def fp(self, r) -> Array:
        return self.profile.d(r)

    def fpp(self, r) -> Array:
        return self.profile.d2(r)

    @property
    def length(self) -> float:
        return self.r_max - self.r_min

    @property
    def boundaries(self) -> tuple[str, ...]:
        return ("outer",) if self.cap else ("inner", "outer")

    def centers(self, n: int) -> Array:
        """Cell centres r_min + (j + 1/2) h, h = length / n, of the n-cell grid."""
        return self.r_min + (np.arange(n) + 0.5) * (self.length / n)


@dataclass(frozen=True)
class BoundaryData:
    """One boundary circle with outward-normal mean curvature."""

    boundary_id: str
    r_b: float
    radius: float           # f(r_b), the circumference / 2 pi
    mean_curvature: float   # H = sign * f'(r_b) / f(r_b)
    outward_sign: float     # +1 at r_max, -1 at r_min


def boundary_data(surface: WarpedSurface, boundary_id: str) -> BoundaryData:
    if boundary_id == "outer":
        r_b, sign = surface.r_max, 1.0
    elif boundary_id == "inner":
        if surface.cap:
            raise ConfigError("the cap pole is not a boundary")
        r_b, sign = surface.r_min, -1.0
    else:
        raise ConfigError(f"unknown boundary {boundary_id!r}")
    fb = float(surface.f(r_b))
    h = sign * float(surface.fp(r_b)) / fb
    return BoundaryData(boundary_id, r_b, fb, h, sign)


def scalar_curvature(surface: WarpedSurface, r) -> Array:
    """R(r) = -2 f''(r)/f(r); at a cap pole the limit -2 f'''(r_min)/f'(r_min)."""
    scalar = np.ndim(r) == 0
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r < surface.r_min - 1e-12) or np.any(r > surface.r_max + 1e-12):
        raise ConfigError("radius outside the surface domain")
    out = np.empty_like(r)
    tol = 1e-8 * surface.length
    near_pole = (np.abs(r - surface.r_min) < tol) if surface.cap else np.zeros(r.shape, bool)
    reg = ~near_pole
    out[reg] = -2.0 * surface.fpp(r[reg]) / surface.f(r[reg])
    if np.any(near_pole):
        f3 = float(surface.profile.d3(surface.r_min))
        out[near_pole] = -2.0 * f3 / float(surface.fp(surface.r_min))
    return float(out[0]) if scalar else out


def radial_laplacian(surface: WarpedSurface, w: RadialFunction, r) -> Array:
    """Positive scalar Laplacian of a radial function: -(1/f)(f w')' = -w'' - (f'/f) w'."""
    r = np.asarray(r, dtype=float)
    return -(w.d2(r) + surface.fp(r) / surface.f(r) * w.d(r))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _arithmetic(node: ast.AST) -> float:
    """Value of an expression tree in numbers, pi, + - * / and parentheses."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_arithmetic(node.left),
                                      _arithmetic(node.right))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_arithmetic(node.operand))
    raise ValueError(f"unsupported {type(node).__name__}")


def _parse_scalar(text: str) -> float:
    """Parse a finite number, or arithmetic in numbers and 'pi' with
    + - * / and parentheses (e.g. 'pi/3', '5*pi/12')."""
    try:
        value = float(text)
    except ValueError:
        try:
            value = _arithmetic(ast.parse(text.strip(), mode="eval").body)
        except (SyntaxError, ValueError, ArithmeticError,
                RecursionError) as exc:
            raise ConfigError(f"cannot parse scalar {text!r}: {exc}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"scalar {text!r} is not finite")
    return value


def _sphere_profile() -> RadialFunction:
    # written about r = pi/2 so the hemisphere's equator has exactly f' = 0
    return RadialFunction(lambda r: np.cos(r - np.pi / 2),
                          lambda r: -np.sin(r - np.pi / 2),
                          lambda r: -np.cos(r - np.pi / 2),
                          lambda r: np.sin(r - np.pi / 2))


def catalog() -> dict[str, str]:
    return {
        "hemisphere": "unit hemisphere f=sin r on [0, pi/2]; minimal boundary",
        "cap:<r1>": "spherical cap f=sin r on [0, r1], r1 < pi",
        "disk": "flat unit disk f=r on [0, 1]",
        "annulus:<r0>,<r1>": "flat annulus f=r on [r0, r1]",
        "cylinder:<L>": "flat cylinder f=1 on [0, L]",
        "profile:<path.csv>": "profile sampled from CSV columns r,f (spline derivatives)",
    }


def make_surface(spec: str, spin_structure: str = "antiperiodic") -> WarpedSurface:
    """Build a catalog surface from its textual name."""
    spec = spec.strip()
    if spec == "hemisphere":
        return WarpedSurface("hemisphere", 0.0, np.pi / 2, _sphere_profile(),
                             cap=True, spin_structure="antiperiodic")
    if spec.startswith("cap:"):
        r1 = _parse_scalar(spec[4:])
        if not 0.0 < r1 < np.pi:
            raise ConfigError("cap opening angle must lie in (0, pi)")
        return WarpedSurface(spec, 0.0, r1, _sphere_profile(),
                             cap=True, spin_structure="antiperiodic")
    if spec == "disk":
        prof = RadialFunction.from_poly([0.0, 1.0])
        return WarpedSurface("disk", 0.0, 1.0, prof, cap=True,
                             spin_structure="antiperiodic")
    if spec.startswith("annulus:"):
        parts = spec[len("annulus:"):].split(",")
        if len(parts) != 2:
            raise ConfigError("annulus spec is annulus:<r0>,<r1>")
        r0, r1 = (_parse_scalar(p) for p in parts)
        if not 0 < r0 < r1:
            raise ConfigError("annulus needs 0 < r0 < r1")
        prof = RadialFunction.from_poly([0.0, 1.0])
        return WarpedSurface(spec, r0, r1, prof, cap=False,
                             spin_structure=spin_structure)
    if spec.startswith("cylinder:"):
        L = _parse_scalar(spec[len("cylinder:"):])
        if L <= 0:
            raise ConfigError("cylinder length must be positive")
        prof = RadialFunction.constant(1.0)
        return WarpedSurface(spec, 0.0, L, prof, cap=False,
                             spin_structure=spin_structure)
    if spec.startswith("profile:") or spec.endswith(".csv"):
        path = spec[len("profile:"):] if spec.startswith("profile:") else spec
        if not os.path.exists(path):
            raise ConfigError(f"profile file not found: {path}")
        r, f = _load_profile(path)
        prof = RadialFunction.from_samples(r, f)
        cap = abs(f[0]) <= _CAP_TOL
        return WarpedSurface(os.path.basename(path), float(r[0]), float(r[-1]),
                             prof, cap=cap, spin_structure="antiperiodic" if cap
                             else spin_structure, profile_exact=False)
    raise ConfigError(f"unknown geometry {spec!r}; see `spinspec catalog`")


def _load_profile(path: str) -> tuple[Array, Array]:
    """Columns r, f of a profile CSV with an optional header line: exactly
    two numeric columns, at least 4 rows, finite values, radii strictly
    increasing."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")        # numpy's empty-file warning
            data = np.loadtxt(path, delimiter=",", ndmin=2,
                              skiprows=_csv_header_rows(path))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read profile {path}: {exc}") from exc
    if data.shape[0] < 4:
        raise ConfigError(f"profile {path} needs at least 4 rows r,f; "
                          f"found {data.shape[0]}")
    if data.shape[1] != 2:
        raise ConfigError(f"profile {path} needs two columns r,f; "
                          f"found {data.shape[1]}")
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"profile {path} holds a non-finite value")
    r, f = data[:, 0], data[:, 1]
    if np.any(np.diff(r) <= 0):
        raise ConfigError(f"profile {path}: radii must be strictly increasing")
    return r, f


def _csv_header_rows(path: str) -> int:
    with open(path) as fh:
        first = fh.readline()
    try:
        float(first.split(",")[0])
        return 0
    except ValueError:
        return 1


def parse_radial_spec(spec: str, r_min: float, r_max: float) -> RadialFunction:
    """Parse a conformal-factor / modifier spec string.

    Supported forms:
      const:<c>                constant c
      bump:<c>                 c*(1 - rhat^2) with rhat = (r - r_min)/(r_max - r_min)
      poly:<c0>,<c1>,...       polynomial in r with the given coefficients
    """
    spec = spec.strip()
    if spec.startswith("const:"):
        return RadialFunction.constant(_parse_scalar(spec[6:]))
    if spec.startswith("bump:"):
        c = _parse_scalar(spec[5:])
        L = r_max - r_min
        # c*(1 - ((r - r_min)/L)^2) expanded as a polynomial in r
        p = Polynomial([c]) - c * (Polynomial([-r_min / L, 1.0 / L])) ** 2
        return RadialFunction.from_poly(p.coef)
    if spec.startswith("poly:"):
        coeffs = [_parse_scalar(c) for c in spec[5:].split(",")]
        return RadialFunction.from_poly(coeffs)
    raise ConfigError(f"cannot parse radial function spec {spec!r}")


# ---------------------------------------------------------------------------
# conformal rescaling
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _panel_integral(fn, a: Array, b: Array) -> Array:
    """8-point Gauss-Legendre of fn over [a, b] (vectorized over panels)."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[..., None] + half[..., None] * _GL_NODES
    return half * (fn(x) @ _GL_WEIGHTS)


def _s_of_r_map(u: RadialFunction, edges_r: Array, edges_s: Array):
    eu = lambda x: np.exp(u(x))

    def s_of_r(r) -> Array:
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r1 = np.atleast_1d(r)
        idx = np.clip(np.searchsorted(edges_r, r1, side="right") - 1,
                      0, len(edges_r) - 2)
        s = edges_s[idx] + _panel_integral(eu, edges_r[idx], r1)
        return float(s[0]) if scalar else s

    return s_of_r


# Cap on the Newton sweeps of `r_of_s`.  Each rejected step bisects the
# point's bracket inside its panel, so the cap is far past roundoff; finite
# input stops after about three sweeps.
_NEWTON_SWEEPS = 60


def _r_of_s_map(u: RadialFunction, edges_r: Array, edges_s: Array):
    """Inverse of `_s_of_r_map`, vectorized over all points at once.

    Each point is bracketed by its panel [edges_r[j], edges_r[j+1]] and starts
    from the linear interpolant there; every sweep evaluates
    F = s(r) - s for all points, shrinks the brackets by the sign of F, and
    takes the Newton step r - F e^{-u(r)}, bisecting the bracket where that
    step leaves it.  The panel is the first whose right edge reaches s, so
    its arclength width is positive even where e^u is negligible.
    """
    smax = float(edges_s[-1])
    last = len(edges_s) - 2
    eu = lambda x: np.exp(u(x))

    def r_of_s(s) -> Array:
        s = np.asarray(s, dtype=float)
        if np.any(np.isnan(s)):
            raise ValueError("r_of_s: arclength is NaN")
        target = np.clip(np.atleast_1d(s).ravel(), 0.0, smax)
        j = np.clip(np.searchsorted(edges_s, target) - 1, 0, last)
        a, s_a = edges_r[j], edges_s[j]
        lo, hi = a, edges_r[j + 1]
        r = a + (target - s_a) / (edges_s[j + 1] - s_a) * (hi - a)
        for _ in range(_NEWTON_SWEEPS):
            F = s_a + _panel_integral(eu, a, r) - target
            lo = np.where(F < 0, r, lo)
            hi = np.where(F > 0, r, hi)
            step = r - F / eu(r)
            step = np.where((step < lo) | (step > hi), 0.5 * (lo + hi), step)
            tol = 1e-15 * (1.0 + np.abs(step))
            done = np.all((np.abs(step - r) <= tol) | (hi - lo <= tol))
            r = step
            if done:
                break
        return float(r[0]) if s.ndim == 0 else r.reshape(s.shape)

    return r_of_s


@dataclass(frozen=True)
class ConformalRescaling:
    """g -> e^{2u} g realized as a reparametrized warped surface."""

    source: WarpedSurface
    u: RadialFunction
    target: WarpedSurface
    _s_of_r: object
    _r_of_s: object

    def s_of_r(self, r) -> Array:
        return self._s_of_r(r)

    def r_of_s(self, s) -> Array:
        return self._r_of_s(s)

    def pullback(self, g: RadialFunction) -> RadialFunction:
        """Transport a radial function to the target arclength coordinate.

        Derivatives use d/ds = e^{-u} d/dr.
        """
        u, r_of_s = self.u, self._r_of_s

        def val(s):
            return g(r_of_s(s))

        def d1(s):
            r = r_of_s(s)
            return g.d(r) * np.exp(-u(r))

        def d2(s):
            r = r_of_s(s)
            return np.exp(-2 * u(r)) * (g.d2(r) - u.d(r) * g.d(r))

        return RadialFunction(val, d1, d2)


def _arclength_edges(surface: WarpedSurface, u: RadialFunction,
                     n_panels: int) -> tuple[Array, Array]:
    """Equal panels in r and the arclength s = int e^u dr at their edges."""
    edges_r = np.linspace(surface.r_min, surface.r_max, n_panels + 1)
    eu = lambda x: np.exp(u(x))
    with np.errstate(over="ignore", invalid="ignore"):
        panel = _panel_integral(eu, edges_r[:-1], edges_r[1:])
        edges_s = np.concatenate([[0.0], np.cumsum(panel)])
    if not (np.all(np.isfinite(edges_s)) and np.all(panel > 0)):
        raise ConfigError("conformal factor e^u is not finite and positive "
                          "on the surface")
    return edges_r, edges_s


def conformal_rescale(surface: WarpedSurface, u: RadialFunction,
                      n_panels: int = 512) -> ConformalRescaling:
    """Build the conformally rescaled surface e^{2u} g in warped form.

    The target's arclength coordinate s = int e^u dr is tabulated at the edges
    of `n_panels` equal panels in r.  r(s) is inverted for all requested s in
    one vectorized Newton iteration bracketed by each point's panel (a few
    sweeps; see `_r_of_s_map`), to 1e-14 (1 + |r|) of a per-point brentq root;
    s outside [0, s_max] is clamped and NaN raises ValueError.
    """
    edges_r, edges_s = _arclength_edges(surface, u, n_panels)
    s_of_r = _s_of_r_map(u, edges_r, edges_s)
    r_of_s = _r_of_s_map(u, edges_r, edges_s)

    # target profile in the arclength coordinate s, via chain rule
    def val(s):
        r = r_of_s(s)
        return np.exp(u(r)) * surface.f(r)

    def d1(s):
        r = r_of_s(s)
        return u.d(r) * surface.f(r) + surface.fp(r)

    def d2(s):
        r = r_of_s(s)
        g = (u.d2(r) * surface.f(r) + u.d(r) * surface.fp(r) + surface.fpp(r))
        return np.exp(-u(r)) * g

    def d3(s):
        r = r_of_s(s)
        up, upp, uppp = u.d(r), u.d2(r), u.d3(r)
        f, fp, fpp, fppp = (surface.f(r), surface.fp(r), surface.fpp(r),
                            surface.profile.d3(r))
        g = upp * f + up * fp + fpp
        gp = uppp * f + 2 * upp * fp + up * fpp + fppp
        return np.exp(-2 * u(r)) * (gp - up * g)

    prof = RadialFunction(val, d1, d2, d3)
    target = WarpedSurface(surface.name + "|conformal", 0.0, float(edges_s[-1]),
                           prof, cap=surface.cap,
                           spin_structure=surface.spin_structure,
                           profile_exact=surface.profile_exact)
    return ConformalRescaling(surface, u, target, s_of_r, r_of_s)


def conformal_law_residuals(resc: ConformalRescaling, r: Array) -> dict:
    """Residuals of the n=2 conformal transformation laws, both sides computed
    by independent code paths (target-surface geometry vs source-side formula).

    At n = 2 the laws read R-bar e^{2u} = R + 2 Delta u, Delta-bar u =
    e^{-2u} Delta u (the |du|^2 term carries the dimensional factor n - 2 and
    drops out), and H-bar = e^{-u} (H + du(e0)).
    """
    src, u = resc.source, resc.u
    r = np.asarray(r, dtype=float)
    s = resc.s_of_r(r)
    eu = np.exp(u(r))

    lap_u = radial_laplacian(src, u, r)
    r_bar = scalar_curvature(resc.target, s)
    res_curv = r_bar * eu ** 2 - (scalar_curvature(src, r) + 2.0 * lap_u)

    u_t = resc.pullback(u)
    lap_bar_u = radial_laplacian(resc.target, u_t, s)
    res_lap = lap_bar_u - np.exp(-2 * u(r)) * lap_u

    res_h = {}
    for which in src.boundaries:
        bd = boundary_data(src, which)
        bd_t = boundary_data(resc.target, which)
        du_e0 = bd.outward_sign * float(u.d(bd.r_b))
        res_h[which] = bd_t.mean_curvature - float(np.exp(-u(bd.r_b))) * (
            bd.mean_curvature + du_e0)

    return {"curvature": res_curv, "laplacian": res_lap, "mean_curvature": res_h}
