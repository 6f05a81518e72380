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
residuals are limited only by roundoff for analytic profiles.  The map is
one `ConformalRescaling`: source, u, target and the table of s at the edges
of equal panels in r.  s(r) is Gauss-Legendre quadrature on those panels
(`_arclength`); its inverse r(s) (`_arclength_inverse`) runs a Newton
iteration, safeguarded by bisection inside each point's panel, on all
points at once, and agrees with a per-point brentq root to 1e-14 (1 + |r|).
`ConformalRescaling.r_of_s` is its one caller, a memo of the last few
inputs that the target profile, `pullback` and the conformal push share.

Sampled profiles are interpolated by `_Spline`, the not-a-knot cubic, bit
for bit scipy's CubicSpline; its one linear solve is LAPACK's gtsv
(`_lapack.solve_tridiagonal`).  spinspec loads no scipy module.
"""

from __future__ import annotations

import ast
import functools
import math
import operator
import os
import stat
import warnings
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import Polynomial

from ._lapack import solve_tridiagonal

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

    def __call__(self, r) -> Array:
        r = np.asarray(r, dtype=float)
        return np.asarray(self.value(r), dtype=float) + np.zeros_like(r)

    def d(self, r) -> Array:
        r = np.asarray(r, dtype=float)
        return np.asarray(self.deriv(r), dtype=float) + np.zeros_like(r)

    def d2(self, r) -> Array:
        r = np.asarray(r, dtype=float)
        return np.asarray(self.deriv2(r), dtype=float) + np.zeros_like(r)

    @staticmethod
    def constant(c: float) -> "RadialFunction":
        return RadialFunction(lambda r: c + 0.0 * r,
                              lambda r: 0.0 * r,
                              lambda r: 0.0 * r)

    @staticmethod
    def from_poly(coeffs: Sequence[float]) -> "RadialFunction":
        """Polynomial in r, coefficients in ascending order."""
        p = Polynomial(list(coeffs))
        p1, p2 = p.deriv(1), p.deriv(2)
        return RadialFunction(lambda r: p(r), lambda r: p1(r), lambda r: p2(r))

    @staticmethod
    def from_samples(r: Array, y: Array) -> "RadialFunction":
        """Cubic-spline interpolant; derivative accuracy O(h^2)."""
        sp = _Spline.not_a_knot(r, np.asarray(y, float))
        return RadialFunction(sp, sp.derivative(1), sp.derivative(2))


@dataclass(frozen=True)
class _Spline:
    """Piecewise polynomial on the knots x: on [x[i], x[i+1]) it is
    sum_j c[j, i] (r - x[i])^(K-1-j), K = len(c); the end cells extend past
    the first and last knot.  Values may be real or complex, with any
    trailing shape after the two leading axes of c.

    `not_a_knot` is the interpolating cubic with the not-a-knot ends
    (de Boor, A Practical Guide to Splines, ch. IV).  Construction and
    evaluation do scipy's CubicSpline / PPoly arithmetic operation for
    operation (scipy 1.17), so the two agree bit for bit
    (tests/test_geometry.py holds scipy as the oracle).
    """

    x: Array
    c: Array

    @staticmethod
    def not_a_knot(x, y) -> "_Spline":
        """The spline through (x[i], y[i]), y along axis 0: at least 4
        strictly increasing finite knots, finite values."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y)
        y = y.astype(complex if np.iscomplexobj(y) else float, copy=False)
        n = len(x)
        if n < 4 or y.shape[0] != n:
            raise ValueError("a spline needs at least 4 knots, one value each")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("spline knots and values must be finite")
        dx = np.diff(x)
        if np.any(dx <= 0):
            raise ValueError("spline knots must be strictly increasing")
        dxr = dx.reshape([n - 1] + [1] * (y.ndim - 1))
        slope = np.diff(y, axis=0) / dxr
        # slopes s[i] at the knots: the (3, n) band of the C^2 conditions
        A = np.zeros((3, n))
        b = np.empty((n,) + y.shape[1:], dtype=y.dtype)
        A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
        A[0, 2:] = dx[:-1]
        A[-1, :-2] = dx[1:]
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        # not-a-knot: the third derivative is continuous at x[1] and x[-2]
        A[1, 0] = dx[1]
        A[0, 1] = x[2] - x[0]
        d = x[2] - x[0]
        b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0]
                + dxr[0] ** 2 * slope[1]) / d
        A[1, -1] = dx[-2]
        A[-1, -2] = x[-1] - x[-3]
        d = x[-1] - x[-3]
        b[-1] = ((dxr[-1] ** 2 * slope[-2]
                  + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d)
        s = solve_tridiagonal(A, b.reshape(n, -1)).reshape(b.shape)
        # the cubic Hermite cells through (y, s)
        t = (s[:-1] + s[1:] - 2 * slope) / dxr
        c = np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))
        return _Spline(x, c)

    def derivative(self, nu: int = 1) -> "_Spline":
        """The nu-th derivative, a piecewise polynomial of order K - nu."""
        K = len(self.c)
        c = self.c[:K - nu].copy()
        factor = np.array([math.perm(K - 1 - j, nu) for j in range(len(c))],
                          dtype=float)
        c *= factor[(slice(None),) + (None,) * (c.ndim - 1)]
        return _Spline(self.x, c)

    def __call__(self, r, nu: int = 0) -> Array:
        """The nu-th derivative at the points r, shape r.shape + values'
        trailing shape: over the cell x[i] <= r < x[i+1] (the end cells past
        the ends), the power sum of c[K-1-p, i] z_p p!/(p-nu)! for p >= nu,
        added in that order, with z_nu = 1 and z_(p+1) = z_p (r - x[i])."""
        r = np.asarray(r, dtype=float)
        rf = r.ravel()
        # the count of interior knots <= r: the cell, clamped to the ends
        i = self.x[1:-1].searchsorted(rf, "right")
        K, tail = len(self.c), (1,) * (self.c.ndim - 2)
        s = (rf - self.x.take(i)).reshape((len(rf),) + tail)
        cg = self.c.take(i, axis=1)
        res = np.zeros(s.shape, dtype=self.c.dtype)
        z = 1.0
        for p in range(nu, K):
            if p > nu:
                z = z * s
            res = res + cg[K - 1 - p] * z * float(math.perm(p, nu))
        return res.reshape(r.shape + self.c.shape[2:])


@dataclass(frozen=True)
class WarpedSurface:
    """Surface of revolution with metric dr^2 + f(r)^2 dtheta^2."""

    name: str
    r_min: float
    r_max: float
    profile: RadialFunction
    cap: bool
    spin_structure: str = "antiperiodic"

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
        f = self.profile(np.linspace(self.r_min, self.r_max, 65)[1:-1])
        if not np.all((f > 0) & np.isfinite(f)):
            raise ConfigError("profile must be positive and finite on (r_min, r_max)")

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

    def grid_samples(self, n: int) -> tuple:
        """The k-free profile samples of the n-cell grid that the Dirac
        assembly reads for every mode, each computed as the assembly would:
        f at the centres and at the vertices r_min + i h, f'/2f and f'/2 at
        the centres (read-only), and (f, f') at r_min and at r_max."""
        rc = self.centers(n)
        fc, fpc = self.f(rc), self.fp(rc)
        fv = self.f(self.r_min + np.arange(n + 1) * (self.length / n))
        out = (fc, fv, fpc / (2 * fc), fpc / 2)
        for a in out:
            a.flags.writeable = False
        return out + tuple((self.f(r), self.fp(r))
                           for r in (self.r_min, self.r_max))

    def off_surface(self, r) -> bool:
        """Whether a radius r passes an end by more than roundoff: 1e-12 of
        the length plus four ulps of the larger end radius."""
        big = max(abs(self.r_min), abs(self.r_max))
        slack = 1e-12 * self.length + 4 * np.spacing(big)
        return bool(np.any((r < self.r_min - slack) | (r > self.r_max + slack)))


def _check_mode(surface: WarpedSurface, k: float) -> None:
    """ConfigError unless k is a wave number of the surface's spin structure."""
    two_k = 2 * k
    if abs(two_k - round(two_k)) > 1e-12:
        raise ConfigError(f"mode {k} is not half-integral")
    odd = int(round(two_k)) % 2 != 0
    if surface.spin_structure == "antiperiodic" and not odd:
        raise ConfigError(f"mode {k} incompatible with the "
                          "antiperiodic spin structure")
    if surface.spin_structure == "periodic" and odd:
        raise ConfigError(f"mode {k} incompatible with the "
                          "periodic spin structure")


def modes_for(surface: WarpedSurface, k_max: float) -> list[float]:
    """All admissible wave numbers with |k| <= k_max."""
    if surface.spin_structure == "antiperiodic":
        pos = np.arange(0.5, k_max + 1e-9, 1.0)
        if len(pos) == 0:
            raise ConfigError("k_max below the lowest antiperiodic mode 1/2")
        return sorted(np.concatenate([-pos, pos]).tolist())
    n = int(np.floor(k_max + 1e-9))
    return sorted(np.arange(-n, n + 1).astype(float).tolist())


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
    """R(r) = -2 f''(r)/f(r).  A cap's pole r <= r_min, where f vanishes, is
    refused like any radius off the surface: the scheme never samples it."""
    scalar = np.ndim(r) == 0
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if surface.off_surface(r):
        raise ConfigError("radius outside the surface domain")
    if surface.cap and np.any(r <= surface.r_min):
        raise ConfigError("no scalar curvature at the cap pole, where f = 0")
    out = -2.0 * surface.fpp(r) / surface.f(r)
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
                          lambda r: -np.cos(r - np.pi / 2))


def catalog() -> dict[str, str]:
    return {
        "hemisphere": "unit hemisphere f=sin r on [0, pi/2]; minimal boundary",
        "cap:<r1>": "spherical cap f=sin r on [0, r1], r1 < pi",
        "disk": "flat unit disk f=r on [0, 1]",
        "annulus:<r0>,<r1>": "flat annulus f=r on [r0, r1]",
        "cylinder:<L>": "flat cylinder f=1 on [0, L]",
        "profile:<path.csv>": "profile sampled from CSV columns r,f (spline derivatives)",
    }


# The largest profile CSV read (docs/formats.md): about 100k rows r,f at full
# precision, far more than a spline profile needs.
MAX_PROFILE_BYTES = 4 * 2 ** 20


def check_input_file(path: str, what: str, cap: int) -> None:
    """ConfigError unless `path` is a regular file of at most `cap` bytes,
    checked without opening it: a named pipe or a device would block or
    never end."""
    try:
        info = os.stat(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:   # a NUL byte, or a lone surrogate from a config
        raise ConfigError(f"{what} path {path!r} is not a file name") from exc
    if not stat.S_ISREG(info.st_mode):
        raise ConfigError(f"{what} {path} is not a regular file")
    if info.st_size > cap:
        raise ConfigError(f"{what} {path} holds {info.st_size} bytes; the cap "
                          f"is {cap}")


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
        check_input_file(path, "profile", MAX_PROFILE_BYTES)
        r, f = _load_profile(path)
        prof = RadialFunction.from_samples(r, f)
        cap = abs(f[0]) <= _CAP_TOL
        return WarpedSurface(os.path.basename(path), float(r[0]), float(r[-1]),
                             prof, cap=cap, spin_structure="antiperiodic" if cap
                             else spin_structure)
    raise ConfigError(f"unknown geometry {spec!r}; see `spinspec catalog`")


def _load_profile(path: str) -> tuple[Array, Array]:
    """Columns r, f of a UTF-8 profile CSV (a byte-order mark is skipped)
    with an optional header line: exactly two numeric columns, at least 4
    rows, finite values, radii strictly increasing."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")        # numpy's empty-file warning
            data = np.loadtxt(path, delimiter=",", ndmin=2,
                              skiprows=_csv_header_rows(path),
                              encoding="utf-8-sig")
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
    with open(path, encoding="utf-8-sig") as fh:
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


def _panel_nodes(a: Array, b: Array) -> tuple[Array, Array]:
    """8-point Gauss-Legendre nodes (..., 8) of the panels [a, b] and the
    panels' half widths."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid[..., None] + half[..., None] * _GL_NODES, half


def _panel_integral(fn, a: Array, b: Array) -> Array:
    """8-point Gauss-Legendre of fn over [a, b] (vectorized over panels)."""
    x, half = _panel_nodes(a, b)
    return half * (fn(x) @ _GL_WEIGHTS)


def _arclength(u: RadialFunction, edges_r: Array, edges_s: Array,
               r) -> Array:
    """s = int e^u dr: the table at r's panel's left edge plus one quadrature."""
    r = np.asarray(r, dtype=float)
    r1 = np.atleast_1d(r)
    idx = np.clip(np.searchsorted(edges_r, r1, side="right") - 1,
                  0, len(edges_r) - 2)
    s = edges_s[idx] + _panel_integral(lambda x: np.exp(u(x)), edges_r[idx], r1)
    return float(s[0]) if r.ndim == 0 else s


# Cap on the Newton sweeps of `_arclength_inverse`.  Each rejected step
# bisects the point's bracket inside its panel, so the cap is far past
# roundoff; finite input stops after about three sweeps.
_NEWTON_SWEEPS = 60


def _arclength_inverse(u: RadialFunction, edges_r: Array, edges_s: Array,
                       s: Array) -> Array:
    """Inverse of `_arclength` at the float array s (a float r where s is
    0-d), vectorized over all points at once; its caller is the memo of
    `ConformalRescaling.r_of_s`.

    Each point is bracketed by its panel [edges_r[j], edges_r[j+1]] and starts
    from the linear interpolant there; every sweep evaluates
    F = s(r) - s for all points, shrinks the brackets by the sign of F, and
    takes the Newton step r - F e^{-u(r)}, bisecting the bracket where that
    step leaves it.  The panel is the first whose right edge reaches s, so
    its arclength width is positive even where e^u is negligible.
    """
    eu = lambda x: np.exp(u(x))
    if np.any(np.isnan(s)):
        raise ValueError("r_of_s: arclength is NaN")
    target = np.clip(np.atleast_1d(s).ravel(), 0.0, float(edges_s[-1]))
    j = np.clip(np.searchsorted(edges_s, target) - 1, 0, len(edges_s) - 2)
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


_R_MEMO = 3         # r(s) inversions a rescaling keeps


@dataclass(frozen=True)
class ConformalRescaling:
    """g -> e^{2u} g realized as a reparametrized warped surface, with the
    arclength s = int e^u dr of the panel edges `edges_r` in `edges_s`.

    It owns the only inversion r(s): `r_of_s` keeps the last `_R_MEMO`
    distinct s (by exact shape and bytes) and returns read-only arrays, so
    the target profile, `pullback` and the conformal push read one r(s).
    """

    source: WarpedSurface
    u: RadialFunction
    edges_r: Array
    edges_s: Array
    target: WarpedSurface = dc_field(init=False)

    def __post_init__(self):
        # thread-safe lru_cache: full_spectra's pool may evaluate the profile
        @functools.lru_cache(maxsize=_R_MEMO)
        def inverse(shape: tuple, data: bytes) -> Array:
            r = _arclength_inverse(self.u, self.edges_r, self.edges_s,
                                   np.frombuffer(data).reshape(shape))
            if shape:
                r.flags.writeable = False
            return r

        object.__setattr__(self, "_inverse", inverse)
        src, u = self.source, self.u
        # target profile in the arclength coordinate s, via chain rule
        prof = self._in_s(
            lambda r: np.exp(u(r)) * src.f(r),
            lambda r: u.d(r) * src.f(r) + src.fp(r),
            lambda r: np.exp(-u(r)) * (u.d2(r) * src.f(r) + u.d(r) * src.fp(r)
                                       + src.fpp(r)))
        object.__setattr__(self, "target", WarpedSurface(
            src.name + "|conformal", 0.0, float(self.edges_s[-1]), prof,
            cap=src.cap, spin_structure=src.spin_structure))

    def s_of_r(self, r) -> Array:
        return _arclength(self.u, self.edges_r, self.edges_s, r)

    def r_of_s(self, s) -> Array:
        s = np.asarray(s, dtype=float)
        return self._inverse(s.shape, s.tobytes())

    def _in_s(self, val, d1, d2) -> RadialFunction:
        """The function of s whose value and first two s-derivatives are the
        functions val, d1 and d2 of r, taken at r(s)."""
        r_of_s = self.r_of_s
        return RadialFunction(lambda s: val(r_of_s(s)), lambda s: d1(r_of_s(s)),
                              lambda s: d2(r_of_s(s)))

    def pullback(self, g: RadialFunction) -> RadialFunction:
        """Transport a radial function to the target arclength coordinate.

        Derivatives use d/ds = e^{-u} d/dr.
        """
        u = self.u
        return self._in_s(
            g, lambda r: g.d(r) * np.exp(-u(r)),
            lambda r: np.exp(-2 * u(r)) * (g.d2(r) - u.d(r) * g.d(r)))


# The rescaled surface is computed with e^{+-u} and e^{+-2u} (the target
# profile's derivatives, the conformal laws), so |2u| must stay below the
# log of the largest double.  And e^{2u} must vary by less than 1/eps over
# the surface: past that the short end of the rescaled surface falls below
# the roundoff of its long end, and its arclength table and curvature no
# longer resolve it.
_LOG_MAX = float(np.log(np.finfo(float).max))
_LOG_INV_EPS = float(-np.log(np.finfo(float).eps))

# The conformal laws (`conformal_law_residuals`) hold to LAW_TOL on an
# analytic profile as far as roundoff allows.  Their residuals carry about
# eps times the terms they compare, max(1, e^{-2u}) (|R| + |u''| + u'^2 +
# |f'u'/f|) inside and e^{-u} (|H| + |u'|) on a boundary circle, plus the
# position error eps s e^{-u} of the arclength coordinate times the rate at
# which those terms vary.  A factor whose estimate, taken at the quadrature
# nodes, passes LAW_TOL / _LAW_SAFETY is refused.  On poly and bump factors
# over caps, annuli and cylinders the measured residuals stayed within 12
# times the estimate.  A sampled (`profile:`) surface is a cubic spline,
# whose f''' jumps at the knots, which the estimate does not model; both
# sides of each law read the same spline, and on sampled profiles under
# bump, poly and const factors (N 64 to 1024) the residuals measured at
# most 5.3e-15, so `verify` holds them to LAW_TOL as well.
LAW_TOL = 1e-8
_LAW_SAFETY = 16.0


def _law_roundoff(surface: WarpedSurface, u: RadialFunction, x: Array,
                  ux: Array, s_x: Array) -> float:
    """Estimated roundoff of the conformal-law residuals, in units of eps,
    from u and the arclength s_x at the nodes x."""
    length = surface.length
    du = u.d(x)
    terms = np.maximum(1.0, np.exp(-2 * ux)) * (
        np.abs(scalar_curvature(surface, x)) + np.abs(u.d2(x)) + du ** 2
        + np.abs(surface.fp(x) / surface.f(x) * du))
    rate = 1 / (x - surface.r_min) + 2 * np.abs(du) + 1 / length
    est = float(np.max(terms * (1 + s_x * np.exp(-ux) * rate)))
    for which in surface.boundaries:
        bd = boundary_data(surface, which)
        ub, dub = float(u(bd.r_b)), float(u.d(bd.r_b))
        s_b = float(np.max(s_x)) if which == "outer" else 0.0
        rate_b = 2 * abs(dub) + abs(bd.mean_curvature) + 1 / length
        est = max(est, np.exp(-ub) * (abs(bd.mean_curvature) + abs(dub))
                  * (1 + s_b * np.exp(-ub) * rate_b))
    return est


def _arclength_edges(surface: WarpedSurface, u: RadialFunction,
                     n_panels: int) -> tuple[Array, Array]:
    """Equal panels in r and the arclength s = int e^u dr at their edges.

    u is checked at the quadrature nodes: e^{+-2u} must be finite there,
    e^{2u} must vary by less than 1/eps, and the conformal laws must be
    resolvable to LAW_TOL (`_law_roundoff`), else ConfigError."""
    edges_r = np.linspace(surface.r_min, surface.r_max, n_panels + 1)
    x, half = _panel_nodes(edges_r[:-1], edges_r[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        ux = u(x)
    if not np.all(np.isfinite(ux)):
        raise ConfigError("conformal factor u is not finite on the surface")
    lo, hi = float(np.min(ux)), float(np.max(ux))
    if 2 * max(hi, -lo) > _LOG_MAX or 2 * (hi - lo) > _LOG_INV_EPS:
        raise ConfigError(
            f"conformal factor u ranges over [{lo:.6g}, {hi:.6g}] on the "
            f"surface; e^(2u) must stay in double range and vary by less than "
            f"e^{_LOG_INV_EPS:.4g} = 1/eps")
    panel = half * (np.exp(ux) @ _GL_WEIGHTS)
    edges_s = np.concatenate([[0.0], np.cumsum(panel)])
    # s at the nodes, e^u taken constant across the rest of each panel
    s_x = edges_s[:-1, None] + (x - edges_r[:-1, None]) * np.exp(ux)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        roundoff = np.finfo(float).eps * _law_roundoff(surface, u, x, ux, s_x)
    if not roundoff <= LAW_TOL / _LAW_SAFETY:
        raise ConfigError(
            f"conformal factor u is too strong for {surface.name}: the "
            f"conformal laws of the rescaled surface carry an estimated "
            f"roundoff of {roundoff:.3g}, above {LAW_TOL:g} / {_LAW_SAFETY:g}")
    return edges_r, edges_s


_N_PANELS = 512     # equal panels in r of the arclength table


def conformal_rescale(surface: WarpedSurface,
                      u: RadialFunction) -> ConformalRescaling:
    """Build the conformally rescaled surface e^{2u} g in warped form.

    The target's arclength coordinate s = int e^u dr is tabulated at the edges
    of `_N_PANELS` equal panels in r.  r(s) is inverted for all requested s in
    one vectorized Newton iteration bracketed by each point's panel (a few
    sweeps; see `_arclength_inverse`), to 1e-14 (1 + |r|) of a per-point
    brentq root; s outside [0, s_max] is clamped and NaN raises ValueError.
    The target profile and its two derivatives read r(s) from the
    rescaling's memo (`ConformalRescaling.r_of_s`).
    """
    return ConformalRescaling(surface, u, *_arclength_edges(surface, u, _N_PANELS))


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
