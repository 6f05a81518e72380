"""Numerical verification of the integral and pointwise spinor identities.

All operations work on `SpinorField`: a single Fourier mode of a spinor on a
warped surface, stored as a complex 2-vector per cell-centered radial node
together with its boundary traces.  Radial derivatives are 2nd-order
(centered in the interior, one-sided at the ends), volume integrals are
trapezoidal with weight 2*pi*f(r), and boundary integrals are 2*pi*f(r_b)
times the trace value, so every residual here shrinks at O(h^2) for smooth
data.

Conventions: the eigenvalue may be a constant or a radial function (needed
after conformal rescaling, where D-bar psi-bar = lam e^{-u} psi-bar), the
energy-momentum tensor and the Killing residual are only evaluated where
|phi|^2 stays above a relative floor (zero-set exclusion, reported, never
regularized).  An eigenspinor is pushed to a conformally rescaled surface
once (`conformal_push`); the record it returns carries the pushed field and
its eigenvalue, and eq3/eq4 read it.

It also holds what the identities share with the bounds: the modifier pair
(a, u) of the twisted connection, its curvatures R_{a,u} and R^_{a,u}
(formulas in `bounds`), and the boundary operator e0 . D^bd.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .geometry import (DIM, SLOPE_STENCIL, ConformalRescaling, RadialFunction,
                       WarpedSurface, _check_mode, _Spline, apply_stencil,
                       boundary_data, scalar_curvature)
from .spin_algebra import FRAME

Array = np.ndarray

EPS_ZERO_REL = 1e-8  # zero-set exclusion threshold, relative to max |phi|^2

_ZERO = RadialFunction.constant(0.0)


class VanishingSpinorError(ValueError):
    pass


@dataclass
class SpinorField:
    """One Fourier mode of a spinor field on the cell-centered radial grid.

    `d_values` may carry the analytic radial derivative for fields built
    from closed forms; discrete differentiation is the fallback.
    """

    surface: WarpedSurface
    k: float
    r: Array                     # cell centers, uniform
    values: Array                # (N, 2) complex
    traces: dict = dc_field(default_factory=dict)  # boundary_id -> (2,)
    d_values: Array | None = None

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (len(self.r), 2):
            raise ValueError("values must have shape (N, 2)")
        if self.d_values is not None:
            self.d_values = np.asarray(self.d_values, dtype=complex)

    @property
    def h(self) -> float:
        return float(self.r[1] - self.r[0])

    @property
    def n_grid(self) -> int:
        return len(self.r)

    def trace(self, boundary_id: str) -> Array:
        """The stored boundary trace (KeyError if there is none)."""
        return np.asarray(self.traces[boundary_id], dtype=complex)


# ---------------------------------------------------------------------------
# discrete calculus on a field
# ---------------------------------------------------------------------------

def _radial_derivative(field: SpinorField, vals: Array) -> Array:
    """d/dr at the cell centers: centered interior, 2nd-order one-sided ends.

    End stencils use grid values only; trace-based stencils would degenerate
    to first order whenever the stored trace is itself an extrapolation.
    """
    h = field.h
    out = np.empty_like(vals)
    out[1:-1] = (vals[2:] - vals[:-2]) / (2 * h)
    out[0] = (-3 * vals[0] + 4 * vals[1] - vals[2]) / (2 * h)
    out[-1] = (3 * vals[-1] - 4 * vals[-2] + vals[-3]) / (2 * h)
    return out


def _apply_matrix(vals: Array, m: Array) -> Array:
    """Apply a 2x2 matrix to every row of (N, 2) values."""
    return vals @ m.T


def _tangential(k: float, f, fp, values: Array) -> Array:
    """nabla_2 = (ik/f) + (f'/2f) G1 G2 on spinor values (one per row), in
    the adapted frame; f and f' broadcast against the rows."""
    return (1j * k / f) * values \
        + (fp / (2 * f)) * _apply_matrix(values, FRAME.volume)


def spinor_gradient(field: SpinorField) -> tuple[Array, Array]:
    """Covariant derivative components (nabla_1 phi, nabla_2 phi) at centers,
    nabla_1 = d/dr and nabla_2 the tangential derivative."""
    f = field.surface.f(field.r)
    fp = field.surface.fp(field.r)
    g1 = field.d_values if field.d_values is not None \
        else _radial_derivative(field, field.values)
    return g1, _tangential(field.k, f[:, None], fp[:, None], field.values)


def _dirac(g1: Array, g2: Array) -> Array:
    """e^1 . g1 + e^2 . g2 on gradient components (one spinor per row)."""
    return _apply_matrix(g1, FRAME.g1) + _apply_matrix(g2, FRAME.g2)


def apply_dirac(field: SpinorField) -> Array:
    """D phi = e^1 . nabla_1 phi + e^2 . nabla_2 phi at the cell centers."""
    return _dirac(*spinor_gradient(field))


def boundary_gradient(field: SpinorField, boundary_id: str) -> tuple[Array, Array]:
    """(nabla_1 phi, nabla_2 phi) at one boundary circle: nabla_1 from the
    one-sided slope stencil on the grid values, nabla_2 on the trace."""
    v = field.values
    if boundary_id == "outer":
        g1 = -apply_stencil(SLOPE_STENCIL, v[:-4:-1]) / field.h
    else:
        g1 = apply_stencil(SLOPE_STENCIL, v[:3]) / field.h
    bd = boundary_data(field.surface, boundary_id)
    fp_b = float(field.surface.fp(bd.r_b))
    return g1, _tangential(field.k, bd.radius, fp_b, field.trace(boundary_id))


def boundary_dirac_matrix(surface: WarpedSurface, boundary_id: str,
                          k: float) -> tuple[Array, Array]:
    """2x2 matrices of D^boundary and e0 . D^boundary at one mode.

    On the circle of radius f_b the intrinsic boundary Dirac operator of the
    mode is (ik/f_b) e^2 . ; Clifford action of the outward normal gives the
    self-adjoint e0 . D^boundary, whose eigenvalues are +-k/f_b.
    """
    _check_mode(surface, k)
    bd = boundary_data(surface, boundary_id)
    d_bnd = (1j * k / bd.radius) * FRAME.g2
    e0 = FRAME.covector((bd.outward_sign, 0.0))
    return d_bnd, e0 @ d_bnd


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def volume_integral(field: SpinorField, integrand: Array,
                    boundary_values: dict | None = None) -> float:
    """∫_M g dv = 2 pi ∫ g(r) f(r) dr, trapezoidal on centers + boundary nodes.

    `boundary_values` optionally supplies the integrand at r_min / r_max
    ("inner"/"outer"); missing entries are extrapolated.  At a cap pole the
    weight f vanishes, so that endpoint contributes exactly zero.
    """
    surf = field.surface
    g = np.asarray(integrand, dtype=float)
    bv = boundary_values or {}

    def endpoint(which: str, i0: int, i1: int) -> float:
        if which == "inner" and surf.cap:
            return 0.0  # f(r_min) = 0 kills the integrand
        if which in bv:
            return float(bv[which])
        return 1.5 * g[i0] - 0.5 * g[i1]

    r_ext = np.concatenate([[surf.r_min], field.r, [surf.r_max]])
    w_ext = surf.f(r_ext)
    if surf.cap:
        w_ext[0] = 0.0
    y = np.concatenate([[endpoint("inner", 0, 1)], g, [endpoint("outer", -1, -2)]])
    return 2 * np.pi * float(np.trapezoid(y * w_ext, r_ext))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class IdentityReport:
    name: str
    left: float
    right: float | None               # None: a diagnostic, no residual
    n_grid: int
    expected_order: float | None = None
    extra: dict = dc_field(default_factory=dict)

    @property
    def residual(self) -> float | None:
        return None if self.right is None else abs(self.left - self.right)

    def to_dict(self) -> dict:
        d = {"name": self.name, "left": self.left, "right": self.right,
             "residual": self.residual, "n_grid": self.n_grid,
             "expected_order": self.expected_order}
        d.update(self.extra)
        return d


# ---------------------------------------------------------------------------
# the integral Lichnerowicz identity
# ---------------------------------------------------------------------------

def sl_residual(field: SpinorField, lam: float) -> IdentityReport:
    """Integral Schroedinger-Lichnerowicz balance.

    ∫_bd (phi, e0 . D_bd phi) - (H/2)|phi|^2  =  ∫_M |grad phi|^2
                                               + (R/4)|phi|^2 - |D phi|^2
    """
    def density(g1, g2, phi, rr):
        return (np.sum(np.abs(g1) ** 2 + np.abs(g2) ** 2, axis=1)
                + 0.25 * rr * np.sum(np.abs(phi) ** 2, axis=1)
                - np.sum(np.abs(_dirac(g1, g2)) ** 2, axis=1))

    integrand = density(*spinor_gradient(field), field.values,
                        scalar_curvature(field.surface, field.r))
    bvals = {}
    for which in field.surface.boundaries:
        g1, g2 = boundary_gradient(field, which)
        r_b = boundary_data(field.surface, which).r_b
        bvals[which] = density(g1[None], g2[None], field.trace(which)[None],
                               scalar_curvature(field.surface, r_b))[0]

    right = volume_integral(field, integrand, bvals)
    left = _boundary_terms(field)
    return IdentityReport("schrodinger_lichnerowicz", left, right,
                          field.n_grid, expected_order=2.0,
                          extra={"lambda": float(np.mean(lam))})


def rtc2_residual(field: SpinorField, boundary_id: str) -> IdentityReport:
    """Boundary-connection comparison: intrinsic nabla^bd vs ambient - shape term.

    nabla^bd_i = nabla_i - (1/2) h e^0 . e^j . , restricted to the mode.
    """
    bd = boundary_data(field.surface, boundary_id)
    tb = field.trace(boundary_id)
    # ambient nabla_2 at the boundary (tangential direction, algebraic per mode)
    ambient = boundary_gradient(field, boundary_id)[1]
    e0 = FRAME.covector((bd.outward_sign, 0.0))
    shape = 0.5 * bd.mean_curvature * (e0 @ (FRAME.g2 @ tb))
    intrinsic = (1j * field.k / bd.radius) * tb
    res = float(np.max(np.abs(intrinsic - (ambient - shape))))
    scale = float(np.max(np.abs(tb))) or 1.0
    return IdentityReport("rtc2:" + boundary_id, res / scale, 0.0, field.n_grid,
                          expected_order=2.0)


# ---------------------------------------------------------------------------
# energy-momentum tensor
# ---------------------------------------------------------------------------

@dataclass
class EnergyMomentum:
    q: Array            # (N, 2, 2) symmetric, zero-filled where masked
    mask: Array         # (N,) bool, True where |phi|^2 >= eps_zero
    excluded: int

    @property
    def norm_sq(self) -> Array:
        return np.sum(self.q ** 2, axis=(1, 2))

    @property
    def trace(self) -> Array:
        return self.q[:, 0, 0] + self.q[:, 1, 1]


def _off_zero_set(field: SpinorField) -> tuple[Array, Array]:
    """|phi|^2 at the nodes and the mask of the nodes off the zero set, where
    |phi|^2 >= EPS_ZERO_REL * max |phi|^2; VanishingSpinorError if phi = 0."""
    phi_sq = np.sum(np.abs(field.values) ** 2, axis=1)
    top = float(np.max(phi_sq))
    if top == 0.0:
        raise VanishingSpinorError("vanishing spinor")
    return phi_sq, phi_sq >= EPS_ZERO_REL * top


def energy_momentum(field: SpinorField) -> EnergyMomentum:
    """Q_{ij} = Re(e^i . grad_j phi + e^j . grad_i phi, phi) / (2 |phi|^2).

    Defined only off the zero set (`_off_zero_set`); the nodes on it are
    excluded and reported, not regularized.
    """
    phi = field.values
    phi_sq, mask = _off_zero_set(field)
    grads = spinor_gradient(field)
    gens = (FRAME.g1, FRAME.g2)
    q = np.zeros((field.n_grid, 2, 2))
    for i in range(2):
        for j in range(2):
            cross = _apply_matrix(grads[j], gens[i]) + _apply_matrix(grads[i], gens[j])
            num = 0.5 * np.real(np.sum(np.conj(cross) * phi, axis=1))
            q[:, i, j] = np.where(mask, num / np.where(mask, phi_sq, 1.0), 0.0)
    return EnergyMomentum(q, mask, int(np.sum(~mask)))


# ---------------------------------------------------------------------------
# modified connections
# ---------------------------------------------------------------------------

N_CTRL = 8      # control values of each modifier spline


def _modifier_knots(surface: WarpedSurface, n_ctrl: int) -> Array:
    """The modifier splines' knots: n_ctrl equally spaced radii, ends too."""
    return np.linspace(surface.r_min, surface.r_max, n_ctrl)


@dataclass(frozen=True)
class ModifierPair:
    """The functions (a, u) twisting the spinor connection; ModifierPair()
    is the zero pair, the untwisted connection."""

    a: RadialFunction = _ZERO
    u: RadialFunction = _ZERO

    @staticmethod
    def from_params(surface: WarpedSurface, params: Array,
                    n_ctrl: int = N_CTRL) -> "ModifierPair":
        """Cubic-spline pair from 2*n_ctrl control values on the surface."""
        params = np.asarray(params, dtype=float)
        if params.shape != (2 * n_ctrl,):
            raise ValueError(f"expected {2 * n_ctrl} parameters")
        knots = _modifier_knots(surface, n_ctrl)
        a = RadialFunction.from_samples(knots, params[:n_ctrl])
        u = RadialFunction.from_samples(knots, params[n_ctrl:])
        return ModifierPair(a, u)


def _curvature(variant: str, R: Array, fpf: Array, a: Array, da: Array,
               du: Array, d2u: Array, out: list | None = None) -> Array:
    """R_{a,u} (interior) or R^_{a,u} (conformal) from R, f'/f and the
    jets a, a', u', u'' sampled on one grid.  Each operation of the formula
    runs on its operands in its order, into one of four arrays of R's shape:
    `out`, which the result (a view of its second) then shares, or new
    ones.  0-d jets give a numpy scalar."""
    lap, x, y, z = out or [np.empty(np.shape(R)) for _ in range(4)]
    mul, add, sub = np.multiply, np.add, np.subtract
    # lap_u = -(d2u + fpf u'), geometry.radial_laplacian of u
    np.negative(add(d2u, mul(fpf, du, out=lap), out=lap), out=lap)
    if variant == "interior":
        # R - 4 a lap_u + 4 a'u' - coeff u'^2, coeff = 4 (1 - 1/n) a^2
        sub(R, mul(mul(4, a, out=x), lap, out=x), out=x)
        coeff = mul(4 * (1 - 1 / DIM), np.square(a, out=y), out=y)
    else:
        # R + 4 ((n-1)/2 - a) lap_u + 4 a'u' - coeff u'^2, coeff =
        # (n-1)(n-2) + 4 (2-n) a + 4 (1 - 1/n) a^2
        coeff = add((DIM - 1) * (DIM - 2), mul(4 * (2 - DIM), a, out=y), out=y)
        add(coeff, mul(4 * (1 - 1 / DIM), np.square(a, out=z), out=z), out=y)
        add(R, mul(mul(4, sub((DIM - 1) / 2, a, out=x), out=x), lap, out=x),
            out=x)
    add(x, mul(mul(4, da, out=z), du, out=z), out=x)
    return sub(x, mul(coeff, np.square(du, out=z), out=z), out=x)[()]


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


def _modified_gradient(field: SpinorField, lam, variant: str,
                       mp: ModifierPair = ModifierPair(),
                       q_tensor: EnergyMomentum | None = None
                       ) -> tuple[Array, Array]:
    """Components of the twisted covariant derivative (gcm / emtm variants)."""
    g1, g2 = spinor_gradient(field)
    phi = field.values
    av, up = mp.a(field.r), mp.u.d(field.r)
    lam_arr = np.broadcast_to(np.asarray(lam, dtype=float), (field.n_grid,))

    d1 = g1 + (av * up)[:, None] * phi - (av * up / DIM)[:, None] * phi
    d2 = g2 + (av * up / DIM)[:, None] * _apply_matrix(phi, FRAME.g2 @ FRAME.g1)

    # the twist T_ij e^j . phi: T = (lam/n) Id (gcm) or T = Q_phi (emtm)
    if variant == "gcm":
        t = (lam_arr / DIM)[:, None, None] * np.eye(2)
    elif variant == "emtm":
        t = (q_tensor if q_tensor is not None else energy_momentum(field)).q
    else:
        raise ValueError(f"unknown variant {variant!r}")
    e1phi = _apply_matrix(phi, FRAME.g1)
    e2phi = _apply_matrix(phi, FRAME.g2)
    d1 = d1 + t[:, 0, 0, None] * e1phi + t[:, 0, 1, None] * e2phi
    d2 = d2 + t[:, 1, 0, None] * e1phi + t[:, 1, 1, None] * e2phi
    return d1, d2


def modified_gradient_norm(field: SpinorField, lam, variant: str = "gcm",
                           mp: ModifierPair = ModifierPair()) -> IdentityReport:
    """|grad^{a,u} phi|^2 evaluated two ways: from the twist definition and
    from its algebraic expansion for an eigenspinor; returns the integrated
    mismatch.
    """
    q_tensor = energy_momentum(field) if variant == "emtm" else None
    d1, d2 = _modified_gradient(field, lam, variant, mp, q_tensor)
    direct_density = np.sum(np.abs(d1) ** 2 + np.abs(d2) ** 2, axis=1)

    g1, g2 = spinor_gradient(field)
    phi = field.values
    phi_sq = np.sum(np.abs(phi) ** 2, axis=1)
    grad_sq = np.sum(np.abs(g1) ** 2 + np.abs(g2) ** 2, axis=1)
    av, up = mp.a(field.r), mp.u.d(field.r)
    lam_arr = np.broadcast_to(np.asarray(lam, dtype=float), (field.n_grid,))

    if field.d_values is not None:
        d_phi_sq = 2 * np.real(np.sum(np.conj(phi) * field.d_values, axis=1))
    else:
        d_phi_sq = _radial_derivative(field, phi_sq[:, None])[:, 0]
    base = grad_sq + av ** 2 * (1 - 1 / DIM) * up ** 2 * phi_sq \
        + av * up * d_phi_sq

    if variant == "emtm":
        expansion = base - q_tensor.norm_sq * phi_sq
    else:
        expansion = base - lam_arr ** 2 / DIM * phi_sq

    left = volume_integral(field, direct_density)
    right = volume_integral(field, expansion)
    return IdentityReport(f"modified_gradient_norm:{variant}", left, right,
                          field.n_grid, expected_order=2.0)


# ---------------------------------------------------------------------------
# the four integral identities behind the eigenvalue bounds
# ---------------------------------------------------------------------------

def _boundary_terms(field: SpinorField, mp: ModifierPair = ModifierPair(),
                    conformal: bool = False) -> float:
    """∫_bd w(r_b) [ (phi, e0 . D_bd phi) + (c du(e0) - H/2) |phi|^2 ], each
    circle's integral 2 pi f(r_b) times its mode-quadratic integrand.

    Plain (eq1/eq2): c = a(r_b) and w = 1.  conformal (eq3/eq4): the
    verbatim c = a(r_b) - (n-1)/2 and w = e^{-u(r_b)}.
    """
    total = 0.0
    for which in field.surface.boundaries:
        bd = boundary_data(field.surface, which)
        tb = field.trace(which)
        tb_sq = float(np.sum(np.abs(tb) ** 2))
        a_b = float(mp.a(bd.r_b))
        c = a_b - (DIM - 1) / 2.0 if conformal else a_b
        du_e0 = bd.outward_sign * float(mp.u.d(bd.r_b))
        # (phi, e^0 . D^boundary phi) on the trace
        e0d = boundary_dirac_matrix(field.surface, which, field.k)[1]
        pairing = float(np.real(np.vdot(tb, e0d @ tb)))
        w = float(np.exp(-mp.u(bd.r_b))) if conformal else 1.0
        total += w * (2 * np.pi * bd.radius * (
            pairing + (c * du_e0 - 0.5 * bd.mean_curvature) * tb_sq))
    return total


def eq_residual(field: SpinorField, lam: float, which: str,
                mp: ModifierPair = ModifierPair(),
                push: ConformalPush | None = None) -> IdentityReport:
    """Residual of one of the displayed integral identities eq1 ... eq4.

    eq1/eq2 compare ∫ |grad^{a,u} phi|^2 (resp. the Q-twisted version)
    against the curvature/boundary side on the source surface.  eq3/eq4 do
    the same on the conformally rescaled surface: the left side is computed
    entirely on the target geometry from `push`, this field's
    `conformal_push`, the right side on the source with the displayed
    e^{-u} weights and the verbatim (a - (n-1)/2) boundary coefficient.
    """
    if which not in ("eq1", "eq2", "eq3", "eq4"):
        raise ValueError(f"unknown identity {which!r}")
    conformal = which in ("eq3", "eq4")
    if conformal:
        if push is None:
            raise ValueError("eq3/eq4 need the field's conformal push")
        side, side_lam, resc = push.field, push.lam, push.rescaling
        side_mp = ModifierPair(resc.pullback(mp.a), resc.pullback(mp.u))
        curvature = conformal_modified_scalar
        w = np.exp(-resc.u(field.r))
    else:
        side, side_mp, side_lam = field, mp, lam
        curvature = modified_scalar
        w = 1.0

    variant = "gcm" if which in ("eq1", "eq3") else "emtm"
    d1, d2 = _modified_gradient(side, side_lam, variant, side_mp)
    left = volume_integral(side, np.sum(np.abs(d1) ** 2 + np.abs(d2) ** 2, axis=1))

    phi_sq = np.sum(np.abs(field.values) ** 2, axis=1)
    rau = curvature(field.surface, mp, field.r)
    if variant == "gcm":
        density = w * ((1 - 1 / DIM) * lam ** 2 - rau / 4.0) * phi_sq
    else:
        q_norm_sq = energy_momentum(field).norm_sq
        density = w * (lam ** 2 - (rau / 4.0 + q_norm_sq)) * phi_sq
    right = volume_integral(field, density) \
        + _boundary_terms(field, mp, conformal)
    return IdentityReport(which, left, right, field.n_grid, expected_order=2.0)


def killing_residual(field: SpinorField, lam: float,
                     mp: ModifierPair = ModifierPair()) -> float:
    """Pointwise residual of the twisted Killing equation (max over the
    nodes off the zero set, as for `energy_momentum`): the components R_i of
    the gcm twisted connection, relative to |phi|.

    Zero for real Killing spinors with a = 0; the limiting-case diagnostic
    for the interior bound.

    On an eigenspinor the two components of the residual are unitary images
    of each other (summing e^i . R_i reproduces D phi - lam phi = 0, so
    e^1 . R_1 = -e^2 . R_2), and the tangential component is algebraic in
    the field values.  The radial component is therefore reconstructed from
    that identity instead of being differenced, which keeps the max-norm
    diagnostic second-order accurate; fields carrying analytic derivatives
    use the direct formula.
    """
    r1, r2 = _modified_gradient(field, lam, "gcm", mp)
    r2_sq = np.sum(np.abs(r2) ** 2, axis=1)
    # |R1| = |R2| pointwise on an eigenspinor
    r1_sq = r2_sq if field.d_values is None else np.sum(np.abs(r1) ** 2, axis=1)

    phi_sq, mask = _off_zero_set(field)
    res = np.sqrt(r1_sq + r2_sq)
    return float(np.max(res[mask] / np.sqrt(phi_sq[mask])))


# ---------------------------------------------------------------------------
# conformal push-forward
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConformalPush:
    """An eigenspinor pushed to a rescaled surface: the field on the target's
    own grid, its eigenvalue lam e^{-u(r(s))} there, its eigen-residual and
    the rescaling it was pushed by."""

    field: SpinorField
    lam: Array
    residual: float
    rescaling: ConformalRescaling


def conformal_push(field: SpinorField, rescaling: ConformalRescaling,
                   lam: float) -> ConformalPush:
    """Push an eigenspinor to the rescaled surface: psi = e^{-(n-1)u/2} phi.

    The pushed field lives on the target's own cell-centered grid; its
    residual is the relative eigen-residual
    |D-bar psi - lam e^{-u} psi| / |psi|  measured with the target's discrete
    Dirac operator.
    """
    target = rescaling.target
    s_centers = target.centers(field.n_grid)
    r_pull = rescaling.r_of_s(s_centers)
    if field.surface.off_surface(r_pull):
        raise ValueError("interpolation outside the source grid")

    # Interpolate the co-located values alone: they ride one smooth O(h^2)
    # collocation bias, and mixing in the exact boundary traces would kink
    # the data at that order.  Target centers map inside the source interval
    # up to half a cell, where the spline extrapolates at full order.
    interp = _Spline.not_a_knot(field.r, field.values)

    def weight(r):
        return np.exp(-(DIM - 1) / 2.0 * rescaling.u(r))

    pushed_values = weight(r_pull)[:, None] * interp(r_pull)
    traces = {which: weight(boundary_data(field.surface, which).r_b)
              * field.trace(which) for which in target.boundaries}

    lam_fn = lam * np.exp(-rescaling.u(r_pull))
    pushed = SpinorField(target, field.k, s_centers, pushed_values, traces)
    d_psi = apply_dirac(pushed)
    resid = d_psi - lam_fn[:, None] * pushed.values
    num = volume_integral(pushed, np.sum(np.abs(resid) ** 2, axis=1))
    den = volume_integral(pushed, np.sum(np.abs(pushed.values) ** 2, axis=1))
    return ConformalPush(pushed, lam_fn, float(np.sqrt(num / den)), rescaling)
