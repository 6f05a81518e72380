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
energy-momentum tensor is only evaluated where |phi|^2 stays above a
relative floor (zero-set exclusion, reported, never regularized).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .bounds import ModifierPair, conformal_modified_scalar, modified_scalar
from .geometry import (DIM, SLOPE_STENCIL, ConformalRescaling, WarpedSurface,
                       apply_stencil, boundary_data, scalar_curvature)
from .spin_algebra import FRAME

Array = np.ndarray

EPS_ZERO_REL = 1e-8  # zero-set exclusion threshold, relative to max |phi|^2


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
        """Boundary trace; extrapolated from the grid if not stored."""
        if boundary_id in self.traces:
            return np.asarray(self.traces[boundary_id], dtype=complex)
        v = self.values
        if boundary_id == "outer":
            return 1.5 * v[-1] - 0.5 * v[-2]
        return 1.5 * v[0] - 0.5 * v[1]

    def norm_sq(self) -> float:
        return float(volume_integral(self, np.sum(np.abs(self.values) ** 2, axis=1)))


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


def apply_dirac(field: SpinorField) -> Array:
    """D phi = e^1 . nabla_1 phi + e^2 . nabla_2 phi at the cell centers."""
    g1, g2 = spinor_gradient(field)
    return _apply_matrix(g1, FRAME.g1) + _apply_matrix(g2, FRAME.g2)


def boundary_gradient(field: SpinorField, boundary_id: str) -> tuple[Array, Array]:
    """(nabla_1 phi, nabla_2 phi) at one boundary circle: nabla_1 from the
    one-sided slope stencil on the grid values, nabla_2 on the trace."""
    v = field.values
    if boundary_id == "outer":
        g1 = -apply_stencil(SLOPE_STENCIL, v[:-4:-1]) / field.h
        r_b = field.surface.r_max
    else:
        g1 = apply_stencil(SLOPE_STENCIL, v[:3]) / field.h
        r_b = field.surface.r_min
    f_b = float(field.surface.f(r_b))
    fp_b = float(field.surface.fp(r_b))
    return g1, _tangential(field.k, f_b, fp_b, field.trace(boundary_id))


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


def boundary_integral(field: SpinorField, boundary_id: str, value: float) -> float:
    """∫ over one boundary circle of a mode-quadratic quantity: 2 pi f_b value."""
    bd = boundary_data(field.surface, boundary_id)
    return 2 * np.pi * bd.radius * float(value)


def _e0_dirac_trace_pairing(field: SpinorField, boundary_id: str) -> float:
    """(phi, e^0 . D^boundary phi) at the boundary circle, per mode."""
    from .dirac_core import boundary_dirac_matrix
    _, e0d = boundary_dirac_matrix(field.surface, boundary_id, field.k)
    tb = field.trace(boundary_id)
    return float(np.real(np.vdot(tb, e0d @ tb)))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class IdentityReport:
    name: str
    left: float
    right: float
    n_grid: int
    expected_order: float | None = None
    extra: dict = dc_field(default_factory=dict)

    @property
    def residual(self) -> float:
        return abs(self.left - self.right)

    def to_dict(self) -> dict:
        d = {"name": self.name, "left": self.left, "right": self.right,
             "residual": self.residual, "n_grid": self.n_grid,
             "expected_order": self.expected_order}
        d.update(self.extra)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# the integral Lichnerowicz identity
# ---------------------------------------------------------------------------

def sl_residual(field: SpinorField, lam: float) -> IdentityReport:
    """Integral Schroedinger-Lichnerowicz balance.

    ∫_bd (phi, e0 . D_bd phi) - (H/2)|phi|^2  =  ∫_M |grad phi|^2
                                               + (R/4)|phi|^2 - |D phi|^2
    """
    g1, g2 = spinor_gradient(field)
    dphi = apply_dirac(field)
    rr = scalar_curvature(field.surface, field.r)
    grad_sq = np.sum(np.abs(g1) ** 2 + np.abs(g2) ** 2, axis=1)
    phi_sq = np.sum(np.abs(field.values) ** 2, axis=1)
    d_sq = np.sum(np.abs(dphi) ** 2, axis=1)
    integrand = grad_sq + 0.25 * rr * phi_sq - d_sq

    bvals = {}
    for which in field.surface.boundaries:
        bg1, bg2 = boundary_gradient(field, which)
        tb = field.trace(which)
        r_b = boundary_data(field.surface, which).r_b
        rr_b = float(scalar_curvature(field.surface, r_b))
        db = _apply_matrix(bg1[None, :], FRAME.g1)[0] \
            + _apply_matrix(bg2[None, :], FRAME.g2)[0]
        bvals[which] = (np.sum(np.abs(bg1) ** 2 + np.abs(bg2) ** 2)
                        + 0.25 * rr_b * np.sum(np.abs(tb) ** 2)
                        - np.sum(np.abs(db) ** 2)).real

    right = volume_integral(field, integrand, bvals)

    left = 0.0
    for which in field.surface.boundaries:
        bd = boundary_data(field.surface, which)
        tb = field.trace(which)
        pairing = _e0_dirac_trace_pairing(field, which)
        left += boundary_integral(field, which,
                                  pairing - 0.5 * bd.mean_curvature
                                  * float(np.sum(np.abs(tb) ** 2)))

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


def energy_momentum(field: SpinorField, eps_rel: float = EPS_ZERO_REL) -> EnergyMomentum:
    """Q_{ij} = Re(e^i . grad_j phi + e^j . grad_i phi, phi) / (2 |phi|^2).

    Defined only off the zero set; nodes with |phi|^2 below eps_rel * max are
    excluded and reported, not regularized.
    """
    phi = field.values
    phi_sq = np.sum(np.abs(phi) ** 2, axis=1)
    top = float(np.max(phi_sq))
    if top == 0.0:
        raise VanishingSpinorError("vanishing spinor")
    mask = phi_sq >= eps_rel * top
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

    if variant == "gcm":
        d1 = d1 + (lam_arr / DIM)[:, None] * _apply_matrix(phi, FRAME.g1)
        d2 = d2 + (lam_arr / DIM)[:, None] * _apply_matrix(phi, FRAME.g2)
    elif variant == "emtm":
        if q_tensor is None:
            q_tensor = energy_momentum(field)
        q = q_tensor.q
        e1phi = _apply_matrix(phi, FRAME.g1)
        e2phi = _apply_matrix(phi, FRAME.g2)
        d1 = d1 + q[:, 0, 0, None] * e1phi + q[:, 0, 1, None] * e2phi
        d2 = d2 + q[:, 1, 0, None] * e1phi + q[:, 1, 1, None] * e2phi
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return d1, d2


def modified_gradient_norm(field: SpinorField, lam, variant: str = "gcm",
                           mp: ModifierPair = ModifierPair(),
                           assume_eigen: bool = True) -> IdentityReport:
    """|grad^{a,u} phi|^2 evaluated two ways: from the twist definition and
    from its algebraic expansion; returns the integrated mismatch.

    With assume_eigen=False (gcm only) the expansion keeps the cross terms,
    so it is an identity for arbitrary smooth fields, not just eigenspinors.
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
    elif assume_eigen:
        expansion = base - lam_arr ** 2 / DIM * phi_sq
    else:
        # pre-collapse expansion, valid for arbitrary smooth fields: keeps the
        # cross terms that the eigenspinor relation would eliminate, namely
        # (2 lam/n) Re(grad_i phi, e^i phi) and a du(e_r) Re(e^1 . D phi, phi)
        cross = np.real(np.sum(np.conj(g1) * _apply_matrix(phi, FRAME.g1), axis=1)
                        + np.sum(np.conj(g2) * _apply_matrix(phi, FRAME.g2), axis=1))
        dphi = apply_dirac(field)
        dcross = np.real(np.sum(np.conj(_apply_matrix(dphi, FRAME.g1)) * phi, axis=1))
        expansion = (grad_sq + lam_arr ** 2 / DIM * phi_sq
                     + av ** 2 * (1 - 1 / DIM) * up ** 2 * phi_sq
                     + av * up * d_phi_sq + 2 * lam_arr / DIM * cross
                     + av * up * dcross)

    left = volume_integral(field, direct_density)
    right = volume_integral(field, expansion)
    return IdentityReport(f"modified_gradient_norm:{variant}", left, right,
                          field.n_grid, expected_order=2.0,
                          extra={"assume_eigen": assume_eigen})


# ---------------------------------------------------------------------------
# the four integral identities behind the eigenvalue bounds
# ---------------------------------------------------------------------------

def _boundary_terms(field: SpinorField, mp: ModifierPair = ModifierPair(),
                    conformal: bool = False) -> float:
    """∫_bd w(r_b) [ (phi, e0 . D_bd phi) + (c du(e0) - H/2) |phi|^2 ].

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
        pairing = _e0_dirac_trace_pairing(field, which)
        w = float(np.exp(-mp.u(bd.r_b))) if conformal else 1.0
        total += w * boundary_integral(
            field, which,
            pairing + (c * du_e0 - 0.5 * bd.mean_curvature) * tb_sq)
    return total


def eq_residual(field: SpinorField, lam: float, which: str,
                mp: ModifierPair = ModifierPair(),
                rescaling: ConformalRescaling | None = None) -> IdentityReport:
    """Residual of one of the displayed integral identities eq1 ... eq4.

    eq1/eq2 compare ∫ |grad^{a,u} phi|^2 (resp. the Q-twisted version)
    against the curvature/boundary side on the source surface.  eq3/eq4 do
    the same on the conformally rescaled surface: the left side is computed
    entirely on the target geometry from the pushed spinor, the right side
    on the source with the displayed e^{-u} weights and the verbatim
    (a - (n-1)/2) boundary coefficient.
    """
    phi_sq = np.sum(np.abs(field.values) ** 2, axis=1)

    if which in ("eq1", "eq2"):
        variant = "gcm" if which == "eq1" else "emtm"
        d1, d2 = _modified_gradient(field, lam, variant, mp)
        left = volume_integral(field, np.sum(np.abs(d1) ** 2 + np.abs(d2) ** 2, axis=1))
        rau = modified_scalar(field.surface, mp, field.r)
        if which == "eq1":
            density = ((1 - 1 / DIM) * lam ** 2 - rau / 4.0) * phi_sq
        else:
            q_tensor = energy_momentum(field)
            density = (lam ** 2 - (rau / 4.0 + q_tensor.norm_sq)) * phi_sq
        right = volume_integral(field, density) \
            + _boundary_terms(field, mp)
        return IdentityReport(which, left, right, field.n_grid, expected_order=2.0)

    if which in ("eq3", "eq4"):
        if rescaling is None:
            raise ValueError("eq3/eq4 need a ConformalRescaling")
        pushed, _ = conformal_push(field, rescaling, lam)
        mp_t = ModifierPair(rescaling.pullback(mp.a), rescaling.pullback(mp.u))
        lam_t = lam * np.exp(-(rescaling.u(rescaling.r_of_s(pushed.r))))
        variant = "gcm" if which == "eq3" else "emtm"
        d1, d2 = _modified_gradient(pushed, lam_t, variant, mp_t)
        left = volume_integral(pushed, np.sum(np.abs(d1) ** 2 + np.abs(d2) ** 2, axis=1))

        rhat = conformal_modified_scalar(field.surface, mp, field.r)
        w = np.exp(-rescaling.u(field.r))
        if which == "eq3":
            density = w * ((1 - 1 / DIM) * lam ** 2 - rhat / 4.0) * phi_sq
        else:
            q_tensor = energy_momentum(field)
            density = w * (lam ** 2 - (rhat / 4.0 + q_tensor.norm_sq)) * phi_sq
        right = volume_integral(field, density) \
            + _boundary_terms(field, mp, conformal=True)
        return IdentityReport(which, left, right, field.n_grid, expected_order=2.0)

    raise ValueError(f"unknown identity {which!r}")


def killing_residual(field: SpinorField, lam: float,
                     mp: ModifierPair = ModifierPair()) -> float:
    """Pointwise residual of the twisted Killing equation (max over nodes).

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
    phi = field.values
    av, up = mp.a(field.r), mp.u.d(field.r)

    g2 = spinor_gradient(field)[1]
    r2 = g2 + (lam / DIM) * _apply_matrix(phi, FRAME.g2) \
        + (av * up / DIM)[:, None] * _apply_matrix(phi, FRAME.g2 @ FRAME.g1)
    if field.d_values is None:
        r1_norm_sq = np.sum(np.abs(r2) ** 2, axis=1)   # |R1| = |R2| pointwise
    else:
        g1 = spinor_gradient(field)[0]
        r1 = g1 + (lam / DIM) * _apply_matrix(phi, FRAME.g1) \
            + (av * up)[:, None] * phi \
            + (av * up / DIM)[:, None] * _apply_matrix(phi, FRAME.g1 @ FRAME.g1)
        r1_norm_sq = np.sum(np.abs(r1) ** 2, axis=1)

    phi_norm = np.sqrt(np.sum(np.abs(phi) ** 2, axis=1))
    top = float(np.max(phi_norm))
    if top == 0.0:
        raise VanishingSpinorError("vanishing spinor")
    mask = phi_norm >= EPS_ZERO_REL * top
    res = np.sqrt(r1_norm_sq + np.sum(np.abs(r2) ** 2, axis=1))
    return float(np.max(res[mask] / phi_norm[mask]))


# ---------------------------------------------------------------------------
# conformal push-forward
# ---------------------------------------------------------------------------

def conformal_push(field: SpinorField, rescaling: ConformalRescaling,
                   lam: float) -> tuple[SpinorField, float]:
    """Push an eigenspinor to the rescaled surface: psi = e^{-(n-1)u/2} phi.

    Returns the pushed field on the target's own cell-centered grid and the
    relative eigen-residual  |D-bar psi - lam e^{-u} psi| / |psi|  measured
    with the target's discrete Dirac operator.
    """
    target = rescaling.target
    s_centers = target.centers(field.n_grid)
    r_pull = rescaling.r_of_s(s_centers)
    if np.any(r_pull < field.surface.r_min - 1e-9) or \
            np.any(r_pull > field.surface.r_max + 1e-9):
        raise ValueError("interpolation outside the source grid")

    from scipy.interpolate import CubicSpline
    # Interpolate the co-located values alone: they ride one smooth O(h^2)
    # collocation bias, and mixing in the exact boundary traces would kink
    # the data at that order.  Target centers map inside the source interval
    # up to half a cell, where the spline extrapolates at full order.
    interp = CubicSpline(field.r, field.values, axis=0)
    scale = np.exp(-(DIM - 1) / 2.0 * rescaling.u(r_pull))
    pushed_values = scale[:, None] * interp(r_pull)

    traces = {}
    for which in target.boundaries:
        bd_src = boundary_data(field.surface, which)
        traces[which] = (np.exp(-(DIM - 1) / 2.0
                                * float(rescaling.u(bd_src.r_b)))
                         * field.trace(which))

    lam_fn = lam * np.exp(-rescaling.u(r_pull))
    pushed = SpinorField(target, field.k, s_centers, pushed_values, traces)
    d_psi = apply_dirac(pushed)
    resid = d_psi - lam_fn[:, None] * pushed.values
    num = volume_integral(pushed, np.sum(np.abs(resid) ** 2, axis=1))
    den = volume_integral(pushed, np.sum(np.abs(pushed.values) ** 2, axis=1))
    return pushed, float(np.sqrt(num / den))
