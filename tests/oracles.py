"""Independent oracles for the eigenvalue solver and identity suite.

Nothing here reuses the package's discretization.  The flat-disk oracle
reduces the mode problem to a Bessel-type transcendental equation solved by
bracketing + brentq; the generic oracle integrates the radial ODE system
with an adaptive 8th-order Runge-Kutta (DOP853) from a series start at the
pole (or from the admissible trace direction at an inner boundary) and
bisects the boundary-condition residual in lambda.  The hemisphere oracle is the closed-form
Killing spinor.

Some entries are references rather than independent oracles.
`brentq_r_of_s` is the package's original per-point arclength inverse, which
the vectorized inverse must reproduce to roundoff.  `window_values`,
`selective_levels` and `window_clear_of` are the selective solve and probe
as they bisected every level of a doubling window around 0; the
count-driven solve must give their levels and decisions bit for bit.
`apply_interior` applies the package's interior scheme rows to sampled
spinors, so that a closed form checks the scheme.  `lowest` picks the m
smallest |lambda| of a mode's levels, `mode_pairs` builds their eigenpairs
with the package's `eigenpairs`, and `low_eigenpairs` collects them over
every mode, the fields that `aggregate` does not keep.  `DenseModeOperator`
at the end is the package's own discretization, assembled the original
dense way; the banded assembly must reproduce it to roundoff.  And
`clifford_mul`, `boundary_chirality` and `chirality_projectors` build the
Clifford action and the boundary chirality operator from the package's
`FRAME` for the algebra and acceptance tests; no command reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sl
from scipy.integrate import solve_ivp
from scipy.linalg import null_space
from scipy.optimize import brentq
from scipy.special import jv

from spinspec.dirac_core import (_HERM_TOL, BoundaryConditionSpec,
                                 NumericalError, _closures, eigenpairs,
                                 modes_for, solve_mode)
from spinspec.spin_algebra import FRAME, chirality


# ---------------------------------------------------------------------------
# spin algebra
# ---------------------------------------------------------------------------

def clifford_mul(x, s):
    """Clifford multiplication of the covector x on the spinor s."""
    return FRAME.covector(x) @ np.asarray(s, dtype=complex)


def boundary_chirality(normal):
    """Boundary chirality Gamma = F (normal . ) for a unit normal covector."""
    normal = np.asarray(normal, dtype=float)
    nsq = float(normal @ normal)
    if abs(nsq - 1.0) > 1e-12:
        raise ValueError(f"normal covector fails normalization: |e0|^2 = {nsq!r}")
    return chirality() @ FRAME.covector(normal)


def chirality_projectors(gamma):
    """Eigenprojectors P_+ , P_- onto the +/-1 eigenspaces of Gamma."""
    eye = np.eye(2, dtype=complex)
    return (eye + gamma) / 2, (eye - gamma) / 2


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def killing_spinor_hemisphere(r):
    """The eigenvalue-one Killing spinor of the unit hemisphere at k = 1/2.

    v(r) = (cos(r/2), -i sin(r/2)) in the adapted frame; it satisfies the
    local+ condition on the equator and D v = v.
    """
    r = np.asarray(r, dtype=float)
    return np.stack([np.cos(r / 2), -1j * np.sin(r / 2)], axis=-1)


KILLING_HEMISPHERE_LAMBDA = 1.0
KILLING_HEMISPHERE_MODE = 0.5

# first positive root of J1(x) = J0(x), the fundamental local+ disk mode at
# k = 1/2 (frozen from brentq on scipy Bessel functions; see test below)
DISK_LOCALPLUS_ROOT = 1.4346956508195643


def disk_local_eigenvalues(k: float, variant: str, radius: float = 1.0,
                           n_roots: int = 3) -> np.ndarray:
    """Eigenvalues of the flat-disk mode problem from the Bessel equation.

    Regular solutions are (J_{|k-1/2|}(|lam| r), -+ i J_{|k+1/2|}(|lam| r));
    the chirality conditions become J_{k+1/2}(x) = +- J_{k-1/2}(x) at
    x = |lam| R, with the sign depending on the condition and sign(lam).
    Only k >= 1/2 is handled; negative modes follow from the component swap.
    """
    if k < 0.5:
        raise ValueError("disk oracle covers k >= 1/2")
    nu_m, nu_p = k - 0.5, k + 0.5
    roots: list[float] = []

    def crossing(sign: float):
        return lambda x: jv(nu_p, x) - sign * jv(nu_m, x)

    for lam_sign in (+1.0, -1.0):
        # local+: J_{k+1/2} = sign(lam) J_{k-1/2}; local-: the opposite sign
        sign = lam_sign if variant == "local+" else -lam_sign
        g = crossing(sign)
        xs = np.linspace(1e-3, 40.0, 4000)
        vals = g(xs)
        found = []
        for i in range(len(xs) - 1):
            if vals[i] == 0.0:
                found.append(xs[i])
            elif vals[i] * vals[i + 1] < 0:
                found.append(brentq(g, xs[i], xs[i + 1], xtol=1e-13))
            if len(found) >= n_roots:
                break
        roots.extend(lam_sign * np.array(found) / radius)
    return np.sort(np.array(roots))


# ---------------------------------------------------------------------------
# shooting + bisection
# ---------------------------------------------------------------------------

def _rhs(surface, k, lam):
    def f(r, y):
        fr = float(surface.f(r))
        c = float(surface.fp(r)) / (2 * fr)
        kap = k / fr
        a, b = y
        return [-(c - kap) * a - lam * b, lam * a - (c + kap) * b]
    return f


def _initial_state(surface, k, lam, bc_variant: str):
    """Start of the shoot: series at the pole, or the admissible inner trace."""
    if surface.cap:
        r0 = surface.r_min + 1e-6 * surface.length
        a0 = r0 ** (k - 0.5)
        b0 = lam / (2 * k + 1) * r0 ** (k + 0.5)
        return r0, [a0, b0]
    r0 = surface.r_min
    if bc_variant == "local+":
        return r0, [1.0, -1.0]
    if bc_variant == "local-":
        return r0, [1.0, 1.0]
    if bc_variant == "aps-":
        return r0, ([1.0, 0.0] if k > 0 else [0.0, 1.0])
    if bc_variant == "aps+":
        return r0, ([0.0, 1.0] if k > 0 else [1.0, 0.0])
    raise ValueError(bc_variant)


def _outer_residual(k, bc_variant, a, b):
    if bc_variant == "local+":
        return b - a
    if bc_variant == "local-":
        return b + a
    if bc_variant == "aps-":
        return a if k > 0 else b
    if bc_variant == "aps+":
        return b if k > 0 else a
    raise ValueError(bc_variant)


def shooting_residual(surface, k: float, bc_variant: str, lam: float) -> float:
    """Boundary-condition residual of the shot solution at r_max."""
    if k <= 0:
        raise ValueError("shooting oracle covers native modes k > 0")
    r0, y0 = _initial_state(surface, k, lam, bc_variant)
    sol = solve_ivp(_rhs(surface, k, lam), (r0, surface.r_max), y0,
                    rtol=1e-11, atol=1e-14, dense_output=False,
                    method="DOP853")
    if not sol.success:
        raise RuntimeError(f"shooting integration failed: {sol.message}")
    a, b = sol.y[0, -1], sol.y[1, -1]
    scale = max(abs(a), abs(b), 1e-300)
    return _outer_residual(k, bc_variant, a, b) / scale


def shoot_eigenvalues(surface, k: float, bc_variant: str,
                      lam_lo: float = -8.0, lam_hi: float = 8.0,
                      n_scan: int = 400) -> np.ndarray:
    """All eigenvalues in [lam_lo, lam_hi] by scanning + brentq refinement."""
    grid = np.linspace(lam_lo, lam_hi, n_scan)
    vals = np.array([shooting_residual(surface, k, bc_variant, x) for x in grid])
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(grid[i])
        elif vals[i] * vals[i + 1] < 0:
            roots.append(brentq(
                lambda x: shooting_residual(surface, k, bc_variant, x),
                grid[i], grid[i + 1], xtol=1e-11))
    return np.array(sorted(roots))


def richardson_order(values, ns) -> float:
    """Empirical order from the last three of a doubling refinement study."""
    v1, v2, v3 = values[-3], values[-2], values[-1]
    d1, d2 = abs(v2 - v1), abs(v3 - v2)
    if d2 == 0:
        return np.inf
    return float(np.log2(d1 / d2) / np.log2(ns[-1] / ns[-2]))


# ---------------------------------------------------------------------------
# the un-collapsed modified-gradient expansion
# ---------------------------------------------------------------------------

def modified_gradient_general_residual(field, lam, mp) -> float:
    """|grad^{a,u} phi|^2 integrated two ways for an arbitrary smooth field.

    The direct side is the package's twisted derivative (gcm variant).  The
    expansion keeps the cross terms that the eigenspinor relation would
    eliminate, (2 lam/n) Re(grad_i phi, e^i phi) and a du(e_r)
    Re(e^1 . D phi, phi), so the two agree for any field and any lambda up
    to discretization error.  Returns |direct - expansion|.
    """
    from spinspec.geometry import DIM
    from spinspec.identities import (_apply_matrix, _modified_gradient,
                                     _radial_derivative, apply_dirac,
                                     spinor_gradient, volume_integral)
    from spinspec.spin_algebra import FRAME

    d1, d2 = _modified_gradient(field, lam, "gcm", mp)
    direct = np.sum(np.abs(d1) ** 2 + np.abs(d2) ** 2, axis=1)

    g1, g2 = spinor_gradient(field)
    phi = field.values
    phi_sq = np.sum(np.abs(phi) ** 2, axis=1)
    grad_sq = np.sum(np.abs(g1) ** 2 + np.abs(g2) ** 2, axis=1)
    av, up = mp.a(field.r), mp.u.d(field.r)
    d_phi_sq = _radial_derivative(field, phi_sq[:, None])[:, 0]
    cross = np.real(np.sum(np.conj(g1) * _apply_matrix(phi, FRAME.g1), axis=1)
                    + np.sum(np.conj(g2) * _apply_matrix(phi, FRAME.g2), axis=1))
    dcross = np.real(np.sum(np.conj(_apply_matrix(apply_dirac(field), FRAME.g1))
                            * phi, axis=1))
    expansion = (grad_sq + lam ** 2 / DIM * phi_sq
                 + av ** 2 * (1 - 1 / DIM) * up ** 2 * phi_sq
                 + av * up * d_phi_sq + 2 * lam / DIM * cross
                 + av * up * dcross)
    return abs(volume_integral(field, direct)
               - volume_integral(field, expansion))


# ---------------------------------------------------------------------------
# scalar reference inverse of the conformal arclength map
# ---------------------------------------------------------------------------

def brentq_r_of_s(s_of_r, edges_r, edges_s):
    """The original `spinspec.geometry` arclength inverse, kept unchanged:
    one scalar `brentq` per point inside its panel, `s` clamped to
    [0, s_max], and a snap to the left panel edge within 1e-14."""
    smax = float(edges_s[-1])

    def r_of_s(s):
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        flat = np.atleast_1d(s).ravel()
        out = np.empty_like(flat)
        for i, si in enumerate(flat):
            si = min(max(float(si), 0.0), smax)
            j = int(np.clip(np.searchsorted(edges_s, si) - 1, 0,
                            len(edges_s) - 2))
            a, b = edges_r[j], edges_r[j + 1]
            if abs(float(edges_s[j]) - si) < 1e-14 * (1 + smax):
                out[i] = a
                continue
            out[i] = brentq(lambda r: s_of_r(r) - si, a, b,
                            xtol=1e-14, rtol=8.9e-16)
        return float(out[0]) if scalar else out.reshape(np.shape(s))

    return r_of_s


# ---------------------------------------------------------------------------
# the scheme's interior rows
# ---------------------------------------------------------------------------

def apply_interior(op, p, q_full):
    """Apply the interior scheme rows of the mode operator `op` to given
    staggered samples: ((D v)_1 at the N centers, (D v)_2 at the N-1
    interior vertices); the boundary-vertex rows are closure-specific and
    excluded."""
    _, _, _, p_lo, p_hi, q_lo, q_hi = op._stencil()
    p = np.asarray(p, complex)
    q = np.asarray(q_full, complex)
    return p_lo * q[:-1] + p_hi * q[1:], q_lo * p[:-1] + q_hi * p[1:]


# ---------------------------------------------------------------------------
# low eigenpairs of every mode
# ---------------------------------------------------------------------------

def lowest(levels, m: int) -> np.ndarray:
    """The m levels of smallest |lambda| (all, when there are fewer),
    ascending; of an exact +-tie at the cut, the negative level (`levels`
    ascending, as solve_mode gives them)."""
    order = np.argsort(np.abs(levels), kind="stable")
    return np.sort(levels[order[:m]])


def mode_pairs(surface, k: float, spec, N: int, m: int,
               n_levels: int | None = None) -> tuple:
    """(levels, pairs) of mode k: the levels of one solve_mode call and the
    eigenpairs of their m smallest |lambda|, by |lambda|, then lambda."""
    levels = solve_mode(surface, k, spec, N, n_levels)
    return levels, eigenpairs(surface, k, spec, N, lowest(levels, m))


def low_eigenpairs(surface, bc: str, k_max: float, N: int) -> list:
    """The eigenpairs of the two smallest |lambda| of every mode |k| <=
    k_max, each mode solved for every level, in the (|lambda|, k, sign)
    order."""
    spec = BoundaryConditionSpec(bc)
    pairs = [e for k in modes_for(surface, k_max)
             for e in mode_pairs(surface, k, spec, N, 2)[1]]
    return sorted(pairs, key=lambda e: (abs(e.lam), e.k, np.sign(e.lam)))


# ---------------------------------------------------------------------------
# whole-window Sturm bisection of the selective solve and of its probe
# ---------------------------------------------------------------------------

def window_values(d, e, count: int) -> np.ndarray:
    """Eigenvalues of the tridiagonal (d, e) in a window (-w, w] around 0.

    The window doubles from w = 1 until it holds `count` values or covers
    the Gershgorin bound, and dstebz bisects every value of every window it
    tries.
    """
    bound = float(np.max(np.abs(d)) + 2 * np.max(e, initial=0.0))
    w = 1.0
    while True:
        vals = sl.eigvalsh_tridiagonal(d, e, select="v", select_range=(-w, w))
        if len(vals) >= count or w > bound:
            return vals
        w *= 2.0


def selective_levels(op, want: int) -> np.ndarray:
    """The levels of `op.eigensystem(n_values=want)` from `window_values`
    with one spare value: the structural zeros are the smallest |lambda|,
    refused beyond 1e-8 times the largest column norm and dropped when
    spurious; a bipartite operator reports its positive values with their
    mirror images; the want smallest |lambda| are kept, an exact tie at the
    cut whole."""
    d, e = op.tridiagonal()
    struct = op.structural_zeros
    n_zero = struct[0] if struct is not None else 0
    vals = window_values(d, e, want + n_zero + 1)
    order = np.argsort(np.abs(vals), kind="stable")
    zeros, rest = vals[order[:n_zero]], vals[order[n_zero:]]
    if struct is not None and struct[1] == "spurious":
        col = np.square(d)
        col[1:] += np.square(e)
        col[:-1] += np.square(e)
        tol0 = 1e-8 * max(1.0, float(np.sqrt(np.max(col))))
        if np.any(np.abs(zeros) > tol0):
            raise NumericalError("expected exact structural kernel, found "
                                 f"{zeros!r}; refusing to deflate")
        zeros = zeros[:0]
    if op._bipartite:
        pos = rest[rest > 0]
        rest = np.concatenate([-pos, pos])
    vals = np.sort(np.concatenate([zeros, rest]))
    a = np.abs(vals)
    order = np.argsort(a, kind="stable")
    m = want
    while 0 < m < len(vals) and a[order[m]] == a[order[m - 1]]:
        m += 1
    return np.sort(vals[order[:m]])


def window_clear_of(op, bound: float) -> bool:
    """`op.clear_of(bound)` from the bisected window (-t, t], t = bound +
    1e-10 * scale: it holds exactly the spurious structural zeros, each
    within 1e-8 of 0."""
    d, e = op.tridiagonal()
    t = bound + 1e-10 * op._scale
    vals = sl.eigvalsh_tridiagonal(d, e, select="v", select_range=(-t, t))
    struct = op.structural_zeros
    n_zero = struct[0] if struct is not None and struct[1] == "spurious" else 0
    return len(vals) == n_zero and bool(np.all(np.abs(vals) <= 1e-8))


# ---------------------------------------------------------------------------
# dense reference assembly of the reduced mode operator
# ---------------------------------------------------------------------------

# the dense assembly's own check on the reduced bandwidth
_MAX_BANDWIDTH = 8


@dataclass
class DenseModeOperator:
    """The reduced mode operator assembled as a dense n x n matrix.

    `_build` and `_reduce` are the original dense assembly of
    `spinspec.dirac_core.ModeOperator`, kept unchanged: a dict-indexed dof
    list, the full matrix D, and the mass-orthonormal elimination of the
    boundary constraints over the whole matrix with a float-keyed column
    sort.  `matrix` is the reduced, symmetrized operator that the banded
    assembly must reproduce.
    """

    surface: object
    k: float
    n_grid: int
    bc: object

    def __post_init__(self):
        self._build()

    @property
    def h(self) -> float:
        return self.surface.length / self.n_grid

    @property
    def r_centers(self):
        return self.surface.r_min + (np.arange(self.n_grid) + 0.5) * self.h

    @property
    def r_vertices(self):
        return self.surface.r_min + np.arange(self.n_grid + 1) * self.h

    @property
    def matrix(self):
        return self._A

    def _build(self) -> None:
        surf, k, N, h = self.surface, self.k, self.n_grid, self.h
        rc, xv = self.r_centers, self.r_vertices
        fc, fpc = surf.f(rc), surf.fp(rc)
        fv = surf.f(xv)
        sigma = fpc / (2 * fc) + k / fc          # at centers
        fsig = fpc / 2 + k                       # f * sigma at centers

        clo = _closures(surf, k, self.bc)
        q_active = {i: True for i in range(1, N)}
        q_active[0] = clo["inner"][0] in ("local", "pdir")
        q_active[N] = clo["outer"][0] in ("local", "pdir")

        dofs: list[tuple[str, int]] = []
        if q_active[0]:
            dofs.append(("q", 0))
        for j in range(N):
            dofs.append(("p", j))
            if 0 < j + 1 < N:
                dofs.append(("q", j + 1))
        if q_active[N]:
            dofs.append(("q", N))
        index = {d: a for a, d in enumerate(dofs)}
        n = len(dofs)

        D = np.zeros((n, n), dtype=complex)
        m = np.empty(n)

        for j in range(N):
            a = index[("p", j)]
            m[a] = h * fc[j]
            for iv, sgn in ((j, -1.0), (j + 1, +1.0)):
                if q_active.get(iv, False):
                    D[a, index[("q", iv)]] = 1j * (sgn / h + sigma[j] / 2)
        for i in range(1, N):
            a = index[("q", i)]
            m[a] = h * fv[i]
            D[a, index[("p", i - 1)]] = 1j * (-fc[i - 1] / h - fsig[i - 1] / 2) / fv[i]
            D[a, index[("p", i)]] = 1j * (fc[i] / h - fsig[i] / 2) / fv[i]

        # Boundary closures: the vertex row is the equation i(p' + tau p_B) at
        # the boundary; second-order derivative weights (2,-3,1)/h force the
        # companion trace extrapolation E = 2 p_1 - 1.5 p_2 + 0.5 p_3 (offsets
        # h/2, 3h/2, 5h/2) -- the unique combination that keeps the reduced
        # operator exactly Hermitian with the half-cell mass G h / 2.
        ex = (2.0, -1.5, 0.5)
        constraints: list[dict] = []
        if q_active[N]:
            a = index[("q", N)]
            tau_r = float(surf.fp(surf.r_max) / (2 * surf.f(surf.r_max))
                          - k / surf.f(surf.r_max))
            m[a] = 0.5 * h * fc[N - 1] * (1 + h * sigma[N - 1] / 2)
            for j, (dw, ew) in enumerate(zip((2.0, -3.0, 1.0), ex)):
                D[a, index[("p", N - 1 - j)]] = 1j * (dw / h + tau_r * ew)
        kind, gamma = clo["outer"]
        if kind == "local":
            constraints.append({("q", N): 1.0,
                                ("p", N - 1): -gamma * ex[0],
                                ("p", N - 2): -gamma * ex[1],
                                ("p", N - 3): -gamma * ex[2]})
        elif kind in ("pdir", "both"):
            constraints.append({("p", N - 1): ex[0], ("p", N - 2): ex[1],
                                ("p", N - 3): ex[2]})

        if q_active[0]:
            a = index[("q", 0)]
            tau_l = float(surf.fp(surf.r_min) / (2 * surf.f(surf.r_min))
                          - k / surf.f(surf.r_min))
            m[a] = 0.5 * h * fc[0] * (1 - h * sigma[0] / 2)
            for j, (dw, ew) in enumerate(zip((-2.0, 3.0, -1.0), ex)):
                D[a, index[("p", j)]] = 1j * (dw / h + tau_l * ew)
        kind, gamma = clo["inner"]
        if kind == "local":
            constraints.append({("q", 0): 1.0, ("p", 0): -gamma * ex[0],
                                ("p", 1): -gamma * ex[1],
                                ("p", 2): -gamma * ex[2]})
        elif kind in ("pdir", "both"):
            constraints.append({("p", 0): ex[0], ("p", 1): ex[1],
                                ("p", 2): ex[2]})

        if np.any(m <= 0):
            raise NumericalError("nonpositive quadrature weight in assembly")

        self._dofs, self._index, self._D, self._m = dofs, index, D, m
        self._constraints = constraints
        self._closure = clo
        self._q_active = q_active
        self._reduce()

    def _reduce(self) -> None:
        """Mass-orthonormal elimination of the boundary constraints."""
        D, m, index = self._D, self._m, self._index
        n = len(m)
        msq = np.sqrt(m)
        H = D * (msq[:, None] / msq[None, :])

        in_support = np.zeros(n, dtype=bool)
        blocks = []
        for c in self._constraints:
            sup = np.array([index[d] for d in c], dtype=int)
            coef = np.array([c[d] for d in c], dtype=complex) / msq[sup]
            z = null_space(coef[None, :])
            kinds = {self._dofs[a][0] for a in sup}
            blocks.append((sup, z, "mixed" if len(kinds) > 1 else kinds.pop()))
            in_support[sup] = True

        keep = np.flatnonzero(~in_support)
        cols: list[tuple[float, str, object]] = [(float(a), "unit", a) for a in keep]
        for bi, (sup, z, _) in enumerate(blocks):
            base = float(np.min(sup))
            for ci in range(z.shape[1]):
                cols.append((base + 0.1 * (ci + 1), "block", (bi, ci)))
        cols.sort(key=lambda t: t[0])
        n_red = len(cols)
        col_kind = [self._dofs[payload][0] if kind == "unit"
                    else blocks[payload[0]][2]
                    for _, kind, payload in cols]

        A = np.empty((n_red, n_red), dtype=complex)
        unit_pos = [a for a, (_, kind, _) in enumerate(cols) if kind == "unit"]
        unit_idx = np.array([cols[a][2] for a in unit_pos], dtype=int)
        A[np.ix_(unit_pos, unit_pos)] = H[np.ix_(unit_idx, unit_idx)]
        for a, (_, kind, payload) in enumerate(cols):
            if kind != "block":
                continue
            bi, ci = payload
            sup, z, _ = blocks[bi]
            zc = z[:, ci]
            A[unit_pos, a] = H[np.ix_(unit_idx, sup)] @ zc
            A[a, unit_pos] = np.conj(zc) @ H[np.ix_(sup, unit_idx)]
            for b, (_, kind2, payload2) in enumerate(cols):
                if kind2 != "block":
                    continue
                bj, cj = payload2
                sup2, z2, _ = blocks[bj]
                A[a, b] = np.conj(zc) @ H[np.ix_(sup, sup2)] @ z2[:, cj]

        herm = float(np.max(np.abs(A - A.conj().T)))
        scale = float(np.max(np.abs(A))) or 1.0
        if herm > _HERM_TOL * max(1.0, scale):
            raise NumericalError(
                f"reduced operator lost Hermiticity: {herm:.3e} (scale {scale:.3e})")
        A = 0.5 * (A + A.conj().T)  # strip roundoff asymmetry only

        nz = np.argwhere(np.abs(A) > 1e-14 * max(1.0, scale))
        bw = int(np.max(np.abs(nz[:, 0] - nz[:, 1]))) if len(nz) else 0
        if bw > _MAX_BANDWIDTH:
            raise NumericalError(f"unexpected bandwidth {bw} after reduction")

        self._cols, self._blocks, self._A, self._bw = cols, blocks, A, bw
        self._col_kind = col_kind
