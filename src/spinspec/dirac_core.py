"""Per-Fourier-mode Dirac eigenproblems with local and APS boundary conditions.

Separation of variables on dr^2 + f^2 dtheta^2 reduces the Dirac operator at
wave number k (half-integer for the antiperiodic spin structure, integer for
the periodic one) to the radial system

    (D v)_1 = i [ v2' + (f'/2f + k/f) v2 ]
    (D v)_2 = i [ v1' + (f'/2f - k/f) v1 ]

acting on two-component radial spinors, Hermitian for the inner product
int conj(v).w f dr.  The discretization is a staggered mimetic scheme:
component 1 lives on cell centers r_j = r_min + (j-1/2)h, component 2 on
the dual vertices x_i = r_min + i h (so boundary values of component 2 are
literal unknowns and the cap pole never carries a node).  Derivatives are
2-point differences across a cell, couplings are symmetrized per staggered
link, which makes the weighted matrix Hermitian identically, not up to
truncation error; boundary conditions enter as local constraints that are
eliminated with a mass-orthonormal basis, preserving exact Hermiticity.
Single-grid centered differencing is avoided deliberately: it carries a
spurious oscillatory branch whose eigenvalues pollute the low spectrum.

The operator is built in band storage in O(N) time and memory.  On the
interleaved unknowns q_0, p_0, q_1, ..., p_{N-1}, q_N (p the center
component, q the vertex component) the interior rows are tridiagonal with
a zero diagonal; only the two boundary-vertex rows and the boundary
constraints reach further, and they stay inside a window of 7 unknowns at
each end.  The constraint elimination runs densely on those two
windows and the reduced operator (bandwidth at most 5) is stored as a
(2 bw + 1, n) band.

Eigenvalues come from an exactly equivalent real symmetric tridiagonal
form, built in O(N): the band is already tridiagonal outside its two end
blocks, a Householder tridiagonalization of each block that fixes the one
index through which it meets the middle leaves the rest untouched, and a
diagonal unitary gauge makes the off-diagonals real and nonnegative.  The
full spectrum (`spectrum`) comes from dsterf; the few smallest |lambda| that
lambda_min and the low fields need come from Sturm bisection on a window
around 0, in O(N).  The few eigenvectors come from the same form (stebz and
stein), mapped back and checked by their residual against the band.

Modes with k < 0 go through the unitary component swap (v1, v2) -> (v2, v1),
which maps mode k to mode -k and swaps the two local boundary conditions
while fixing each APS condition.  At a cap this keeps the vertex component
the faster-vanishing one at the pole, where the regular closure (vertex
value 0) is then exact for every mode.  Mode -k is thus the native operator
at |k| under the swapped condition: the same operator under aps+-, exactly
-conj of it under local+-.  Each |k| is solved once and mode -k mirrors it.

Under aps+- every reduced column is pure p or pure q, so the operator is
bipartite: its tridiagonal form has a zero diagonal (checked at roundoff)
and its spectrum is exactly symmetric.  It is reported that way, positive
eigenvalues with their mirror images, so the ordering tie of a +-pair
always resolves to the same sign.

APS conventions: the admissible boundary values for aps- have no component
on eigenvectors of e0 . D_boundary with eigenvalue >= 0 (kernel included in
the constrained set); aps+ is the mirror image and is exposed as an
experimental condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import (eigh_tridiagonal, eigvalsh_tridiagonal, hessenberg,
                          null_space)
from scipy.linalg import solve_banded  # noqa: F401  unused; perfbench --trace counts it

from .geometry import (SLOPE_STENCIL, TRACE_STENCIL, ConfigError,
                       WarpedSurface, apply_stencil, boundary_data)
from .identities import SpinorField
from .spin_algebra import FRAME

Array = np.ndarray

BC_VARIANTS = ("local+", "local-", "aps-", "aps+")

_HERM_TOL = 1e-12
_MAX_BANDWIDTH = 8


class NumericalError(RuntimeError):
    """Eigensolver or optimizer failure (never silent truncation)."""


@dataclass(frozen=True)
class BoundaryConditionSpec:
    """One of the four elliptic boundary conditions."""

    variant: str

    def __post_init__(self):
        if self.variant not in BC_VARIANTS:
            raise ConfigError(f"unknown boundary condition {self.variant!r}; "
                              f"expected one of {BC_VARIANTS}")

    @property
    def is_local(self) -> bool:
        return self.variant.startswith("local")

    @property
    def is_aps(self) -> bool:
        return self.variant.startswith("aps")


@dataclass(frozen=True)
class FourierMode:
    k: float

    def validate(self, surface: WarpedSurface) -> None:
        two_k = 2 * self.k
        if abs(two_k - round(two_k)) > 1e-12:
            raise ConfigError(f"mode {self.k} is not half-integral")
        odd = int(round(two_k)) % 2 != 0
        if surface.spin_structure == "antiperiodic" and not odd:
            raise ConfigError(f"mode {self.k} incompatible with the "
                              "antiperiodic spin structure")
        if surface.spin_structure == "periodic" and odd:
            raise ConfigError(f"mode {self.k} incompatible with the "
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


def boundary_dirac_matrix(surface: WarpedSurface, boundary_id: str,
                          k: float) -> tuple[Array, Array]:
    """2x2 matrices of D^boundary and e0 . D^boundary at one mode.

    On the circle of radius f_b the intrinsic boundary Dirac operator of the
    mode is (ik/f_b) e^2 . ; Clifford action of the outward normal gives the
    self-adjoint e0 . D^boundary, whose eigenvalues are +-k/f_b.
    """
    FourierMode(k).validate(surface)
    bd = boundary_data(surface, boundary_id)
    d_bnd = (1j * k / bd.radius) * FRAME.g2
    e0 = FRAME.covector((bd.outward_sign, 0.0))
    return d_bnd, e0 @ d_bnd


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _closures(surface: WarpedSurface, k: float,
              bc: BoundaryConditionSpec | None) -> dict:
    """Per-end closure type for the native solve (k >= 0 only).

    'pole'  : cap; the vertex component vanishes there exactly
    'qdir'  : vertex component fixed to zero (also the no-BC realization)
    'local' : chirality constraint q_b = gamma * (extrapolated p), gamma = +-i
    'pdir'  : extrapolated center component vanishes, vertex value free
    'both'  : qdir and pdir together (APS at a mode where e0.D_bnd = 0)
    """
    out = {}
    if surface.cap:
        out["inner"] = ("pole", None)
    elif bc is None:
        out["inner"] = ("qdir", None)
    elif bc.variant == "local+":
        out["inner"] = ("local", 1j)
    elif bc.variant == "local-":
        out["inner"] = ("local", -1j)
    elif bc.variant == "aps-":
        out["inner"] = ("both", None) if k == 0 else ("qdir", None)
    else:  # aps+
        out["inner"] = ("both", None) if k == 0 else ("pdir", None)

    if bc is None:
        out["outer"] = ("qdir", None)
    elif bc.variant == "local+":
        out["outer"] = ("local", -1j)
    elif bc.variant == "local-":
        out["outer"] = ("local", 1j)
    elif bc.variant == "aps-":
        out["outer"] = ("both", None) if k == 0 else ("pdir", None)
    else:
        out["outer"] = ("both", None) if k == 0 else ("qdir", None)
    return out


# End windows of the interleaved layout: 7 dofs hold each end's constraint
# support (q_b and the three nearest p) and every dof coupled to it, so the
# elimination never reaches past a window and the first and last window dof
# are plain unknowns.  Both windows start at a vertex, so even window
# positions are q and odd ones p.
_WINDOW = 7


def _end_constraint(closure: tuple, q: int, ps: tuple) -> tuple | None:
    """(support, coefficients) of one end's constraint in window positions.

    `q` is the boundary vertex, `ps` the centers nearest to it, nearest
    first; the support order fixes the null-space basis.
    """
    kind, gamma = closure
    if kind == "local":
        return (q,) + ps, (1.0,) + tuple(-gamma * e for e in TRACE_STENCIL)
    if kind in ("pdir", "both"):
        return ps, TRACE_STENCIL
    return None


def _reduce_window(H: Array, msq: Array, active: Array,
                   constraint: tuple | None) -> tuple[Array, Array, list]:
    """Mass-orthonormal elimination of one end constraint on its window.

    Returns the basis Z (window dofs x reduced columns), the reduced block
    Z^H H Z and the component kind of each column ('p', 'q' or 'mixed').
    Free unknowns keep their order; the null-space columns of the constraint
    take the place of its first dof.
    """
    w = len(msq)
    kinds = ["q" if a % 2 == 0 else "p" for a in range(w)]
    sup = list(constraint[0]) if constraint else []
    cols, col_kinds = [], []
    for a in range(w):
        if sup and a == min(sup):
            coef = np.array(constraint[1], dtype=complex) / msq[sup]
            z = null_space(coef[None, :])
            sup_kinds = {kinds[b] for b in sup}
            kind = sup_kinds.pop() if len(sup_kinds) == 1 else "mixed"
            for zc in z.T:
                col = np.zeros(w, dtype=complex)
                col[sup] = zc
                cols.append(col)
                col_kinds.append(kind)
        elif active[a] and a not in sup:
            cols.append(np.eye(w)[:, a])
            col_kinds.append(kinds[a])
    Z = np.column_stack(cols)
    return Z, Z.conj().T @ H @ Z, col_kinds


def _bandwidth(block: Array, tol: float) -> int:
    i, j = np.nonzero(np.abs(block) > tol)
    return int(np.max(np.abs(i - j))) if len(i) else 0


def _put_block(ab: Array, bw: int, at: int, block: Array) -> None:
    """Write a dense diagonal block at row/column `at` into band storage."""
    reach = min(bw, block.shape[0] - 1)
    for off in range(-reach, reach + 1):
        diag = np.diagonal(block, -off)
        j0 = at + max(0, -off)
        ab[bw + off, j0: j0 + len(diag)] = diag


def _dense_block(ab: Array, bw: int, at: int, size: int) -> Array:
    """The dense diagonal block A[at: at + size, at: at + size] of band storage."""
    block = np.zeros((size, size), dtype=ab.dtype)
    reach = min(bw, size - 1)
    for off in range(-reach, reach + 1):
        j = np.arange(max(0, -off), size - max(0, off))
        block[j + off, j] = ab[bw + off, at + j]
    return block


def _tridiagonal_block(block: Array, tol: float) -> tuple[Array, Array, Array]:
    """Householder tridiagonal form T = Q^H block Q of a Hermitian block, by
    a unitary Q that fixes the block's first index.

    Returns the real diagonal of T, its complex subdiagonal and Q.  The
    Hessenberg reduction (no balancing) applies its reflectors to the
    indices after the first only.  A Hermitian block comes out tridiagonal;
    an entry beyond the first off-diagonal, or an imaginary diagonal part,
    above `tol` is refused, never dropped.
    """
    H, Q = hessenberg(block, calc_q=True)
    off = max(float(np.max(np.abs(np.triu(H, 2)))),
              float(np.max(np.abs(np.diagonal(H).imag))))
    if off > tol:
        raise NumericalError(
            f"tridiagonal reduction left an entry of {off:.3e} off the "
            f"tridiagonal (tolerance {tol:.3e})")
    return np.diagonal(H).real.copy(), np.diagonal(H, -1).copy(), Q


def _low_values(d: Array, e: Array, count: int) -> Array:
    """Eigenvalues of the tridiagonal (d, e) in a window (-w, w] around 0.

    The window doubles from w = 1 until it holds `count` values or
    covers the Gershgorin bound; Sturm bisection then costs O(n) per value.
    """
    bound = float(np.max(np.abs(d)) + 2 * np.max(e, initial=0.0))
    w = 1.0
    while True:
        vals = eigvalsh_tridiagonal(d, e, select="v", select_range=(-w, w))
        if len(vals) >= count or w > bound:
            return vals
        w *= 2.0


def _lowest(vals: Array, m: int) -> Array:
    """The m values of smallest |lambda|, ascending; an exact +-tie at the
    cut is kept whole."""
    a = np.abs(vals)
    order = np.argsort(a, kind="stable")
    while 0 < m < len(vals) and a[order[m]] == a[order[m - 1]]:
        m += 1
    return np.sort(vals[order[:m]])


def _band_matvec(ab: Array, bw: int, x: Array) -> Array:
    """A @ x for A in (2 bw + 1, n) band storage, A[i, j] = ab[bw + i - j, j]."""
    y = ab[bw] * x
    for d in range(1, bw + 1):
        y[:-d] += ab[bw - d, d:] * x[d:]
        y[d:] += ab[bw + d, :-d] * x[:-d]
    return y


@dataclass
class ModeOperator:
    """Discrete radial Dirac operator of one mode, before or after a BC.

    `matrix` is the reduced operator in band storage, exactly Hermitian
    after the boundary condition is applied; eigenvectors are reported back
    on the staggered grids through `expand`.
    """

    surface: WarpedSurface
    k: float
    n_grid: int
    bc: BoundaryConditionSpec | None

    def __post_init__(self):
        if self.n_grid < 16:
            raise ConfigError("N too small: need at least 16 radial cells")
        FourierMode(self.k).validate(self.surface)
        if self.k < 0:
            raise ConfigError("ModeOperator assembles native modes k >= 0; "
                              "negative modes are solved by component swap")
        self._assemble()

    # -- grid data -----------------------------------------------------

    @property
    def h(self) -> float:
        return self.surface.length / self.n_grid

    @property
    def r_centers(self) -> Array:
        return self.surface.centers(self.n_grid)

    @property
    def r_vertices(self) -> Array:
        return self.surface.r_min + np.arange(self.n_grid + 1) * self.h

    # -- assembly --------------------------------------------------------

    def _stencil(self) -> tuple[Array, ...]:
        """Profile samples and the interior scheme rows.

        Returns (fc, fv, sigma, p_lo, p_hi, q_lo, q_hi): f at the centers and
        vertices, sigma = f'/2f + k/f at the centers, and the coefficients of
        row p_j, p_lo[j] q_j + p_hi[j] q_{j+1}, and of row q_i (0 < i < N),
        q_lo[i-1] p_{i-1} + q_hi[i-1] p_i.
        """
        surf, k, h = self.surface, self.k, self.h
        rc = self.r_centers
        fc, fpc, fv = surf.f(rc), surf.fp(rc), surf.f(self.r_vertices)
        sigma = fpc / (2 * fc) + k / fc
        fsig = fpc / 2 + k                       # f * sigma at centers
        p_lo = 1j * (-1.0 / h + sigma / 2)
        p_hi = 1j * (1.0 / h + sigma / 2)
        q_lo = 1j * (-fc[:-1] / h - fsig[:-1] / 2) / fv[1:-1]
        q_hi = 1j * (fc[1:] / h - fsig[1:] / 2) / fv[1:-1]
        return fc, fv, sigma, p_lo, p_hi, q_lo, q_hi

    def _assemble(self) -> None:
        """Weighted operator on the interleaved layout, reduced in band form.

        Unknowns are interleaved as q_0, p_0, q_1, ..., p_{N-1}, q_N (q_i at
        2 i, p_j at 2 j + 1).  H = M^1/2 D M^-1/2 is tridiagonal with a zero
        diagonal there, except for the two boundary-vertex rows, and the
        boundary constraints touch only the end windows.  So the dense
        elimination runs on the two windows alone and the middle of the
        reduced operator is the tridiagonal part of H, shifted.
        """
        surf, k, N, h = self.surface, self.k, self.n_grid, self.h
        fc, fv, sigma, p_lo, p_hi, q_lo, q_hi = self._stencil()
        clo = _closures(surf, k, self.bc)
        n_full, W = 2 * N + 1, _WINDOW

        active = np.ones(n_full, dtype=bool)
        active[0] = clo["inner"][0] in ("local", "pdir")
        active[-1] = clo["outer"][0] in ("local", "pdir")
        m = np.ones(n_full)               # 1 stands in at inactive vertices
        m[1::2] = h * fc
        m[2:-1:2] = h * fv[1:-1]
        if active[0]:
            m[0] = 0.5 * h * fc[0] * (1 - h * sigma[0] / 2)
        if active[-1]:
            m[-1] = 0.5 * h * fc[-1] * (1 + h * sigma[-1] / 2)
        if np.any(m[active] <= 0):
            raise NumericalError("nonpositive quadrature weight in assembly")
        msq = np.sqrt(m)

        # lower[r] = H[r+1, r] and upper[r] = H[r, r+1], each from its own row
        lower = np.zeros(n_full - 1, dtype=complex)
        upper = np.zeros(n_full - 1, dtype=complex)
        lower[0::2] = p_lo                # row p_j, column q_j
        lower[1:-1:2] = q_lo              # row q_i, column p_{i-1}
        upper[1::2] = p_hi                # row p_j, column q_{j+1}
        upper[2::2] = q_hi                # row q_i, column p_i
        lower *= msq[1:] / msq[:-1]
        upper *= msq[:-1] / msq[1:]

        def window(at: int) -> Array:
            return (np.diag(lower[at: at + W - 1], -1)
                    + np.diag(upper[at: at + W - 1], 1))

        # Boundary-vertex rows: the equation i(p' + tau p_B) at the boundary,
        # p' from the one-sided slope stencil and p_B from its companion trace
        # stencil (offsets h/2, 3h/2, 5h/2) -- the unique pair that keeps the
        # reduced operator exactly Hermitian with the half-cell mass G h / 2.
        # Per end: window start, boundary vertex and nearest centers (window
        # positions), d/dr weights (the inward slope, negated at the outer
        # end), boundary radius
        ends = {"inner": (0, 0, (1, 3, 5), SLOPE_STENCIL, surf.r_min),
                "outer": (n_full - W, W - 1, (5, 3, 1),
                          tuple(-w for w in SLOPE_STENCIL), surf.r_max)}
        reduced = {}
        for which, (at, q, ps, dws, r_b) in ends.items():
            block = window(at)
            if active[at + q]:
                tau = float(surf.fp(r_b) / (2 * surf.f(r_b)) - k / surf.f(r_b))
                for pw, dw, ew in zip(ps, dws, TRACE_STENCIL):
                    block[q, pw] = (1j * (dw / h + tau * ew)
                                    * (msq[at + q] / msq[at + pw]))
            reduced[which] = _reduce_window(
                block, msq[at: at + W], active[at: at + W],
                _end_constraint(clo[which], q, ps))
        (Zh, Ah, kinds_h), (Zt, At, kinds_t) = reduced["inner"], reduced["outer"]

        # links of the middle, including the two that cross into the windows
        mid_lo, mid_up = lower[W - 1: n_full - W], upper[W - 1: n_full - W]
        if not all(np.all(np.isfinite(b)) for b in (Ah, At, mid_lo, mid_up)):
            raise NumericalError("non-finite entries in the reduced operator")
        herm = max(float(np.max(np.abs(Ah - Ah.conj().T))),
                   float(np.max(np.abs(At - At.conj().T))),
                   float(np.max(np.abs(mid_lo - np.conj(mid_up)))))
        scale = max(float(np.max(np.abs(b))) for b in
                    (Ah, At, mid_lo, mid_up)) or 1.0
        if herm > _HERM_TOL * max(1.0, scale):
            raise NumericalError(
                f"reduced operator lost Hermiticity: {herm:.3e} (scale {scale:.3e})")
        # strip roundoff asymmetry only
        Ah, At = 0.5 * (Ah + Ah.conj().T), 0.5 * (At + At.conj().T)
        mid_lo = 0.5 * (mid_lo + np.conj(mid_up))

        tol = 1e-14 * max(1.0, scale)
        bw = max(1, _bandwidth(Ah, tol), _bandwidth(At, tol))
        if bw > _MAX_BANDWIDTH:
            raise NumericalError(f"unexpected bandwidth {bw} after reduction")

        rh, rt = len(kinds_h), len(kinds_t)
        n = rh + (n_full - 2 * W) + rt
        ab = np.zeros((2 * bw + 1, n), dtype=complex)
        ab[bw + 1, rh - 1: rh - 1 + len(mid_lo)] = mid_lo
        ab[bw - 1, rh: rh + len(mid_lo)] = np.conj(mid_lo)
        _put_block(ab, bw, 0, Ah)
        _put_block(ab, bw, n - rt, At)

        kinds = kinds_h + kinds_t         # the middle adds N - 6 p, N - 7 q
        n_p = kinds.count("p") + (N - W + 1)
        n_q = len(kinds) - kinds.count("p") + (N - W)
        self._bipartite = "mixed" not in kinds
        if not self._bipartite or n_p == n_q:
            self._zeros = None
        else:
            self._zeros = (abs(n_p - n_q), "spurious" if n_q > n_p else "harmonic")

        self._ab, self._bw, self._herm = ab, bw, herm
        self._m, self._msq = m[active], msq
        self._head, self._tail = Zh, Zt

    # -- public surface --------------------------------------------------

    @property
    def matrix(self) -> Array:
        """Reduced operator in (2 bw + 1, n) band storage, the layout of
        scipy.linalg.solve_banded: A[i, j] = matrix[bw + i - j, j]."""
        return self._ab

    @property
    def weights(self) -> Array:
        """Quadrature weights of the staggered degrees of freedom."""
        return self._m.copy()

    def hermiticity_residual(self) -> float:
        """max |A - A^H| of the reduced operator as assembled, before the
        roundoff symmetrization."""
        return self._herm

    def apply_interior(self, p: Array, q_full: Array) -> tuple[Array, Array]:
        """Apply the scheme rows to given staggered samples (oracle checks).

        Returns ((D v)_1 at the N centers, (D v)_2 at the N-1 interior
        vertices); boundary-vertex rows are closure-specific and excluded.
        """
        _, _, _, p_lo, p_hi, q_lo, q_hi = self._stencil()
        p = np.asarray(p, complex)
        q = np.asarray(q_full, complex)
        return p_lo * q[:-1] + p_hi * q[1:], q_lo * p[:-1] + q_hi * p[1:]

    @property
    def structural_zeros(self) -> tuple[int, str] | None:
        """Exact zero eigenvalues forced by the staggered block dimensions.

        APS-type closures keep the two spinor components in separate blocks,
        so the reduced operator anticommutes with the component grading and
        carries |n_p - n_q| exact zeros.  A surplus on the vertex side is a
        boundary-window artifact of the over-determined closure ("spurious",
        removed from reported spectra after verification); a surplus on the
        center side is a discrete harmonic spinor ("harmonic", kept - these
        are genuine for the experimental aps+ condition).
        """
        return self._zeros

    def tridiagonal(self) -> tuple[Array, Array]:
        """Real symmetric tridiagonal (d, e) unitarily similar to `matrix`.

        The band is tridiagonal outside the head block (reduced columns
        0..rh-1) and the tail block (the last rt), and each block meets the
        middle through one index, rh - 1 and n - rt.  A Householder
        tridiagonalization of each block whose unitary fixes that index (the
        head block index-reversed) leaves the rest untouched; a diagonal
        unitary gauge g then makes every off-diagonal |e|.  O(n) in all.  An
        eigenvector z of (d, e) maps back to blockdiag(Q_head, I, Q_tail)
        (g * z); the two unitaries and g are kept for that.  A bipartite
        operator (no column mixes p and q) has a zero diagonal: it is checked
        at roundoff and set to exact zeros.
        """
        ab, bw = self._ab, self._bw
        n = ab.shape[1]
        rh, rt = self._head.shape[1], self._tail.shape[1]
        tol = _HERM_TOL * max(1.0, float(np.max(np.abs(ab))))
        dh, lh, qh = _tridiagonal_block(
            _dense_block(ab, bw, 0, rh)[::-1, ::-1], tol)
        dt, lt, qt = _tridiagonal_block(_dense_block(ab, bw, n - rt, rt), tol)
        d = np.concatenate([dh[::-1], ab[bw, rh: n - rt].real, dt])
        lower = np.concatenate([np.conj(lh[::-1]), ab[bw + 1, rh - 1: n - rt], lt])
        e = np.abs(lower)
        phase = np.ones(n, dtype=complex)
        np.divide(lower, e, out=phase[1:], where=e > 0)
        gauge = np.cumprod(phase)     # drifts off |g| = 1 by O(n eps): rescale
        self._back = (qh[::-1, ::-1], qt, gauge / np.abs(gauge))
        if self._bipartite:
            dmax = float(np.max(np.abs(d)))
            if dmax > tol:
                raise NumericalError(
                    f"bipartite operator has a diagonal entry {dmax:.3e} "
                    f"(tolerance {tol:.3e})")
            d = np.zeros(n)
        return d, e

    def eigensystem(self, n_vectors: int | None = None,
                    n_values: int | None = None
                    ) -> tuple[Array, Array | None, Array | None]:
        """Eigenvalues (structural zeros deflated when spurious) and,
        optionally, eigenvectors for the n_vectors smallest |lambda|.

        n_values=None computes every eigenvalue of the tridiagonal form
        (dsterf); otherwise only the max(n_values, n_vectors) smallest
        |lambda| (Sturm bisection on a window around 0, O(n)).  A
        bipartite operator has an exactly symmetric spectrum: its positive
        eigenvalues are reported with their mirror images, so a +-pair is an
        exact tie.  Eigenvectors come from the same tridiagonal form (stebz
        and stein, O(n) each), checked by their residual against `matrix`.

        Returns (values ascending, selected values, selected vectors in
        reduced coordinates, one per column).
        """
        d, e = self.tridiagonal()
        n = len(d)
        struct = self.structural_zeros
        n_zero = struct[0] if struct is not None else 0
        want = None if n_values is None else max(n_values, n_vectors or 0)
        full = want is None or want + n_zero + 1 >= n
        try:
            if full:
                vals = eigvalsh_tridiagonal(d, e, lapack_driver="sterf")
            else:
                # one spare value: a +-pair may straddle the window's edge
                vals = _low_values(d, e, want + n_zero + 1)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"tridiagonal eigensolver failed: {exc}") from exc

        order = np.argsort(np.abs(vals), kind="stable")
        zeros, rest = vals[order[:n_zero]], vals[order[n_zero:]]
        if struct is not None and struct[1] == "spurious":
            # spurious zeros need a bipartite operator, whose spectrum is
            # symmetric: the top eigenvalue is the spectral radius
            radius = float(np.max(np.abs(vals))) if full else float(
                eigvalsh_tridiagonal(d, e, select="i",
                                     select_range=(n - 1, n - 1))[0])
            tol0 = 1e-8 * max(1.0, radius)
            if np.any(np.abs(zeros) > tol0):
                raise NumericalError(
                    "expected exact structural kernel, found "
                    f"{zeros!r}; refusing to deflate")
            zeros = zeros[:0]
        if self._bipartite:
            pos = rest[rest > 0]
            rest = np.concatenate([-pos, pos])
        vals = np.sort(np.concatenate([zeros, rest]))
        if want is not None:
            vals = _lowest(vals, want)

        if n_vectors is None:
            return vals, None, None
        n_sel = min(n_vectors, len(vals))
        if n_sel == 0:
            return vals, np.empty(0), np.empty((n, 0), dtype=complex)
        order = np.argsort(np.abs(vals), kind="stable")
        wanted = np.sort(vals[order[:n_sel]])
        ab, bw = self._ab, self._bw
        scale = max(float(np.max(np.abs(ab))), 1.0)
        # stebz + stein give n x m vectors (scipy's stemr allocates n x n);
        # the bracket may also hold a deflated zero, so take the nearest
        slack = 1e-10 * scale
        try:
            got, z = eigh_tridiagonal(d, e, select="v", lapack_driver="stebz",
                                      select_range=(wanted[0] - slack,
                                                    wanted[-1] + slack))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"tridiagonal eigenvectors failed: {exc}") from exc
        pick = np.argmin(np.abs(got[:, None] - wanted), axis=0) if len(got) else []
        if len(set(pick)) < n_sel:
            raise NumericalError(f"eigenvectors missing near {wanted!r}")
        qh, qt, g = self._back
        y = g[:, None] * z[:, pick]
        y[:len(qh)] = qh @ y[:len(qh)]
        y[-len(qt):] = qt @ y[-len(qt):]
        for lam, col in zip(wanted, y.T):
            resid = float(np.linalg.norm(_band_matvec(ab, bw, col) - lam * col))
            if resid > 1e-10 * scale:
                raise NumericalError(f"eigenvector residual {resid:.2e} at "
                                     f"lambda={lam!r} (scale {scale:.2e})")
        return vals, wanted, y

    def expand(self, y: Array) -> tuple[Array, Array]:
        """Reduced eigenvector -> staggered samples (p at centers, q at all
        vertices, eliminated vertex values filled with their exact zeros)."""
        W = _WINDOW
        rh, rt = self._head.shape[1], self._tail.shape[1]
        xhat = np.empty(len(self._msq), dtype=complex)
        xhat[:W] = self._head @ y[:rh]
        xhat[W:-W] = y[rh: len(y) - rt]
        xhat[-W:] = self._tail @ y[len(y) - rt:]
        x = xhat / self._msq
        return x[1::2], x[0::2]


# ---------------------------------------------------------------------------
# eigen solves, spectra
# ---------------------------------------------------------------------------

@dataclass
class Eigenpair:
    lam: float
    k: float
    field: SpinorField | None = None


@dataclass
class ModeSolution:
    k: float
    lams: Array                       # eigenvalues (all or the lowest), ascending
    pairs: list                       # Eigenpairs with fields, by |lam|
    op: ModeOperator | None = None    # the native operator that was solved
    samples: tuple = ()               # (lam, p, q) staggered eigenvectors

    def mirrored(self) -> "ModeSolution":
        """The solution at -k, whose native operator is this one under
        aps+- and exactly -conj of it (band and end bases) under local+-:
        same levels and vectors, or levels -lams and conjugate vectors; the
        fields take their components swapped back.
        """
        k, lams, samples = -self.k, self.lams, self.samples
        if self.op.bc.is_local:
            lams = -lams[::-1]
            samples = tuple((-lam, np.conj(p), np.conj(q))
                            for lam, p, q in samples)
        return ModeSolution(k, lams, _pairs(self.op, samples, k), self.op,
                            samples)


def _phase_norm_scale(field_values: Array) -> complex:
    """Scalar making the first significant component real positive and the
    physical L^2(M) norm one (reduced vectors arrive with weighted norm 1)."""
    flat = field_values.ravel()
    big = np.abs(flat) > 1e-12 * float(np.max(np.abs(flat)))
    first = int(np.argmax(big))
    ph = flat[first] / abs(flat[first])
    return np.conj(ph) / np.sqrt(2 * np.pi)


def _collocate(op: ModeOperator, p: Array, q: Array, swap: bool) -> SpinorField:
    vals = np.empty((op.n_grid, 2), dtype=complex)
    vals[:, 0] = p
    vals[:, 1] = 0.5 * (q[:-1] + q[1:])
    if op.surface.cap:
        # vertex component vanishes like r^(k+1/2) at the pole; the midpoint
        # average is first-order there, the power rule restores second order
        vals[0, 1] = q[1] * 0.5 ** (op.k + 0.5)
    traces = {}
    for which in op.surface.boundaries:
        if which == "outer":
            tr = np.array([apply_stencil(TRACE_STENCIL, p[:-4:-1]), q[-1]])
        else:
            tr = np.array([apply_stencil(TRACE_STENCIL, p[:3]), q[0]])
        traces[which] = tr[::-1].copy() if swap else tr
    if swap:
        vals = vals[:, ::-1]
    k = -op.k if swap else op.k
    scale = _phase_norm_scale(vals)
    vals = vals * scale
    traces = {w: t * scale for w, t in traces.items()}
    return SpinorField(op.surface, k, op.r_centers, vals, traces)


def _pairs(op: ModeOperator, samples: tuple, k: float) -> list:
    """Eigenpairs of mode k (by |lam|) from eigenvectors of the native operator."""
    pairs = []
    for lam, p, q in samples:
        pairs.append(Eigenpair(lam, k, _collocate(op, p, q, swap=k < 0)))
    pairs.sort(key=lambda e: (abs(e.lam), e.lam))
    return pairs


def solve_mode(surface: WarpedSurface, k: float, bc: BoundaryConditionSpec,
               N: int, n_fields: int = 4, n_levels: int | None = None
               ) -> ModeSolution:
    """Eigen-solve one mode; a negative mode is the mirror of the native
    solve at |k| (`ModeSolution.mirrored`).

    n_levels=None keeps every eigenvalue; otherwise only the n_levels
    smallest |lambda| (at least n_fields) are computed.
    """
    if bc is None:
        raise ConfigError("solve_mode needs a boundary condition")
    if k < 0:
        return solve_mode(surface, -k, bc, N, n_fields, n_levels).mirrored()
    op = ModeOperator(surface, k, N, bc=bc)
    vals, wv, vec = op.eigensystem(n_vectors=n_fields, n_values=n_levels)
    samples = tuple((float(lam), *op.expand(vec[:, col]))
                    for col, lam in enumerate(wv))
    return ModeSolution(k, vals, _pairs(op, samples, k), op, samples)


@dataclass
class Spectrum:
    """Aggregated spectrum over modes |k| <= k_max with deterministic order."""

    surface: WarpedSurface
    bc: BoundaryConditionSpec
    n_grid: int
    k_max: float
    levels: Array                 # (n, 2) columns (lambda, k), sorted
    eigenpairs: tuple             # low-lying Eigenpairs with fields
    kmax_attained: bool

    @property
    def lambda_min(self) -> float:
        return float(self.levels[0, 0])

    @property
    def lambda_min_sq(self) -> float:
        return float(self.levels[0, 0] ** 2)

    @property
    def k_min(self) -> float:
        return float(self.levels[0, 1])

    @property
    def fundamental(self) -> Eigenpair:
        return self.eigenpairs[0]

    def eigenvalues(self, k: float | None = None) -> Array:
        if k is None:
            return self.levels[:, 0].copy()
        sel = self.levels[np.abs(self.levels[:, 1] - k) < 1e-9]
        return np.sort(sel[:, 0])


def aggregate(surface: WarpedSurface, bc: BoundaryConditionSpec,
              k_max: float = 12.5, N: int = 256,
              n_fields_per_mode: int = 4,
              n_levels: int | None = None) -> Spectrum:
    """Solve all modes |k| <= k_max and merge into one Spectrum.

    `levels` holds every eigenvalue of each mode, or with n_levels only the
    n_levels smallest |lambda| of each (enough for lambda_min and the low
    fields).  Each |k| is solved once, natively; mode -k is the exact
    mirror of that solution, so a +-lambda tie between the two modes is
    exact and the (|lambda|, k, sign) order settles it the same way
    everywhere.  Modes merge in fixed order, so results are deterministic.
    """
    modes = modes_for(surface, k_max)
    native: dict = {}
    sols = []
    for kk in modes:
        if abs(kk) not in native:
            native[abs(kk)] = solve_mode(surface, abs(kk), bc, N,
                                         n_fields_per_mode, n_levels)
        sols.append(native[abs(kk)].mirrored() if kk < 0 else native[abs(kk)])

    rows = []
    pairs = []
    for sol in sols:
        rows.append(np.column_stack([sol.lams, np.full(len(sol.lams), sol.k)]))
        pairs.extend(sol.pairs)
    levels = np.vstack(rows)
    order = np.lexsort((np.sign(levels[:, 0]), levels[:, 1], np.abs(levels[:, 0])))
    levels = levels[order]
    pairs.sort(key=lambda e: (abs(e.lam), e.k, np.sign(e.lam)))
    attained = bool(abs(abs(levels[0, 1]) - max(abs(m) for m in modes)) < 1e-9)
    return Spectrum(surface, bc, N, k_max, levels, tuple(pairs), attained)


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

def convergence_study(surface: WarpedSurface, bc: BoundaryConditionSpec,
                      Ns: list[int], k_max: float = 2.5,
                      drift_tol: float = 1e-3) -> list[dict]:
    """|lambda_min| versus N with Richardson order estimates.

    The magnitude is tracked because the fundamental level often comes as a
    +-pair.  Only the lowest level of each mode is computed.  Needs at least
    three ascending grid sizes for an order estimate; the 'converged' flag
    records drift below drift_tol between the last two.
    """
    if len(Ns) < 3:
        raise ConfigError("convergence study needs at least 3 grid sizes")
    if sorted(Ns) != list(Ns):
        raise ConfigError("grid sizes must be ascending")
    lams = [abs(aggregate(surface, bc, k_max, N, n_fields_per_mode=0,
                          n_levels=1).lambda_min) for N in Ns]
    rows = []
    for i, (N, lam) in enumerate(zip(Ns, lams)):
        order = None
        if i >= 2:
            d1 = abs(lams[i - 1] - lams[i - 2])
            d2 = abs(lams[i] - lams[i - 1])
            if d2 > 0 and d1 > 0:
                order = float(np.log(d1 / d2)
                              / np.log(Ns[i] / Ns[i - 1]))
        converged = i == len(Ns) - 1 and abs(lams[i] - lams[i - 1]) < drift_tol
        rows.append({"N": N, "lambda_min": lam, "order": order,
                     "converged": bool(converged)})
    return rows
