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

The operator is built in O(N) time and memory.  On the
interleaved unknowns q_0, p_0, q_1, ..., p_{N-1}, q_N (p the center
component, q the vertex component) the interior rows are tridiagonal with
a zero diagonal; only the two boundary-vertex rows and the boundary
constraints reach further, and they stay inside a window of 7 unknowns at
each end.  The constraint elimination runs densely on those two
windows; the reduced operator is kept as its two end blocks and the middle
links; the (2 bw + 1, n) band (bandwidth at most 5) is built from them
only where eigenvectors are checked against it.  The profile samples that
do not depend on k (`WarpedSurface.grid_samples`) are taken once per grid
and command by the executor and read by every mode's assembly.

Eigenvalues come from an exactly equivalent real symmetric tridiagonal
form, built in O(N) from the blocks and links: the operator is tridiagonal
outside its two end blocks, a Householder tridiagonalization of each block
that fixes the one index through which it meets the middle leaves the rest
untouched, and a diagonal unitary gauge makes the off-diagonals real and
nonnegative.  The full spectrum (`spectrum`) comes from dsterf, or, for a
bipartite operator, from the dqds singular values of the bidiagonal hidden in its form (below);
the few smallest |lambda| that lambda_min needs come from Sturm bisection
of only the intervals that Sturm counts pick, in O(N)
(`ModeOperator._low_levels`).  The form keeps each end block's
Householder reflectors, not its unitary: a levels-only solve runs zgehrd
alone, and one set of Sturm counts serves its probe and its level solve.
The few eigenvectors come from the same form with no second bisection:
Sturm counts confirm each level given, and stein solves the vectors of
the levels as given, mapped back through the unitaries, which
zunghr builds from the kept reflectors only then, and the gauge, and
checked by their residual against the band.  The one field a command
reads, the fundamental's, is the eigenvector of levels[0] in its mode's
operator, assembled once more: the level is never solved twice.  A mode
solve (`solve_mode`) reports levels only, and every eigenpair is built by
one routine, `eigenpairs`, from the levels it belongs to.  Every
LAPACK routine is called through `_lapack`: from numpy's bundled
OpenBLAS, or scipy's table where that is missing.

Every command solves its modes through one executor, `full_spectra`: it
runs each native solve (below) once per command, so local+ and local- on
one grid share it.  Threads follow a measured rule (the benchmark's
`wall_s`, 2 cores).  Full spectra are solved on one thread pool per call,
one thread per available CPU: almost all of an O(N^2) full solve is dsterf
or dlasq1, and `_lapack`'s ctypes calls release the GIL for their length,
so the solves run side by side.  `spectrum` makes one such call for all
its conditions and grids; the largest grid is solved first, and each
grid's CSV is formatted while the pool solves the rest.  Selective solves,
which `verify`, `bounds` and `convergence` ask for by the levels per mode
they read, run inline, in the order of the command's entries: they are
O(N) and mostly Python and numpy work under the GIL, and on a pool they
ran slower.  They serve lambda_min, so they take the |k| in ascending
order and probe every mode after the first with Sturm counts on a window
just wider than the smallest |lambda| found so far
(`ModeOperator.clear_of`); only a mode with a level in that window, other
than its spurious structural zeros, is bisected, and the rest hold no rows.
The probe bisects nothing: it counts the zeros in the one zero window that
the level solve's counts also read, `_tol0` less twice dstebz's tolerance,
so a zero counted there is one that `_deflate` drops.

Modes with k < 0 go through the unitary component swap (v1, v2) -> (v2, v1),
which maps mode k to mode -k and swaps the two local boundary conditions
while fixing each APS condition.  At a cap this keeps the vertex component
the faster-vanishing one at the pole, where the regular closure (vertex
value 0) is then exact for every mode.  Mode -k is thus the native operator
at |k| under the swapped condition: the same operator under aps+-, exactly
-conj of it under local+-.  For the same reason the native local- operator
is exactly -conj of the local+ one at the same k.  So each mode is one
native solve at |k|, under aps+- or local+, and a local one is reported
negated (levels and vectors of -conj) when exactly one of local-, k < 0 holds.

Under aps+- every reduced column is pure p or pure q, so the operator is
bipartite: its tridiagonal form has a zero diagonal (checked at roundoff)
and its spectrum is exactly symmetric.  Its full spectrum is +-sigma, sigma
the singular values of the bidiagonal formed by alternate off-diagonals,
which LAPACK's dqds (dlasq1) computes to high relative accuracy in about a
third of dsterf's time.  It is reported that way, positive eigenvalues with
their mirror images, so the ordering tie of a +-pair always resolves to the
same sign.

APS conventions: the admissible boundary values for aps- have no component
on eigenvectors of e0 . D_boundary with eigenvalue >= 0 (kernel included in
the constrained set); aps+ is the mirror image and is exposed as an
experimental condition.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np

from ._lapack import (SturmCounts, bidiagonal_singular_values,
                      eigvalsh_tridiagonal, hessenberg_q,
                      hessenberg_reflectors, null_space, tridiagonal_vectors)
# unused here; perfbench --trace counts calls to this name
from ._lapack import solve_tridiagonal as solve_banded  # noqa: F401
from .geometry import (SLOPE_STENCIL, TRACE_STENCIL, ConfigError,
                       WarpedSurface, _check_mode, apply_stencil, modes_for)
from .identities import SpinorField

Array = np.ndarray

BC_VARIANTS = ("local+", "local-", "aps-", "aps+")

_HERM_TOL = 1e-12


class NumericalError(RuntimeError):
    """Eigensolver or optimizer failure (never silent truncation); a LAPACK
    LinAlgError becomes one in `solve_mode` and `eigenpairs` only, not in
    `ModeOperator`."""


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


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

# (inner, outer) closures of each condition at k != 0
_END_CLOSURES = {"local+": (("local", 1j), ("local", -1j)),
                 "local-": (("local", -1j), ("local", 1j)),
                 "aps-": (("qdir", None), ("pdir", None)),
                 "aps+": (("pdir", None), ("qdir", None))}


def _closures(surface: WarpedSurface, k: float,
              bc: BoundaryConditionSpec) -> dict:
    """Per-end closure type for the native solve (k >= 0 only).

    'qdir'  : vertex component fixed to zero (also a cap pole, where it
              vanishes exactly)
    'local' : chirality constraint q_b = gamma * (extrapolated p), gamma = +-i
    'pdir'  : extrapolated center component vanishes, vertex value free
    'both'  : qdir and pdir together (APS at a mode where e0.D_bnd = 0)
    """
    inner, outer = _END_CLOSURES[bc.variant]
    if bc.is_aps and k == 0:
        inner = outer = ("both", None)
    return {"inner": ("qdir", None) if surface.cap else inner, "outer": outer}


# End windows of the interleaved layout: 7 dofs hold each end's constraint
# support (q_b and the three nearest p) and every dof coupled to it, so the
# elimination never reaches past a window and the first and last window dof
# are plain unknowns.  Both windows start at a vertex, so even window
# positions are q and odd ones p.
_WINDOW = 7
# the entries above the first superdiagonal of a reduced window block
_ABOVE = ~np.tri(_WINDOW, k=1, dtype=bool)


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
    cols = []                         # (kind, rows, entries) of each column
    for a in range(w):
        if sup and a == min(sup):
            coef = np.array(constraint[1], dtype=complex) / msq[sup]
            sup_kinds = {kinds[b] for b in sup}
            kind = sup_kinds.pop() if len(sup_kinds) == 1 else "mixed"
            cols += [(kind, sup, zc) for zc in null_space(coef[None, :]).T]
        elif active[a] and a not in sup:
            cols.append((kinds[a], a, 1.0))
    Z = np.zeros((w, len(cols)), dtype=complex)
    for j, (_, rows, entries) in enumerate(cols):
        Z[rows, j] = entries
    return Z, Z.conj().T @ H @ Z, [kind for kind, _, _ in cols]


def _bandwidth(abs_block: Array, tol: float) -> int:
    i, j = np.nonzero(abs_block > tol)
    return int(np.abs(i - j).max(initial=0))


def _put_block(ab: Array, bw: int, at: int, block: Array) -> None:
    """Write a dense diagonal block at row/column `at` into band storage."""
    reach = min(bw, block.shape[0] - 1)
    for off in range(-reach, reach + 1):
        diag = np.diagonal(block, -off)
        j0 = at + max(0, -off)
        ab[bw + off, j0: j0 + len(diag)] = diag


def _tridiagonal_block(block: Array, tol: float) -> tuple[Array, Array, tuple]:
    """Householder tridiagonal form T = Q^H block Q of a Hermitian block, by
    a unitary Q that fixes the block's first index.

    Returns the real diagonal of T, its complex subdiagonal and the
    reflectors of Q, from which `hessenberg_q` builds Q.  The Hessenberg
    reduction (no balancing) applies its reflectors to the indices after
    the first only.  A Hermitian block comes out tridiagonal; an entry
    beyond the first off-diagonal, or an imaginary diagonal part, above
    `tol` is refused, never dropped.  The block has at most `_WINDOW`
    indices.
    """
    r, tau = hessenberg_reflectors(block)
    diag, n = np.diagonal(r), len(r)
    off = max(float(np.abs(r[_ABOVE[:n, :n]]).max(initial=0.0)),
              float(np.abs(diag.imag).max(initial=0.0)))
    if off > tol:
        raise NumericalError(
            f"tridiagonal reduction left an entry of {off:.3e} off the "
            f"tridiagonal (tolerance {tol:.3e})")
    return diag.real.copy(), np.diagonal(r, -1).copy(), (r, tau)


def _bipartite_values(e: Array) -> Array:
    """Every eigenvalue of the zero-diagonal tridiagonal with off-diagonal e.

    Ordering the indices even-first makes it [[0, B], [B^T, 0]] with B the
    upper bidiagonal of diagonal e[0::2] and superdiagonal e[1::2], padded
    to a square by one zero diagonal entry when n is odd.  Its eigenvalues
    are +-sigma over the singular values sigma of B, the pad's exact zero
    counted once.  Returns -sigma (pad dropped) then sigma ascending.
    """
    n = len(e) + 1
    m = (n + 1) // 2
    d = np.zeros(m)
    d[:n // 2] = e[0::2]
    sup = np.zeros(m)                 # dlasq1 reads m - 1, needs room for m
    sup[:m - 1] = e[1::2]
    sigma = bidiagonal_singular_values(d, sup)[::-1]
    # + 0.0 turns a -0.0 of an exact zero singular value into 0.0
    return np.concatenate([-sigma[n % 2:], sigma]) + 0.0


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
    """Discrete radial Dirac operator of one mode under a boundary condition.

    Assembly reads the grid's k-free samples (`WarpedSurface.grid_samples`,
    given or computed here) and keeps the reduced operator, exactly
    Hermitian, as its end blocks and middle links (`_blocks`, read-only).
    The rest is built from them when first read, once: the tridiagonal form
    (d, e) (`tridiagonal`) from each end block's Householder reflectors
    alone, and one `SturmCounts` of it that every count of the operator
    shares; the band `matrix` that checks eigenvectors.  The back-map of
    the eigenvectors (the end blocks' unitaries and the gauge) is built by
    `eigenvectors`, from the reflectors the form kept, for levels the
    counts confirm.  So a levels-only solve builds no back-map and no band.
    Eigenvectors are reported back on the staggered grids through `expand`.
    """

    surface: WarpedSurface
    k: float
    n_grid: int
    bc: BoundaryConditionSpec
    samples: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.n_grid < 16:
            raise ConfigError("N too small: need at least 16 radial cells")
        _check_mode(self.surface, self.k)
        if self.k < 0:
            raise ConfigError("ModeOperator assembles native modes k >= 0; "
                              "negative modes are solved by component swap")
        self.samples = self.samples or self.surface.grid_samples(self.n_grid)
        self._assemble()

    # -- grid data -----------------------------------------------------

    @property
    def h(self) -> float:
        return self.surface.length / self.n_grid

    @property
    def r_centers(self) -> Array:
        return self.surface.centers(self.n_grid)

    # -- assembly --------------------------------------------------------

    def _stencil(self) -> tuple[Array, ...]:
        """Profile samples and the interior scheme rows.

        Returns (fc, fv, sigma, p_lo, p_hi, q_lo, q_hi): f at the centers and
        vertices, sigma = f'/2f + k/f at the centers, and the coefficients of
        row p_j, p_lo[j] q_j + p_hi[j] q_{j+1}, and of row q_i (0 < i < N),
        q_lo[i-1] p_{i-1} + q_hi[i-1] p_i.
        """
        k, h = self.k, self.h
        fc, fv, half, fpc2 = self.samples[:4]
        sigma = half + k / fc                    # f'/2f + k/f
        fsig = fpc2 + k                          # f * sigma at centers
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
        if not np.all(np.isfinite(m[active])):
            raise NumericalError("nonpositive or non-finite quadrature weight "
                                 "in assembly")
        if not np.all(m[active] > 0):
            # an end half-cell weight turns once h sigma reaches 2
            raise ConfigError(
                f"N = {N} is too coarse for the surface {surf.name} at "
                f"|k| = {k:g}: a quadrature weight is not positive; raise N")
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
        # end), (f, f') at the boundary radius
        ends = {"inner": (0, 0, (1, 3, 5), SLOPE_STENCIL, self.samples[4]),
                "outer": (n_full - W, W - 1, (5, 3, 1),
                          tuple(-w for w in SLOPE_STENCIL), self.samples[5])}
        reduced = {}
        for which, (at, q, ps, dws, (fb, fpb)) in ends.items():
            block = window(at)
            if active[at + q]:
                tau = float(fpb / (2 * fb) - k / fb)
                for pw, dw, ew in zip(ps, dws, TRACE_STENCIL):
                    block[q, pw] = (1j * (dw / h + tau * ew)
                                    * (msq[at + q] / msq[at + pw]))
            reduced[which] = _reduce_window(
                block, msq[at: at + W], active[at: at + W],
                _end_constraint(clo[which], q, ps))
        (Zh, Ah, kinds_h), (Zt, At, kinds_t) = reduced["inner"], reduced["outer"]

        # links of the middle, including the two that cross into the windows
        mid_lo, mid_up = lower[W - 1: n_full - W], upper[W - 1: n_full - W]
        if not all(np.isfinite(b).all() for b in (Ah, At, mid_lo, mid_up)):
            raise NumericalError("non-finite entries in the reduced operator")
        herm = max(float(np.abs(Ah - Ah.conj().T).max()),
                   float(np.abs(At - At.conj().T).max()),
                   float(np.abs(mid_lo - np.conj(mid_up)).max()))
        # strip roundoff asymmetry only
        Ah, At = 0.5 * (Ah + Ah.conj().T), 0.5 * (At + At.conj().T)
        mid_lo = 0.5 * (mid_lo + np.conj(mid_up))
        abs_h, abs_t = np.abs(Ah), np.abs(At)
        # the tolerances' one scale: the largest entry, at least 1
        self._scale = max(1.0, float(abs_h.max()), float(np.abs(mid_lo).max()),
                          float(abs_t.max()))
        if herm > _HERM_TOL * self._scale:
            raise NumericalError(f"reduced operator lost Hermiticity: "
                                 f"{herm:.3e} (scale {self._scale:.3e})")

        # at most 5: an end block has at most 6 columns (7 window dofs, one
        # fewer in a constraint's null space, and a qdir end drops its vertex)
        tol = 1e-14 * self._scale
        bw = max(1, _bandwidth(abs_h, tol), _bandwidth(abs_t, tol))

        kinds = kinds_h + kinds_t         # the middle adds N - 6 p, N - 7 q
        n_p = kinds.count("p") + (N - W + 1)
        n_q = len(kinds) - kinds.count("p") + (N - W)
        self._bipartite = "mixed" not in kinds
        # Exact zeros forced by the staggered block dimensions: APS-type
        # closures keep the two spinor components in separate blocks, so the
        # reduced operator anticommutes with the component grading and
        # carries |n_p - n_q| exact zeros.  A surplus on the vertex side is a
        # boundary-window artifact of the over-determined closure (spurious,
        # removed from reported spectra after `_deflate`'s check); one on the
        # center side is a discrete harmonic spinor (kept: genuine for the
        # experimental aps+ condition).  At most one count is nonzero.
        self._spurious = max(n_q - n_p, 0) if self._bipartite else 0
        self._harmonic = max(n_p - n_q, 0) if self._bipartite else 0

        self._bw, self._herm = bw, herm
        self._blocks = (Ah, mid_lo, At)
        for b in self._blocks:    # the cached tridiagonal form reads them once
            b.flags.writeable = False
        self._m, self._msq = m[active], msq
        self._head, self._tail = Zh, Zt

    # -- public surface --------------------------------------------------

    @functools.cached_property
    def matrix(self) -> Array:
        """Reduced operator in (2 bw + 1, n) band storage, the layout of
        scipy.linalg.solve_banded: A[i, j] = matrix[bw + i - j, j], built
        from the blocks on first access.  The eigensolve does not read it
        (`tridiagonal` works from the end blocks and links), so a full
        spectrum never builds it; eigenvectors are checked by their
        residual here."""
        head, mid_lo, tail = self._blocks
        bw, rh, rt = self._bw, len(head), len(tail)
        ab = np.zeros((2 * bw + 1, rh + len(mid_lo) - 1 + rt), dtype=complex)
        ab[bw + 1, rh - 1: rh - 1 + len(mid_lo)] = mid_lo
        ab[bw - 1, rh: rh + len(mid_lo)] = np.conj(mid_lo)
        _put_block(ab, bw, 0, head)
        _put_block(ab, bw, ab.shape[1] - rt, tail)
        return ab

    def hermiticity_residual(self) -> float:
        """max |A - A^H| of the reduced operator as assembled, before the
        roundoff symmetrization."""
        return self._herm

    def tridiagonal(self) -> tuple[Array, Array]:
        """Real symmetric tridiagonal (d, e) unitarily similar to `matrix`."""
        return self._form[:2]

    @functools.cached_property
    def _form(self) -> tuple[Array, Array, tuple]:
        """`_tridiagonal_form`, built on first read, (d, e) read-only."""
        d, e, refl = self._tridiagonal_form()
        d.flags.writeable = e.flags.writeable = False
        return d, e, refl

    def _tridiagonal_form(self) -> tuple[Array, Array, tuple]:
        """(d, e), and what its back-map is built from, from the reduced
        blocks.

        The operator is tridiagonal outside its head block (reduced columns
        0..rh-1) and tail block (the last rt), with a zero diagonal between
        them, and each block meets the middle links through one index,
        rh - 1 and n - rt.  A Householder tridiagonalization of each block
        whose unitary fixes that index (the head block index-reversed)
        leaves the rest untouched; a diagonal unitary gauge g then makes
        every off-diagonal |e|.  O(n) in all.  Each block's reflectors and
        subdiagonal are kept for the back-map (`eigenvectors`).  A bipartite
        operator (no column mixes p and q) has a zero diagonal: it is
        checked at roundoff and set to exact zeros.
        """
        head, mid_lo, tail = self._blocks
        rh, rt = len(head), len(tail)
        n = rh + len(mid_lo) - 1 + rt
        tol = _HERM_TOL * self._scale
        dh, lh, refl_h = _tridiagonal_block(head[::-1, ::-1], tol)
        dt, lt, refl_t = _tridiagonal_block(tail, tol)
        d = np.concatenate([dh[::-1], np.zeros(n - rh - rt), dt])
        e = np.abs(np.concatenate([np.conj(lh[::-1]), mid_lo, lt]))
        if self._bipartite:
            dmax = float(np.abs(d).max())
            if dmax > tol:
                raise NumericalError(
                    f"bipartite operator has a diagonal entry {dmax:.3e} "
                    f"(tolerance {tol:.3e})")
            d = np.zeros(n)
        return d, e, (refl_h, lh, refl_t, lt)

    @functools.cached_property
    def _count(self) -> SturmCounts:
        """The Sturm counts of (d, e), built on first read: the probe, the
        level solve and the eigenvectors' membership check share them and
        their memo."""
        return SturmCounts(*self._form[:2])

    def clear_of(self, bound: float) -> bool:
        """Whether no level this operator reports has |lambda| <= bound.

        One dlaebz call counts the levels of the operator's tridiagonal form
        in the window (-t, t], t = bound plus a margin of 1e-10 * scale, so
        that a level within roundoff of the bound keeps its mode, and in the
        zero window (-z, z] (`_zero_window`; z = t without spurious zeros).
        It clears the operator only when each window holds exactly its
        spurious structural zeros: counted within z, they are bisected
        within `_tol0`, where `_deflate` drops them.  Anything else -- a
        zero outside z or one missing, a harmonic zero, any other level --
        is not cleared, and is left to `eigensystem` and its checks.
        """
        t = bound + 1e-10 * self._scale
        z = self._zero_window if self._spurious else t
        lo, hi, zlo, zhi = self._count(-t, t, -z, z)
        return hi - lo == zhi - zlo == self._spurious

    @functools.cached_property
    def _tol0(self) -> float:
        """The roundoff bound of a bisected structural zero, which `_deflate`
        holds each zero to: 1e-8 times the largest column norm of the
        tridiagonal form (a lower bound of its spectral radius), at least
        1e-8."""
        d, e, _ = self._form
        col = np.square(d)
        col[1:] += np.square(e)
        col[:-1] += np.square(e)
        return 1e-8 * max(1.0, float(np.sqrt(col.max())))

    @functools.cached_property
    def _zero_window(self) -> float:
        """The half-width z of the window (-z, z] where Sturm counts place
        the structural zeros, for every zero decision made by counts
        (`clear_of`, `_pick`): `_tol0` less 4 eps (bound + 1), twice
        dstebz's tolerance (`SturmCounts.bound`), so that a level counted
        inside it is bisected within `_tol0` (LAPACK Users' Guide, xSTEBZ
        and xLAEBZ)."""
        return self._tol0 - 4 * np.finfo(float).eps * (self._count.bound + 1.0)

    def _deflate(self, vals: Array) -> tuple[Array, Array]:
        """(zeros, rest) of `vals`: the structural zeros, its smallest
        |lambda|, refused beyond `_tol0`, dropped when spurious."""
        n_zero = self._spurious + self._harmonic
        order = np.argsort(np.abs(vals), kind="stable")
        zeros, rest = vals[order[:n_zero]], vals[order[n_zero:]]
        if self._spurious:
            if np.any(np.abs(zeros) > self._tol0):
                raise NumericalError("expected exact structural kernel, "
                                     f"found {zeros!r}; refusing to deflate")
            zeros = zeros[:0]
        return zeros, rest

    def _low_levels(self, want: int) -> tuple[Array, Array]:
        """`_deflate` of dstebz's values in a window (-w, w] around 0, as
        far as the want smallest |lambda| need them, bit for bit.

        The window is the first of w = 1, 2, 4, ... to hold want levels,
        the structural zeros and a spare (a +-pair may straddle its edge).
        dstebz's tolerances do not depend on the interval, so a level comes
        out the same from any interval on its bisection path from the
        window: Sturm counts find the window and pick such intervals
        (`_pick`), and only those are bisected.  A form split into blocks, a
        window past the Gershgorin bounds, or anything the counts cannot
        vouch for bisects the whole window.
        """
        d, e, _ = self._form
        w = self._count.window(want + self._spurious + self._harmonic + 1)
        picked = self._pick(want, w)
        if picked is not None:
            parts = [np.empty(0)]
            for ab, m in picked:
                if m:
                    parts.append(eigvalsh_tridiagonal(d, e, select="v",
                                                      select_range=ab))
                    if len(parts[-1]) != m:
                        break
            else:
                vals = np.concatenate(parts)
                return vals[:0], vals
        return self._deflate(eigvalsh_tridiagonal(d, e, select="v",
                                                  select_range=(-w, w)))

    def _pick(self, want: int, w: float) -> list | None:
        """The intervals to bisect, with their numbers of levels (None: the
        whole window): those of the want levels nearest 0 (`path`).  A
        bipartite operator reports -sigma for each sigma, so only the
        positive levels its +-pairs need, once its spurious zeros are
        counted exactly in (-z, 0] of the zero window (`_zero_window`) and
        none in (0, z]; harmonic zeros, which it reports, take the whole
        window."""
        count = self._count
        if not self._bipartite:
            return count.path(w, want)
        if self._spurious or self._harmonic:
            z0, below, above = count(0.0, -self._zero_window, self._zero_window)
            if self._harmonic or z0 - below != self._spurious or above != z0:
                return None
        return count.path(w, (want + 1) // 2, positive=True)

    def eigensystem(self, n_vectors: int = 0, n_values: int | None = None
                    ) -> tuple[Array, Array, Array]:
        """Eigenvalues (structural zeros deflated when spurious) and
        eigenvectors for the n_vectors smallest |lambda|.

        n_values=None computes every eigenvalue of the tridiagonal form:
        dsterf, or for a bipartite operator +-sigma from the dqds singular
        values of its bidiagonal (`_bipartite_values`).  Otherwise only the
        max(n_values, n_vectors) smallest |lambda| are computed, O(n): Sturm
        counts pick the intervals that hold them and only those are
        bisected (`_low_levels`).  Either way the structural zeros pass
        `_deflate`'s check.  A bipartite operator has an exactly symmetric
        spectrum: its positive eigenvalues are reported with their mirror
        images, so a +-pair is an exact tie.  The eigenvectors of the
        selected values come from `eigenvectors`.

        Returns (values ascending, selected values, selected vectors in
        reduced coordinates, one per column).
        """
        d, e, _ = self._form
        n = len(d)
        want = None if n_values is None else max(n_values, n_vectors)
        if want is not None and want + self._spurious + self._harmonic + 1 < n:
            zeros, rest = self._low_levels(want)
        else:
            zeros, rest = self._deflate(_bipartite_values(e) if self._bipartite
                                        else eigvalsh_tridiagonal(d, e))
        if self._bipartite:
            pos = rest[rest > 0]
            rest = np.concatenate([-pos, pos])
        vals = np.sort(np.concatenate([zeros, rest]))
        if want is not None:
            vals = _lowest(vals, want)

        n_sel = min(n_vectors, len(vals))
        if n_sel == 0:
            return vals, np.empty(0), np.empty((n, 0), dtype=complex)
        order = np.argsort(np.abs(vals), kind="stable")
        wanted = np.sort(vals[order[:n_sel]])
        return vals, wanted, self.eigenvectors(wanted)

    def eigenvectors(self, wanted: Array) -> Array:
        """Eigenvectors of the levels `wanted` (ascending), in reduced
        coordinates, one per column.

        Each wanted level must be one of the form's: the Sturm counts on
        (lam - delta, lam + delta], delta = 32 eps (bound + 1), the scale of
        dstebz's own tolerance (`SturmCounts.bound`), must find as many
        levels as are wanted there, or the levels are refused (a level off
        its place, or repeated without a second level of its own).  stein
        then solves the vectors of the levels as given, O(n) each.  They
        are mapped back from the tridiagonal form, z to
        blockdiag(Q_head, I, Q_tail) (g * z), by the end blocks' unitaries
        (zunghr on the reflectors `_form` kept) and the gauge g, both built
        here, and checked by their residual against `matrix`.
        """
        d, e, (refl_h, lh, refl_t, lt) = self._form
        wanted = np.asarray(wanted, dtype=float)
        delta = 32 * np.finfo(float).eps * (self._count.bound + 1.0)
        lo, hi = wanted - delta, wanted + delta
        counts = self._count(*lo.tolist(), *hi.tolist())
        found = np.subtract(counts[len(wanted):], counts[:len(wanted)])
        asked = ((wanted > lo[:, None]) & (wanted <= hi[:, None])).sum(axis=1)
        if not np.array_equal(found, asked):
            raise NumericalError(f"eigenvectors missing near {wanted.tolist()}")
        z = tridiagonal_vectors(d, e, wanted)
        g = np.ones(len(d), dtype=complex)
        np.divide(np.concatenate([np.conj(lh[::-1]), self._blocks[1], lt]), e,
                  out=g[1:], where=e > 0)
        g = np.cumprod(g)         # drifts off |g| = 1 by O(n eps): rescale
        y = (g / np.abs(g))[:, None] * z
        qh, qt = hessenberg_q(*refl_h)[::-1, ::-1], hessenberg_q(*refl_t)
        y[:len(qh)] = qh @ y[:len(qh)]
        y[-len(qt):] = qt @ y[-len(qt):]
        ab, bw, scale = self.matrix, self._bw, self._scale
        for lam, col in zip(wanted, y.T):
            resid = float(np.linalg.norm(_band_matvec(ab, bw, col) - lam * col))
            if resid > 1e-10 * scale:
                raise NumericalError(f"eigenvector residual {resid:.2e} at "
                                     f"lambda={lam!r} (scale {scale:.2e})")
        return y

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
    field: SpinorField


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


def _native(bc: BoundaryConditionSpec) -> BoundaryConditionSpec:
    """The condition of the native solve: local+ for either local one."""
    return bc if bc.is_aps else BoundaryConditionSpec("local+")


def _negated(bc: BoundaryConditionSpec, k: float) -> bool:
    """Whether mode k under bc reports its native solve negated: a local
    mode where exactly one of local-, k < 0 holds (see the module docstring)."""
    return bc.is_local and ((bc.variant == "local-") != (k < 0))


def solve_mode(surface: WarpedSurface, k: float, bc: BoundaryConditionSpec,
               N: int, n_levels: int | None = None, above: float | None = None,
               samples: tuple | None = None) -> Array:
    """The levels of mode k under bc, ascending, by one native solve at |k|,
    under local+ for either local condition, reported negated (-levels
    reversed) where `_negated` says so.  Their fields come from
    `eigenpairs`.

    n_levels=None keeps every eigenvalue; otherwise only the n_levels
    smallest |lambda| are computed.  With `above`, the mode is first probed
    (`ModeOperator.clear_of`) and, if no level it reports can have |lambda|
    <= above, no levels are returned.  `samples` are the grid's
    `WarpedSurface.grid_samples`, when the caller has them.
    A LAPACK failure (LinAlgError) anywhere in the solve becomes the one
    NumericalError here and in `eigenpairs`: `ModeOperator`'s methods,
    called directly, raise it as the `_lapack` wrappers and scipy do.
    """
    try:
        op = ModeOperator(surface, abs(k), N, _native(bc), samples)
        if above is not None and op.clear_of(above):
            return np.empty(0)
        lams = op.eigensystem(n_values=n_levels)[0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"LAPACK failed at k = {k:g}: {exc}") from exc
    return -lams[::-1] if _negated(bc, k) else lams


def eigenpairs(surface: WarpedSurface, k: float, bc: BoundaryConditionSpec,
               N: int, levels: Array) -> list:
    """The eigenpairs of the `levels` of mode k under bc, by |lam|, then lam
    (none for no levels).

    Mode |k| is assembled under its native condition and each field is the
    eigenvector of its own level there, taken as given
    (`ModeOperator.eigenvectors` of the native levels, ascending), so a
    level that the Sturm counts do not find within 32 eps (bound + 1) of
    its place in that operator, or one repeated more often than the
    operator has it, is refused.  Each pair is reported as
    the mode's levels are: negated, with a conjugate field, where
    `_negated` says so, and component-swapped for k < 0.
    """
    negate = _negated(bc, k)
    wanted = np.sort(np.negative(levels) if negate else levels)
    try:
        op = ModeOperator(surface, abs(k), N, _native(bc))
        vecs = op.eigenvectors(wanted)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"LAPACK failed at k = {k:g}: {exc}") from exc
    pairs = []
    for lam, y in zip(wanted, vecs.T):
        p, q = op.expand(y)
        if negate:
            lam, p, q = -lam, np.conj(p), np.conj(q)
        pairs.append(Eigenpair(float(lam), k, _collocate(op, p, q, k < 0)))
    return sorted(pairs, key=lambda e: (abs(e.lam), e.lam))


@dataclass
class Spectrum:
    """Aggregated spectrum over modes |k| <= k_max with deterministic order:
    levels only, and the fundamental eigenpair of levels[0], built on first
    read."""

    surface: WarpedSurface
    bc: BoundaryConditionSpec
    n_grid: int
    k_top: float                  # the largest |k| assessed
    levels: Array                 # (n, 2) columns (lambda, k), sorted

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
    def kmax_attained(self) -> bool:
        """lambda_min sits on the largest |k| assessed, k_top."""
        return abs(abs(self.k_min) - self.k_top) < 1e-9

    @functools.cached_property
    def fundamental(self) -> Eigenpair:
        """The eigenpair of levels[0], built on first access: `eigenpairs`
        of every row of mode k_min equal to levels[0], so a repeated level,
        or one that the Sturm counts of that mode do not confirm, is
        refused: a field is paired only with the level it belongs to, and
        its vector is solved from that level as given."""
        k, lev = self.k_min, self.levels
        rows = lev[(lev[:, 1] == k) & (lev[:, 0] == lev[0, 0]), 0]
        return eigenpairs(self.surface, k, self.bc, self.n_grid, rows)[0]


def _spectrum(surface: WarpedSurface, bc: BoundaryConditionSpec, N: int,
              k_top: float, levels: Array) -> Spectrum:
    """Spectrum of (lambda, k) rows in the fixed order (|lambda|, k, sign)."""
    # for equal |lambda| and k, ordering by lambda is ordering by its sign
    order = np.lexsort((levels[:, 0], levels[:, 1], np.abs(levels[:, 0])))
    return Spectrum(surface, bc, N, k_top, levels[order])


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                # no affinity mask on this platform
        return os.cpu_count() or 1


def _by_abs(surface: WarpedSurface, k_max: float) -> dict:
    """|k| -> the modes +-k with |k| <= k_max, largest |k| first."""
    by_abs: dict = {}
    for kk in modes_for(surface, k_max):
        by_abs.setdefault(abs(kk), []).append(kk)
    return by_abs


def _merged(bc: BoundaryConditionSpec, by_abs: dict, solved) -> Array:
    """(lambda, k) rows of every mode under bc, from (|k|, native levels)
    pairs."""
    rows = []
    for k_abs, lams in solved:
        for kk in by_abs[k_abs]:
            lk = -lams[::-1] if _negated(bc, kk) else lams
            rows.append(np.column_stack([lk, np.full(len(lk), kk)]))
    return np.vstack(rows)


def aggregate(surface: WarpedSurface, bc: BoundaryConditionSpec,
              k_max: float = 12.5, N: int = 256,
              n_levels: int | None = None) -> Spectrum:
    """The levels of all modes |k| <= k_max under bc on grid N, no fields,
    merged into one Spectrum (whose fundamental builds the one field from
    levels[0] when read): the one-entry case of `full_spectra`."""
    (_, sp), = full_spectra(surface, k_max, [(bc, N)], n_levels)
    return sp


def full_spectra(surface: WarpedSurface, k_max: float, entries: list,
                 n_levels: int | None = None):
    """(index, Spectrum) of the modes |k| <= k_max for each (condition,
    grid) of `entries`: the one place where a command's mode solves run.

    `levels` holds every eigenvalue of each mode, or with n_levels the
    n_levels smallest |lambda| of each mode that could hold levels[0].  Each
    native solve runs once: each |k| under its native condition, local+ for
    either local one, so local+ and local- on one grid share their solves,
    and each entry merges them under its own condition (`_negated`).  A
    +-lambda tie between modes +-k is then exact, and the (|lambda|, k,
    sign) order settles it the same way everywhere.  That order fixes the
    result whatever the order of the solves, so each solve, its operator
    included, is dropped as soon as its levels are taken.  `k_top` is the
    largest |k| assessed, whether or not its modes hold rows.  The k-free
    samples of each grid (`WarpedSurface.grid_samples`) are computed once
    per call and read by every solve on that grid.

    A full spectrum (n_levels=None) solves every |k| on one pool of one
    thread per available CPU, at most one per |k| solve (see the module
    docstring); with one thread, in this one.  Every solve is submitted at
    once, largest grid first, in the order of `entries` within a grid, and
    each spectrum is yielded in that order as soon as its modes are in, so
    the caller works on it while the pool solves the smaller grids.  Only
    the native levels leave a worker: each holds one operator at a time.

    Selective solves run in this thread, one native key at a time, in the
    order of `entries` and only as each entry is asked for.  They take the
    |k| ascending, and every |k| after the first is probed with the
    smallest |lambda| found so far (`solve_mode`'s `above`): a mode whose
    probe clears it has no level that could be levels[0] and holds no rows,
    and only the others are bisected.  A level that ties the smallest
    |lambda| exactly is inside the probe's window, so its mode keeps its
    rows and the order settles the tie.

    A failure (NumericalError, or ConfigError for a grid too coarse) is
    the serial one: the error of the first failing entry in the order of
    `entries` (within it, of the first failing |k| in solve order), raised
    once every entry before it has been yielded.  The solves that only
    later entries need are cancelled, though a later entry of a larger grid
    may have been yielded already.
    """
    by_abs = _by_abs(surface, k_max)
    keys = [(_native(bc), N) for bc, N in entries]
    # the pool starts on the largest grid; inline solves follow `entries`
    order = sorted(range(len(entries)),
                   key=lambda i: 0 if n_levels is not None else -entries[i][1])
    native = list(dict.fromkeys(keys[i] for i in order))
    samples = functools.cache(surface.grid_samples)

    def solve(key, k_abs: float, above: float | None = None) -> Array:
        return solve_mode(surface, k_abs, *key, n_levels, above,
                          samples(key[1]))

    def levels(key) -> list:
        """(|k|, native levels) of every mode, or with n_levels of the modes
        that could hold levels[0]."""
        if pool is not None:
            return list(zip(by_abs, [f.result() for f in futures[key]]))
        if n_levels is None:
            return [(k_abs, solve(key, k_abs)) for k_abs in by_abs]
        best, pairs = None, []
        for k_abs in sorted(by_abs):
            lams = solve(key, k_abs, best)
            if len(lams):
                low = float(np.min(np.abs(lams)))
                best = low if best is None else min(best, low)
                pairs.append((k_abs, lams))
        return pairs

    workers = min(_cpu_count(), len(native) * len(by_abs))
    pool, futures = None, {}
    if n_levels is None and workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(workers)
        futures = {key: [pool.submit(solve, key, k) for k in by_abs]
                   for key in native}
    solved, failed, error = {}, len(entries), None
    try:
        for i in order:
            if i > failed:
                continue
            (bc, N), key = entries[i], keys[i]
            try:
                if key not in solved:
                    solved[key] = levels(key)
            except (NumericalError, ConfigError) as exc:
                failed, error = i, exc
                for later in set(keys[i:]) - set(keys[:i]):
                    for f in futures.get(later, ()):
                        f.cancel()
                continue
            yield i, _spectrum(surface, bc, N, max(by_abs),
                               _merged(bc, by_abs, solved[key]))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    if error is not None:
        raise error
