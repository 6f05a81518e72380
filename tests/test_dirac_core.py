"""Mode assembly, boundary conditions, eigensolves, against independent oracles."""

from itertools import product

import numpy as np
import pytest

import oracles
from scipy.linalg import eigvals_banded, eigvalsh_tridiagonal

from spinspec import (FRAME, BoundaryConditionSpec, ConfigError, ModeOperator,
                      aggregate, boundary_dirac_matrix, convergence_study,
                      make_surface, modes_for, solve_mode)
from spinspec.dirac_core import (NumericalError, _closures, _collocate,
                                 _tridiagonal_block)

GEOMS = ("disk", "annulus:0.5,1.0", "cylinder:2.0", "hemisphere", "cap:pi/3")
BCS = ("local+", "local-", "aps-", "aps+")
# image of each condition under the component swap that maps mode k to -k
SWAPPED = {"local+": "local-", "local-": "local+", "aps-": "aps-", "aps+": "aps+"}


def maxabs(m):
    return float(np.max(np.abs(m)))


def dense_from_band(ab):
    """The (n, n) matrix of (2 bw + 1, n) solve_banded storage."""
    bw, n = (ab.shape[0] - 1) // 2, ab.shape[1]
    a = np.zeros((n, n), dtype=complex)
    for off in range(-bw, bw + 1):
        j = np.arange(max(0, -off), min(n, n - off))
        a[j + off, j] = ab[bw + off, j]
    return a


# ---------------------------------------------------------------------------
# boundary Dirac operator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("geom,which,k", [("disk", "outer", 0.5),
                                          ("annulus:0.5,1.0", "inner", 1.5),
                                          ("hemisphere", "outer", 2.5)])
def test_boundary_dirac_spectrum(geom, which, k):
    surface = make_surface(geom)
    from spinspec import boundary_data
    f_b = boundary_data(surface, which).radius
    _, e0d = boundary_dirac_matrix(surface, which, k)
    ev = np.sort(np.linalg.eigvalsh(e0d))
    assert np.allclose(ev, [-k / f_b, k / f_b], atol=1e-14)
    assert abs(np.trace(e0d)) == 0.0


def test_boundary_dirac_anticommutation_exact():
    surface = make_surface("disk")
    d_bnd, e0d = boundary_dirac_matrix(surface, "outer", 0.5)
    e0 = FRAME.covector((1.0, 0.0))
    # D_bnd (e0 . phi) = -e0 . D_bnd phi, exact at matrix level
    assert maxabs(d_bnd @ e0 + e0 @ d_bnd) == 0.0
    assert maxabs(e0d @ e0 + e0 @ e0d) == 0.0


# ---------------------------------------------------------------------------
# assembly invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("geom,bc", list(product(GEOMS, BCS)))
def test_reduced_operator_exactly_hermitian(geom, bc):
    surface = make_surface(geom)
    for k in (0.5, 2.5):
        op = ModeOperator(surface, k, 32, bc=BoundaryConditionSpec(bc))
        assert op.hermiticity_residual() <= 1e-12
        assert np.all(op.weights > 0)


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=20, deadline=None)
@given(eps=st.floats(0.0, 0.3), bc=st.sampled_from(BCS), k=st.sampled_from([0.5, 1.5]))
def test_hermiticity_on_random_bulged_caps(eps, bc, k):
    from spinspec import RadialFunction, WarpedSurface
    prof = RadialFunction(
        lambda r: np.sin(r) * (1 + eps * r ** 2),
        lambda r: np.cos(r) * (1 + eps * r ** 2) + 2 * eps * r * np.sin(r),
        lambda r: -np.sin(r) * (1 + eps * r ** 2) + 4 * eps * r * np.cos(r)
        + 2 * eps * np.sin(r))
    surf = WarpedSurface("bulge", 0.0, 1.3, prof, cap=True)
    op = ModeOperator(surf, k, 24, bc=BoundaryConditionSpec(bc))
    assert op.hermiticity_residual() <= 1e-12
    assert np.all(op.weights > 0)


def test_assembled_operator_without_bc_hermitian():
    op = ModeOperator(make_surface("disk"), 0.5, 32, bc=None)
    assert op.bc is None
    assert op.hermiticity_residual() <= 1e-12
    a = dense_from_band(op.matrix)
    assert maxabs(a - a.conj().T) == 0.0


def test_assembly_contract_errors():
    disk = make_surface("disk")
    with pytest.raises(ConfigError, match="N too small"):
        ModeOperator(disk, 0.5, 8, bc=None)
    with pytest.raises(ConfigError, match="spin structure"):
        ModeOperator(disk, 1.0, 32, bc=None)  # integer mode on antiperiodic
    cyl = make_surface("cylinder:2.0", spin_structure="periodic")
    with pytest.raises(ConfigError, match="spin structure"):
        ModeOperator(cyl, 0.5, 32, bc=None)
    with pytest.raises(ConfigError, match="native modes"):
        ModeOperator(disk, -0.5, 32, bc=None)
    with pytest.raises(ConfigError, match="boundary condition"):
        solve_mode(disk, 0.5, None, 32)
    with pytest.raises(ConfigError):
        BoundaryConditionSpec("dirichlet")


@pytest.mark.parametrize("geom,bc", list(product(GEOMS, BCS)))
def test_band_matches_dense_reference(geom, bc):
    """The O(N) banded assembly reproduces the dense assembly to roundoff:
    same reduced matrix, column order, weights and structural zeros; its
    real tridiagonal form has the dense spectrum, with an exactly zero
    diagonal for a bipartite (APS) operator."""
    surface = make_surface(geom)
    cases = [(surface, k) for k in (0.5, 2.5)]
    if geom.startswith("cylinder"):
        cases.append((make_surface(geom, spin_structure="periodic"), 0.0))
    for surf, k in cases:
        for N in (16, 33):
            spec = BoundaryConditionSpec(bc)
            op = ModeOperator(surf, k, N, bc=spec)
            ref = oracles.DenseModeOperator(surf, k, N, spec)
            a, a_ref = dense_from_band(op.matrix), ref.matrix
            assert a.shape == a_ref.shape
            assert maxabs(a - a_ref) <= 1e-13 * maxabs(a_ref)
            assert np.array_equal(op.weights, ref._m)
            kinds = ref._col_kind
            n_p, n_q = kinds.count("p"), kinds.count("q")
            expected = (None if "mixed" in kinds or n_p == n_q else
                        (abs(n_p - n_q), "spurious" if n_q > n_p else "harmonic"))
            assert op.structural_zeros == expected
            d, e = op.tridiagonal()
            ev_ref = np.linalg.eigvalsh(a_ref)
            assert maxabs(eigvalsh_tridiagonal(d, e) - ev_ref) \
                <= 1e-13 * maxabs(ev_ref)
            assert np.all(e >= 0)
            assert not spec.is_aps or not np.any(d)


@pytest.mark.parametrize("geom,bc", [("disk", "local+"), ("hemisphere", "aps-"),
                                     ("annulus:0.5,1.0", "aps+"),
                                     ("cylinder:2.0", "local-")])
def test_selective_values_are_lowest_of_full(geom, bc):
    surface = make_surface(geom)
    for k in (0.5, 2.5):
        op = ModeOperator(surface, k, 200, bc=BoundaryConditionSpec(bc))
        full = op.eigensystem()[0]
        scale = maxabs(full)
        for m in (1, 2, 5):
            low = op.eigensystem(n_values=m)[0]
            by_size = np.argsort(np.abs(full), kind="stable")
            ref = np.sort(full[by_size[:len(low)]])
            assert len(low) >= m
            assert maxabs(low - ref) <= 1e-13 * scale


def test_tridiagonal_reduction_refuses_leftover_entries():
    """A block whose Hessenberg form is not tridiagonal (here: not
    Hermitian) is refused, not truncated to its tridiagonal part."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    herm = a + a.conj().T
    d, sub, q = _tridiagonal_block(herm, 1e-12 * maxabs(herm))
    e = np.abs(sub)
    assert maxabs(np.sort(np.linalg.eigvalsh(herm))
                  - np.sort(np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1)
                                               + np.diag(e, -1)))) <= 1e-12
    # the unitary fixes the first index and carries the block to (d, sub)
    assert np.array_equal(q[:, 0], np.eye(5)[0])
    assert maxabs(q.conj().T @ herm @ q - (np.diag(d) + np.diag(sub, -1)
                                           + np.diag(np.conj(sub), 1))) <= 1e-12
    bent = herm.copy()
    bent[0, 3] += 1e-6
    with pytest.raises(NumericalError, match="off the tridiagonal"):
        _tridiagonal_block(bent, 1e-12 * maxabs(bent))


def test_structural_zero_check_on_selective_path():
    """A perturbed APS operator is refused on the selective path too: a
    diagonal entry breaks the bipartite form, and a kernel that is not there
    is never deflated."""
    op = ModeOperator(make_surface("hemisphere"), 0.5, 64,
                      bc=BoundaryConditionSpec("aps-"))
    assert op.structural_zeros == (1, "spurious")
    assert len(op.eigensystem(n_values=2)[0]) == 2
    bw = (op.matrix.shape[0] - 1) // 2
    op.matrix[bw, 40] += 1e-6
    with pytest.raises(NumericalError, match="diagonal"):
        op.eigensystem(n_values=2)
    op.matrix[bw, 40] = 0.0
    op._zeros = (2, "spurious")
    for n_values in (2, None):
        with pytest.raises(NumericalError, match="refusing to deflate"):
            op.eigensystem(n_values=n_values)


def test_aggregate_without_fields_keeps_levels():
    surface = make_surface("annulus:0.5,1.0")
    for bc in ("local+", "aps-"):
        spec = BoundaryConditionSpec(bc)
        with_fields = aggregate(surface, spec, 2.5, 48, n_fields_per_mode=1)
        bare = aggregate(surface, spec, 2.5, 48, n_fields_per_mode=0)
        assert np.array_equal(bare.levels, with_fields.levels)
        assert bare.eigenpairs == () and len(with_fields.eigenpairs) == 6


@pytest.mark.parametrize("N", [256, 1024])
def test_aps_levels_come_in_exact_pairs(N):
    """Under aps- the spectrum is reported exactly symmetric, so the +-tie
    in the (|lambda|, k, sign) order always resolves to the negative level
    and its field."""
    hemi = make_surface("hemisphere")
    spec = BoundaryConditionSpec("aps-")
    for n_levels in (None, 2):
        sp = aggregate(hemi, spec, 4.5, N, n_fields_per_mode=1,
                       n_levels=n_levels)
        for k in (-4.5, -0.5, 0.5, 2.5):
            vals = sp.eigenvalues(k)
            assert np.array_equal(vals, -vals[::-1])
        assert sp.lambda_min < 0 and sp.k_min == -0.5
        assert sp.fundamental.lam == sp.lambda_min
        assert sp.fundamental.k == -0.5


def test_operator_memory_is_linear_in_n():
    # the dense assembly would need about 68 GB at this size, and dense
    # eigenvector output (scipy's stemr) an n x n array of 8 GiB
    import tracemalloc
    N = 2 ** 15
    op = ModeOperator(make_surface("hemisphere"), 0.5, N,
                      bc=BoundaryConditionSpec("aps-"))
    assert op.matrix.nbytes <= 16 * 9 * (2 * N + 1)
    tracemalloc.start()
    try:
        _, wanted, vecs = op.eigensystem(n_vectors=2, n_values=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vecs.shape == (op.matrix.shape[1], 2) and len(wanted) == 2
    assert peak <= 32 * 2 ** 20


@pytest.mark.parametrize("geom,bc", list(product(GEOMS, BCS)))
def test_eigenvectors_match_dense_oracle(geom, bc):
    """The vectors mapped back from the tridiagonal form are eigenvectors of
    the dense reference operator: the same up to phase as numpy's, with a
    residual at roundoff, on the full and on the selective path."""
    surface = make_surface(geom)
    spec = BoundaryConditionSpec(bc)
    for k in (0.5, 2.5):
        for N in (16, 33):
            op = ModeOperator(surface, k, N, bc=spec)
            a = oracles.DenseModeOperator(surface, k, N, spec).matrix
            w, v = np.linalg.eigh(a)
            for n_values in (None, 4):
                _, wanted, vecs = op.eigensystem(n_vectors=4, n_values=n_values)
                assert len(wanted) == 4
                for lam, y in zip(wanted, vecs.T):
                    x = v[:, np.argmin(np.abs(w - lam))]
                    assert 1 - abs(np.vdot(x, y)) <= 1e-12
                    assert np.linalg.norm(a @ y - lam * y) <= 1e-13 * maxabs(a)


def test_modes_for_structures():
    assert modes_for(make_surface("disk"), 2.5) == [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5]
    cyl = make_surface("cylinder:2.0", spin_structure="periodic")
    assert modes_for(cyl, 2.5) == [-2.0, -1.0, 0.0, 1.0, 2.0]
    with pytest.raises(ConfigError):
        modes_for(make_surface("disk"), 0.25)


def test_solve_mode_field_api():
    disk = make_surface("disk")
    pairs = solve_mode(disk, 0.5, BoundaryConditionSpec("local+"), 48,
                       n_fields=3).pairs
    assert len(pairs) == 3
    assert abs(pairs[0].lam) <= abs(pairs[1].lam) <= abs(pairs[2].lam)
    assert pairs[0].field.values.shape == (48, 2)


# ---------------------------------------------------------------------------
# the two operator oracles
# ---------------------------------------------------------------------------

def test_killing_spinor_scheme_residual_second_order():
    """Applying the discrete rows to the sampled closed-form Killing spinor
    reproduces lambda = 1 at second order in the weighted norm."""
    hemi = make_surface("hemisphere")
    norms = []
    for N in (64, 128, 256):
        op = ModeOperator(hemi, 0.5, N, bc=BoundaryConditionSpec("local+"))
        rc, xv = op.r_centers, op.r_vertices
        p = np.cos(rc / 2).astype(complex)
        q = -1j * np.sin(xv / 2)
        rp, rq = op.apply_interior(p, q)
        res_p = rp - 1.0 * p
        res_q = rq - 1.0 * q[1:-1]
        w_p = hemi.f(rc) * op.h
        w_q = hemi.f(xv[1:-1]) * op.h
        norms.append(np.sqrt(np.sum(w_p * np.abs(res_p) ** 2)
                             + np.sum(w_q * np.abs(res_q) ** 2)))
    assert norms[-1] <= 1e-4
    order = np.log2(norms[0] / norms[1]), np.log2(norms[1] / norms[2])
    assert min(order) >= 1.8


def test_disk_fundamental_matches_shooting_oracle():
    disk = make_surface("disk")
    root = oracles.shoot_eigenvalues(disk, 0.5, "local+", 1.0, 2.0, 30)[0]
    assert abs(root - oracles.DISK_LOCALPLUS_ROOT) <= 1e-9
    sol = solve_mode(disk, 0.5, BoundaryConditionSpec("local+"), 256, n_fields=1)
    lam = sol.lams[sol.lams > 0][0]
    assert abs(lam - root) <= 5e-4


@pytest.mark.parametrize("k", [1.5, 2.5])
def test_disk_higher_modes_match_bessel_oracle(k):
    # the exact Bessel roots; they agree with the shooting oracle's roots in
    # [-8, 8] to 1e-11 at a thousandth of its cost
    disk = make_surface("disk")
    roots = oracles.disk_local_eigenvalues(k, "local+", n_roots=6)
    roots = roots[np.abs(roots) <= 8.0]
    assert len(roots) >= 3
    sol = solve_mode(disk, k, BoundaryConditionSpec("local+"), 256, n_fields=1)
    for root in roots:
        assert np.min(np.abs(sol.lams - root)) <= 2e-3


def test_annulus_local_matches_shooting():
    ann = make_surface("annulus:0.5,1.0")
    roots = oracles.shoot_eigenvalues(ann, 0.5, "local+", -6.0, 6.0, 120)
    sol = solve_mode(ann, 0.5, BoundaryConditionSpec("local+"), 256, n_fields=1)
    assert len(roots) >= 2
    for root in roots:
        assert np.min(np.abs(sol.lams - root)) <= 2e-4


def test_hemisphere_aps_matches_shooting():
    hemi = make_surface("hemisphere")
    roots = oracles.shoot_eigenvalues(hemi, 0.5, "aps-", -4.0, 4.0, 80)
    sol = solve_mode(hemi, 0.5, BoundaryConditionSpec("aps-"), 256, n_fields=1)
    for root in roots:
        assert np.min(np.abs(sol.lams - root)) <= 5e-4


def test_annulus_aps_minus_matches_shooting():
    # two boundaries with opposite-component spectral constraints
    ann = make_surface("annulus:0.5,1.0")
    roots = oracles.shoot_eigenvalues(ann, 1.5, "aps-", -6.0, 6.0, 120)
    sol = solve_mode(ann, 1.5, BoundaryConditionSpec("aps-"), 256, n_fields=1)
    assert len(roots) >= 1
    for root in roots:
        assert np.min(np.abs(sol.lams - root)) <= 1e-3


def test_non_catalog_profile_matches_shooting():
    # a perturbed cap profile outside the catalog, still f(0)=0, f'(0)=1
    from spinspec import RadialFunction, WarpedSurface
    prof = RadialFunction(
        lambda r: np.sin(r) * (1 + 0.1 * r ** 2),
        lambda r: np.cos(r) * (1 + 0.1 * r ** 2) + 0.2 * r * np.sin(r),
        lambda r: -np.sin(r) * (1 + 0.1 * r ** 2) + 0.4 * r * np.cos(r)
        + 0.2 * np.sin(r))
    surf = WarpedSurface("bulged-cap", 0.0, 1.2, prof, cap=True)
    roots = oracles.shoot_eigenvalues(surf, 0.5, "local+", -5.0, 5.0, 100)
    sol = solve_mode(surf, 0.5, BoundaryConditionSpec("local+"), 256, n_fields=1)
    assert len(roots) >= 2
    for root in roots:
        assert np.min(np.abs(sol.lams - root)) <= 1e-3


def test_csv_profile_through_solver(tmp_path):
    # hemisphere sampled to CSV: spline-derivative surface, same fundamental
    r = np.linspace(0.0, np.pi / 2, 2001)
    path = tmp_path / "hemi.csv"
    np.savetxt(path, np.column_stack([r, np.sin(r)]), delimiter=",")
    surf = make_surface(str(path))
    assert surf.cap and not surf.profile_exact
    sol = solve_mode(surf, 0.5, BoundaryConditionSpec("local+"), 128, n_fields=1)
    lam = sol.pairs[0].lam
    assert abs(abs(lam) - 1.0) <= 1e-3


def test_cylinder_aps_plus_matches_shooting():
    # experimental condition, but the discretization is still checked
    cyl = make_surface("cylinder:2.0")
    roots = oracles.shoot_eigenvalues(cyl, 0.5, "aps+", -4.0, 4.0, 80)
    sol = solve_mode(cyl, 0.5, BoundaryConditionSpec("aps+"), 256, n_fields=1)
    for root in roots:
        assert np.min(np.abs(sol.lams - root)) <= 5e-4


# ---------------------------------------------------------------------------
# boundary condition structure on computed eigenspinors
# ---------------------------------------------------------------------------

def test_local_condition_kills_normal_pairing(solved):
    """(e0 . phi, psi) = 0 at the boundary for local-condition eigenspinors."""
    sp = solved("disk", "local+", k_max=1.5, N=64)
    e0 = FRAME.covector((1.0, 0.0))
    pairs = sp.eigenpairs[:4]
    for a in pairs:
        for b in pairs:
            ta, tb = a.field.trace("outer"), b.field.trace("outer")
            scale = max(np.linalg.norm(ta) * np.linalg.norm(tb), 1e-300)
            assert abs(np.vdot(e0 @ ta, tb)) / scale <= 1e-12


def test_local_condition_gamma_eigenvector(solved):
    from spinspec import boundary_chirality
    sp = solved("disk", "local+", k_max=1.5, N=64)
    gam = boundary_chirality((1.0, 0.0))
    tr = sp.fundamental.field.trace("outer")
    assert maxabs(gam @ tr - tr) / maxabs(tr) <= 1e-12


def test_aps_minus_admissible_trace(solved):
    """Admissible boundary values have no component on the nonnegative
    eigenvectors of e0 . D_boundary."""
    sp = solved("disk", "aps-", k_max=1.5, N=64)
    for pair in sp.eigenpairs[:4]:
        tr = pair.field.trace("outer")
        _, e0d = boundary_dirac_matrix(make_surface("disk"), "outer", pair.k)
        w, v = np.linalg.eigh(e0d)
        bad = v[:, w >= -1e-14]
        coeff = bad.conj().T @ tr
        assert maxabs(coeff) / max(np.linalg.norm(tr), 1e-300) <= 1e-12


def test_spectrum_real_and_sorted(solved):
    sp = solved("disk", "local+", k_max=1.5, N=64)
    assert sp.levels.dtype.kind == "f"
    a = np.abs(sp.levels[:, 0])
    assert np.all(np.diff(a) >= -1e-12)


def _swap_solve(surface, k, bc, N, n_fields, n_levels=None):
    """Mode -k solved on its own: the native operator at k > 0 under the
    swapped condition, assembled directly, its vectors collocated with the
    components swapped back.  Returns (levels, [(lambda, field)] by |lambda|)."""
    op = ModeOperator(surface, k, N, bc=BoundaryConditionSpec(SWAPPED[bc]))
    vals, wanted, vecs = op.eigensystem(n_vectors=n_fields, n_values=n_levels)
    fields = [(lam, _collocate(op, *op.expand(y), swap=True))
              for lam, y in zip(wanted, vecs.T)]
    return vals, sorted(fields, key=lambda f: (abs(f[0]), f[0]))


def _assert_mirror_matches(surface, sol, k, levels, fields):
    """The mirrored solution `sol` at -k against an independent solve."""
    assert np.array_equal(sol.lams, levels)
    assert len(sol.pairs) == len(fields)
    for pair, (lam, field) in zip(sol.pairs, fields):
        assert pair.k == field.k == -k and pair.lam == lam
        scale = maxabs(field.values)
        assert maxabs(pair.field.values - field.values) <= 1e-13 * scale
        for w in surface.boundaries:
            assert maxabs(pair.field.trace(w) - field.trace(w)) <= 1e-13 * scale


def test_conjugation_symmetry_relates_opposite_modes():
    """spec(local+, -k) = -spec(local+, k); plain equality of the two mode
    spectra fails, so the symmetry is documented in this signed form only.
    Mode -k is the swapped native local- operator, solved here on its own.
    Its tridiagonal form is exactly the negated one of +k, so bisection
    gives the mirrored levels bit for bit (dsterf, on the full spectrum, is
    sign-symmetric to roundoff only), and its fields match to roundoff."""
    disk = make_surface("disk")
    spec = BoundaryConditionSpec("local+")
    full_pos = solve_mode(disk, 0.5, spec, 96, n_fields=0)
    full_neg = _swap_solve(disk, 0.5, "local+", 96, 0)[0]
    assert maxabs(full_neg + full_pos.lams[::-1]) <= 1e-14 * maxabs(full_neg)
    assert np.max(np.abs(full_neg - full_pos.lams)) > 0.1
    s_pos = solve_mode(disk, 0.5, spec, 96, n_fields=2, n_levels=6)
    levels, fields = _swap_solve(disk, 0.5, "local+", 96, 2, n_levels=6)
    assert np.array_equal(levels, -s_pos.lams[::-1])
    _assert_mirror_matches(
        disk, solve_mode(disk, -0.5, spec, 96, n_fields=2, n_levels=6), 0.5,
        levels, fields)


@pytest.mark.parametrize("geom", GEOMS)
@pytest.mark.parametrize("bc", ["aps-", "aps+"])
def test_aps_modes_swap_invariant(geom, bc):
    """Under aps+- the swap maps mode -k onto the operator of +k, which is
    why aggregate solves each |k| once: an independent solve of the swapped
    operator gives the levels of +k exactly, and its swapped fields equal
    the mirrored ones."""
    surface = make_surface(geom)
    spec = BoundaryConditionSpec(bc)
    for k in (0.5, 2.5):
        pos = solve_mode(surface, k, spec, 32, n_fields=2)
        levels, fields = _swap_solve(surface, k, bc, 32, 2)
        assert np.array_equal(pos.lams, levels)
        _assert_mirror_matches(surface, solve_mode(surface, -k, spec, 32,
                                                   n_fields=2), k, levels, fields)
    sp = aggregate(surface, spec, 2.5, 32, n_fields_per_mode=1)
    for k in (0.5, 1.5, 2.5):
        assert np.array_equal(sp.eigenvalues(k), sp.eigenvalues(-k))


@pytest.mark.parametrize("geom", GEOMS)
def test_local_band_is_negated_conjugate(geom):
    """The native local- operator is exactly -conj of the local+ one, band
    and end bases alike: the identity behind mirroring mode -k."""
    surface = make_surface(geom)
    for k in (0.5, 1.5, 4.5):
        plus = ModeOperator(surface, k, 64, bc=BoundaryConditionSpec("local+"))
        minus = ModeOperator(surface, k, 64, bc=BoundaryConditionSpec("local-"))
        assert np.array_equal(minus.matrix, -np.conj(plus.matrix))
        assert np.array_equal(minus._head, np.conj(plus._head))
        assert np.array_equal(minus._tail, np.conj(plus._tail))


@pytest.mark.parametrize("geom", GEOMS)
@pytest.mark.parametrize("bc", ["local+", "local-"])
def test_local_modes_mirror_exactly(geom, bc):
    """Under local+- mode -k is the exact mirror of +k, bit for bit, and its
    fields match an independent solve of the swapped condition."""
    surface = make_surface(geom)
    spec = BoundaryConditionSpec(bc)
    sp = aggregate(surface, spec, 2.5, 48, n_fields_per_mode=1)
    for k in (0.5, 1.5, 2.5):
        vals = sp.eigenvalues(k)
        assert np.array_equal(sp.eigenvalues(-k), -vals[::-1])
    levels, fields = _swap_solve(surface, 1.5, bc, 48, 2)
    mirrored = solve_mode(surface, -1.5, spec, 48, n_fields=2)
    assert maxabs(mirrored.lams - levels) <= 1e-12 * maxabs(levels)
    assert len(mirrored.pairs) == len(fields) == 2
    for pair, (lam, field) in zip(mirrored.pairs, fields):
        assert abs(pair.lam - lam) <= 1e-12 * maxabs(levels)
        assert maxabs(pair.field.values - field.values) \
            <= 1e-12 * maxabs(field.values)


@pytest.mark.parametrize("N", [256, 512])
def test_local_fundamental_sign_is_settled(N):
    """On the hemisphere the fundamental local+- level is a +-1 tie between
    modes +-1/2.  The mirror makes it exact, so the (|lambda|, k, sign)
    order always picks mode -1/2: lambda_min < 0 under local+, > 0 under
    local-, with the field of that level."""
    hemi = make_surface("hemisphere")
    for bc, sign in (("local+", -1.0), ("local-", 1.0)):
        for n_levels in (None, 2):
            sp = aggregate(hemi, BoundaryConditionSpec(bc), 2.5, N,
                           n_fields_per_mode=1, n_levels=n_levels)
            assert np.sign(sp.lambda_min) == sign and sp.k_min == -0.5
            assert abs(abs(sp.lambda_min) - 1.0) <= 1e-3
            assert sp.fundamental.lam == sp.lambda_min
            assert sp.fundamental.k == -0.5


@pytest.mark.parametrize("geom", GEOMS)
def test_local_conditions_have_opposite_spectra(geom):
    """spec(local-, k) = -spec(local+, k): the grading q -> -q anticommutes
    with the interior and exchanges the two chirality conditions."""
    surface = make_surface(geom)
    for k in (0.5, 2.5):
        plus = solve_mode(surface, k, BoundaryConditionSpec("local+"), 64,
                          n_fields=1)
        minus = solve_mode(surface, k, BoundaryConditionSpec("local-"), 64,
                           n_fields=1)
        assert maxabs(np.sort(minus.lams) - np.sort(-plus.lams)) <= 1e-12


@pytest.mark.parametrize("geom", GEOMS)
def test_aps_structural_zero_count(geom):
    """Under APS the reduced operator couples p only to q, so it has exactly
    |n_p - n_q| zero eigenvalues.  Each end that fixes the extrapolated p
    removes one p; an end that keeps its vertex value adds one q."""
    surface = make_surface(geom)
    N = 32
    for bc in ("aps-", "aps+"):
        for k in (0.5, 2.5):
            spec = BoundaryConditionSpec(bc)
            op = ModeOperator(surface, k, N, bc=spec)
            ends = [kind for kind, _ in _closures(surface, k, spec).values()]
            n_p = N - sum(kind in ("pdir", "both") for kind in ends)
            n_q = N - 1 + sum(kind == "pdir" for kind in ends)
            bw = (op.matrix.shape[0] - 1) // 2
            vals = eigvals_banded(op.matrix[bw:], lower=True)
            n_zero = int(np.sum(np.abs(vals) <= 1e-8 * maxabs(vals)))
            assert op.structural_zeros[0] == abs(n_p - n_q) == n_zero


def test_disk_aggregate_fundamental_in_lowest_mode(solved):
    sp = solved("disk", "local+", k_max=2.5, N=128)
    assert abs(sp.k_min) == 0.5
    only_low = sp.eigenvalues(0.5)
    assert abs(sp.lambda_min_sq - np.min(only_low ** 2)) <= 1e-12
    assert not sp.kmax_attained


def test_cylinder_both_aps_minus_nonempty():
    cyl = make_surface("cylinder:2.0")
    sol = solve_mode(cyl, 0.5, BoundaryConditionSpec("aps-"), 64, n_fields=1)
    assert len(sol.lams) > 0
    per = make_surface("cylinder:2.0", spin_structure="periodic")
    sol0 = solve_mode(per, 0.0, BoundaryConditionSpec("aps-"), 64, n_fields=1)
    assert len(sol0.lams) > 0


def test_structural_kernel_handling():
    disk = make_surface("disk")
    # aps+ keeps its discrete harmonic spinor (a genuine zero mode there)
    plus = solve_mode(disk, 0.5, BoundaryConditionSpec("aps+"), 64, n_fields=1)
    assert np.min(np.abs(plus.lams)) <= 1e-10
    # aps- must not report the spurious staggered kernel
    minus = solve_mode(disk, 0.5, BoundaryConditionSpec("aps-"), 64, n_fields=1)
    assert np.min(np.abs(minus.lams)) > 1.0
    root = oracles.shoot_eigenvalues(disk, 0.5, "aps-", -4.0, 0.0, 60)[-1]
    assert abs(minus.lams[np.argmin(np.abs(minus.lams - root))] - root) <= 1e-3


def test_refinement_stability_local_minus():
    hemi = make_surface("hemisphere")
    lams = [solve_mode(hemi, 0.5, BoundaryConditionSpec("local-"), N,
                       n_fields=1).pairs[0].lam for N in (64, 128, 256)]
    d1, d2 = abs(lams[1] - lams[0]), abs(lams[2] - lams[1])
    assert d2 <= d1 / 3  # second-order shrink


def test_convergence_study_table():
    disk = make_surface("disk")
    rows = convergence_study(disk, BoundaryConditionSpec("local+"),
                             [32, 64, 128], k_max=0.5)
    assert rows[0]["order"] is None and rows[1]["order"] is None
    assert 1.7 <= rows[2]["order"] <= 2.4
    assert rows[2]["converged"]
    with pytest.raises(ConfigError):
        convergence_study(disk, BoundaryConditionSpec("local+"), [32, 64])
    with pytest.raises(ConfigError):
        convergence_study(disk, BoundaryConditionSpec("local+"), [64, 32, 128])


@pytest.mark.parametrize("geom", ["annulus:0.5,1.0", "hemisphere"])
def test_discrete_lichnerowicz_consistency(geom):
    """D^2 phi = grad*grad phi + (R/4) phi at interior nodes, second order:
    the operator-level identity behind the integral Lichnerowicz balance."""
    from spinspec import SpinorField, scalar_curvature
    from spinspec.identities import apply_dirac, _apply_matrix

    surface = make_surface(geom)
    k = 0.5
    res = {}
    for N in (64, 128):
        h = surface.length / N
        r = surface.r_min + (np.arange(N) + 0.5) * h
        if surface.cap:
            # smooth mode-1/2 sections vanish like (r^0, r^1) at the pole
            vals = np.stack([np.cos(r) + 0.3j * r ** 2,
                             r * (0.5 * np.cos(r) - 0.2j)], axis=-1)
        else:
            vals = np.stack([np.sin(2 * r) + 0.3j * r ** 2,
                             np.cos(r) - 0.2j * r], axis=-1)
        f = SpinorField(surface, k, r, vals)
        df = SpinorField(surface, k, r, apply_dirac(f))
        d2 = apply_dirac(df)

        fv, fp = surface.f(r), surface.fp(r)
        dv = np.empty_like(vals)
        dv[1:-1] = (vals[2:] - vals[:-2]) / (2 * h)
        dv[0] = (-3 * vals[0] + 4 * vals[1] - vals[2]) / (2 * h)
        dv[-1] = (3 * vals[-1] - 4 * vals[-2] + vals[-3]) / (2 * h)
        d2v = np.empty_like(vals)
        d2v[1:-1] = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / h ** 2
        d2v[0] = d2v[1]
        d2v[-1] = d2v[-2]
        rough = (-d2v - (fp / fv)[:, None] * dv
                 + (k ** 2 / fv ** 2 + fp ** 2 / (4 * fv ** 2))[:, None] * vals
                 - (1j * k * fp / fv ** 2)[:, None]
                 * _apply_matrix(vals, FRAME.volume))
        rr = scalar_curvature(surface, r)
        resid = d2 - rough - 0.25 * rr[:, None] * vals
        # fixed interior region: the constant in C h^2 grows like 1/r toward
        # a cap pole, as the singular mode coefficients dictate
        inner = (r > surface.r_min + surface.length / 8) \
            & (r < surface.r_max - surface.length / 8)
        res[N] = float(np.max(np.abs(resid[inner])))
    assert res[128] <= 1e-2
    assert np.log2(res[64] / res[128]) >= 1.8


def test_eigenvector_phase_convention(solved):
    sp = solved("disk", "local+", k_max=1.5, N=64)
    v = sp.fundamental.field.values.ravel()
    first = v[np.argmax(np.abs(v) > 1e-12 * np.max(np.abs(v)))]
    assert abs(first.imag) <= 1e-12 * abs(first)
    assert first.real > 0
