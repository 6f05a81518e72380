"""Mode assembly, boundary conditions, eigensolves, against independent oracles."""

from itertools import product

import numpy as np
import pytest

import oracles
from scipy.linalg import eigvals_banded, eigvalsh_tridiagonal

from spinspec import cli
from spinspec import (FRAME, BoundaryConditionSpec, ConfigError, ModeOperator,
                      aggregate, boundary_dirac_matrix, eigenpairs,
                      make_surface, modes_for, solve_mode)
from spinspec._lapack import hessenberg_q
from spinspec.dirac_core import (NumericalError, _bipartite_values, _closures,
                                 _collocate, _native, _tridiagonal_block,
                                 full_spectra)

GEOMS = ("disk", "annulus:0.5,1.0", "cylinder:2.0", "hemisphere", "cap:pi/3")
# the surfaces of the property tests; "zone" is the sampled profile zone_csv
SURFACES = ["disk", "hemisphere", "cap:1.2", "cap:2.0", "annulus:0.5,1.0",
            "annulus:1,2", "zone"]
BCS = ("local+", "local-", "aps-", "aps+")
# image of each condition under the component swap that maps mode k to -k
SWAPPED = {"local+": "local-", "local-": "local+", "aps-": "aps-", "aps+": "aps+"}


def maxabs(m):
    return float(np.max(np.abs(m)))


def mode_levels(sp, k):
    """The levels of mode k in the spectrum sp, ascending."""
    return np.sort(sp.levels[np.abs(sp.levels[:, 1] - k) < 1e-9, 0])


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
        assert np.all(op._m > 0)


from hypothesis import example, given, settings
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
    assert np.all(op._m > 0)


def test_assembly_contract_errors():
    disk = make_surface("disk")
    aps = BoundaryConditionSpec("aps-")
    with pytest.raises(ConfigError, match="N too small"):
        ModeOperator(disk, 0.5, 8, bc=aps)
    with pytest.raises(ConfigError, match="spin structure"):
        ModeOperator(disk, 1.0, 32, bc=aps)  # integer mode on antiperiodic
    cyl = make_surface("cylinder:2.0", spin_structure="periodic")
    with pytest.raises(ConfigError, match="spin structure"):
        ModeOperator(cyl, 0.5, 32, bc=aps)
    with pytest.raises(ConfigError, match="native modes"):
        ModeOperator(disk, -0.5, 32, bc=aps)
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
            assert np.array_equal(op._m, ref._m)
            kinds = ref._col_kind
            n_p, n_q = kinds.count("p"), kinds.count("q")
            expected = (None if "mixed" in kinds or n_p == n_q else
                        (abs(n_p - n_q), "spurious" if n_q > n_p else "harmonic"))
            assert oracles.structural_zeros(op) == expected
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


@pytest.mark.parametrize("geom,bc", list(product(GEOMS, ("aps-", "aps+"))))
def test_bipartite_full_spectrum_matches_dense(geom, bc):
    """The full spectrum of an APS mode comes from the dqds singular values
    of its bidiagonal: with the spurious structural zero deflated, it is the
    spectrum of the dense reference assembly.  Every APS operator here has
    odd n, padded by one exact zero; the even-n branch is checked on the
    form with its last index cut off, against eigvalsh of that matrix."""
    surface = make_surface(geom)
    spec = BoundaryConditionSpec(bc)
    for k in (0.5, 2.5):
        for N in (16, 33):
            op = ModeOperator(surface, k, N, bc=spec)
            ref = np.linalg.eigvalsh(
                oracles.DenseModeOperator(surface, k, N, spec).matrix)
            scale = maxabs(ref)
            n_zero, kind = oracles.structural_zeros(op)
            if kind == "spurious":
                by_size = np.argsort(np.abs(ref), kind="stable")
                ref = np.sort(ref[by_size[n_zero:]])
            vals = op.eigensystem()[0]
            assert len(vals) == len(ref)
            assert maxabs(vals - ref) <= 1e-13 * scale
            d, e = op.tridiagonal()
            assert len(d) % 2 == 1
            for n in (len(d), len(d) - 1):
                t = np.diag(e[:n - 1], 1) + np.diag(e[:n - 1], -1)
                got = np.sort(_bipartite_values(e[:n - 1]))
                assert len(got) == n
                assert maxabs(got - np.linalg.eigvalsh(t)) <= 1e-13 * scale
                assert np.sum(got == 0.0) == n % 2


def test_tridiagonal_reduction_refuses_leftover_entries():
    """A block whose Hessenberg form is not tridiagonal (here: not
    Hermitian) is refused, not truncated to its tridiagonal part."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    herm = a + a.conj().T
    d, sub, reflectors = _tridiagonal_block(herm, 1e-12 * maxabs(herm))
    q = hessenberg_q(*reflectors)
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


def test_structural_zero_check_on_selective_path(monkeypatch):
    """A perturbed APS operator is refused on the selective path too: a
    diagonal entry breaks the bipartite form, and a kernel that is not there
    is never deflated.  The blocks, and the tridiagonal form built from them
    once, are read-only, so a perturbation goes in before the first read."""
    surface, spec = make_surface("hemisphere"), BoundaryConditionSpec("aps-")
    op = ModeOperator(surface, 0.5, 64, bc=spec)
    assert oracles.structural_zeros(op) == (1, "spurious")
    assert len(op.eigensystem(n_values=2)[0]) == 2
    for a in (*op._blocks, *op.tridiagonal()):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    op._spurious = 2
    for n_values in (2, None):
        with pytest.raises(NumericalError, match="refusing to deflate"):
            op.eigensystem(n_values=n_values)

    assemble = ModeOperator._assemble

    def plant_diagonal(self):
        # the solve reads the blocks, not the band
        assemble(self)
        head = self._blocks[0].copy()
        head[2, 2] += 1e-6
        self._blocks = (head, *self._blocks[1:])

    monkeypatch.setattr(ModeOperator, "_assemble", plant_diagonal)
    with pytest.raises(NumericalError, match="diagonal"):
        ModeOperator(surface, 0.5, 64, bc=spec).eigensystem(n_values=2)


def test_aggregate_without_fields_keeps_levels():
    """aggregate keeps levels only, the levels of per-mode solves whose
    fields eigenpairs builds; the fundamental's field is built on first
    access, once."""
    surface = make_surface("annulus:0.5,1.0")
    for bc in ("local+", "aps-"):
        spec = BoundaryConditionSpec(bc)
        sp = aggregate(surface, spec, 2.5, 48)
        assert "fundamental" not in vars(sp)
        sols = [oracles.mode_pairs(surface, k, spec, 48, 1)
                for k in modes_for(surface, 2.5)]
        assert sum(len(pairs) for _, pairs in sols) == 6
        assert np.array_equal(np.sort(sp.levels[:, 0]),
                              np.sort(np.concatenate([lv for lv, _ in sols])))
        assert sp.fundamental is sp.fundamental
        assert sp.fundamental.lam == sp.lambda_min


def _assert_same_pair(surface, got, want):
    """Two eigenpairs equal bit for bit: level, mode, field and traces."""
    assert (got.lam, got.k) == (want.lam, want.k)
    assert np.array_equal(got.field.values, want.field.values)
    for w in surface.boundaries:
        assert np.array_equal(got.field.trace(w), want.field.trace(w))


@pytest.mark.parametrize("geom,bc", [("disk", "local+"), ("disk", "local-"),
                                     ("hemisphere", "aps-"),
                                     ("cylinder:2.0", "aps+")])
def test_aggregate_is_the_merge_of_per_mode_solves(geom, bc):
    """Solving each |k| once and dropping it after its modes merge gives the
    levels of one solve_mode call per mode, bit for bit: every mode's for a
    full spectrum; for a selective one, those of each mode that holds rows,
    while no other mode has a level with |lambda| <= |lambda_min| in its own
    solve.  Either way the fundamental is the (|lambda|, k, sign)-first of
    the per-mode first eigenpairs (`eigenpairs` of each mode's smallest
    |lambda|), field and traces bit for bit."""
    # on the periodic cylinder k = 0 is a mode
    surface = make_surface(geom, "periodic" if geom.startswith("cylinder")
                           else "antiperiodic")
    spec = BoundaryConditionSpec(bc)
    for n_levels in (None, 2):
        sp = aggregate(surface, spec, 3.5, 32, n_levels=n_levels)
        sols = [(k, *oracles.mode_pairs(surface, k, spec, 32, 1, n_levels))
                for k in modes_for(surface, 3.5)]
        assert sp.k_top == max(abs(k) for k, _, _ in sols)
        kept = [s for s in sols if np.any(sp.levels[:, 1] == s[0])]
        dropped = [s for s in sols if not np.any(sp.levels[:, 1] == s[0])]
        assert not dropped or n_levels is not None
        for _, lams, _ in dropped:
            assert np.all(np.abs(lams) > abs(sp.lambda_min))
        rows = np.vstack([np.column_stack([lams, np.full(len(lams), k)])
                          for k, lams, _ in kept])
        order = np.lexsort((np.sign(rows[:, 0]), rows[:, 1],
                            np.abs(rows[:, 0])))
        assert np.array_equal(sp.levels, rows[order])
        want = min((e for _, _, pairs in sols for e in pairs),
                   key=lambda e: (abs(e.lam), e.k, np.sign(e.lam)))
        _assert_same_pair(surface, sp.fundamental, want)


def _count_work(monkeypatch) -> dict:
    """Counts of solve_mode, clear_of and eigensystem calls, as they run."""
    from spinspec import dirac_core
    counts = dict.fromkeys(("solve_mode", "clear_of", "eigensystem"), 0)

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(dirac_core, "solve_mode")
    counted(ModeOperator, "clear_of")
    counted(ModeOperator, "eigensystem")
    return counts


@pytest.mark.parametrize("geom,bc", [("disk", "local+"), ("hemisphere", "aps-")])
def test_selective_aggregate_bisects_only_the_modes_that_can_hold_lambda_min(
        geom, bc, monkeypatch):
    """On the disk under local+, and on the hemisphere under aps-, where
    every mode carries a spurious structural zero, lambda_min sits at
    |k| = 1/2: each of the 5 |k| is assembled and solved once, the 4 above
    it are cleared by one probe each, and only |k| = 1/2 is bisected."""
    counts = _count_work(monkeypatch)
    sp = aggregate(make_surface(geom), BoundaryConditionSpec(bc), 4.5, 64,
                   n_levels=1)
    assert counts == {"solve_mode": 5, "clear_of": 4, "eigensystem": 1}
    assert set(np.abs(sp.levels[:, 1])) == {0.5}
    assert (sp.k_top, sp.kmax_attained) == (4.5, False)


_REAL_FORM = ModeOperator._tridiagonal_form
_REAL_ASSEMBLE = ModeOperator._assemble


def _plant_small_zero(self):
    """The tridiagonal form at |k| = 2.5 shifted by 1e-3: its structural zero
    becomes 1e-3, every other level moves by as much."""
    d, e, back = _REAL_FORM(self)
    return (d + 1e-3 if self.k == 2.5 else d), e, back


def _plant_missing_zero(self):
    """The assembly at |k| = 2.5 claiming a second spurious zero it lacks."""
    _REAL_ASSEMBLE(self)
    if self.k == 2.5:
        self._spurious = 2


@pytest.mark.parametrize("attr,plant", [("_tridiagonal_form", _plant_small_zero),
                                        ("_assemble", _plant_missing_zero)])
def test_probe_leaves_a_doubtful_kernel_to_the_refusal(attr, plant,
                                                       monkeypatch):
    """A mode the probe would clear (hemisphere, aps-, |k| = 2.5) is
    bisected, and refused, once its structural kernel is in doubt: a zero of
    1e-3, or a claimed zero that is not there.  Neither is deflated."""
    surface, spec = make_surface("hemisphere"), BoundaryConditionSpec("aps-")
    sp = aggregate(surface, spec, 4.5, 64, n_levels=1)
    assert 2.5 not in np.abs(sp.levels[:, 1])
    monkeypatch.setattr(ModeOperator, attr, plant)
    with pytest.raises(NumericalError, match="refusing to deflate"):
        aggregate(surface, spec, 4.5, 64, n_levels=1)


def _probe_bounds(op, levels) -> list:
    """Probe bounds whose window edge t = bound + 1e-10 * scale sits at a
    level, a few ulps either side of it, and 1e-9 inside and outside it, for
    the two smallest |lambda| of each sign; an edge at a level of a
    bipartite operator is an exact +-tie.  Also bounds that leave only the
    structural zeros in the window."""
    slack = 1e-10 * op._scale
    bounds = [0.0, 1e-9, 1e-8]
    for lam in np.unique(np.abs(levels[levels != 0]))[:2]:
        at = lam - slack
        bounds += [lam, 0.5 * lam, at, at + 1e-9, at - 1e-9,
                   np.nextafter(at, np.inf), np.nextafter(at, -np.inf)]
    return [b for b in bounds if b >= 0]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(geom=st.sampled_from(SURFACES), bc=st.sampled_from(BCS),
       N=st.integers(16, 1024),
       k=st.sampled_from([0.5, 1.5, 2.5, 4.5]), n_levels=st.integers(1, 4))
def test_count_picked_bisection_is_the_whole_window_one(zone_csv, geom, bc, N,
                                                        k, n_levels):
    """The selective levels of a mode, whose bisection the Sturm counts
    confine to the intervals the reported levels need, are bit for bit the
    ones of bisecting every level of the doubling window (the oracle), and
    the count-only probe decides as the bisected window does: at a level,
    just inside and outside it, at an exact +-tie and with only the
    structural zeros in the window."""
    surface = make_surface(f"profile:{zone_csv}" if geom == "zone" else geom)
    try:
        op = ModeOperator(surface, k, N, bc=BoundaryConditionSpec(bc))
    except ConfigError:             # N too coarse for this |k|
        return
    want = oracles.selective_levels(op, n_levels)
    got = op.eigensystem(n_values=n_levels)[0]
    assert got.dtype == want.dtype and np.array_equal(got, want)
    for bound in _probe_bounds(op, want):
        assert op.clear_of(bound) == oracles.window_clear_of(op, bound), bound


def _vectors(op, wanted):
    """op's eigenvectors of `wanted`, or the refusal they meet."""
    try:
        return op.eigenvectors(wanted)
    except NumericalError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(geom=st.sampled_from(SURFACES), bc=st.sampled_from(BCS),
       N=st.integers(16, 1024), k=st.sampled_from([0.5, 1.5, 2.5, 4.5]))
def test_levels_first_or_vectors_first_is_the_same_operator(zone_csv, geom,
                                                             bc, N, k):
    """A levels-only solve builds the tridiagonal form from the end blocks'
    reflectors and no back-map; eigenvectors build the back-map from those
    reflectors.  The order does not matter, bit for bit: tridiagonal() is
    the same whether or not vectors were asked for first, and the
    eigenvectors of the smallest |lambda| after a probe and a level solve,
    or asked for again, are a fresh operator's."""
    surface = make_surface(f"profile:{zone_csv}" if geom == "zone" else geom)
    spec = BoundaryConditionSpec(bc)
    try:
        ref = ModeOperator(surface, k, N, bc=spec)
    except ConfigError:             # N too coarse for this |k|
        return
    levels = ref.eigensystem(n_values=2)[0]
    wanted = levels[np.argsort(np.abs(levels), kind="stable")[:1]]
    vectors_first = ModeOperator(surface, k, N, bc=spec)
    fresh = _vectors(vectors_first, wanted)
    levels_first = ModeOperator(surface, k, N, bc=spec)
    levels_first.clear_of(float(np.abs(wanted[0])))
    assert np.array_equal(levels_first.eigensystem(n_values=2)[0], levels)
    after = _vectors(levels_first, wanted)
    for op in (vectors_first, levels_first):
        for got, want in zip(op.tridiagonal(), ref.tridiagonal()):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    for again in (after, _vectors(vectors_first, wanted)):
        assert type(again) is type(fresh)
        if isinstance(fresh, str):
            assert again == fresh
        else:
            assert again.dtype == fresh.dtype and np.array_equal(again, fresh)


def test_a_short_bisection_falls_back_to_the_window(monkeypatch):
    """When dstebz gives an interval the counts picked fewer levels than they
    hold, the solve bisects its whole window instead of reporting fewer
    levels, and the levels are the oracle's."""
    from spinspec import dirac_core
    real, calls = dirac_core.eigvalsh_tridiagonal, []

    def short_once(d, e, select="a", select_range=None):
        calls.append(select_range)
        vals = real(d, e, select=select, select_range=select_range)
        return vals[1:] if len(calls) == 1 else vals

    monkeypatch.setattr(dirac_core, "eigvalsh_tridiagonal", short_once)
    for bc in ("local+", "aps-"):
        calls.clear()
        op = ModeOperator(make_surface("hemisphere"), 0.5, 64,
                          bc=BoundaryConditionSpec(bc))
        got = op.eigensystem(n_values=2)[0]
        assert len(calls) == 2 and calls[1][0] == -calls[1][1]
        assert np.array_equal(got, oracles.selective_levels(op, 2))


def test_fundamental_refuses_a_level_it_does_not_belong_to():
    """The fundamental's field is the eigenvector of levels[0] in mode
    k_min.  A levels[0] nudged by 1e-6, no level of that operator, and a
    levels[0] repeated in its mode, with no second vector of its own, are
    refused in one line, never paired with a field."""
    import dataclasses
    sp = aggregate(make_surface("disk"), BoundaryConditionSpec("local+"),
                   1.5, 32, n_levels=1)
    nudged = sp.levels.copy()
    nudged[0, 0] += 1e-6
    repeated = np.vstack([sp.levels[:1], sp.levels])
    for levels in (nudged, repeated):
        with pytest.raises(NumericalError, match="eigenvectors missing") as exc:
            dataclasses.replace(sp, levels=levels).fundamental
        assert "\n" not in str(exc.value)
    assert (sp.fundamental.lam, sp.fundamental.k) == (sp.lambda_min, sp.k_min)


def test_eigenpairs_of_no_levels_is_an_empty_list():
    """eigenpairs of an empty list of levels is an empty list (stein on no
    values), under every condition and at k of either sign."""
    surface = make_surface("disk")
    for bc in BCS:
        for k in (0.5, -1.5):
            assert eigenpairs(surface, k, BoundaryConditionSpec(bc), 32,
                              []) == []


def _aggregate_peak(k_max: float) -> int:
    """tracemalloc peak of aggregate on the disk, local+, N 2048, two
    levels per mode, followed by its fundamental."""
    import tracemalloc
    tracemalloc.start()
    try:
        aggregate(make_surface("disk"), BoundaryConditionSpec("local+"),
                  k_max, 2048, n_levels=2).fundamental
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_aggregate_holds_one_solve_at_a_time():
    """aggregate drops each |k| solve (band, end bases) once its modes are
    merged and builds one field, the fundamental's.  At kmax 20.5 the peak
    measured 1.3 MiB; keeping two fields per mode peaked at 7.7 MiB, and
    also holding all 21 solves to the end at 26.6 MiB."""
    assert _aggregate_peak(20.5) <= 4 * 2 ** 20


def test_aggregate_memory_does_not_grow_with_kmax():
    """Levels are all that aggregate keeps per mode, about 32 B each here:
    the peak at kmax 40.5 stays within 1.25x the one at 10.5 (both measured
    1.3 MiB; with two fields kept per mode, 14.0 against 4.6 MiB)."""
    assert _aggregate_peak(40.5) <= 1.25 * _aggregate_peak(10.5)


def _full_aggregate_memory(monkeypatch, k_max: float, N: int = 1024
                           ) -> tuple[int, int, int]:
    """A full-spectrum aggregate on the disk, local+, on two workers, under
    tracemalloc: its peak, the most memory in use as a solve starts, and
    the bytes of its levels."""
    import tracemalloc
    from spinspec import dirac_core
    real, in_use = dirac_core.solve_mode, []

    def traced(*args):
        in_use.append(tracemalloc.get_traced_memory()[0])
        return real(*args)

    monkeypatch.setattr(dirac_core, "_cpu_count", lambda: 2)
    monkeypatch.setattr(dirac_core, "solve_mode", traced)
    tracemalloc.start()
    try:
        levels = aggregate(make_surface("disk"), BoundaryConditionSpec("local+"),
                           k_max, N).levels
        return tracemalloc.get_traced_memory()[1], max(in_use), levels.nbytes
    finally:
        tracemalloc.stop()


def test_pooled_aggregate_holds_one_solve_per_worker(monkeypatch):
    """A full spectrum holds its levels and one solve per worker.  As a solve
    starts on one worker, the rows merged so far and the other worker's
    solve are all that is held: at N 1024 and kmax 40.5, 2.6 MiB for 2.56
    MiB of levels, where keeping every finished solve measured 3.4 MiB.
    Merging then holds the stacked levels, their sorted copy, the |lambda|
    sort key and the order (the other two keys are views of the levels),
    about 3x the levels (a 2.1 MiB peak for 0.69 MiB of levels at kmax
    10.5, 7.7 for 2.56 at 40.5); one solve peaks at about 0.28 MiB."""
    import concurrent.futures  # noqa: F401  (its import is not measured)
    import tracemalloc
    tracemalloc.start()
    try:
        solve_mode(make_surface("disk"), 40.5, BoundaryConditionSpec("local+"),
                   1024)
        solve = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    low, high = (_full_aggregate_memory(monkeypatch, k_max)
                 for k_max in (10.5, 40.5))
    for peak, at_solve, levels in (low, high):
        assert at_solve <= levels + solve
        assert peak <= 4 * levels + 2 * solve
    assert high[0] - low[0] <= 4 * (high[2] - low[2])


def _profile_annulus(tmp_path) -> str:
    path = tmp_path / "annulus.csv"
    r = np.linspace(0.5, 1.5, 21).tolist()
    path.write_text("r,f\n" + "".join(f"{x!r},{x * (1.2 - x / 4)!r}\n"
                                       for x in r))
    return f"profile:{path}"


@pytest.mark.parametrize("geometry, bc, spin", [
    ("hemisphere", "aps-", "antiperiodic"),
    ("hemisphere", "local+", "antiperiodic"),
    ("cap:1.2", "local+", "antiperiodic"),
    ("profile", "aps+", "antiperiodic"),
    ("cylinder:2.0", "local-", "periodic"),       # integer k, k = 0 included
])
def test_pooled_spectrum_is_the_serial_one(geometry, bc, spin, monkeypatch,
                                           tmp_path):
    """A full spectrum solved on a pool of 2 or 3 threads is bit for bit the
    one solved in this thread, and the pool really runs off this thread."""
    import threading
    from spinspec import dirac_core
    if geometry == "profile":
        geometry = _profile_annulus(tmp_path)
    surface, spec = make_surface(geometry, spin), BoundaryConditionSpec(bc)
    real, threads = dirac_core.solve_mode, []

    def recorded(*args):
        threads.append(threading.current_thread() is threading.main_thread())
        return real(*args)

    monkeypatch.setattr(dirac_core, "solve_mode", recorded)
    levels = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(dirac_core, "_cpu_count", lambda: workers)
        threads.clear()
        levels[workers] = aggregate(surface, spec, 6.5, 256).levels
        assert all(threads) == (workers == 1) and any(threads) == (workers == 1)
    assert len(levels[1]) > 0
    assert np.array_equal(levels[1], levels[2])
    assert np.array_equal(levels[1], levels[3])


@pytest.mark.parametrize("workers, n_levels", [
    pytest.param(1, None, id="1"), pytest.param(2, None, id="2"),
    pytest.param(1, 1, id="inline-1"), pytest.param(4, 1, id="inline-4")])
def test_full_spectra_is_aggregate_per_entry_largest_grid_first(
        workers, n_levels, monkeypatch):
    """full_spectra yields each (condition, grid) as aggregate gives it, bit
    for bit; local+ and local- on one grid share one native solve per |k|.
    A full spectrum comes largest grid first and in the entries' order
    within a grid.  A selective one (n_levels=1) comes in the entries'
    order, solved in this thread, and the thread pool is never imported,
    whatever the CPU count."""
    import sys
    import threading
    from spinspec import dirac_core
    surface = make_surface("hemisphere")
    entries = [(BoundaryConditionSpec(bc), N)
               for bc in ("local-", "aps-", "local+") for N in (32, 48, 64)]
    real, calls, threads = dirac_core.solve_mode, [], []

    def counted(surface, k, bc, N, *args):
        calls.append((bc.variant, N, k))
        threads.append(threading.current_thread() is threading.main_thread())
        return real(surface, k, bc, N, *args)

    monkeypatch.setattr(dirac_core, "_cpu_count", lambda: workers)
    monkeypatch.setattr(dirac_core, "solve_mode", counted)
    if n_levels is not None:
        # an import of the pool now raises ImportError
        monkeypatch.setitem(sys.modules, "concurrent.futures", None)
    got = list(dirac_core.full_spectra(surface, 2.5, entries, n_levels))
    assert [i for i, _ in got] == ([2, 5, 8, 1, 4, 7, 0, 3, 6]
                                   if n_levels is None else list(range(9)))
    # 3 |k| on 3 grids under the native local+ and aps-, each solved once
    assert len(calls) == len(set(calls)) == 3 * 3 * 2
    assert {bc for bc, _, _ in calls} == {"local+", "aps-"}
    if n_levels is not None:
        assert all(threads)
    for i, sp in got:
        bc, N = entries[i]
        want = aggregate(surface, bc, 2.5, N, n_levels)
        assert (sp.bc, sp.n_grid, sp.k_top) == (bc, N, want.k_top)
        assert np.array_equal(sp.levels, want.levels)
        assert np.array_equal(np.signbit(sp.levels), np.signbit(want.levels))


def test_selective_aggregate_stays_in_this_thread(monkeypatch):
    """With n_levels set, aggregate solves inline whatever the CPU count."""
    import threading
    from spinspec import dirac_core
    real, threads = dirac_core.solve_mode, []

    def recorded(*args):
        threads.append(threading.current_thread() is threading.main_thread())
        return real(*args)

    monkeypatch.setattr(dirac_core, "solve_mode", recorded)
    monkeypatch.setattr(dirac_core, "_cpu_count", lambda: 4)
    aggregate(make_surface("disk"), BoundaryConditionSpec("aps-"), 4.5, 64,
              n_levels=1)
    assert len(threads) == 5 and all(threads)


def _fail_at(monkeypatch, order: list, at: int):
    """solve_mode raising at order[at] after a pause and at order[at + 1] at
    once; the modes after those pause before solving.  Returns the list of
    |k| called."""
    import time
    from spinspec import dirac_core
    real, calls = dirac_core.solve_mode, []

    def failing(surface, k, *args):
        calls.append(k)
        if k in order[at:at + 2]:
            if k == order[at]:
                time.sleep(0.2)
            raise NumericalError(f"injected at |k| = {k:g}")
        if k in order[at + 2:]:
            time.sleep(0.05)
        return real(surface, k, *args)

    monkeypatch.setattr(dirac_core, "solve_mode", failing)
    return calls


def test_pool_failure_is_the_serial_failure(monkeypatch):
    """A failing |k| raises its own error, the first in the serial order
    (largest |k| first) even when a later one fails sooner, and the solves
    not yet started are cancelled."""
    from spinspec import dirac_core
    surface, spec = make_surface("disk"), BoundaryConditionSpec("local+")
    order = list(dict.fromkeys(abs(k) for k in modes_for(surface, 20.5)))
    calls = _fail_at(monkeypatch, order, 10)
    errors, counts = [], []
    for workers in (1, 2):
        monkeypatch.setattr(dirac_core, "_cpu_count", lambda: workers)
        calls.clear()
        with pytest.raises(NumericalError) as info:
            aggregate(surface, spec, 20.5, 64)
        errors.append(str(info.value))
        counts.append(len(calls))
    assert errors == [f"injected at |k| = {order[10]:g}"] * 2
    assert counts[0] == 11
    assert counts[1] < len(order)


@pytest.mark.parametrize("N", [256, 1024])
def test_aps_levels_come_in_exact_pairs(N):
    """Under aps- the spectrum is reported exactly symmetric, so the +-tie
    in the (|lambda|, k, sign) order always resolves to the negative level
    and its field."""
    hemi = make_surface("hemisphere")
    spec = BoundaryConditionSpec("aps-")
    for n_levels in (None, 2):
        sp = aggregate(hemi, spec, 4.5, N, n_levels=n_levels)
        for k in (-4.5, -0.5, 0.5, 2.5):
            vals = mode_levels(sp, k)
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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(geom=st.sampled_from(SURFACES + ["cylinder:2.0"]),
       bc=st.sampled_from(BCS), N=st.integers(16, 512),
       k_index=st.integers(0, 4))
def test_end_blocks_and_bandwidth_stay_small(zone_csv, geom, bc, N, k_index):
    """Each reduced end block has at most 6 columns: a window holds 7 dofs,
    a constraint's null space has one column fewer than its support, and a
    qdir end drops its vertex.  So the reduced operator's bandwidth is at
    most 5, whatever the closure (the periodic cylinder's k = 0 is the one
    case of the APS closure 'both')."""
    periodic = geom.startswith("cylinder")
    surface = make_surface(f"profile:{zone_csv}" if geom == "zone" else geom,
                           "periodic" if periodic else "antiperiodic")
    k = k_index if periodic else k_index + 0.5
    try:
        op = ModeOperator(surface, k, N, bc=BoundaryConditionSpec(bc))
    except ConfigError:             # N too coarse for this |k|
        return
    head, _, tail = op._blocks
    assert head.shape[0] <= 6 and tail.shape[0] <= 6
    assert op._bw <= 5


@settings(max_examples=100, deadline=None, derandomize=True)
@given(geom=st.sampled_from(SURFACES), bc=st.sampled_from(BCS),
       N=st.integers(16, 512),
       k=st.sampled_from([0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 4.5, -4.5]),
       m=st.integers(1, 4))
@example(geom="disk", bc="local+", N=128, k=0.5, m=1)
@example(geom="disk", bc="local+", N=4096, k=0.5, m=1)
def test_eigenpairs_belong_to_their_levels(zone_csv, geom, bc, N, k, m):
    """eigenpairs of the m smallest |lambda| of a mode gives one pair per
    level: exactly that level, by |lambda| then lambda, in the mode k given,
    with a value per cell and component.  A level repeated, or moved off
    its place by 1e-13 * scale (a thousandth of the 1e-10 * scale bracket
    the vectors were once bisected in: 1.8e-11 on the disk at N 128, 5.8e-10
    at 4096), has no level of the form of its own within the counts'
    delta = 32 eps (bound + 1), at most a quarter of that move, and is
    refused; a level one ulp off is inside delta, and its pair carries the
    level as given.  Up to N 512, a structural zero planted through the
    counts (`_spurious`) that the operator lacks is refused by the full
    solve, and by the selective one of a bipartite operator, the one whose
    selective solve counts its zeros."""
    surface = make_surface(f"profile:{zone_csv}" if geom == "zone" else geom)
    spec = BoundaryConditionSpec(bc)
    try:
        op = ModeOperator(surface, abs(k), N, bc=_native(spec))
    except ConfigError:             # N too coarse for this |k|
        return
    wanted = oracles.lowest(solve_mode(surface, k, spec, N, m), m)
    pairs = eigenpairs(surface, k, spec, N, wanted)
    assert sorted(e.lam for e in pairs) == wanted.tolist()
    assert [e.lam for e in pairs] == sorted(wanted.tolist(),
                                            key=lambda x: (abs(x), x))
    assert all(e.k == k and e.field.values.shape == (N, 2) for e in pairs)

    move = 1e-13 * op._scale
    assert 32 * np.finfo(float).eps * (op._count.bound + 1.0) <= move / 4
    for i, lam in enumerate(wanted):
        for bad in ([lam, lam], [lam + move], [lam - move]):
            with pytest.raises(NumericalError, match="eigenvectors missing"):
                eigenpairs(surface, k, spec, N, np.array(bad))
        for off in (np.inf, -np.inf):
            moved = wanted.copy()
            moved[i] = np.nextafter(lam, off)
            got = eigenpairs(surface, k, spec, N, moved)
            assert sorted(e.lam for e in got) == moved.tolist()

    if N > 512:                     # a full solve is O(N^2); drawn N <= 512
        return
    op._spurious += 1
    for n_values in (None, m) if op._bipartite else (None,):
        with pytest.raises(NumericalError, match="refusing to deflate"):
            op.eigensystem(n_values=n_values)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(geom=st.sampled_from(SURFACES), bc=st.sampled_from(BCS),
       N=st.integers(16, 96),
       k=st.sampled_from([0.5, -0.5, 2.5, -2.5, 4.5, -4.5, 12.5, -12.5]),
       n_levels=st.sampled_from([None, 1, 2, 3, 4]))
@example(geom="disk", bc="local+", N=16, k=4.5, n_levels=None)
@example(geom="disk", bc="local+", N=17, k=-12.5, n_levels=None)
@example(geom="disk", bc="local+", N=32, k=4.5, n_levels=3)
@example(geom="disk", bc="aps-", N=32, k=2.5, n_levels=None)
@example(geom="disk", bc="aps+", N=24, k=-4.5, n_levels=2)
def test_eigenpairs_take_every_level_a_solve_reports(zone_csv, geom, bc, N, k,
                                                     n_levels):
    """eigenpairs accepts every level solve_mode reports, from each of its
    solvers: dsterf (a full local spectrum), the dqds singular values (a
    full bipartite one) and dstebz (a selective solve), on forms split into
    blocks as well (the disk's forms at |k| 2.5, 4.5 and 12.5 have an
    exactly zero link), and pairs each level with itself.  A selective
    level lies within 8 eps (bound + 1), a quarter of the membership
    counts' delta, of the full solve's value of the same level."""
    surface = make_surface(f"profile:{zone_csv}" if geom == "zone" else geom)
    spec = BoundaryConditionSpec(bc)
    try:
        op = ModeOperator(surface, abs(k), N, bc=_native(spec))
    except ConfigError:             # N too coarse for this |k|
        return
    levels = solve_mode(surface, k, spec, N, n_levels)
    pairs = eigenpairs(surface, k, spec, N, levels)
    assert sorted(e.lam for e in pairs) == levels.tolist()
    if n_levels is not None:
        full = oracles.lowest(solve_mode(surface, k, spec, N), len(levels))
        gap = maxabs(levels - full)
        assert gap <= 8 * np.finfo(float).eps * (op._count.bound + 1.0)


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
        rc, xv = op.r_centers, op.surface.r_min + np.arange(N + 1) * op.h
        p = np.cos(rc / 2).astype(complex)
        q = -1j * np.sin(xv / 2)
        rp, rq = oracles.apply_interior(op, p, q)
        res_p = rp - 1.0 * p
        res_q = rq - 1.0 * q[1:-1]
        w_p = hemi.f(rc) * op.h
        w_q = hemi.f(xv[1:-1]) * op.h
        norms.append(np.sqrt(np.sum(w_p * np.abs(res_p) ** 2)
                             + np.sum(w_q * np.abs(res_q) ** 2)))
    assert norms[-1] <= 1e-4
    order = np.log2(norms[0] / norms[1]), np.log2(norms[1] / norms[2])
    assert min(order) >= 1.8


@pytest.mark.parametrize("n_levels", [None, 1, 2, 3, 4])
def test_hemisphere_spectrum_is_the_closed_form(n_levels, monkeypatch):
    """Every level of every mode |k| <= 4.5 of the unit hemisphere under
    local+ and local-, through the executor: pooled full spectra
    (n_levels=None, 2 threads) and inline selective ones.  Each mode that
    holds rows has the closed form's count of levels with |lambda| <= 8.5
    (a selective mode its n_levels smallest |lambda|), they match the
    closed form one to one (each within 0.02 of its partner; a mode's
    closed-form levels lie at least 2 apart), and each level's error falls
    at an observed order in [1.9, 2.1] from N 64 to 128.  A selective
    solve holds rows only in the modes +-1/2 of lambda_min."""
    from spinspec import dirac_core
    monkeypatch.setattr(dirac_core, "_cpu_count", lambda: 2)
    cutoff, grids = 8.5, (64, 128)
    entries = [(BoundaryConditionSpec(bc), N) for N in grids
               for bc in ("local+", "local-")]
    spectra = dict(full_spectra(make_surface("hemisphere"), 4.5, entries,
                                n_levels))
    for i, (spec, _) in enumerate(entries[:2]):
        coarse, fine = spectra[i], spectra[i + 2]
        held = set(coarse.levels[:, 1])
        assert held == set(fine.levels[:, 1])
        assert held == (set(modes_for(coarse.surface, 4.5)) if n_levels is None
                        else {-0.5, 0.5})
        for k in held:
            exact = oracles.hemisphere_levels(k, spec.variant, cutoff)
            if n_levels is not None:
                exact = oracles.lowest(exact, n_levels)
            errors = []
            for sp in (coarse, fine):
                got = mode_levels(sp, k)
                got = got[np.abs(got) <= cutoff]
                assert len(got) == len(exact), (spec.variant, k, sp.n_grid)
                errors.append(np.abs(got - exact))
                assert np.all(errors[-1] < 0.02), (spec.variant, k)
            order = np.log2(errors[0] / errors[1])
            assert np.all((order >= 1.9) & (order <= 2.1)), (spec.variant, k)


def test_disk_fundamental_matches_shooting_oracle():
    disk = make_surface("disk")
    root = oracles.shoot_eigenvalues(disk, 0.5, "local+", 1.0, 2.0, 30)[0]
    assert abs(root - oracles.DISK_LOCALPLUS_ROOT) <= 1e-9
    lams = solve_mode(disk, 0.5, BoundaryConditionSpec("local+"), 256)
    lam = lams[lams > 0][0]
    assert abs(lam - root) <= 5e-4


@pytest.mark.parametrize("k", [1.5, 2.5])
def test_disk_higher_modes_match_bessel_oracle(k):
    # the exact Bessel roots; they agree with the shooting oracle's roots in
    # [-8, 8] to 1e-11 at a thousandth of its cost
    disk = make_surface("disk")
    roots = oracles.disk_local_eigenvalues(k, "local+", n_roots=6)
    roots = roots[np.abs(roots) <= 8.0]
    assert len(roots) >= 3
    lams = solve_mode(disk, k, BoundaryConditionSpec("local+"), 256)
    for root in roots:
        assert np.min(np.abs(lams - root)) <= 2e-3


def test_annulus_local_matches_shooting():
    ann = make_surface("annulus:0.5,1.0")
    roots = oracles.shoot_eigenvalues(ann, 0.5, "local+", -6.0, 6.0, 120)
    lams = solve_mode(ann, 0.5, BoundaryConditionSpec("local+"), 256)
    assert len(roots) >= 2
    for root in roots:
        assert np.min(np.abs(lams - root)) <= 2e-4


def test_hemisphere_aps_matches_shooting():
    hemi = make_surface("hemisphere")
    roots = oracles.shoot_eigenvalues(hemi, 0.5, "aps-", -4.0, 4.0, 80)
    lams = solve_mode(hemi, 0.5, BoundaryConditionSpec("aps-"), 256)
    for root in roots:
        assert np.min(np.abs(lams - root)) <= 5e-4


def test_annulus_aps_minus_matches_shooting():
    # two boundaries with opposite-component spectral constraints
    ann = make_surface("annulus:0.5,1.0")
    roots = oracles.shoot_eigenvalues(ann, 1.5, "aps-", -6.0, 6.0, 120)
    lams = solve_mode(ann, 1.5, BoundaryConditionSpec("aps-"), 256)
    assert len(roots) >= 1
    for root in roots:
        assert np.min(np.abs(lams - root)) <= 1e-3


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
    lams = solve_mode(surf, 0.5, BoundaryConditionSpec("local+"), 256)
    assert len(roots) >= 2
    for root in roots:
        assert np.min(np.abs(lams - root)) <= 1e-3


def test_csv_profile_through_solver(tmp_path):
    # hemisphere sampled to CSV: spline-derivative surface, same fundamental
    r = np.linspace(0.0, np.pi / 2, 2001)
    path = tmp_path / "hemi.csv"
    np.savetxt(path, np.column_stack([r, np.sin(r)]), delimiter=",")
    surf = make_surface(str(path))
    assert surf.cap
    _, pairs = oracles.mode_pairs(surf, 0.5, BoundaryConditionSpec("local+"),
                                  128, 1)
    lam = pairs[0].lam
    assert abs(abs(lam) - 1.0) <= 1e-3


def test_cylinder_aps_plus_matches_shooting():
    # experimental condition, but the discretization is still checked
    cyl = make_surface("cylinder:2.0")
    roots = oracles.shoot_eigenvalues(cyl, 0.5, "aps+", -4.0, 4.0, 80)
    lams = solve_mode(cyl, 0.5, BoundaryConditionSpec("aps+"), 256)
    for root in roots:
        assert np.min(np.abs(lams - root)) <= 5e-4


# ---------------------------------------------------------------------------
# boundary condition structure on computed eigenspinors
# ---------------------------------------------------------------------------

def test_local_condition_kills_normal_pairing():
    """(e0 . phi, psi) = 0 at the boundary for local-condition eigenspinors."""
    e0 = FRAME.covector((1.0, 0.0))
    pairs = oracles.low_eigenpairs(make_surface("disk"), "local+", 1.5, 64)[:4]
    for a in pairs:
        for b in pairs:
            ta, tb = a.field.trace("outer"), b.field.trace("outer")
            scale = max(np.linalg.norm(ta) * np.linalg.norm(tb), 1e-300)
            assert abs(np.vdot(e0 @ ta, tb)) / scale <= 1e-12


def test_local_condition_gamma_eigenvector(solved):
    from oracles import boundary_chirality
    sp = solved("disk", "local+", k_max=1.5, N=64)
    gam = boundary_chirality((1.0, 0.0))
    tr = sp.fundamental.field.trace("outer")
    assert maxabs(gam @ tr - tr) / maxabs(tr) <= 1e-12


def test_aps_minus_admissible_trace():
    """Admissible boundary values have no component on the nonnegative
    eigenvectors of e0 . D_boundary."""
    for pair in oracles.low_eigenpairs(make_surface("disk"), "aps-", 1.5,
                                       64)[:4]:
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


def _swap_solve(surface, k, bc, N, n_vectors, n_levels=None):
    """Mode -k solved on its own: the native operator at k > 0 under the
    swapped condition, assembled directly, its vectors collocated with the
    components swapped back.  Returns (levels, [(lambda, field)] by |lambda|)."""
    op = ModeOperator(surface, k, N, bc=BoundaryConditionSpec(SWAPPED[bc]))
    vals, wanted, vecs = op.eigensystem(n_vectors=n_vectors, n_values=n_levels)
    fields = [(lam, _collocate(op, *op.expand(y), swap=True))
              for lam, y in zip(wanted, vecs.T)]
    return vals, sorted(fields, key=lambda f: (abs(f[0]), f[0]))


def _assert_mirror_matches(surface, sol, k, levels, fields):
    """The mirrored (levels, pairs) `sol` at -k against an independent
    solve."""
    lams, pairs = sol
    assert np.array_equal(lams, levels)
    assert len(pairs) == len(fields)
    for pair, (lam, field) in zip(pairs, fields):
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
    full_pos = solve_mode(disk, 0.5, spec, 96)
    full_neg = _swap_solve(disk, 0.5, "local+", 96, 0)[0]
    assert maxabs(full_neg + full_pos[::-1]) <= 1e-14 * maxabs(full_neg)
    assert np.max(np.abs(full_neg - full_pos)) > 0.1
    s_pos = solve_mode(disk, 0.5, spec, 96, n_levels=6)
    levels, fields = _swap_solve(disk, 0.5, "local+", 96, 2, n_levels=6)
    assert np.array_equal(levels, -s_pos[::-1])
    _assert_mirror_matches(
        disk, oracles.mode_pairs(disk, -0.5, spec, 96, 2, n_levels=6), 0.5,
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
        pos = solve_mode(surface, k, spec, 32)
        levels, fields = _swap_solve(surface, k, bc, 32, 2)
        assert np.array_equal(pos, levels)
        _assert_mirror_matches(surface,
                               oracles.mode_pairs(surface, -k, spec, 32, 2),
                               k, levels, fields)
    sp = aggregate(surface, spec, 2.5, 32)
    for k in (0.5, 1.5, 2.5):
        assert np.array_equal(mode_levels(sp, k), mode_levels(sp, -k))


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
    sp = aggregate(surface, spec, 2.5, 48)
    for k in (0.5, 1.5, 2.5):
        vals = mode_levels(sp, k)
        assert np.array_equal(mode_levels(sp, -k), -vals[::-1])
    levels, fields = _swap_solve(surface, 1.5, bc, 48, 2)
    lams, pairs = oracles.mode_pairs(surface, -1.5, spec, 48, 2)
    assert maxabs(lams - levels) <= 1e-12 * maxabs(levels)
    assert len(pairs) == len(fields) == 2
    for pair, (lam, field) in zip(pairs, fields):
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
                           n_levels=n_levels)
            assert np.sign(sp.lambda_min) == sign and sp.k_min == -0.5
            assert abs(abs(sp.lambda_min) - 1.0) <= 1e-3
            assert sp.fundamental.lam == sp.lambda_min
            assert sp.fundamental.k == -0.5


@pytest.mark.parametrize("geom", GEOMS)
def test_local_minus_is_the_negated_local_plus_solve(geom):
    """solve_mode serves local- from the local+ solve at the same k (its
    operator is exactly -conj of the local+ one): an independent solve of
    the native local- operator gives the same levels and fields."""
    surface = make_surface(geom)
    spec = BoundaryConditionSpec("local-")
    for k in (0.5, 2.5):
        for n_levels in (None, 4):
            lams, pairs = oracles.mode_pairs(surface, k, spec, 48, 2,
                                             n_levels)
            op = ModeOperator(surface, k, 48, bc=spec)
            vals, wanted, vecs = op.eigensystem(n_vectors=2, n_values=n_levels)
            scale = maxabs(vals)
            assert maxabs(lams - vals) <= 1e-12 * scale
            fields = sorted(((lam, _collocate(op, *op.expand(y), swap=False))
                             for lam, y in zip(wanted, vecs.T)),
                            key=lambda f: (abs(f[0]), f[0]))
            assert len(pairs) == len(fields) == 2
            for pair, (lam, field) in zip(pairs, fields):
                assert pair.k == field.k == k
                assert abs(pair.lam - lam) <= 1e-12 * scale
                big = maxabs(field.values)
                assert maxabs(pair.field.values - field.values) <= 1e-12 * big
                for w in surface.boundaries:
                    assert maxabs(pair.field.trace(w) - field.trace(w)) \
                        <= 1e-12 * big


@pytest.mark.parametrize("geom", GEOMS)
def test_local_minus_levels_are_negated_local_plus(geom):
    """aggregate(local-) is aggregate(local+) with every level negated and
    the (|lambda|, k, sign) order settled again, bit for bit; so are the
    local- and local+ entries of one full_spectra call, which share their
    solves, both ways, and the fundamental of the shared local- entry."""
    surface = make_surface(geom)
    plus_bc, minus_bc = (BoundaryConditionSpec(b) for b in ("local+", "local-"))

    def negated(levels):
        flipped = levels * np.array([-1.0, 1.0])
        order = np.lexsort((np.sign(flipped[:, 0]), flipped[:, 1],
                            np.abs(flipped[:, 0])))
        return flipped[order]

    for n_levels in (None, 2):
        plus = aggregate(surface, plus_bc, 2.5, 40, n_levels=n_levels)
        minus = aggregate(surface, minus_bc, 2.5, 40, n_levels=n_levels)
        assert np.array_equal(minus.levels, negated(plus.levels))
        (_, splus), (_, twin) = full_spectra(
            surface, 2.5, [(plus_bc, 40), (minus_bc, 40)], n_levels)
        assert twin.bc == minus_bc and twin.n_grid == 40
        assert np.array_equal(twin.levels, negated(splus.levels))
        assert np.array_equal(twin.levels, minus.levels)
        assert np.array_equal(negated(twin.levels), splus.levels)
        assert np.array_equal(splus.levels, plus.levels)
        assert twin.k_top == minus.k_top == 2.5
        assert twin.kmax_attained == minus.kmax_attained
        _assert_same_pair(surface, twin.fundamental, minus.fundamental)


@pytest.mark.parametrize("geom", GEOMS)
def test_local_conditions_have_opposite_spectra(geom):
    """spec(local-, k) = -spec(local+, k): the grading q -> -q anticommutes
    with the interior and exchanges the two chirality conditions."""
    surface = make_surface(geom)
    for k in (0.5, 2.5):
        plus = solve_mode(surface, k, BoundaryConditionSpec("local+"), 64)
        minus = solve_mode(surface, k, BoundaryConditionSpec("local-"), 64)
        assert maxabs(np.sort(minus) - np.sort(-plus)) <= 1e-12


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
            assert oracles.structural_zeros(op)[0] == abs(n_p - n_q) == n_zero


def test_disk_aggregate_fundamental_in_lowest_mode(solved):
    sp = solved("disk", "local+", k_max=2.5, N=128)
    assert abs(sp.k_min) == 0.5
    only_low = mode_levels(sp, 0.5)
    assert abs(sp.lambda_min_sq - np.min(only_low ** 2)) <= 1e-12
    assert not sp.kmax_attained


def test_cylinder_both_aps_minus_nonempty():
    cyl = make_surface("cylinder:2.0")
    assert len(solve_mode(cyl, 0.5, BoundaryConditionSpec("aps-"), 64)) > 0
    per = make_surface("cylinder:2.0", spin_structure="periodic")
    assert len(solve_mode(per, 0.0, BoundaryConditionSpec("aps-"), 64)) > 0


def test_structural_kernel_handling():
    disk = make_surface("disk")
    # aps+ keeps its discrete harmonic spinor (a genuine zero mode there)
    plus = solve_mode(disk, 0.5, BoundaryConditionSpec("aps+"), 64)
    assert np.min(np.abs(plus)) <= 1e-10
    # aps- must not report the spurious staggered kernel
    minus = solve_mode(disk, 0.5, BoundaryConditionSpec("aps-"), 64)
    assert np.min(np.abs(minus)) > 1.0
    root = oracles.shoot_eigenvalues(disk, 0.5, "aps-", -4.0, 0.0, 60)[-1]
    assert abs(minus[np.argmin(np.abs(minus - root))] - root) <= 1e-3


def test_refinement_stability_local_minus():
    hemi = make_surface("hemisphere")
    lams = [oracles.mode_pairs(hemi, 0.5, BoundaryConditionSpec("local-"), N,
                               1)[1][0].lam for N in (64, 128, 256)]
    d1, d2 = abs(lams[1] - lams[0]), abs(lams[2] - lams[1])
    assert d2 <= d1 / 3  # second-order shrink


def test_convergence_study_table(tmp_path, capsys):
    """The disk's local+ ladder 32, 64, 128 at kmax 1/2, as the
    `convergence` command tabulates it from the shared spectra loop: no
    order on the first two rows, a second-order one on the third, which is
    converged; the top mode |k| = 1/2 is solved and attained.  Fewer than
    three grids, or grids out of order, are refused."""
    out = tmp_path / "cv"
    assert cli.run(["convergence", "--geometry", "disk", "--bc", "local+",
                    "--N", "32,64,128", "--kmax", "0.5",
                    "--out", str(out)]) == 0
    lines = (out / "convergence_localplus.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(",")))
            for line in lines[1:]]
    assert [row["N"] for row in rows] == ["32", "64", "128"]
    assert rows[0]["order"] == "" and rows[1]["order"] == ""
    assert 1.7 <= float(rows[2]["order"]) <= 2.4
    assert rows[2]["converged"] == "1"
    assert "attained at |k| = 0.5, the largest mode solved" in \
        capsys.readouterr().err
    for grids in ([32, 64], [64, 32, 128]):
        with pytest.raises(ConfigError):
            cli.Scenario(geometry="disk", N=grids,
                         out=str(tmp_path / "bad")).validate("convergence")


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
