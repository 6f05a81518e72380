"""spinspec's LAPACK wrappers and Nelder-Mead against scipy, bit for bit.

scipy is the oracle here only: spinspec itself loads no scipy module when
numpy's bundled OpenBLAS resolves (tests/test_cli.py checks that).
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sl
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from spinspec import BoundaryConditionSpec, ModeOperator, _lapack, make_surface
from spinspec import bounds

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
EXACT = settings(max_examples=25, deadline=None, derandomize=True)


def same(mine, ref):
    return (np.shape(mine) == np.shape(ref)
            and np.asarray(mine).dtype == np.asarray(ref).dtype
            and np.array_equal(mine, ref))


def _tridiagonal(seed, n, zero_diagonal):
    rng = np.random.default_rng(seed)
    d = np.zeros(n) if zero_diagonal else rng.normal(size=n)
    return d, np.abs(rng.normal(size=n - 1))


def _operator_tridiagonals():
    """(d, e) of a few real operators: a cap, an annulus, every condition."""
    for geom in ("hemisphere", "annulus:0.5,1.0"):
        for bc in ("local+", "aps-", "aps+"):
            op = ModeOperator(make_surface(geom), 2.5, 48,
                              bc=BoundaryConditionSpec(bc))
            yield op.tridiagonal()


@EXACT
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 120),
       zero_diagonal=st.booleans(), w=st.floats(0.05, 4.0))
def test_tridiagonal_eigenvalues_are_scipys(seed, n, zero_diagonal, w):
    """sterf (every value), stebz by value range, and stebz + stein
    (values and vectors): each as scipy.linalg returns it."""
    d, e = _tridiagonal(seed, n, zero_diagonal)
    assert same(_lapack.eigvalsh_tridiagonal(d, e),
                sl.eigvalsh_tridiagonal(d, e, lapack_driver="sterf"))
    assert same(_lapack.eigvalsh_tridiagonal(d, e, "v", (-w, w)),
                sl.eigvalsh_tridiagonal(d, e, select="v", select_range=(-w, w)))
    mine = _lapack.eigh_tridiagonal(d, e, (-w, w))
    ref = sl.eigh_tridiagonal(d, e, select="v", select_range=(-w, w),
                              lapack_driver="stebz")
    assert same(mine[0], ref[0]) and same(mine[1], ref[1])


def test_operator_tridiagonals_solve_as_in_scipy():
    for d, e in _operator_tridiagonals():
        w = 4.0
        assert same(_lapack.eigvalsh_tridiagonal(d, e),
                    sl.eigvalsh_tridiagonal(d, e, lapack_driver="sterf"))
        assert same(_lapack.eigvalsh_tridiagonal(d, e, "v", (-w, w)),
                    sl.eigvalsh_tridiagonal(d, e, select="v",
                                            select_range=(-w, w)))
        mine = _lapack.eigh_tridiagonal(d, e, (-w, w))
        ref = sl.eigh_tridiagonal(d, e, select="v", select_range=(-w, w),
                                  lapack_driver="stebz")
        assert same(mine[0], ref[0]) and same(mine[1], ref[1])


def _graded(seed, n, zero_diagonal):
    """A tridiagonal whose entries fall by up to 200 decades along it, so
    that dstebz splits it where an off-diagonal drops below its threshold."""
    d, e = _tridiagonal(seed, n, zero_diagonal)
    decades = np.random.default_rng(seed).uniform(0, 200)
    return (d * 10.0 ** -np.linspace(0, decades, n),
            e * 10.0 ** -np.linspace(0, decades, n - 1))


@EXACT
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 120),
       kind=st.sampled_from(["random", "zero_diagonal", "graded",
                             "graded_zero_diagonal"]),
       points=st.lists(st.floats(-4.0, 4.0), max_size=5))
def test_sturm_counts_are_the_levels_at_or_below_each_point(seed, n, kind,
                                                            points):
    """SturmCounts at each point is the number of levels scipy's
    eigvalsh_tridiagonal finds at or below it (by dstebz, down from below
    the Gershgorin bound): at random points, at 0 and +-tol0 (the exact
    structural zero of an odd zero-diagonal form counts at 0), and beyond
    the Gershgorin bounds; away from every level, also the number of dsterf
    values at or below it.  Whether the form splits into blocks is dstebz's
    call."""
    d, e = (_graded if kind.startswith("graded") else _tridiagonal)(
        seed, n, kind.endswith("zero_diagonal"))
    gersh = float(np.max(np.abs(d)) + 2 * np.max(e)) + 1.0
    tol0 = 1e-8 * max(1.0, float(np.max(np.abs(d)) + 2 * np.max(e)))
    at = [0.0, -tol0, tol0, -gersh, gersh, *points]
    counts = _lapack.SturmCounts(d, e)
    got = np.array(_lapack.SturmCounts(d, e)(*at))
    assert got.tolist() == counts(*at) == counts(*at[::-1])[::-1]
    every = sl.eigvalsh_tridiagonal(d, e)
    for x, c in zip(at, got):
        ref = sl.eigvalsh_tridiagonal(d, e, select="v",
                                      select_range=(-gersh - 8.0, x))
        assert c == len(ref)
        if np.min(np.abs(every - x)) > 1e-9 * gersh:
            assert c == np.sum(every <= x)
    _, _, isplit = _lapack._stebz(d, e, (-gersh, gersh), "B")
    assert counts.split == (isplit[0] < n)
    if kind == "zero_diagonal" and n % 2:
        # the exact zero counts in (-tol0, 0], and no level in (0, tol0]
        assert (got[0] - got[1], got[2] - got[0]) == (1, 0)


def test_tridiagonal_wrappers_refuse_what_scipy_refuses():
    with pytest.raises(ValueError):
        _lapack.eigvalsh_tridiagonal([0.0, np.nan], [1.0])
    with pytest.raises(ValueError):
        _lapack.eigh_tridiagonal([0.0, 1.0], [np.inf], (-1.0, 1.0))


@EXACT
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 9))
def test_hessenberg_is_scipys(seed, n):
    """zgehrd, then zunghr on its reflectors, against
    scipy.linalg.hessenberg(calc_q=True) on random Hermitian blocks, the
    shape the end windows reduce to; the reflectors are left as they were."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = (a + a.conj().T)[::-1, ::-1]
    r, tau = _lapack.hessenberg_reflectors(a)
    kept = r.copy()
    q = _lapack.hessenberg_q(r, tau)
    ref = sl.hessenberg(a, calc_q=True)
    assert same(np.triu(r, -1) if n > 2 else r, ref[0]) and same(q, ref[1])
    assert np.array_equal(r, kept)


@EXACT
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 80),
       rhs=st.sampled_from(["vector", "real", "complex"]))
def test_gtsv_is_scipys_solve_banded(seed, n, rhs):
    rng = np.random.default_rng(seed)
    ab = rng.normal(size=(3, n))
    ab[1] += 4.0
    b = {"vector": rng.normal(size=n),
         "real": rng.normal(size=(n, 3)),
         "complex": rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))}[rhs]
    assert same(_lapack.solve_tridiagonal(ab, b),
                sl.solve_banded((1, 1), ab, b))


def test_gtsv_refuses_a_singular_system():
    with pytest.raises(np.linalg.LinAlgError):
        _lapack.solve_tridiagonal(np.zeros((3, 4)), np.ones(4))


@EXACT
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 5),
       zeros=st.integers(0, 4))
def test_null_space_is_scipys(seed, n, zeros):
    rng = np.random.default_rng(seed)
    row = rng.normal(size=(1, n)) + 1j * rng.normal(size=(1, n))
    row[0, :min(zeros, n - 1)] = 0.0
    assert same(_lapack.null_space(row), sl.null_space(row))


# ---------------------------------------------------------------------------
# Nelder-Mead
# ---------------------------------------------------------------------------

def _recorder(fn):
    """fn, and the list of (point, value) of every call made to it."""
    calls = []

    def wrapped(x):
        value = fn(x)
        calls.append((x.copy(), value))
        return value

    return wrapped, calls


def _same_calls(mine, ref):
    assert len(mine) == len(ref)
    for (x, v), (y, w) in zip(mine, ref):
        assert np.array_equal(x, y) and v == w


def _against_scipy(fn, simplex, maxfev, xatol, fatol):
    mine, mine_calls = _recorder(fn)
    best = bounds._nelder_mead(mine, simplex, maxfev, xatol, fatol)
    ref, ref_calls = _recorder(fn)
    res = minimize(ref, simplex[0], method="Nelder-Mead",
                   options={"maxfev": maxfev, "initial_simplex": simplex,
                            "xatol": xatol, "fatol": fatol})
    _same_calls(mine_calls, ref_calls)
    assert np.array_equal(best, res.x)
    return mine_calls


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 6),
       maxfev=st.integers(1, 400), tol=st.sampled_from([1e-3, 1e-8]))
def test_nelder_mead_repeats_scipys_evaluations_on_quadratics(seed, dim,
                                                             maxfev, tol):
    """Every point and value, in order, and the best point, as
    scipy.optimize.minimize(method='Nelder-Mead') with the same options:
    budgets below one simplex, runs cut by maxfev, and runs that stop on
    xatol and fatol."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim))
    a, c = m @ m.T + np.eye(dim), rng.normal(size=dim)

    def quadratic(x):
        return float((x - c) @ a @ (x - c))

    simplex = rng.normal(size=(dim + 1, dim))
    _against_scipy(quadratic, simplex, maxfev, tol, tol * 1e-4)


@pytest.mark.parametrize("geom,variant", [("annulus:0.5,1.0", "interior"),
                                          ("cap:1.2", "conformal")])
def test_nelder_mead_repeats_scipys_evaluations_on_bound_objectives(
        geom, variant, monkeypatch):
    """The penalized objective of optimize_modifiers, from its first
    simplex and from a perturbed restart, and the whole optimize_modifiers
    trace with scipy's minimize in place of the in-house one."""
    surface = make_surface(geom)
    measure = bounds._basis_measure(surface, variant, 8, 64)

    def objective(params):
        value, margin = measure(params)
        return -value + bounds._PENALTY * max(0.0, -margin)

    rng = np.random.default_rng(3)
    for start, step in ((np.zeros(16), 0.25),
                        (0.01 * rng.normal(size=16), 0.125)):
        simplex = np.vstack([start] + [start + step * e for e in np.eye(16)])
        _against_scipy(objective, simplex, 300, 1e-8, 1e-12)

    ours = bounds.optimize_modifiers(surface, variant, budget=400, n_grid=64)

    def scipy_nelder_mead(func, simplex, maxfev, xatol, fatol):
        return minimize(func, simplex[0], method="Nelder-Mead",
                        options={"maxfev": maxfev, "initial_simplex": simplex,
                                 "xatol": xatol, "fatol": fatol}).x

    monkeypatch.setattr(bounds, "_nelder_mead", scipy_nelder_mead)
    theirs = bounds.optimize_modifiers(surface, variant, budget=400, n_grid=64)
    assert ours.n_eval == theirs.n_eval == 400
    for p, q in zip(ours.trace, theirs.trace):
        assert np.array_equal(p.params, q.params) and p.value == q.value
    assert ours.summary() == theirs.summary()


@pytest.mark.parametrize("dim", [1, 3, 6, 16])
def test_nelder_mead_repeats_scipys_evaluations_through_ties(dim):
    """A piecewise-constant objective gives vertices equal values, so the
    sorts of the simplex order ties: every point and value, in order, is
    still scipy's, in runs cut by maxfev and runs that converge."""
    rng = np.random.default_rng(dim)
    for maxfev in (7, 300):
        simplex = 0.3 + 0.01 * rng.normal(size=(dim + 1, dim))
        calls = _against_scipy(lambda x: float(np.floor(4 * x.sum())),
                               simplex, maxfev, 1e-8, 1e-12)
        values = [v for _, v in calls]
        assert len(set(values[:dim + 1])) < dim + 1    # a tied first sort


# ---------------------------------------------------------------------------
# the fallback table
# ---------------------------------------------------------------------------

_FALLBACK_PROBE = """
import ctypes, json, sys

if sys.argv[2] == "fallback":
    real_cdll = ctypes.CDLL

    def no_openblas(name, *args, **kwargs):
        if "openblas" in str(name):
            raise OSError(f"{name}: cannot open shared object file")
        return real_cdll(name, *args, **kwargs)

    ctypes.CDLL = no_openblas

from spinspec import _lapack, cli

out = sys.argv[1]
codes = [cli.run(["spectrum", "--geometry", "hemisphere", "--bc",
                  "local+,aps-", "--N", "32", "--kmax", "2.5", "--out", out]),
         cli.run(["verify", "--geometry", "annulus:0.5,1.0", "--bc",
                  "local+,aps-", "--N", "48", "--kmax", "1.5", "--out", out]),
         cli.run(["bounds", "--geometry", "cap:1.2", "--optimize-bounds",
                  "--budget", "60", "--N", "32", "--kmax", "1.5",
                  "--out", out]),
         cli.run(["convergence", "--geometry", "hemisphere", "--bc",
                  "local+,aps-", "--N", "16,32,64", "--out", out])]
print(json.dumps({"source": _lapack.SOURCE, "codes": codes}))
"""


def test_fallback_table_gives_the_same_outputs(tmp_path):
    """With numpy's OpenBLAS made unloadable before spinspec loads, every
    routine comes from scipy's Cython LAPACK (32-bit integers), and a
    spectrum, verify, optimized bounds and convergence run (whose selective
    solves read dlaebz) write the same bytes."""
    files = {}
    for table in ("bundled", "fallback"):
        out = tmp_path / table
        proc = subprocess.run([sys.executable, "-c", _FALLBACK_PROBE,
                               str(out), table],
                              env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen["codes"] == [0, 0, 0, 0]
        assert seen["source"] == {"bundled": "numpy-openblas64",
                                  "fallback": "scipy-cython-lapack"}[table]
        files[table] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(files["bundled"]) == 8
    assert files["bundled"] == files["fallback"]
