"""The exact identities the fast eigen-paths rest on, on random surfaces.

Every example draws a smooth `profile:` surface written to CSV: a cap
(f = r + a r^2 + b r^3, which the not-a-knot spline reproduces, so the
pole keeps f(0) = 0 and f'(0) = 1) or an annulus (a line plus a sine
ripple) under either spin structure, one of the four boundary conditions,
a wave number up to 12.5 and N from 16 to 512.  Each identity is asserted
at the exactness the code relies on: bit for bit where it is exact,
to roundoff of the spectrum's scale where LAPACK's dsterf is involved.
"""

import os
import tempfile

import numpy as np
import oracles
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from spinspec import (BoundaryConditionSpec, ModeOperator, aggregate,
                      make_surface, modes_for, solve_mode)
from spinspec.cli import run
from spinspec.dirac_core import _closures, _collocate

BCS = ("local+", "local-", "aps-", "aps+")
# image of each condition under the component swap that maps mode k to -k
SWAPPED = {"local+": "local-", "local-": "local+", "aps-": "aps-", "aps+": "aps+"}
SETTINGS = settings(max_examples=10, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def maxabs(m):
    return float(np.max(np.abs(m)))


@st.composite
def profiles(draw):
    """(CSV text of a random smooth profile, spin structure)."""
    n = draw(st.integers(24, 64))
    if draw(st.booleans()):
        length = draw(st.floats(0.5, 1.2))
        a, b = draw(st.floats(-0.2, 0.2)), draw(st.floats(-0.1, 0.1))
        r = np.linspace(0.0, length, n)
        f = r * (1 + a * r + b * r ** 2)
        spin = "antiperiodic"
    else:
        r0, length = draw(st.floats(0.2, 1.0)), draw(st.floats(0.3, 1.0))
        c0, c1 = draw(st.floats(1.0, 2.0)), draw(st.floats(0.0, 1.0))
        amp, w = draw(st.floats(-0.1, 0.1)), draw(st.floats(1.0, 6.0))
        r = np.linspace(r0, r0 + length, n)
        f = c0 + c1 * (r - r0) + amp * np.sin(w * (r - r0))
        spin = draw(st.sampled_from(["antiperiodic", "periodic"]))
    text = "r,f\n" + "".join(f"{x!r},{y!r}\n"
                               for x, y in zip(r.tolist(), f.tolist()))
    return text, spin


def _surface(tmp, text, spin):
    path = os.path.join(tmp, "profile.csv")
    with open(path, "w") as fh:
        fh.write(text)
    return "profile:" + path, make_surface("profile:" + path, spin)


def _k(surface, k_index):
    """The k_index-th nonnegative wave number of the spin structure."""
    return k_index + (0.5 if surface.spin_structure == "antiperiodic" else 0.0)


_CASE = dict(profile=profiles(), bc=st.sampled_from(BCS),
             k_index=st.integers(0, 12),
             N=st.sampled_from([16, 24, 32, 64, 128, 512]))


@SETTINGS
@given(**_CASE)
def test_mirror_and_negation_are_exact(profile, bc, k_index, N):
    """Mode -k is the mirror of +k: the same levels (negated and reversed
    under local+-) bit for bit, and to roundoff the levels and swapped
    fields of an independent native solve of the swapped condition at +k
    (bit for bit under aps+-, where that is the same operator).  The
    native local- band and end bases are exactly -conj of the local+ ones;
    their tridiagonal forms and levels are negatives of each other to
    roundoff only, which is why local- is never solved on its own."""
    with tempfile.TemporaryDirectory() as tmp:
        _, surface = _surface(tmp, *profile)
    k = _k(surface, k_index)
    spec = BoundaryConditionSpec(bc)
    for n_levels in (4, None):
        native = solve_mode(surface, k, spec, N, n_levels)
        lams, pairs = oracles.mode_pairs(surface, -k, spec, N, 2, n_levels)
        image = -native[::-1] if spec.is_local else native
        assert np.array_equal(lams, image)
        op = ModeOperator(surface, k, N, bc=BoundaryConditionSpec(SWAPPED[bc]))
        vals, wanted, vecs = op.eigensystem(n_vectors=2, n_values=n_levels)
        scale = maxabs(vals)
        if spec.is_local:
            assert maxabs(lams - vals) <= 1e-12 * scale
        else:
            assert np.array_equal(lams, vals)
        fields = sorted(((lam, _collocate(op, *op.expand(y), swap=True))
                         for lam, y in zip(wanted, vecs.T)),
                        key=lambda f: (abs(f[0]), f[0]))
        assert len(pairs) == len(fields) == 2
        for pair, (lam, field) in zip(pairs, fields):
            assert pair.k == field.k == -k
            assert abs(pair.lam - lam) <= 1e-12 * scale
            assert maxabs(pair.field.values - field.values) \
                <= 1e-12 * maxabs(field.values)

    plus = ModeOperator(surface, k, N, bc=BoundaryConditionSpec("local+"))
    minus = ModeOperator(surface, k, N, bc=BoundaryConditionSpec("local-"))
    assert np.array_equal(minus.matrix, -np.conj(plus.matrix))
    assert np.array_equal(minus._head, np.conj(plus._head))
    assert np.array_equal(minus._tail, np.conj(plus._tail))
    (d_p, e_p), (d_m, e_m) = plus.tridiagonal(), minus.tridiagonal()
    scale = maxabs(plus.matrix)
    assert maxabs(d_m + d_p) <= 1e-13 * scale
    assert maxabs(e_m - e_p) <= 1e-13 * scale
    low_p = plus.eigensystem(n_values=3)[0]
    assert maxabs(minus.eigensystem(n_values=3)[0] + low_p[::-1]) \
        <= 1e-13 * scale


@SETTINGS
@given(**_CASE)
def test_aps_form_is_bipartite_and_zero_count_structural(profile, bc, k_index,
                                                          N):
    """Under aps+- the tridiagonal form has an exactly zero diagonal, its
    full spectrum is exactly +-sigma, and the operator carries exactly
    |n_p - n_q| zero eigenvalues (scipy's stevd as the independent count),
    the count structural_zeros reports."""
    with tempfile.TemporaryDirectory() as tmp:
        _, surface = _surface(tmp, *profile)
    k = _k(surface, k_index)
    aps = "aps-" if bc in ("local+", "aps-") else "aps+"
    spec = BoundaryConditionSpec(aps)
    op = ModeOperator(surface, k, N, bc=spec)
    d, e = op.tridiagonal()
    assert not np.any(d)
    vals = op.eigensystem()[0]
    assert np.array_equal(vals, -vals[::-1])

    ends = [kind for kind, _ in _closures(surface, k, spec).values()]
    n_p = N - sum(kind in ("pdir", "both") for kind in ends)
    n_q = N - 1 + sum(kind == "pdir" for kind in ends)
    every = eigvalsh_tridiagonal(d, e)
    n_zero = int(np.sum(np.abs(every) <= 1e-8 * maxabs(every)))
    assert n_zero == abs(n_p - n_q)
    assert (op.structural_zeros or (0,))[0] == n_zero


@SETTINGS
@given(**_CASE)
def test_selective_levels_and_fundamental(profile, bc, k_index, N):
    """The selective levels (Sturm bisection) are the lowest |lambda| of the
    full spectrum to roundoff, and Spectrum.fundamental is the eigenpair of
    levels[0] bit for bit."""
    with tempfile.TemporaryDirectory() as tmp:
        _, surface = _surface(tmp, *profile)
    k = _k(surface, k_index)
    op = ModeOperator(surface, k, N, bc=BoundaryConditionSpec(bc))
    full = op.eigensystem()[0]
    by_size = np.argsort(np.abs(full), kind="stable")
    for m in (1, 2, 5):
        low = op.eigensystem(n_values=m)[0]
        assert len(low) >= m
        ref = np.sort(full[by_size[:len(low)]])
        assert maxabs(low - ref) <= 1e-13 * maxabs(full)

    sp = aggregate(surface, BoundaryConditionSpec(bc), k, N, n_levels=2)
    pair = sp.fundamental
    assert (pair.lam, pair.k) == (sp.lambda_min, sp.k_min)
    assert sp.levels[0, 0] == pair.lam


@SETTINGS
@given(profile=profiles(), n_levels=st.sampled_from([1, 2]),
       k_index=st.integers(0, 12), N=_CASE["N"])
def test_pruned_aggregate_is_the_unpruned_merge(profile, n_levels, k_index,
                                                 N):
    """Under each of the four conditions, a selective aggregate, which
    bisects only the modes that could hold levels[0], has the lambda_min,
    k_min, k_top and kmax_attained, bit for bit, of the merge of one
    solve_mode per mode, and its fundamental is the pair that eigenpairs
    builds from that mode's smallest |lambda|; a mode without rows has no
    level with |lambda| <= |lambda_min| in its own solve."""
    with tempfile.TemporaryDirectory() as tmp:
        _, surface = _surface(tmp, *profile)
    k_max = k_index + 0.5
    for bc in BCS:
        spec = BoundaryConditionSpec(bc)
        sp = aggregate(surface, spec, k_max, N, n_levels=n_levels)
        sols = {k: solve_mode(surface, k, spec, N, n_levels)
                for k in modes_for(surface, k_max)}
        rows = np.vstack([np.column_stack([lams, np.full(len(lams), k)])
                          for k, lams in sols.items()])
        lam, k = rows[np.lexsort((rows[:, 0], rows[:, 1],
                                  np.abs(rows[:, 0])))][0]
        k_top = max(abs(k) for k in sols)
        assert (sp.lambda_min, sp.k_min, sp.k_top) == (lam, k, k_top)
        assert sp.kmax_attained == (abs(abs(k) - k_top) < 1e-9)
        want = oracles.mode_pairs(surface, k, spec, N, 1, n_levels)[1][0]
        got = sp.fundamental
        assert (got.lam, got.k) == (want.lam, want.k)
        assert np.array_equal(got.field.values, want.field.values)
        for k, lams in sols.items():
            if not np.any(sp.levels[:, 1] == k):
                assert np.all(np.abs(lams) > abs(sp.lambda_min))


@settings(max_examples=4, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(profile=profiles(), kmax=st.sampled_from([0.5, 2.5, 12.5]),
       N=st.sampled_from(["16", "16,32", "64"]))
def test_spectrum_of_both_local_conditions_is_two_single_runs(profile, kmax,
                                                                N):
    """`spectrum --bc local+,local-` writes, byte for byte, the files of
    the two single-condition runs (local- is served by negating local+)."""
    with tempfile.TemporaryDirectory() as tmp:
        geometry, surface = _surface(tmp, *profile)
        args = ["--geometry", geometry, "--spin", surface.spin_structure,
                "--kmax", str(kmax), "--N", N]
        outs = {}
        for bcs in ("local+,local-", "local+", "local-"):
            out = os.path.join(tmp, bcs)
            assert run(["spectrum", "--bc", bcs, "--out", out] + args) == 0
            outs[bcs] = {name: open(os.path.join(out, name), "rb").read()
                         for name in sorted(os.listdir(out))}
    singles = {**outs["local+"], **outs["local-"]}
    assert outs["local+,local-"] == singles
    assert len(singles) == 2 * len(N.split(","))
