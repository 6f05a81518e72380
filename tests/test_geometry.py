"""Curvatures, boundary data, Laplacian convention, conformal machinery."""

import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spinspec import (ConfigError, RadialFunction, boundary_data,
                      conformal_law_residuals, conformal_rescale, geometry,
                      make_surface, parse_radial_spec, radial_laplacian,
                      scalar_curvature)

COT_PI_3 = 0.5773502691896258  # hand evaluation of cos/sin at pi/3


def grid(surface, n=97):
    return np.linspace(surface.r_min, surface.r_max, n + 2)[1:-1]


def test_scalar_curvature_builtins():
    hemi = make_surface("hemisphere")
    assert np.max(np.abs(scalar_curvature(hemi, grid(hemi)) - 2.0)) <= 1e-12
    disk = make_surface("disk")
    assert np.max(np.abs(scalar_curvature(disk, grid(disk)))) <= 1e-14
    cyl = make_surface("cylinder:2.0")
    assert np.max(np.abs(scalar_curvature(cyl, grid(cyl)))) <= 1e-14


def test_scalar_curvature_refuses_the_cap_pole():
    """The scheme never samples a cap's pole: the staggered grid skips it,
    bounds._grid leaves it out and volume_integral weights it 0.  So R there
    is refused, alone or among other radii, while the cell centres of the
    hemisphere keep R = 2."""
    for geom in ("hemisphere", "disk", "cap:pi/3"):
        surface = make_surface(geom)
        for r in (surface.r_min, np.append(surface.centers(8), surface.r_min)):
            with pytest.raises(ConfigError, match="pole"):
                scalar_curvature(surface, r)
    hemi = make_surface("hemisphere")
    assert np.max(np.abs(scalar_curvature(hemi, hemi.centers(64)) - 2.0)) \
        <= 1e-12


def test_scalar_curvature_domain_check():
    disk = make_surface("disk")
    with pytest.raises(ConfigError):
        scalar_curvature(disk, 1.5)


@pytest.mark.parametrize("end", ["low", "high"])
def test_domain_slack_is_relative_at_the_ends_of_the_scale_range(end):
    """At both ends of cli.SCALE_RANGE every radius the commands evaluate
    passes the domain checks: the cell centres and both boundary circles
    (the inner one r_min included) on the surface and on a conformal
    target, and the pulled-back centres of a conformal push.  A radius past
    either end by 1e-9 of the length is refused; one a few ulps past the
    end, roundoff, is not."""
    from spinspec import BoundaryConditionSpec, aggregate, cli, conformal_push
    from spinspec.bounds import _grid
    lo, hi = cli.SCALE_RANGE
    # length lo, or largest radius hi; admitted either way
    surface = make_surface(f"annulus:{lo},{2 * lo}" if end == "low"
                           else f"annulus:{hi / 2},{hi}")
    cli._admit_scale(surface)
    assert _grid(surface, 32)[0] == surface.r_min
    assert np.all(np.isfinite(scalar_curvature(surface, _grid(surface, 32))))
    resc = conformal_rescale(surface, parse_radial_spec(
        "const:0.3", surface.r_min, surface.r_max))
    target = resc.target
    assert np.all(np.isfinite(scalar_curvature(target, _grid(target, 32))))
    pair = aggregate(surface, BoundaryConditionSpec("local+"), 0.5, 32,
                     n_levels=1).fundamental
    assert conformal_push(pair.field, resc, pair.lam).field.surface is target
    for surf in (surface, target):
        step = 1e-9 * surf.length
        for r in (surf.r_min - step, surf.r_max + step):
            with pytest.raises(ConfigError, match="outside"):
                scalar_curvature(surf, r)
        for r in (surf.r_min, surf.r_max):
            assert not surf.off_surface(r)
        assert not surf.off_surface(surf.r_max + 2 * np.spacing(surf.r_max))


def test_mean_curvature_conventions():
    hemi = make_surface("hemisphere")
    assert boundary_data(hemi, "outer").mean_curvature == 0.0  # exactly
    disk = make_surface("disk")
    assert abs(boundary_data(disk, "outer").mean_curvature - 1.0) <= 1e-14
    cap = make_surface("cap:pi/3")
    assert abs(boundary_data(cap, "outer").mean_curvature - COT_PI_3) <= 1e-12
    ann = make_surface("annulus:0.5,1.0")
    assert abs(boundary_data(ann, "inner").mean_curvature + 2.0) <= 1e-14
    assert abs(boundary_data(ann, "outer").mean_curvature - 1.0) <= 1e-14
    cyl = make_surface("cylinder:2.0")
    assert boundary_data(cyl, "inner").mean_curvature == 0.0
    assert boundary_data(cyl, "outer").mean_curvature == 0.0


def test_cap_pole_is_not_a_boundary():
    with pytest.raises(ConfigError):
        boundary_data(make_surface("disk"), "inner")
    with pytest.raises(ConfigError):
        boundary_data(make_surface("disk"), "equator")


def test_positive_laplacian_convention():
    cyl = make_surface("cylinder:2.0")
    w = RadialFunction.from_poly([0.0, 0.0, 1.0])  # r^2
    rr = grid(cyl)
    assert np.max(np.abs(radial_laplacian(cyl, w, rr) + 2.0)) <= 1e-13
    disk = make_surface("disk")
    rr = grid(disk)
    assert np.max(np.abs(radial_laplacian(disk, w, rr) + 4.0)) <= 1e-12
    const = RadialFunction.constant(3.0)
    assert np.max(np.abs(radial_laplacian(disk, const, rr))) == 0.0


@settings(max_examples=40, deadline=None)
@given(a=st.floats(-2, 2), b=st.floats(-2, 2))
def test_laplacian_kills_linears_on_cylinder(a, b):
    cyl = make_surface("cylinder:2.0")
    w = RadialFunction.from_poly([b, a])
    rr = np.linspace(0.1, 1.9, 17)
    assert np.max(np.abs(radial_laplacian(cyl, w, rr))) <= 1e-12


def test_surface_validation():
    with pytest.raises(ConfigError):
        make_surface("annulus:1.0,0.5")
    with pytest.raises(ConfigError):
        make_surface("cap:0")
    with pytest.raises(ConfigError):
        make_surface("nope")
    # a cap forces the antiperiodic structure, whatever was asked for
    hemi = make_surface("hemisphere", spin_structure="periodic")
    assert hemi.spin_structure == "antiperiodic"
    with pytest.raises(ConfigError):
        make_surface("cylinder:2.0", spin_structure="sideways")


def test_profile_csv_roundtrip(tmp_path):
    r = np.linspace(0.5, 1.5, 201)
    path = tmp_path / "profile.csv"
    np.savetxt(path, np.column_stack([r, np.exp(0.3 * r)]), delimiter=",",
               header="r,f")
    surf = make_surface(str(path))
    assert surf.boundaries == ("inner", "outer")
    rr = np.linspace(0.6, 1.4, 41)
    r_exact = -2 * 0.09 * np.exp(0.3 * rr) / np.exp(0.3 * rr)
    assert np.max(np.abs(scalar_curvature(surf, rr) - r_exact)) <= 1e-3


def test_parse_radial_spec():
    u = parse_radial_spec("bump:0.3", 0.0, 1.0)  # 0.3 (1 - r^2) on the disk
    rr = np.linspace(0, 1, 11)
    assert np.max(np.abs(u(rr) - 0.3 * (1 - rr ** 2))) <= 1e-14
    assert np.max(np.abs(u.d(rr) + 0.6 * rr)) <= 1e-14
    assert np.max(np.abs(u.d2(rr) + 0.6)) <= 1e-14
    c = parse_radial_spec("const:1.5", 0, 1)
    assert float(c(0.3)) == 1.5 and float(c.d(0.3)) == 0.0
    p = parse_radial_spec("poly:1,0,2", 0, 1)
    assert abs(float(p(0.5)) - 1.5) <= 1e-15
    with pytest.raises(ConfigError):
        parse_radial_spec("sin:1", 0, 1)
    cap = make_surface("cap:pi/3")
    assert abs(cap.r_max - np.pi / 3) <= 1e-15


# ---------------------------------------------------------------------------
# conformal rescaling
# ---------------------------------------------------------------------------

def test_conformal_constant_factor_on_disk():
    disk = make_surface("disk")
    resc = conformal_rescale(disk, RadialFunction.constant(0.7))
    rr = grid(disk, 31)
    laws = conformal_law_residuals(resc, rr)
    assert np.max(np.abs(laws["curvature"])) <= 1e-12
    assert np.max(np.abs(laws["laplacian"])) <= 1e-12
    assert abs(laws["mean_curvature"]["outer"]) <= 1e-12
    bd = boundary_data(resc.target, "outer")
    assert abs(bd.mean_curvature - np.exp(-0.7)) <= 1e-12


def test_conformal_identity_is_identity():
    disk = make_surface("disk")
    resc = conformal_rescale(disk, RadialFunction.constant(0.0))
    rr = grid(disk, 31)
    assert np.max(np.abs(resc.s_of_r(rr) - rr)) <= 1e-13
    assert np.max(np.abs(resc.target.f(rr) - disk.f(rr))) <= 1e-13


def test_conformal_laws_analytic_bump():
    disk = make_surface("disk")
    u = parse_radial_spec("bump:0.3", 0.0, 1.0)
    resc = conformal_rescale(disk, u)
    rr = grid(disk, 129)
    laws = conformal_law_residuals(resc, rr)
    assert np.max(np.abs(laws["curvature"])) <= 1e-8
    assert np.max(np.abs(laws["laplacian"])) <= 1e-8
    assert abs(laws["mean_curvature"]["outer"]) <= 1e-8


def test_conformal_laws_on_annulus_both_boundaries():
    ann = make_surface("annulus:0.5,1.0")
    u = parse_radial_spec("poly:0,0.4,-0.2", 0.5, 1.0)
    resc = conformal_rescale(ann, u)
    rr = grid(ann, 65)
    laws = conformal_law_residuals(resc, rr)
    assert np.max(np.abs(laws["curvature"])) <= 1e-8
    for which in ("inner", "outer"):
        assert abs(laws["mean_curvature"][which]) <= 1e-8


def test_conformal_roundtrip_and_boundary_length():
    disk = make_surface("disk")
    u = parse_radial_spec("bump:0.3", 0.0, 1.0)
    resc = conformal_rescale(disk, u)
    # boundary length of the target is e^{u(r_b)} times the source's
    assert abs(float(resc.target.f(resc.target.r_max))
               - np.exp(float(u(1.0))) * 1.0) <= 1e-10
    # rescaling by -u on the target undoes the rescaling
    u_t = resc.pullback(u)
    neg = RadialFunction(lambda s: -u_t(s), lambda s: -u_t.d(s),
                         lambda s: -u_t.d2(s))
    back = conformal_rescale(resc.target, neg)
    rr = np.linspace(0.05, 0.95, 9)
    ss = resc.s_of_r(rr)
    assert np.max(np.abs(back.s_of_r(ss) - rr)) <= 1e-8
    assert np.max(np.abs(back.target.f(back.s_of_r(ss)) - disk.f(rr))) <= 1e-8


def test_conformal_laws_hold_for_sampled_profiles():
    """Both sides of each law consume the same spline triple (f, f', f''),
    so the transformation laws hold to roundoff for sampled profiles too;
    only comparisons against analytic truth see the O(h^2) sampling error."""
    from spinspec import WarpedSurface
    r = np.linspace(0.5, 1.5, 401)
    prof = RadialFunction.from_samples(r, np.exp(0.3 * r))
    surf = WarpedSurface("sampled", 0.5, 1.5, prof, cap=False)
    u = parse_radial_spec("poly:0,0.3,-0.1", 0.5, 1.5)
    resc = conformal_rescale(surf, u)
    rr = np.linspace(0.6, 1.4, 41)
    laws = conformal_law_residuals(resc, rr)
    assert np.max(np.abs(laws["curvature"])) <= 1e-10
    for which in ("inner", "outer"):
        assert abs(laws["mean_curvature"][which]) <= 1e-10


def test_conformal_cap_is_preserved():
    hemi = make_surface("hemisphere")
    u = parse_radial_spec("poly:0.1,-0.05", 0.0, np.pi / 2)
    resc = conformal_rescale(hemi, u)
    assert resc.target.cap
    assert abs(float(resc.target.f(0.0))) <= 1e-10
    assert abs(float(resc.target.fp(0.0)) - 1.0) <= 1e-10


@settings(max_examples=30, deadline=None, derandomize=True)
@given(geo=st.sampled_from(("disk", "hemisphere", "annulus:0.5,1.0",
                            "cap:1.2", "zone")),
       kind=st.sampled_from(("const", "bump", "poly")),
       amp=st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
       fracs=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=40))
def test_r_of_s_matches_brentq_oracle(zone_csv, geo, kind, amp, fracs):
    """The vectorized arclength inverse reproduces the per-point brentq
    inverse on 0, s_max, every panel edge, interior and out-of-range s.

    The oracle snaps an s within 1e-14 (1 + s_max) above a panel's left edge
    onto that edge, an error of up to that much over e^u; such points are
    held to the round trip s(r(s)) = s alone."""
    surf = make_surface(zone_csv if geo == "zone" else geo)
    spec = {"const": f"const:{amp[0]!r}", "bump": f"bump:{amp[0]!r}",
            "poly": f"poly:{amp[0]!r},{amp[1]!r}"}[kind]
    u = parse_radial_spec(spec, surf.r_min, surf.r_max)
    resc = conformal_rescale(surf, u)
    edges_r, edges_s = geometry._arclength_edges(surf, u, 512)
    smax = resc.target.r_max
    assert smax == edges_s[-1]
    s = np.concatenate([[0.0, smax, -1.0, smax + 1.0, -np.inf, np.inf],
                        edges_s, np.array(fracs) * smax])
    r = resc.r_of_s(s)
    ref = oracles.brentq_r_of_s(resc.s_of_r, edges_r, edges_s)(s)
    sc = np.clip(s, 0.0, smax)
    left = edges_s[np.clip(np.searchsorted(edges_s, sc) - 1, 0, 511)]
    kept = (sc == left) | (np.abs(sc - left) >= 1e-14 * (1 + smax))
    assert np.all(np.abs(r - ref)[kept] <= 1e-14 * (1 + np.abs(ref[kept])))
    inside = (s >= 0) & (s <= smax)
    assert np.all(np.abs(resc.s_of_r(r[inside]) - s[inside])
                  <= 1e-14 * (1 + smax))
    assert np.all(np.diff(resc.r_of_s(np.sort(s))) >= 0)
    x = resc.r_of_s(float(s[-1]))
    assert type(x) is float and abs(x - r[-1]) <= 1e-14 * (1 + abs(x))
    assert resc.r_of_s(s[:6].reshape(2, 3)).shape == (2, 3)
    with pytest.raises(ValueError):
        resc.r_of_s(np.array([0.5 * smax, np.nan]))


def test_r_of_s_sweeps_do_not_grow_with_points(monkeypatch):
    """One vectorized panel quadrature per Newton sweep, however many points:
    the count stays at or below the sweep cap and is the same for 10 and
    10^4 points (a per-point root finder needs several per point)."""
    resc = conformal_rescale(make_surface("disk"),
                             parse_radial_spec("bump:0.3", 0.0, 1.0))
    calls = []
    quadrature = geometry._panel_integral

    def counted(*args):
        calls.append(1)
        return quadrature(*args)

    monkeypatch.setattr(geometry, "_panel_integral", counted)
    counts = []
    for n in (10, 10 ** 4):
        calls.clear()
        resc.r_of_s(np.linspace(0.0, resc.target.r_max, n))
        counts.append(len(calls))
    assert counts[0] == counts[1] <= geometry._NEWTON_SWEEPS


def _counted_inversions(monkeypatch) -> list:
    """The s of every r(s) inversion geometry runs from now on."""
    calls, inverse = [], geometry._arclength_inverse

    def counted(u, edges_r, edges_s, s):
        calls.append(np.array(s, dtype=float))
        return inverse(u, edges_r, edges_s, s)

    monkeypatch.setattr(geometry, "_arclength_inverse", counted)
    return calls


def test_rescaled_profile_shares_a_few_inversions(monkeypatch):
    """The target profile and its two derivatives, `r_of_s` and a pullback
    at one s share one inversion of r(s), kept read-only and bit for bit a
    fresh inversion.  Only the last _R_MEMO distinct inputs, by exact shape
    and bytes, are kept: a new shape or -0.0 for 0.0 is a miss, and the
    oldest goes."""
    seen = []

    def recorded(fn):
        return lambda r: (seen.append(r), fn(r))[1]

    bump = parse_radial_spec("bump:0.3", 0.0, 1.0)
    u = RadialFunction(recorded(bump), recorded(bump.d), recorded(bump.d2))
    resc = conformal_rescale(make_surface("disk"), u)
    target, n = resc.target, geometry._R_MEMO
    u_t = resc.pullback(u)

    def r_of_s(s):
        seen.append(resc.r_of_s(s))

    grids = [np.linspace(0.0, target.r_max, 33 + i) for i in range(n)]
    fresh = [geometry._arclength_inverse(u, resc.edges_r, resc.edges_s, s)
             for s in grids]
    calls = _counted_inversions(monkeypatch)
    for s, ref in zip(grids, fresh):
        for fn in (target.f, target.fp, r_of_s, target.fpp, u_t, u_t.d,
                   u_t.d2, target.f):
            fn(s)
            assert np.array_equal(seen[-1], ref)
            assert not seen[-1].flags.writeable
    assert len(calls) == n
    signed = np.where(grids[0] == 0.0, -0.0, grids[0])
    r_of_s(signed)
    target.f(grids[0].reshape(1, -1))
    assert len(calls) == n + 2
    u_t(grids[-1])                      # still kept
    assert len(calls) == n + 2
    resc.r_of_s(grids[0])               # pushed out
    assert len(calls) == n + 3
    x = target.f(0.5)                   # a scalar s: a float r, kept too
    assert np.ndim(x) == 0 and target.f(0.5) == x and len(calls) == n + 4
    assert resc.r_of_s(0.5) == seen[-1] and len(calls) == n + 4


def test_rescaled_profile_memo_is_safe_on_threads():
    """Threads sharing one rescaling, as aggregate's pool does with its
    profile, get the values of fresh inversions from the profile, `r_of_s`
    and a pullback, with more threads than cores and the interpreter
    switching threads every microsecond."""
    disk, bump = make_surface("disk"), parse_radial_spec("bump:0.3", 0.0, 1.0)
    resc = conformal_rescale(disk, bump)
    target, u_t = resc.target, resc.pullback(bump)
    grids = [np.linspace(0.0, target.r_max, 17 + i) for i in range(8)]
    ref = conformal_rescale(disk, bump)
    expected = [(ref.target.f(s), ref.target.fp(s), ref.r_of_s(s),
                 ref.pullback(bump).d(s)) for s in grids]
    wrong = []

    def work(seed):
        order = np.random.default_rng(seed).permutation(40) % len(grids)
        for i in order:
            got = (target.f(grids[i]), target.fp(grids[i]),
                   resc.r_of_s(grids[i]), u_t.d(grids[i]))
            if not all(map(np.array_equal, got, expected[i])):
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def _spline_values(kind, n, rng):
    if kind == "real":
        return rng.normal(size=n)
    if kind == "eye":        # the cardinal basis of bounds._basis_measure
        return np.eye(n)
    values = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    values.imag[:, 1] = 0.0  # a real component carried as complex
    return values


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(4, 200), kind=st.sampled_from(["real", "eye", "complex"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_spline_is_bit_identical_to_scipy(n, kind, seed):
    """geometry._Spline against scipy's CubicSpline (not-a-knot) on
    non-uniform knots: values and derivatives of order 0-3, by __call__ and
    by derivative(), inside, on every knot, at both ends and up to one cell
    outside, equal to the last bit."""
    from scipy.interpolate import CubicSpline
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0) + np.cumsum(rng.uniform(1e-3, 1.0, n))
    y = _spline_values(kind, n, rng)
    ours, theirs = geometry._Spline.not_a_knot(x, y), CubicSpline(x, y)
    h0, h1 = x[1] - x[0], x[-1] - x[-2]
    pts = np.concatenate([x, rng.uniform(x[0], x[-1], 64),
                          rng.uniform(x[0] - h0, x[0], 4),
                          rng.uniform(x[-1], x[-1] + h1, 4),
                          [x[0] - h0, x[-1] + h1]])
    for nu in range(4):
        for mine, ref in ((ours(pts, nu), theirs(pts, nu)),
                          (ours.derivative(nu)(pts),
                           theirs.derivative(nu)(pts)),
                          (ours(x[-1], nu), theirs(x[-1], nu))):
            assert mine.shape == ref.shape and mine.dtype == ref.dtype
            assert np.array_equal(mine, ref)


@pytest.mark.parametrize("x, y", [
    (np.arange(5.0), np.array([0.0, 1.0, np.nan, 2.0, 3.0])),
    (np.array([0.0, 1.0, np.inf, 3.0]), np.zeros(4)),
    (np.arange(3.0), np.zeros(3)),
    (np.array([0.0, 1.0, 1.0, 2.0]), np.zeros(4)),
    (np.array([0.0, 2.0, 1.0, 3.0]), np.zeros(4)),
])
def test_spline_refuses_bad_knots_and_values(x, y):
    with pytest.raises(ValueError):
        geometry._Spline.not_a_knot(x, y)
