"""Curvature modifiers, feasibility margins, bound reports, the optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BUILTIN_SCENARIOS
from spinspec import (ModifierPair, RadialFunction, evaluate_bounds,
                      feasibility_margin, conformal_modified_scalar,
                      make_surface, modified_scalar, optimize_modifiers,
                      parse_radial_spec, scalar_curvature)
from spinspec.bounds import TOL_FEAS, _basis_measure, _grid


def pair(a, u):
    return ModifierPair(a, u)


def grid(surface, n=65):
    return np.linspace(surface.r_min, surface.r_max, n + 2)[1:-1]


# ---------------------------------------------------------------------------
# the modified curvature quantities
# ---------------------------------------------------------------------------

def test_modified_scalar_a_zero_recovers_curvature():
    hemi = make_surface("hemisphere")
    mp = pair(RadialFunction.constant(0.0),
              parse_radial_spec("poly:0,0.5,-0.2", 0, np.pi / 2))
    rr = grid(hemi)
    assert np.max(np.abs(modified_scalar(hemi, mp, rr)
                         - scalar_curvature(hemi, rr))) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(c=st.floats(-2, 2), a0=st.floats(-2, 2), a1=st.floats(-1, 1))
def test_modified_scalar_constant_u_recovers_curvature(c, a0, a1):
    disk = make_surface("disk")
    mp = pair(RadialFunction.from_poly([a0, a1]), RadialFunction.constant(c))
    rr = np.linspace(0.1, 0.9, 9)
    assert np.max(np.abs(modified_scalar(disk, mp, rr))) <= 1e-12  # R = 0


def test_modified_scalar_cylinder_linear_u():
    # f = 1, a = 1, u = c r: Delta u = 0, grad a . grad u = 0,
    # so R_{a,u} = -4 (1 - 1/2) c^2 = -2 c^2
    cyl = make_surface("cylinder:2.0")
    c = 0.7
    mp = pair(RadialFunction.constant(1.0), RadialFunction.from_poly([0, c]))
    rr = grid(cyl)
    assert np.max(np.abs(modified_scalar(cyl, mp, rr) + 2 * c ** 2)) <= 1e-12


def test_conformal_modified_scalar_special_values():
    disk = make_surface("disk")
    u = parse_radial_spec("poly:0,0.3,-0.1", 0, 1)
    rr = grid(disk)
    # u constant: back to R
    mp0 = pair(RadialFunction.constant(0.3), RadialFunction.constant(1.0))
    assert np.max(np.abs(conformal_modified_scalar(disk, mp0, rr))) <= 1e-12
    # a = (n-1)/2 = 1/2 at n = 2: Delta u coefficient drops, |du|^2 keeps -1/2
    mp_half = pair(RadialFunction.constant(0.5), u)
    expected = -0.5 * u.d(rr) ** 2
    assert np.max(np.abs(conformal_modified_scalar(disk, mp_half, rr)
                         - expected)) <= 1e-12
    # a = 0 at n = 2: R + 2 Delta u (the scalar-curvature conformal law)
    from spinspec import radial_laplacian
    mp_zero = pair(RadialFunction.constant(0.0), u)
    expected = 2 * radial_laplacian(disk, u, rr)
    assert np.max(np.abs(conformal_modified_scalar(disk, mp_zero, rr)
                         - expected)) <= 1e-12


def test_modified_scalars_agree_only_for_constant_u():
    disk = make_surface("disk")
    rr = grid(disk)
    mp_const = pair(RadialFunction.constant(0.5), RadialFunction.constant(0.7))
    d = modified_scalar(disk, mp_const, rr) \
        - conformal_modified_scalar(disk, mp_const, rr)
    assert np.max(np.abs(d)) <= 1e-12
    mp_var = pair(RadialFunction.constant(0.5),
                  parse_radial_spec("bump:0.3", 0, 1))
    d = modified_scalar(disk, mp_var, rr) \
        - conformal_modified_scalar(disk, mp_var, rr)
    assert np.max(np.abs(d)) > 1e-3


# ---------------------------------------------------------------------------
# feasibility margins
# ---------------------------------------------------------------------------

def test_feasibility_constant_u_gives_mean_curvature():
    disk = make_surface("disk")
    mp = pair(RadialFunction.constant(1.0), RadialFunction.constant(0.3))
    assert abs(feasibility_margin(disk, mp, "interior") - 1.0) <= 1e-14
    ann = make_surface("annulus:0.5,1.0")
    assert abs(feasibility_margin(ann, mp, "interior") + 2.0) <= 1e-14


def test_feasibility_hemisphere_boundary_case():
    hemi = make_surface("hemisphere")
    # u'(pi/2) = 0: margin = H = 0 exactly, the feasible boundary case
    u = RadialFunction.from_poly([0.0, -np.pi, 1.0])  # u' = -pi + 2r
    mp = pair(RadialFunction.constant(0.8), u)
    assert feasibility_margin(hemi, mp, "interior") == 0.0


def test_feasibility_disk_linear_u_infeasible():
    disk = make_surface("disk")
    mp = pair(RadialFunction.constant(1.0), RadialFunction.from_poly([0, 1]))
    assert abs(feasibility_margin(disk, mp, "interior") + 1.0) <= 1e-14
    # conformal variant: H - (2a - 1) du(e0) = 1 - 1 = 0 at n = 2
    assert abs(feasibility_margin(disk, mp, "conformal")) <= 1e-14


def test_feasibility_rejects_unknown_variant():
    disk = make_surface("disk")
    with pytest.raises(ValueError):
        feasibility_margin(disk, ModifierPair(), "radial")


# ---------------------------------------------------------------------------
# bound reports
# ---------------------------------------------------------------------------

def test_hemisphere_friedrich_baseline_passes(solved):
    # inf R = 2, n = 2: the unmodified bound is lambda^2 >= 1, attained
    sp = solved("hemisphere", "local+", k_max=2.5, N=128)
    report = evaluate_bounds(sp, sp.fundamental.field)
    fr = report.entry("friedrich")
    assert abs(fr.value - 1.0) <= 1e-10
    assert fr.feasible and fr.passed
    assert abs(report.lambda_min_sq - 1.0) <= 1e-3
    assert report.passed


def test_disk_baseline_entries(solved):
    sp = solved("disk", "local+", k_max=2.5, N=128)
    report = evaluate_bounds(sp, sp.fundamental.field)
    assert abs(report.entry("friedrich").value) <= 1e-12  # R = 0
    hq = report.entry("hijazi_q")
    assert hq.value >= 0.0
    assert hq.passed


def test_infeasible_pair_is_skipped(solved):
    sp = solved("disk", "local+", k_max=1.5, N=128)
    mp = pair(RadialFunction.constant(1.0), RadialFunction.from_poly([0, 1]))
    report = evaluate_bounds(sp, sp.fundamental.field, mp=mp)
    e1 = report.entry("est1")
    assert e1.feasible is False and e1.passed is None
    assert "infeasible" in e1.note


def test_annulus_baseline_marked_infeasible(solved):
    sp = solved("annulus:0.5,1.0", "local+", k_max=1.5, N=128)
    report = evaluate_bounds(sp, sp.fundamental.field)
    fr = report.entry("friedrich")
    assert fr.feasible is False and fr.passed is None


def test_interior_bounds_hold_under_aps_minus(solved):
    # the curvature bound covers aps- as well; here with a strict gap
    sp = solved("hemisphere", "aps-", k_max=2.5, N=128)
    report = evaluate_bounds(sp, sp.fundamental.field)
    fr = report.entry("friedrich")
    assert fr.passed is True
    assert sp.lambda_min_sq - fr.value > 5e-3   # strictness
    hq = report.entry("hijazi_q")
    assert hq.passed is True


def test_conformal_entries_under_aps_are_experimental(solved):
    sp = solved("hemisphere", "aps-", k_max=1.5, N=128)
    mp = pair(RadialFunction.constant(0.4),
              parse_radial_spec("bump:0.3", 0, np.pi / 2))
    report = evaluate_bounds(sp, sp.fundamental.field, mp=mp, mp_conformal=mp)
    e3 = report.entry("est3")
    assert e3.passed is None
    assert "experimental" in e3.note
    # the interior bounds do carry pass/fail under aps-
    assert report.entry("est1").passed is not None


def test_entry_table_feasible_interior_infeasible_conformal(solved):
    # on the hemisphere (H = 0) a = 0.4 with an outward-decreasing u is
    # feasible for the interior bounds and infeasible for the conformal ones
    mp = pair(RadialFunction.constant(0.4),
              parse_radial_spec("bump:0.3", 0, np.pi / 2))
    experimental = ("experimental: conformal bounds are stated for local "
                    "conditions; ")
    for bc, prefix in (("aps-", experimental), ("local+", "")):
        sp = solved("hemisphere", bc, k_max=1.5, N=128)
        report = evaluate_bounds(sp, sp.fundamental.field, mp=mp,
                                 mp_conformal=mp)
        skipped = prefix + "skipped (infeasible)"
        assert [(e.name, e.value is None, e.feasible, e.passed, e.note)
                for e in report.entries] == [
            ("friedrich", False, True, True, ""),
            ("hijazi_q", False, True, True, ""),
            ("est1", False, True, True, ""),
            ("est2", False, True, True, ""),
            ("est3", True, False, None, skipped),
            ("est4", True, False, None, skipped)], bc


def test_report_serialization(solved):
    sp = solved("hemisphere", "local+", k_max=1.5, N=128)
    report = evaluate_bounds(sp, sp.fundamental.field,
                             mp=pair(RadialFunction.constant(0.4),
                                     parse_radial_spec("bump:0.3", 0, np.pi / 2)))
    d = report.to_dict()
    assert d["passed"] is True
    assert {e["name"] for e in d["entries"]} >= {"friedrich", "hijazi_q",
                                                 "est1", "est2"}
    import json
    assert json.loads(report.to_json())["scenario"] == "hemisphere"
    # the limiting-case disjuncts are recorded for every boundary
    assert "H_minus_du_e0" in d["limit_diagnostics"]["outer"]


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_optimizer_dominates_baseline_on_hemisphere():
    hemi = make_surface("hemisphere")
    res = optimize_modifiers(hemi, "interior", budget=250, n_grid=96)
    assert res.feasible_found
    assert res.value >= res.baseline_value - 1e-12
    assert res.value >= 2.0 - 1e-9         # inf R = 2 already at a = 0
    assert res.margin >= -TOL_FEAS
    best = res.best_series
    assert np.all(np.diff(best) >= 0)      # monotone trace
    assert res.n_eval <= 251


def test_optimizer_disk_nonnegative():
    disk = make_surface("disk")
    res = optimize_modifiers(disk, "interior", budget=250, n_grid=96)
    assert res.value >= -1e-12


def test_optimizer_certified_by_spectrum(solved):
    """(n/(4(n-1))) inf R_{a,u} <= lambda_min^2 + tol for the returned pair:
    the bound itself certifies the optimizer output."""
    sp = solved("hemisphere", "local+", k_max=2.5, N=128)
    res = optimize_modifiers(make_surface("hemisphere"), "interior",
                             budget=300, n_grid=96)
    assert 0.5 * res.value <= sp.lambda_min_sq + 5e-3


def test_optimizer_conformal_variant_runs():
    disk = make_surface("disk")
    res = optimize_modifiers(disk, "conformal", budget=200, n_grid=96)
    assert res.n_eval <= 201
    assert res.value >= res.baseline_value - 1e-12


def test_optimizer_trace_records_feasibility():
    ann = make_surface("annulus:0.5,1.0")
    res = optimize_modifiers(ann, "interior", budget=200, n_grid=96)
    assert res.trace[0].feasible is False      # a = 0 baseline has H < 0
    if not res.feasible_found:
        assert res.fell_back_to_baseline


def test_modifier_pair_from_params_roundtrip():
    disk = make_surface("disk")
    params = np.linspace(-0.5, 0.5, 16)
    mp = ModifierPair.from_params(disk, params, n_ctrl=8)
    knots = np.linspace(0, 1, 8)
    assert np.max(np.abs(mp.a(knots) - params[:8])) <= 1e-12
    assert np.max(np.abs(mp.u(knots) - params[8:])) <= 1e-12
    with pytest.raises(ValueError):
        ModifierPair.from_params(disk, params[:10], n_ctrl=8)


# ---------------------------------------------------------------------------
# the optimizer's spline-basis path against the public functions
# ---------------------------------------------------------------------------

def assert_matches_public_path(surface, variant, params, n_ctrl, n_grid,
                               value, margin):
    mp = ModifierPair.from_params(surface, params, n_ctrl)
    scalar_fn = (modified_scalar if variant == "interior"
                 else conformal_modified_scalar)
    expected = float(np.min(scalar_fn(surface, mp, _grid(surface, n_grid))))
    assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))
    expected_margin = feasibility_margin(surface, mp, variant)
    assert abs(margin - expected_margin) <= \
        1e-12 * max(1.0, abs(expected_margin))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(geom=st.sampled_from(BUILTIN_SCENARIOS + ("profile",)),
       variant=st.sampled_from(["interior", "conformal"]),
       n_ctrl=st.integers(4, 12), n_grid=st.integers(16, 300), data=st.data())
def test_basis_measure_matches_public_path(zone_csv, geom, variant, n_ctrl,
                                           n_grid, data):
    surface = make_surface(zone_csv if geom == "profile" else geom)
    params = np.array(data.draw(st.lists(
        st.floats(-2, 2), min_size=2 * n_ctrl, max_size=2 * n_ctrl)))
    value, margin = _basis_measure(surface, variant, n_ctrl, n_grid)(params)
    assert_matches_public_path(surface, variant, params, n_ctrl, n_grid,
                               value, margin)


def test_basis_measure_matches_public_path_over_a_trace():
    ann = make_surface("annulus:0.5,1.0")
    res = optimize_modifiers(ann, "conformal", budget=300)
    assert res.n_eval == 300
    for pt in res.trace:
        assert_matches_public_path(ann, "conformal", pt.params, 8, 256,
                                   pt.value, pt.margin)
