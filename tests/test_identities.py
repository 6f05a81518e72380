"""Integral and pointwise spinor identities on closed-form and computed data."""

import numpy as np
import pytest

import oracles
from spinspec import (ModifierPair, RadialFunction, SpinorField,
                      VanishingSpinorError, canned_modifiers, conformal_push,
                      conformal_rescale, energy_momentum, eq_residual,
                      killing_residual, make_surface, modified_gradient_norm,
                      parse_radial_spec, rtc2_residual, sl_residual)

HEMI = make_surface("hemisphere")


def killing_field(N, analytic=True):
    """Closed-form hemisphere Killing spinor sampled on the cell centers."""
    h = (np.pi / 2) / N
    r = (np.arange(N) + 0.5) * h
    vals = oracles.killing_spinor_hemisphere(r)
    dv = np.stack([-0.5 * np.sin(r / 2), -0.5j * np.cos(r / 2)], axis=-1)
    return SpinorField(HEMI, 0.5, r, vals,
                       {"outer": oracles.killing_spinor_hemisphere(np.pi / 2)},
                       d_values=dv if analytic else None)


def modifier_bump(surface, c_a=0.4, c_u=0.3):
    return ModifierPair(RadialFunction.constant(c_a),
                        parse_radial_spec(f"bump:{c_u}", surface.r_min,
                                          surface.r_max))


# ---------------------------------------------------------------------------
# Lichnerowicz balance
# ---------------------------------------------------------------------------

def test_trace_without_a_stored_trace_raises():
    """A trace is what the field stores; there is no extrapolated fallback."""
    f = killing_field(16)
    f.traces = {}
    with pytest.raises(KeyError):
        f.trace("outer")


def test_sl_zero_field_trivial():
    f = killing_field(64)
    f.values = 0 * f.values
    f.traces = {"outer": np.zeros(2, complex)}
    rep = sl_residual(f, 0.0)
    assert rep.left == 0.0 and rep.right == 0.0


def test_sl_closed_form_killing_balances():
    # H = 0 and the boundary Dirac pairing vanishes, so both sides are ~0
    f = killing_field(256)
    rep = sl_residual(f, 1.0)
    assert abs(rep.left) <= 1e-6
    assert abs(rep.right) <= 1e-6
    assert rep.residual <= 5e-7


@pytest.mark.parametrize("geom", ["hemisphere", "disk"])
def test_sl_residual_second_order_on_eigenpairs(geom, solved):
    res = {}
    for N in (64, 128, 256):
        sp = solved(geom, "local+", k_max=1.5, N=N)
        res[N] = sl_residual(sp.fundamental.field, sp.fundamental.lam).residual
    assert res[256] <= 1e-2
    order = np.log2(res[64] / res[128]), np.log2(res[128] / res[256])
    assert min(order) >= 1.8


def test_sl_residual_small_for_all_low_eigenpairs():
    # the balance holds for every low eigenpair, not just the fundamental
    for geom in ("hemisphere", "disk", "annulus:0.5,1.0", "cylinder:2.0"):
        pairs = oracles.low_eigenpairs(make_surface(geom), "local+", 1.5, 128)
        for pair in pairs[:6]:
            rep = sl_residual(pair.field, pair.lam)
            assert rep.residual <= 1e-2, (geom, pair.lam, rep.residual)


def test_rtc2_intrinsic_matches_shape_corrected_ambient(solved):
    sp = solved("annulus:0.5,1.0", "local+", k_max=1.5, N=64)
    for which in ("inner", "outer"):
        assert rtc2_residual(sp.fundamental.field, which).left <= 1e-12


# ---------------------------------------------------------------------------
# energy-momentum tensor
# ---------------------------------------------------------------------------

def test_energy_momentum_of_killing_spinor():
    """Q_ij = (lambda/n) delta_ij, so |Q|^2 = lambda^2/n and trace Q = lambda;
    together with R/4 = lambda^2 (1 - 1/n) this ties the unmodified curvature
    and energy-momentum bounds to each other on the hemisphere."""
    f = killing_field(256)
    q = energy_momentum(f)
    assert q.excluded == 0
    assert np.max(np.abs(q.q[:, 0, 0] - 0.5)) <= 1e-8
    assert np.max(np.abs(q.q[:, 1, 1] - 0.5)) <= 1e-8
    assert np.max(np.abs(q.q[:, 0, 1])) <= 1e-8
    assert np.max(np.abs(q.norm_sq - 0.5)) <= 1e-8
    assert np.max(np.abs(q.trace - 1.0)) <= 1e-8
    # R/4 + |Q|^2 = 1 = lambda^2 and (1 - 1/n) lambda^2 = 1/2 = R/4
    assert abs((2.0 / 4 + 0.5) - 1.0) == 0.0


def test_energy_momentum_symmetry_exact(solved):
    sp = solved("disk", "local+", k_max=1.5, N=128)
    q = energy_momentum(sp.fundamental.field)
    assert np.max(np.abs(q.q[:, 0, 1] - q.q[:, 1, 0])) == 0.0


def test_parallel_spinor_has_zero_energy_momentum():
    cyl = make_surface("cylinder:2.0", spin_structure="periodic")
    N = 64
    h = 2.0 / N
    r = (np.arange(N) + 0.5) * h
    vals = np.tile([1.0 + 0j, 0.0 + 0j], (N, 1))
    f = SpinorField(cyl, 0.0, r, vals,
                    {"inner": np.array([1, 0], complex),
                     "outer": np.array([1, 0], complex)})
    q = energy_momentum(f)
    assert np.max(np.abs(q.q)) <= 1e-14


def test_energy_momentum_vanishing_spinor_error():
    f = killing_field(64)
    f.values = 0 * f.values
    with pytest.raises(VanishingSpinorError):
        energy_momentum(f)


def test_energy_momentum_zero_set_exclusion():
    f = killing_field(64)
    f.values[10] = 1e-12 * f.values[10]
    q = energy_momentum(f)
    assert q.excluded >= 1
    assert not q.mask[10]


def test_trace_q_equals_lambda_second_order(solved):
    res = {}
    for N in (128, 256):
        sp = solved("disk", "local+", k_max=1.5, N=N)
        q = energy_momentum(sp.fundamental.field)
        res[N] = np.max(np.abs(q.trace[q.mask] - sp.fundamental.lam))
    assert res[256] <= 1e-2
    assert np.log2(res[128] / res[256]) >= 1.8


def test_hijazi_direction_on_disk(solved):
    """inf(R/4 + |Q|^2) <= lambda^2 + tol: the energy-momentum bound checked
    on computed data (R = 0 on the disk)."""
    sp = solved("disk", "local+", k_max=2.5, N=128)
    q = energy_momentum(sp.fundamental.field)
    assert float(np.min(q.norm_sq[q.mask])) <= sp.lambda_min_sq + 5e-3
    assert float(np.min(q.norm_sq[q.mask])) >= 0.0


# ---------------------------------------------------------------------------
# modified connections
# ---------------------------------------------------------------------------

def test_modified_gradient_killing_direction():
    # the Killing equation is exactly grad^{0,.}-parallelism
    f = killing_field(256)
    rep = modified_gradient_norm(f, 1.0, "gcm")
    assert abs(rep.left) <= 1e-12
    assert rep.residual <= 1e-10


def test_modified_gradient_a_zero_collapse_analytic():
    f = killing_field(256)
    u = parse_radial_spec("bump:0.3", 0.0, np.pi / 2)
    rep = modified_gradient_norm(f, 1.0, "gcm", ModifierPair(u=u))
    assert rep.residual <= 1e-10


def test_modified_gradient_general_identity_random_field(rng):
    """The un-collapsed expansion is an algebraic identity for any smooth
    field and any lambda; its two evaluations agree at second order."""
    res = {}
    for N in (64, 128):
        h = (np.pi / 2) / N
        r = (np.arange(N) + 0.5) * h
        vals = np.stack([np.cos(r) + 0.3j * r ** 2,
                         0.2 * np.sin(2 * r) - 0.5j], axis=-1)
        f = SpinorField(HEMI, 0.5, r, vals)
        a = RadialFunction.from_poly([0.2, 0.5])
        u = RadialFunction.from_poly([0.0, -0.3, 0.4])
        res[N] = oracles.modified_gradient_general_residual(
            f, 0.7, ModifierPair(a, u))
    assert np.log2(res[64] / res[128]) >= 1.8


def test_modified_gradient_emtm_on_eigenpair(solved):
    sp = solved("disk", "local+", k_max=1.5, N=256)
    mp = modifier_bump(make_surface("disk"))
    rep = modified_gradient_norm(sp.fundamental.field, sp.fundamental.lam,
                                 "emtm", mp)
    assert rep.residual <= 1e-3


# ---------------------------------------------------------------------------
# the four integral identities
# ---------------------------------------------------------------------------

def test_eq1_hand_evaluated_limiting_case():
    """Hemisphere Killing spinor, a = 0: (1 - 1/n) lambda^2 - R/4 = 0 and the
    boundary term vanishes, so both sides of eq1 are zero."""
    assert (1 - 0.5) * 1.0 ** 2 - 2.0 / 4 == 0.0
    f = killing_field(256)
    rep = eq_residual(f, 1.0, "eq1")
    assert abs(rep.left) <= 1e-10
    assert abs(rep.right) <= 1e-6


def test_eq1_a_zero_matches_sl_route(solved):
    sp = solved("hemisphere", "local+", k_max=1.5, N=128)
    f, lam = sp.fundamental.field, sp.fundamental.lam
    rep = eq_residual(f, lam, "eq1")
    sl = sl_residual(f, lam)
    assert rep.residual <= 10 * max(sl.residual, 1e-8)


@pytest.mark.parametrize("geom", ["hemisphere", "disk", "annulus:0.5,1.0"])
@pytest.mark.parametrize("which", ["eq1", "eq2"])
def test_eq_identities_second_order(geom, which, solved):
    surface = make_surface(geom)
    if geom == "annulus:0.5,1.0":
        mp = canned_modifiers(surface)
    else:
        mp = modifier_bump(surface)
    res = {}
    for N in (128, 256):
        sp = solved(geom, "local+", k_max=1.5, N=N)
        rep = eq_residual(sp.fundamental.field, sp.fundamental.lam, which, mp)
        res[N] = rep.residual
    assert res[256] <= 1e-2
    assert np.log2(res[128] / res[256]) >= 1.8 or res[256] <= 1e-10


def test_eq3_requires_rescaling(solved):
    sp = solved("disk", "local+", k_max=0.5, N=64)
    with pytest.raises(ValueError, match="conformal push"):
        eq_residual(sp.fundamental.field, sp.fundamental.lam, "eq3")
    with pytest.raises(ValueError):
        eq_residual(sp.fundamental.field, sp.fundamental.lam, "eq9")


# ---------------------------------------------------------------------------
# Killing residuals
# ---------------------------------------------------------------------------

def test_killing_residual_closed_form_definition():
    f = killing_field(256)
    assert killing_residual(f, 1.0) <= 1e-10


def test_killing_residual_twisted_zero_when_du_zero():
    f = killing_field(128)
    a = RadialFunction.constant(0.7)
    u = RadialFunction.constant(2.0)   # du = 0: twisted equation = untwisted
    assert killing_residual(f, 1.0, ModifierPair(a, u)) <= 1e-10


def test_killing_residual_skips_the_zero_set_of_energy_momentum():
    """One zero-set rule: a node with |phi| = 1e-6 max |phi| (so |phi|^2 =
    1e-12 of the peak, below EPS_ZERO_REL) is left out of the Killing
    residual as it is out of Q.  Its radial derivative stays of order one,
    so counting it, divided by |phi|, would give a residual near 5e5."""
    f = killing_field(256)
    f.values[10] = 1e-6 * f.values[10]
    assert not energy_momentum(f).mask[10]
    assert killing_residual(f, 1.0) <= 1e-10
    f.values = 0 * f.values
    with pytest.raises(VanishingSpinorError):
        killing_residual(f, 1.0)


def test_killing_residual_limiting_vs_non_limiting(solved):
    sp_h = solved("hemisphere", "local+", k_max=1.5, N=256)
    r_h = killing_residual(sp_h.fundamental.field, sp_h.fundamental.lam)
    assert r_h <= 5e-3
    sp_c = solved("cap:pi/3", "local+", k_max=1.5, N=256)
    r_c = killing_residual(sp_c.fundamental.field, sp_c.fundamental.lam)
    sp_c2 = solved("cap:pi/3", "local+", k_max=1.5, N=128)
    r_c2 = killing_residual(sp_c2.fundamental.field, sp_c2.fundamental.lam)
    assert r_c >= 0.1 and r_c2 >= 0.1           # bounded away from zero
    assert abs(r_c - r_c2) <= 0.2 * r_c         # stable under refinement


# ---------------------------------------------------------------------------
# conformal push-forward
# ---------------------------------------------------------------------------

def test_conformal_push_identity(solved):
    disk = make_surface("disk")
    sp = solved("disk", "local+", k_max=0.5, N=128)
    resc = conformal_rescale(disk, RadialFunction.constant(0.0))
    push = conformal_push(sp.fundamental.field, resc, sp.fundamental.lam)
    src = sp.fundamental.field.values
    match = np.max(np.abs(push.field.values - src)) / np.max(np.abs(src))
    assert match <= 1e-6   # same grid up to the identity reparametrization
    assert push.residual <= 1e-3   # the eigen-residual of the field itself
    assert push.rescaling is resc and push.field.surface is resc.target
    assert np.all(push.lam == sp.fundamental.lam)   # lam e^{-u}, u = 0


def test_conformal_push_homothety_scales_spectrum():
    from spinspec import BoundaryConditionSpec, aggregate
    disk = make_surface("disk")
    c = 0.4
    resc = conformal_rescale(disk, RadialFunction.constant(c))
    sp = aggregate(disk, BoundaryConditionSpec("local+"), 1.5, 128)
    sp_t = aggregate(resc.target, BoundaryConditionSpec("local+"), 1.5, 128)
    lam = np.sort(np.abs(sp.levels[:8, 0]))
    lam_t = np.sort(np.abs(sp_t.levels[:8, 0]))
    assert np.max(np.abs(lam_t - np.exp(-c) * lam)) <= 1e-6


def test_conformal_push_rejects_foreign_grid(solved):
    # a rescaling of a larger surface pulls back outside this field's grid
    disk = make_surface("disk")
    sp = solved("annulus:0.5,1.0", "local+", k_max=0.5, N=64)
    resc = conformal_rescale(disk, RadialFunction.constant(0.0))
    with pytest.raises(ValueError, match="outside"):
        conformal_push(sp.fundamental.field, resc, sp.fundamental.lam)


def test_conformal_push_residual_second_order(solved):
    disk = make_surface("disk")
    u = parse_radial_spec("bump:0.3", 0.0, 1.0)
    resc = conformal_rescale(disk, u)
    res = {}
    for N in (64, 128, 256):
        sp = solved("disk", "local+", k_max=0.5, N=N)
        res[N] = conformal_push(sp.fundamental.field, resc,
                                sp.fundamental.lam).residual
    orders = (np.log2(res[64] / res[128]), np.log2(res[128] / res[256]))
    assert min(orders) >= 1.8 and max(orders) <= 2.3
    assert abs(np.mean(orders) - 2.0) <= 0.25


@pytest.mark.parametrize("which", ["eq3", "eq4"])
def test_conformal_integral_identities_second_order(which, solved):
    disk = make_surface("disk")
    u = parse_radial_spec("bump:0.3", 0.0, 1.0)
    resc = conformal_rescale(disk, u)
    mp = modifier_bump(disk)
    res = {}
    for N in (128, 256):
        sp = solved("disk", "local+", k_max=0.5, N=N)
        f, lam = sp.fundamental.field, sp.fundamental.lam
        rep = eq_residual(f, lam, which, mp, push=conformal_push(f, resc, lam))
        res[N] = rep.residual
    assert np.log2(res[128] / res[256]) >= 1.8
