"""Acceptance gate: desk-scale reproduction of every proved statement.

One test per criterion, each printing a PASS line with the measured numbers
(run with -s or -rA to see them).  Tolerances are pinned here and nowhere
else; the oracles (closed-form Killing spinor, Bessel roots, shooting
integration) live in oracles.py and never share code with the solver.
"""

import time

import numpy as np

import oracles
from conftest import BUILTIN_SCENARIOS
from spinspec import (FRAME, BoundaryConditionSpec, ModeOperator, ModifierPair,
                      aggregate, boundary_chirality, boundary_data,
                      boundary_dirac_matrix, conformal_push, conformal_rescale,
                      chirality, chirality_projectors, energy_momentum,
                      eq_residual, killing_residual, make_surface,
                      optimize_modifiers, parse_radial_spec, rtc2_residual,
                      sl_residual)
from spinspec.bounds import (canned_modifiers, conformal_modified_scalar,
                             feasibility_margin, modified_scalar)
from spinspec.geometry import conformal_law_residuals

TOL_BOUND = 5e-3   # slack for every theorem-as-oracle comparison


def announce(n, detail):
    print(f"\nACCEPTANCE {n} PASS: {detail}")


def test_criterion_1_hemisphere_limiting_case(solved):
    """Local chirality condition on the hemisphere attains the curvature
    bound: lambda_min^2 -> 1 with a Killing-spinor minimizer and H = 0."""
    hemi = make_surface("hemisphere")
    t0 = time.monotonic()
    sp = aggregate(hemi, BoundaryConditionSpec("local+"), 12.5, 512,
                   n_fields_per_mode=2)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0

    lam2 = sp.lambda_min_sq
    assert lam2 >= 1.0 - 1e-3
    assert abs(abs(sp.lambda_min) - 1.0) <= 1e-3

    kr = {}
    for N, spn in ((256, solved("hemisphere", "local+", 12.5, 256)), (512, sp)):
        kr[N] = killing_residual(spn.fundamental.field, spn.fundamental.lam)
    assert kr[512] <= 5e-3
    order = np.log2(kr[256] / kr[512])
    assert abs(order - 2.0) <= 0.4

    assert boundary_data(hemi, "outer").mean_curvature == 0.0
    # local- attains the same bound from below
    sp_m = solved("hemisphere", "local-", 2.5, 256)
    assert abs(abs(sp_m.lambda_min) - 1.0) <= 1e-3
    announce(1, f"lambda_min^2 = {lam2:.8f}, killing residual "
                f"{kr[512]:.2e} at order {order:.2f}, H = 0, {elapsed:.1f}s")


def test_criterion_2_aps_strictness():
    """Under the spectral (aps-) condition the curvature bound is strict:
    the gap stays above 5e-3 and stable across refinements."""
    hemi = make_surface("hemisphere")
    gaps = {}
    for N in (256, 512, 1024):
        sp = aggregate(hemi, BoundaryConditionSpec("aps-"), 12.5, N,
                       n_fields_per_mode=1)
        gaps[N] = sp.lambda_min_sq - 1.0
    assert all(g > 5e-3 for g in gaps.values())
    lo, hi = min(gaps.values()), max(gaps.values())
    assert (hi - lo) <= 0.2 * lo
    announce(2, "strict gap lambda_min^2 - 1 = "
                + ", ".join(f"{g:.6f}@{n}" for n, g in gaps.items()))


def test_criterion_3_flat_disk_oracle(solved):
    """Fundamental disk mode against the independent shooting oracle."""
    disk = make_surface("disk")
    root = oracles.shoot_eigenvalues(disk, 0.5, "local+", 1.0, 2.0, 40)[0]
    assert abs(root - oracles.DISK_LOCALPLUS_ROOT) <= 1e-9

    lam = {}
    for N in (128, 256, 512):
        sp = solved("disk", "local+", 2.5, N) if N < 512 else \
            aggregate(disk, BoundaryConditionSpec("local+"), 2.5, 512,
                      n_fields_per_mode=1)
        lam[N] = abs(sp.lambda_min)
    assert abs(lam[512] - root) <= 1e-4
    order = oracles.richardson_order([lam[128], lam[256], lam[512]],
                                     [128, 256, 512])
    assert 1.8 <= order <= 2.2
    announce(3, f"lambda_min = {lam[512]:.8f} vs oracle {root:.8f} "
                f"(err {lam[512]-root:.2e}), order {order:.3f}")


def test_criterion_4_monotone_cap_family(solved):
    """Shrinking the cap toward the hemisphere drives lambda_min^2 down to
    the bound value 1, never below (H >= 0, inf R = 2)."""
    vals = []
    for geom in ("cap:pi/3", "cap:5*pi/12", "cap:pi/2"):
        sp = solved(geom, "local+", 12.5, 256)
        vals.append(sp.lambda_min_sq)
    assert vals[0] > vals[1] > vals[2]
    assert all(v >= 1.0 - 1e-3 for v in vals)
    assert vals[2] <= 1.0 + 1e-3
    announce(4, "cap lambda_min^2: " + ", ".join(f"{v:.6f}" for v in vals))


def test_criterion_5_identity_suite(solved):
    """Every integral/pointwise identity on every built-in's fundamental
    eigenpair: small at N = 256 and shrinking at second order."""
    worst = {}
    for geom in BUILTIN_SCENARIOS:
        surface = make_surface(geom)
        mp = canned_modifiers(surface)
        assert feasibility_margin(surface, mp, "interior") >= -1e-9
        res = {}
        for N in (128, 256):
            sp = solved(geom, "local+", 12.5, N)
            f, lam = sp.fundamental.field, sp.fundamental.lam
            q = energy_momentum(f)
            res[N] = {
                "ili": sl_residual(f, lam).residual,
                "rtc2": max(rtc2_residual(f, w).left
                            for w in surface.boundaries),
                "eq1": eq_residual(f, lam, "eq1").residual,
                "eq1_mod": eq_residual(f, lam, "eq1", mp).residual,
                "eq2": eq_residual(f, lam, "eq2", mp).residual,
                "trace_q": float(np.max(np.abs(q.trace[q.mask] - lam))),
            }
        for name, r256 in res[256].items():
            assert r256 <= 1e-2, (geom, name, r256)
            r128 = res[128][name]
            order_ok = r256 < 1e-12 or np.log2(r128 / r256) >= 1.8
            assert order_ok, (geom, name, r128, r256)
            worst[name] = max(worst.get(name, 0.0), r256)
    announce(5, "worst residuals at N=256: "
                + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))


def test_criterion_6_conformal_covariance(solved):
    """Conformal transformation laws at roundoff, push-forward eigen-residual
    and conformal identities at second order, homothety scaling exact."""
    disk = make_surface("disk")
    u = parse_radial_spec("bump:0.3", 0.0, 1.0)
    resc = conformal_rescale(disk, u)

    rr = np.linspace(0.0, 1.0, 201)[1:-1]
    laws = conformal_law_residuals(resc, rr)
    law_max = max(float(np.max(np.abs(laws["curvature"]))),
                  abs(laws["mean_curvature"]["outer"]))
    assert law_max <= 1e-8

    mp = canned_modifiers(disk)
    push = {}
    eqs = {"eq3": {}, "eq4": {}}
    for N in (64, 128, 256):
        sp = solved("disk", "local+", 2.5, N)
        f, lam = sp.fundamental.field, sp.fundamental.lam
        _, push[N] = conformal_push(f, resc, lam)
        for which in ("eq3", "eq4"):
            eqs[which][N] = eq_residual(f, lam, which, mp,
                                        rescaling=resc).residual
    orders = [np.log2(push[64] / push[128]), np.log2(push[128] / push[256])]
    assert abs(np.mean(orders) - 2.0) <= 0.25
    for which in ("eq3", "eq4"):
        assert np.log2(eqs[which][128] / eqs[which][256]) >= 1.8

    c = 0.4
    resc_c = conformal_rescale(disk, parse_radial_spec(f"const:{c}", 0, 1))
    sp_src = solved("disk", "local+", 1.5, 128)
    sp_tgt = aggregate(resc_c.target, BoundaryConditionSpec("local+"), 1.5,
                       128, n_fields_per_mode=1)
    lam_src = np.sort(np.abs(sp_src.levels[:10, 0]))
    lam_tgt = np.sort(np.abs(sp_tgt.levels[:10, 0]))
    hom = float(np.max(np.abs(lam_tgt - np.exp(-c) * lam_src)))
    assert hom <= 1e-6
    announce(6, f"laws {law_max:.1e}, push order {np.mean(orders):.2f}, "
                f"homothety {hom:.1e}")


def test_criterion_7_theorem_as_oracle_over_traces(solved):
    """Replay the curvature and energy-momentum bounds over every feasible
    modifier pair the optimizer ever evaluates: zero violations allowed."""
    total_points = 0
    violations = 0
    checked = 0
    for geom in BUILTIN_SCENARIOS:
        surface = make_surface(geom)
        sp = solved(geom, "local+", 12.5, 256)
        lam2 = sp.lambda_min_sq
        field = sp.fundamental.field
        q = energy_momentum(field)
        qn, mask, r_ctr = q.norm_sq, q.mask, field.r
        r_all = np.sort(np.concatenate(
            [r_ctr, [surface.r_max] if surface.cap
             else [surface.r_min, surface.r_max]]))
        for variant in ("interior", "conformal"):
            res = optimize_modifiers(surface, variant, budget=1200,
                                     n_grid=256)
            total_points += res.n_eval
            scalar_fn = (modified_scalar if variant == "interior"
                         else conformal_modified_scalar)
            for pt in res.trace:
                if not pt.feasible:
                    continue
                checked += 1
                mp = ModifierPair.from_params(surface, pt.params)
                curv = scalar_fn(surface, mp, r_all)
                if 0.5 * float(np.min(curv)) > lam2 + TOL_BOUND:
                    violations += 1
                curv_c = scalar_fn(surface, mp, r_ctr)
                if float(np.min((curv_c / 4 + qn)[mask])) > lam2 + TOL_BOUND:
                    violations += 1
    assert total_points >= 10_000
    assert violations == 0
    announce(7, f"{total_points} optimizer evaluations, {checked} feasible "
                f"pairs replayed through the bounds, 0 violations")


def test_criterion_8_algebraic_suite():
    """Chirality/Clifford axioms, boundary anticommutation, Hermiticity and
    projector identities: 1e-12 at worst, exact-construction items at zero."""
    eye = np.eye(2, dtype=complex)
    gens = (FRAME.g1, FRAME.g2)

    def zero(m):
        return float(np.max(np.abs(m)))

    exact = [
        zero(gens[0] @ gens[1] + gens[1] @ gens[0]),
        zero(gens[0] @ gens[0] + eye),
        zero(FRAME.volume @ FRAME.volume + eye),
        zero(chirality() @ chirality() - eye),
    ]
    F = chirality()
    for g in gens:
        exact.append(zero(F @ g + g @ F))
    gam = boundary_chirality((1.0, 0.0))
    exact.append(zero(gam @ gam - eye))
    exact.append(zero(gam @ gens[0] + gens[0] @ gam))
    exact.append(zero(gam @ gens[1] - gens[1] @ gam))
    p_plus, p_minus = chirality_projectors(gam)
    exact.append(zero(p_plus + p_minus - eye))
    exact.append(zero(p_plus @ p_minus))
    disk = make_surface("disk")
    d_bnd, e0d = boundary_dirac_matrix(disk, "outer", 1.5)
    e0 = FRAME.covector((1.0, 0.0))
    exact.append(zero(d_bnd @ e0 + e0 @ d_bnd))
    exact.append(abs(np.trace(e0d)))
    assert max(exact) == 0.0

    worst_herm = 0.0
    for geom in ("disk", "annulus:0.5,1.0", "hemisphere"):
        surface = make_surface(geom)
        for bc in ("local+", "local-", "aps-", "aps+"):
            for k in (0.5, 1.5):
                op = ModeOperator(surface, k, 48,
                                  bc=BoundaryConditionSpec(bc))
                worst_herm = max(worst_herm, op.hermiticity_residual())
    assert worst_herm <= 1e-12
    announce(8, f"exact items all 0, worst Hermiticity {worst_herm:.2e}")
