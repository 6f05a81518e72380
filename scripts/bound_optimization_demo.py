#!/usr/bin/env python3
"""Optimize the modified-curvature lower bound on one geometry and compare
the achieved sup-inf against lambda_min^2 from the spectrum."""

import argparse

from spinspec import (BoundaryConditionSpec, aggregate, evaluate_bounds,
                      make_surface, optimize_modifiers)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--geometry", default="cap:pi/3")
    ap.add_argument("--bc", default="local+")
    ap.add_argument("--N", type=int, default=256)
    ap.add_argument("--budget", type=int, default=1200)
    args = ap.parse_args()

    surface = make_surface(args.geometry)
    sp = aggregate(surface, BoundaryConditionSpec(args.bc), 12.5, args.N,
                   n_levels=2)
    res_i = optimize_modifiers(surface, "interior", budget=args.budget)
    res_c = optimize_modifiers(surface, "conformal", budget=args.budget)
    report = evaluate_bounds(sp, res_i.pair, res_c.pair,
                             optimizer_summary={"interior": res_i.summary(),
                                                "conformal": res_c.summary()})
    print(report.to_json())
    print(f"\nlambda_min^2 = {sp.lambda_min_sq:.8f} at k = {sp.k_min}")
    for name in ("friedrich", "est1", "est2", "est3", "est4"):
        e = report.entry(name)
        print(f"{name:10s} value={e.value!r:24} feasible={e.feasible} "
              f"passed={e.passed}")


if __name__ == "__main__":
    main()
