#!/usr/bin/env python3
"""Strictness gap of the spectral boundary condition under refinement.

Computes lambda_min^2 - n/(4(n-1)) inf R on the hemisphere under aps- for a
sequence of grids; the gap converges to a positive constant, the numerical
face of 'equality cannot hold under APS'.
"""

import argparse

from spinspec import (BoundaryConditionSpec, aggregate, friedrich_bound,
                      make_surface)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--geometry", default="hemisphere")
    ap.add_argument("--N", default="128,256,512,1024")
    ap.add_argument("--kmax", type=float, default=12.5)
    args = ap.parse_args()

    surface = make_surface(args.geometry)
    print(f"# {args.geometry}, aps-, kmax={args.kmax}")
    print("N,lambda_min_sq,gap")
    for N in (int(x) for x in args.N.split(",")):
        sp = aggregate(surface, BoundaryConditionSpec("aps-"), args.kmax, N,
                       n_levels=1)
        bound = friedrich_bound(surface, N)
        print(f"{N},{sp.lambda_min_sq:.12g},{sp.lambda_min_sq - bound:.12g}")


if __name__ == "__main__":
    main()
