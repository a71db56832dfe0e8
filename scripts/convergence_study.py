"""Grid convergence study for the advected Gaussian benchmark.

Runs the stabilized Galerkin scheme and the low-order scheme over a
sequence of refinements and prints L1 errors with observed orders.

Usage: python scripts/convergence_study.py [--t-end 0.25] [--levels 4 5 6]
where level k means h = 1 / 2^k.
"""

import argparse

import numpy as np

from idpfem.config import RunConfig
from idpfem.diagnostics import error_norms
from idpfem.runner import integrate, setup
from idpfem.timestepping import TimeControls


def solve_l1(limiter, h, t_end, cfl):
    cfg = RunConfig(benchmark="advected_gaussian", h=h, limiter=limiter,
                    vx=1.0, vy=1.0, cfl=cfl, t_end=t_end)
    bench, ms, model, scheme, u = setup(cfg)
    controls = TimeControls(cfl=cfl, t_end=t_end, scheme=cfg.rk)
    u, t, _ = integrate(scheme, u, controls)
    return error_norms(ms, u, bench.exact, t)["l1"][0]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t-end", type=float, default=0.25)
    ap.add_argument("--cfl", type=float, default=0.5)
    ap.add_argument("--levels", type=int, nargs="+", default=[4, 5, 6])
    ap.add_argument("--schemes", nargs="+",
                    default=["none", "low", "mcl.cs", "fct.cs"])
    args = ap.parse_args(argv)

    hs = [1.0 / 2 ** k for k in args.levels]
    print(f"advected Gaussian, t_end = {args.t_end}, cfl = {args.cfl}")
    print(f"{'scheme':>10} {'h':>10} {'L1 error':>12} {'order':>7}")
    for scheme in args.schemes:
        prev = None
        for h in hs:
            err = solve_l1(scheme, h, args.t_end, args.cfl)
            order = "" if prev is None else f"{np.log2(prev / err):7.2f}"
            print(f"{scheme:>10} {h:10.5f} {err:12.4e} {order:>7}")
            prev = err
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
