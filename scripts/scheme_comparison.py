"""Accuracy and bound-preservation comparison of the available schemes.

Advects a Gaussian bump once around the periodic unit square with each
scheme and reports the L1 error, the worst overshoot and undershoot
against the initial data range, and the wall time.

Usage: python scripts/scheme_comparison.py [--h 1/32] [--cfl 0.5]
"""

import argparse
import time

from idpfem.config import RunConfig, eval_fraction
from idpfem.diagnostics import error_norms
from idpfem.runner import integrate, setup
from idpfem.schemes import SCHEME_KEYS
from idpfem.timestepping import TimeControls


def compare(limiter, h, cfl, t_end):
    """L1 error, worst overshoot and undershoot, and wall time of one scheme."""
    cfg = RunConfig(benchmark="advected_gaussian", h=h, limiter=limiter,
                    vx=1.0, vy=1.0, cfl=cfl, t_end=t_end)
    bench, ms, model, scheme, u = setup(cfg)
    lo0, hi0 = float(u.min()), float(u.max())
    over = under = 0.0

    def track(u, t, dt, step):
        nonlocal over, under
        over = max(over, float(u.max()) - hi0)
        under = max(under, lo0 - float(u.min()))

    controls = TimeControls(cfl=cfl, t_end=t_end, scheme=cfg.rk)
    t0 = time.perf_counter()
    u, t, _ = integrate(scheme, u, controls, on_step=track)
    wall = time.perf_counter() - t0
    return error_norms(ms, u, bench.exact, t)["l1"][0], over, under, wall


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--h", type=eval_fraction, default=1 / 32)
    ap.add_argument("--cfl", type=float, default=0.5)
    ap.add_argument("--t-end", type=float, default=1.0)
    args = ap.parse_args(argv)

    print(f"advected Gaussian, one period, h = {args.h:g}, "
          f"cfl = {args.cfl}")
    print(f"{'scheme':>10} {'L1 error':>12} {'overshoot':>12} "
          f"{'undershoot':>12} {'time [s]':>9}")
    for name in SCHEME_KEYS:
        err, over, under, wall = compare(name, args.h, args.cfl, args.t_end)
        print(f"{name:>10} {err:12.4e} {over:12.3e} "
              f"{under:12.3e} {wall:9.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
