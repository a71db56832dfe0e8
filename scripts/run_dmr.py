"""Double Mach reflection driver.

Runs the Mach 10 reflection problem with the monolithic convex limiter
and sequential system limiting, writing VTK snapshots and a diagnostics
CSV to the output directory.

Usage: python scripts/run_dmr.py [--h 1/32] [--t-end 0.2] [--out out_dmr]
"""

import argparse

from idpfem.config import RunConfig, eval_fraction
from idpfem.runner import run
from idpfem.schemes import SCHEME_KEYS, SYSTEM_MODES


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--h", type=eval_fraction, default=1 / 32)
    ap.add_argument("--t-end", type=float, default=0.2)
    ap.add_argument("--cfl", type=float, default=0.5)
    ap.add_argument("--limiter", default="mcl.cs", choices=SCHEME_KEYS)
    ap.add_argument("--system-limiter", default="sequential",
                    choices=SYSTEM_MODES)
    ap.add_argument("--out", default="out_dmr")
    args = ap.parse_args(argv)

    cfg = RunConfig(benchmark="dmr", h=args.h, t_end=args.t_end,
                    cfl=args.cfl, limiter=args.limiter,
                    system_limiter=args.system_limiter,
                    audit_every=10, output_every_t=args.t_end / 10,
                    out=args.out)
    result = run(cfg, quiet=False)
    rho = result.u[:, 0]
    p = result.model.pressure(result.u)
    print(f"finished at t = {result.t:.4f} after {result.steps} steps "
          f"({result.wall_time:.0f} s)")
    print(f"rho in [{rho.min():.4f}, {rho.max():.4f}], "
          f"p in [{p.min():.4f}, {p.max():.4f}]")
    print(f"artifacts in {args.out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
