"""Command line interface: solve, mesh-gen, check, norms."""

from __future__ import annotations

import argparse
import pathlib
import sys
import tempfile

import numpy as np

from .config import ConfigError, RunConfig, parse_config
from .diagnostics import AuditError, error_norms, product_rule_defects
from .mesh import MeshError, structured_rect, write_mesh
from .models import AdmissibilityError
from .schemes import SCHEME_KEYS, CFLError
from .timestepping import TimeSteppingError

# Errors that end a command with "error: ..." and exit 1.
SOLVER_ERRORS = (ConfigError, MeshError, AuditError, AdmissibilityError,
                 CFLError, TimeSteppingError)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="idpfem",
        description="Invariant-domain-preserving P1 finite-element solver "
                    "for 2D hyperbolic conservation laws.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a configured simulation")
    p_solve.add_argument("config", help="path to a key = value config file")
    p_solve.add_argument("--out", default=None, help="output directory override")
    p_solve.add_argument("--audit-every", type=int, default=None,
                         help="audit cadence override (0 disables)")
    p_solve.add_argument("--quiet", action="store_true")

    p_mesh = sub.add_parser("mesh-gen", help="generate a structured mesh file")
    p_mesh.add_argument("--nx", type=int, required=True)
    p_mesh.add_argument("--ny", type=int, required=True)
    p_mesh.add_argument("--x0", type=float, default=0.0)
    p_mesh.add_argument("--x1", type=float, default=1.0)
    p_mesh.add_argument("--y0", type=float, default=0.0)
    p_mesh.add_argument("--y1", type=float, default=1.0)
    p_mesh.add_argument("--periodic", action="store_true")
    p_mesh.add_argument("--out", required=True, help="output mesh file")

    p_check = sub.add_parser("check", help="run every scheme for a few audited "
                             "steps on a coarse mesh of each benchmark")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--trials", type=int, default=len(CHECK_CASES))

    p_norms = sub.add_parser("norms",
                             help="recompute error norms from a VTK snapshot")
    p_norms.add_argument("config", help="config file that produced the snapshot")
    p_norms.add_argument("snapshot", help="VTK file written by solve")
    p_norms.add_argument("--t", type=float, required=True,
                         help="time the snapshot corresponds to")

    args = parser.parse_args(argv)
    if args.command == "check" and args.trials < 1:
        parser.error("--trials must be at least 1")
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "mesh-gen":
            return _cmd_mesh_gen(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "norms":
            return _cmd_norms(args)
    # as does an OSError: a file that cannot be read or written
    except (*SOLVER_ERRORS, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


def _cmd_solve(args) -> int:
    from .runner import run

    cfg = parse_config(pathlib.Path(args.config).read_text())
    if args.audit_every is not None:
        cfg.audit_every = args.audit_every
    result = run(cfg, out_dir=args.out, quiet=args.quiet)
    if not args.quiet:
        print(f"{result.bench.id}: {result.steps} steps to t = {result.t:g} "
              f"in {result.wall_time:.2f} s")
        if result.norms is not None:
            for key in ("l1", "l2", "linf"):
                vals = " ".join(f"{v:.6e}" for v in result.norms[key])
                print(f"  {key} = {vals}")
    return 0


def _cmd_mesh_gen(args) -> int:
    mesh = structured_rect(args.nx, args.ny, args.x0, args.x1, args.y0,
                           args.y1, periodic=args.periodic)
    pathlib.Path(args.out).write_text(write_mesh(mesh))
    print(f"wrote {args.out}: {mesh.n_nodes} nodes, {mesh.n_elements} triangles")
    return 0


def _cmd_norms(args) -> int:
    from .runner import setup
    from .vtk_io import read_vtk_point_data

    cfg = parse_config(pathlib.Path(args.config).read_text())
    bench, ms, model, _, _ = setup(cfg)
    if bench.exact is None:
        print(f"error: benchmark {bench.id!r} has no exact solution",
              file=sys.stderr)
        return 1
    try:
        points, fields = read_vtk_point_data(args.snapshot)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if points.shape[0] != ms.mesh.n_nodes or \
            not np.allclose(points, ms.mesh.nodes):
        print("error: snapshot nodes do not match the configured mesh",
              file=sys.stderr)
        return 1
    from .vtk_io import SCALAR_NAMES
    names = SCALAR_NAMES.get(model.m, [f"u{k}" for k in range(model.m)])
    missing = [n for n in names if n not in fields]
    if missing:
        print(f"error: snapshot has no field {missing[0]!r}", file=sys.stderr)
        return 1
    nodal = np.column_stack([fields[n] for n in names])
    u = np.zeros((ms.n_dofs, model.m))
    u[ms.dof_of_node] = nodal
    norms = error_norms(ms, u, bench.exact, args.t)
    for key in ("l1", "l2", "linf"):
        print(f"{key} = " + " ".join(f"{v:.6e}" for v in norms[key]))
    return 0


# The runs of `check`, as RunConfig keywords: every scheme for a few steps on
# a coarse mesh of each benchmark. The synchronized system mode reads no
# scalar limiter kind, so its `.cs` keys would repeat the `.scale` runs.
_IDP_KEYS = [key for key in SCHEME_KEYS if key != "none"]
CHECK_CASES = (
    [dict(benchmark="advected_gaussian", h=1 / 8, t_end=0.05, limiter=key)
     for key in SCHEME_KEYS]
    + [dict(benchmark="solid_body_rotation", body="slotted", h=1 / 8,
            t_end=0.05, limiter=key) for key in _IDP_KEYS]
    + [dict(benchmark="burgers_riemann", h=1 / 8, t_end=0.05, limiter=key)
       for key in _IDP_KEYS]
    + [dict(benchmark="dmr", h=1 / 4, t_end=0.01, limiter="low")]
    + [dict(benchmark="dmr", h=1 / 4, t_end=0.01, limiter=key,
            system_limiter=system)
       for key in _IDP_KEYS if key != "low"
       for system in ("sequential", "synchronized")
       if system == "sequential" or key.endswith(".scale")]
)


def _cmd_check(args) -> int:
    """Trial k runs case k mod the number of cases, audited at every step;
    the advected Gaussian moves in a direction drawn from ``args.seed``.
    Every product-rule call the runs make is checked as well: both of its
    ``diagnostics.product_rule_defects`` must stay below 1e-12."""
    from . import limiting
    from .runner import run

    failures = []

    def report(name, error=None):
        print(f"PASS  {name}" if error is None else f"FAIL  {name}: {error}")
        if error is not None:
            failures.append(name)

    product_rule, defects = limiting.product_rule_cs, []

    def checked(*args, **kwargs):
        # the product rule limits f_k in place; the defects are relative to
        # the unlimited f_k
        args = args[:3] + (args[3].copy(),) + args[4:]
        result = product_rule(*args, **kwargs)
        defects.append(product_rule_defects(args, result))
        return result

    rng = np.random.default_rng(args.seed)
    # limit_system_contributions finds product_rule_cs in its module, so
    # the runs call the checked one until it is put back
    limiting.product_rule_cs = checked
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for trial in range(args.trials):
                case = CHECK_CASES[trial % len(CHECK_CASES)]
                name = " ".join(str(v) for key, v in case.items()
                                if key not in ("h", "t_end"))
                cfg = RunConfig(**case, audit_every=1)
                if cfg.benchmark == "advected_gaussian":
                    angle = rng.uniform(0.0, 2.0 * np.pi)
                    cfg.vx, cfg.vy = np.cos(angle), np.sin(angle)
                try:
                    run(cfg, out_dir=pathlib.Path(tmp) / str(trial))
                except Exception as exc:      # report it, run the next case
                    report(name, f"{type(exc).__name__}: {exc}")
                else:
                    report(name)
    finally:
        limiting.product_rule_cs = product_rule
    for k, what in enumerate(("keeps the element zero sum",
                              "respects its bounds")):
        if defects:
            worst = np.max([d[k] for d in defects])    # NaN fails
            report(f"product rule {what}",
                   None if worst < 1e-12 else f"relative defect {worst:.2e}")
    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
