"""Command line interface: solve, mesh-gen, check, norms."""

from __future__ import annotations

import argparse
import pathlib
import sys
import tempfile

import numpy as np

from .config import ConfigError, RunConfig, parse_config
from .diagnostics import AuditError, error_norms, stage_defects
from .mesh import MeshError, structured_rect, write_mesh
from .models import AdmissibilityError
from .schemes import SCHEME_KEYS, CFLError
from .timestepping import TimeSteppingError
from .vtk_io import SCALAR_NAMES, VtkError, read_vtk_point_data

# Errors that end a command with "error: ..." and exit 1.
SOLVER_ERRORS = (ConfigError, MeshError, AuditError, AdmissibilityError,
                 CFLError, TimeSteppingError, VtkError)


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
    p_solve.set_defaults(handler=_cmd_solve)

    p_mesh = sub.add_parser("mesh-gen", help="generate a structured mesh file")
    p_mesh.add_argument("--nx", type=int, required=True)
    p_mesh.add_argument("--ny", type=int, required=True)
    p_mesh.add_argument("--x0", type=float, default=0.0)
    p_mesh.add_argument("--x1", type=float, default=1.0)
    p_mesh.add_argument("--y0", type=float, default=0.0)
    p_mesh.add_argument("--y1", type=float, default=1.0)
    p_mesh.add_argument("--periodic", action="store_true")
    p_mesh.add_argument("--out", required=True, help="output mesh file")
    p_mesh.set_defaults(handler=_cmd_mesh_gen)

    p_check = sub.add_parser("check", help="run every scheme for a few audited "
                             "steps on a coarse mesh of each benchmark")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--trials", type=int, default=len(CHECK_CASES))
    p_check.set_defaults(handler=_cmd_check)

    p_norms = sub.add_parser("norms",
                             help="recompute error norms from a VTK snapshot")
    p_norms.add_argument("config", help="config file that produced the snapshot")
    p_norms.add_argument("snapshot", help="VTK file written by solve")
    p_norms.add_argument("--t", type=float, required=True,
                         help="time the snapshot corresponds to")
    p_norms.set_defaults(handler=_cmd_norms)

    args = parser.parse_args(argv)
    if args.command == "check" and args.trials < 1:
        parser.error("--trials must be at least 1")
    try:
        return args.handler(args)
    # as does an OSError: a file that cannot be read or written
    except (*SOLVER_ERRORS, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_solve(args) -> int:
    from .runner import run

    cfg = parse_config(pathlib.Path(args.config).read_text())
    if args.audit_every is not None:
        if args.audit_every < 0:    # as parse_config rejects the key
            raise ConfigError("audit_every must be >= 0")
        cfg.audit_every = args.audit_every
    if args.out is not None:
        cfg.out = args.out
    result = run(cfg, quiet=args.quiet)
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

    cfg = parse_config(pathlib.Path(args.config).read_text())
    bench, ms, model, _, _ = setup(cfg)
    if bench.exact is None:
        raise ConfigError(f"benchmark {bench.id!r} has no exact solution")
    points, fields = read_vtk_point_data(args.snapshot)
    if points.shape[0] != ms.mesh.n_nodes or \
            not np.allclose(points, ms.mesh.nodes):
        raise VtkError("snapshot nodes do not match the configured mesh")
    names = SCALAR_NAMES[model.m]
    missing = [n for n in names if n not in fields]
    if missing:
        raise VtkError(f"snapshot has no field {missing[0]!r}")
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
    Every limited stage the runs make is checked as well: both of its
    ``diagnostics.stage_defects`` must stay below 1e-12."""
    from .runner import run

    failures, defects = [], []

    def report(name, error=None):
        print(f"PASS  {name}" if error is None else f"FAIL  {name}: {error}")
        if error is not None:
            failures.append(name)

    rng = np.random.default_rng(args.seed)
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
                run(cfg, out_dir=pathlib.Path(tmp) / str(trial),
                    on_stage=lambda rec: defects.append(stage_defects(rec)))
            except Exception as exc:          # report it, run the next case
                report(name, f"{type(exc).__name__}: {exc}")
            else:
                report(name)
    worst = np.max(defects, axis=0) if defects else ()    # NaN fails
    for what, w in zip(("keep the element zero sum", "respect their bounds"),
                       worst):
        report(f"limited stages {what}",
               None if w < 1e-12 else f"relative defect {w:.2e}")
    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0
