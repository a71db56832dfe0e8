"""Command line interface: solve, mesh-gen, check, norms."""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np

from .config import ConfigError, parse_config
from .diagnostics import AuditError, error_norms, rd_weights
from .mesh import MeshError, build_system, structured_rect, write_mesh
from .models import TINY, Euler, make_model
from .schemes import CFLError
from .timestepping import TimeSteppingError


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

    p_check = sub.add_parser("check", help="run the invariant suite on random data")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--trials", type=int, default=200)

    p_norms = sub.add_parser("norms",
                             help="recompute error norms from a VTK snapshot")
    p_norms.add_argument("config", help="config file that produced the snapshot")
    p_norms.add_argument("snapshot", help="VTK file written by solve")
    p_norms.add_argument("--t", type=float, required=True,
                         help="time the snapshot corresponds to")

    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "mesh-gen":
            return _cmd_mesh_gen(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "norms":
            return _cmd_norms(args)
    except (ConfigError, MeshError, AuditError, CFLError,
            TimeSteppingError) as exc:
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
    nodal = np.column_stack([fields[n] for n in names])
    u = np.zeros((ms.n_dofs, model.m))
    u[ms.dof_of_node] = nodal
    norms = error_norms(ms, u, bench.exact, args.t)
    for key in ("l1", "l2", "linf"):
        print(f"{key} = " + " ".join(f"{v:.6e}" for v in norms[key]))
    return 0


# ---------------------------------------------------------------------------
# Randomized invariant suite (the `check` subcommand)
# ---------------------------------------------------------------------------

def _random_states(rng, model, shape):
    if model.m == 1:
        return rng.uniform(-1.0, 1.0, shape + (1,))
    rho = rng.uniform(0.5, 2.0, shape)
    v = rng.uniform(-1.0, 1.0, shape + (2,))
    p = rng.uniform(0.5, 2.0, shape)
    return model.conserved(rho, v, p)


def _check_assembly_identities(rng, trials, report):
    from .diagnostics import residual_split

    n = 8
    ms = build_system(structured_rect(n, n, periodic=True))
    models = [make_model("advection", velocity="translation", vx=1.0, vy=0.5),
              make_model("burgers"), Euler()]
    for model in models:
        worst_sum = worst_split = worst_fluct = 0.0
        bars_ok = True
        for _ in range(max(1, trials // 10)):
            u = _random_states(rng, model, (ms.n_dofs,))
            split = residual_split(ms, model, u)
            work = split.work
            scale = max(np.abs(work.f_anti).max(), np.abs(split.r_high).max(), 1.0)
            worst_sum = max(worst_sum,
                            np.abs(work.f_anti.sum(axis=1)).max() / scale)
            worst_split = max(worst_split,
                              np.abs(split.r_high - split.r_low
                                     - work.f_anti).max() / scale)
            worst_fluct = max(
                worst_fluct,
                np.abs(split.r_high.sum(axis=1) - split.fluctuation).max() / scale)
            if model.m == 1:
                lo = np.minimum(work.u_loc[..., 0].min(axis=1), work.ubar[..., 0])
                hi = np.maximum(work.u_loc[..., 0].max(axis=1), work.ubar[..., 0])
                bars_ok = bars_ok and bool(
                    np.all(work.bar_states[..., 0] >= lo[:, None] - 1e-12)
                    and np.all(work.bar_states[..., 0] <= hi[:, None] + 1e-12))
        if model.m == 1:
            report(f"bar states of {model.kind} stay in the local hull", bars_ok)
        report(f"antidiffusion of {model.kind} sums to zero per element",
               worst_sum < 1e-12)
        report(f"residual split of {model.kind} is exact", worst_split < 1e-12)
        report(f"residual sums of {model.kind} match the fluctuation",
               worst_fluct < 1e-12)


def _check_limiters(rng, trials, report):
    from .limiting import clip_and_scale, scaling_limiter

    f = rng.normal(size=(trials, 3))
    f -= f.mean(axis=1, keepdims=True)
    fmin = -np.abs(rng.normal(size=(trials, 3)))
    fmax = np.abs(rng.normal(size=(trials, 3)))
    for name, fn in (("scaling limiter", lambda: scaling_limiter(f, fmin, fmax)[0]),
                     ("clip-and-scale limiter", lambda: clip_and_scale(f, fmin, fmax))):
        out = fn()
        in_bounds = np.all(out >= fmin - 1e-12) and np.all(out <= fmax + 1e-12)
        zero_sum = np.abs(out.sum(axis=1)).max() < 1e-12 * max(np.abs(f).max(), 1.0)
        report(f"{name} respects bounds", in_bounds)
        report(f"{name} keeps the element zero sum", zero_sum)


def _check_product_rule(rng, trials, report):
    """The product rule on random Euler element data: zero element sums, and
    candidate states within [rho_bar_star phi_lo, rho_bar_star phi_hi]."""
    from .assembly import assemble
    from .limiting import (LimiterConfig, limit_scalar_contributions,
                           local_bounds, product_rule_cs)

    ms = build_system(structured_rect(8, 8, periodic=True))
    model = Euler()
    worst_sum = worst_bound = 0.0
    for trial in range(max(1, trials // 10)):
        cfg = LimiterConfig(kind=("cs", "scale")[trial % 2])
        u = _random_states(rng, model, (ms.n_dofs,))
        work, _ = assemble(ms, model, u)
        f, base = work.f_anti, work.bar_states
        gamma = 2.0 * np.maximum(work.d, TINY)[:, None] * np.ones(3)
        lo, hi = local_bounds(ms, u, base, "barstate")
        f_rho = limit_scalar_contributions(ms, f[..., 0], base[..., 0], gamma,
                                           lo[:, 0], hi[:, 0], cfg).f_star
        rho = base[..., 0] + f_rho / gamma
        f_k, phi_lo, phi_hi = product_rule_cs(
            ms, f_rho, rho, f[..., 1:], base[..., 0], base[..., 1:], gamma,
            lo[:, 1:], hi[:, 1:], cfg)
        worst_sum = max(worst_sum, np.abs(f_k.sum(axis=1)).max()
                        / max(np.abs(f).max(), 1.0))
        state = base[..., 1:] + f_k / gamma[..., None]
        rho = rho[..., None]
        excess = np.maximum(rho * ms.gather(phi_lo) - state,
                            state - rho * ms.gather(phi_hi))
        worst_bound = max(worst_bound,
                          excess.max() / np.abs(base[..., 1:]).max())
    report("product rule keeps the element zero sum", worst_sum < 1e-12)
    report("product rule respects its bounds", worst_bound < 1e-12)


def _check_idp_fix(rng, trials, report):
    from .limiting import idp_fix

    model = Euler()
    base = _random_states(rng, model, (trials, 3))
    f = rng.normal(scale=2.0, size=(trials, 3, 4))
    f -= f.mean(axis=1, keepdims=True)
    gamma = np.ones((trials, 3))
    alpha = idp_fix(model, base, f, gamma)
    cand = base + alpha[:, None, None] * f / gamma[..., None]
    report("bisection keeps corrected states admissible",
           bool(np.all(model.phi_values(cand) >= 0.0)))
    report("bisection factors lie in [0, 1]",
           bool(np.all((alpha >= 0.0) & (alpha <= 1.0))))


def _check_rd_weights(rng, trials, report):
    r = rng.normal(size=(trials, 3, 2))
    w = rd_weights(r)
    recon = w.beta_plus * w.r_plus[:, None, :] \
        + w.beta_minus * w.r_minus[:, None, :]
    report("signed-weight decomposition reconstructs residuals",
           np.abs(recon - r).max() < 1e-12 * max(np.abs(r).max(), 1.0))


def _cmd_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    failures = []

    def report(name, ok):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    _check_assembly_identities(rng, args.trials, report)
    _check_limiters(rng, args.trials, report)
    _check_product_rule(rng, args.trials, report)
    _check_idp_fix(rng, args.trials, report)
    _check_rd_weights(rng, args.trials, report)

    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
