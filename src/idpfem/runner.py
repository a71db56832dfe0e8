"""End-to-end run loop: configuration -> benchmark -> time loop -> artifacts."""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .benchmarks import Benchmark, make_benchmark
from .config import RunConfig
from .diagnostics import (AuditError, audit_step, csv_header, error_norms,
                          lumped_totals)
from .mesh import MeshSystem, build_system, read_mesh
from .schemes import SpatialScheme
from .timestepping import TimeControls, compute_dt, ssp_rk_step


@dataclass
class RunResult:
    u: np.ndarray
    t: float
    steps: int
    wall_time: float
    ms: MeshSystem
    model: object
    bench: Benchmark
    norms: Optional[dict]


def setup(cfg: RunConfig):
    """Build benchmark, mesh system and the configured spatial scheme."""
    mesh = None
    if cfg.mesh is not None:
        mesh = read_mesh(pathlib.Path(cfg.mesh).read_text())
    bench = make_benchmark(cfg, mesh)
    ms = build_system(bench.mesh)
    model = bench.model
    u0 = np.asarray(bench.u0(ms.dof_coords), dtype=float)
    model.set_global_bounds(u0)
    scheme = SpatialScheme(ms=ms, model=model, limiter=cfg.limiter,
                           system=cfg.system_limiter, bc=bench.bc)
    return bench, ms, model, scheme, u0


def integrate(scheme: SpatialScheme, u: np.ndarray, controls: TimeControls,
              t: float = 0.0, on_step: Optional[Callable] = None,
              on_stage: Optional[Callable] = None):
    """Advance ``u`` from ``t`` to ``controls.t_end`` with adaptive SSP steps.

    Every step takes ``controls.cfl`` times the IDP bound of ``scheme``,
    capped by ``controls.dt_max`` and by the time left. ``on_step(u, t, dt,
    step)`` is called after each step and, if the scheme limits,
    ``on_stage(scheme.record)`` after each stage. Returns ``(u, t, steps)``.
    The state is stored with the DOF index fastest from the first step on,
    like every per-DOF result it is combined with.
    """
    t_end = controls.t_end
    stage = scheme.stage_map()
    limits = on_stage is not None and scheme.driver in ("fct", "mcl")
    hook = (lambda _: on_stage(scheme.record)) if limits else None
    u = np.asfortranarray(u)
    steps = 0
    while t < t_end - 1e-14 * max(t_end, 1.0):
        dt = compute_dt(scheme.dt_bound(u, t), controls.cfl, t, t_end,
                        controls.dt_max)
        u = ssp_rk_step(controls.scheme, stage, u, t, dt, on_stage=hook)
        t += dt
        steps += 1
        if on_step is not None:
            on_step(u, t, dt, steps)
    return u, t, steps


def run(cfg: RunConfig, out_dir=None, quiet: bool = True,
        on_stage: Optional[Callable] = None) -> RunResult:
    """Execute the configured run and write VTK, CSV and summary artifacts."""
    from .vtk_io import vtk_grid, write_vtk

    out = pathlib.Path(out_dir if out_dir is not None else cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(cfg.effective_text())

    bench, ms, model, scheme, u = setup(cfg)
    controls = TimeControls(cfl=cfg.cfl, t_end=bench.t_end, scheme=cfg.rk,
                            dt_max=cfg.dt_max)

    # Without boundary terms no flux leaves the domain, so the lumped
    # totals are conserved.
    totals0 = lumped_totals(ms, u)
    # The unlimited Galerkin scheme makes no invariant-domain claim, so its
    # bound violations are reported but not fatal.
    idp_claim = cfg.limiter != "none"

    csv_lines = [csv_header(model.m)]

    def audit(u, t, dt):
        csv_lines.append(audit_step(
            ms, model, u, t, dt,
            alpha=None if scheme.record is None else scheme.record.alpha,
            bound_tol=cfg.audit_bound_tol,
            conservation_ref=totals0 if bench.bc is None else None,
            conservation_tol=cfg.audit_cons_tol,
            check_admissibility=idp_claim).csv_row())

    # the state-free part of the snapshots, formed once per run
    snap, snap_t, grid = 0, None, vtk_grid(ms)

    def snapshot(u, t):
        nonlocal snap, snap_t
        write_vtk(out / f"state_{snap:06d}.vtk", ms, u, model, grid)
        snap, snap_t = snap + 1, t

    next_out = cfg.output_every_t if cfg.output_every_t else None

    def on_step(u, t, dt, step):
        nonlocal next_out
        if cfg.audit_every and step % cfg.audit_every == 0:
            audit(u, t, dt)       # checks admissibility with the same slack
        elif idp_claim and not np.all(
                ok := model.admissible(u, cfg.audit_bound_tol)):
            # the first inadmissible node, from the one pass made
            raise AuditError(f"inadmissible state after step {step} at "
                             f"node {int(np.argmin(ok))}, t = {t:g}")
        if next_out is not None and t >= next_out - 1e-14:
            snapshot(u, t)
            next_out += cfg.output_every_t
        if not quiet and step % 50 == 0:
            print(f"step {step:6d}  t = {t:.6f}  dt = {dt:.3e}")

    t0_wall = time.perf_counter()
    audit(u, 0.0, 0.0)
    snapshot(u, 0.0)
    u, t, step = integrate(scheme, u, controls, on_step=on_step,
                           on_stage=on_stage)
    wall = time.perf_counter() - t0_wall

    if snap_t != t:               # the final state, unless a cadence wrote it
        snapshot(u, t)
    (out / "diagnostics.csv").write_text("\n".join(csv_lines) + "\n")

    norms = None
    if bench.exact is not None:
        norms = error_norms(ms, u, bench.exact, t)

    summary = [
        f"benchmark = {bench.id}",
        f"limiter = {cfg.limiter}",
        f"steps = {step}",
        f"t_final = {t:.17g}",
        f"wall_time_s = {wall:.3f}",
    ]
    if norms is not None:
        for key in ("l1", "l2", "linf"):
            summary.append(f"{key} = " + " ".join(f"{v:.6e}" for v in norms[key]))
    (out / "summary.txt").write_text("\n".join(summary) + "\n")

    return RunResult(u=u, t=t, steps=step, wall_time=wall, ms=ms, model=model,
                     bench=bench, norms=norms)
