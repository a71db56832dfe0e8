"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import time

import numpy as np
import pytest

import idpfem.schemes as schemes_mod
from idpfem.config import RunConfig
from idpfem.diagnostics import audit_step, csv_header, error_norms
from idpfem.limiting import LimitResult, _node_factors, clip_and_scale, \
    scaling_limiter
from idpfem.mesh import Mesh, build_system, structured_rect
from idpfem.models import Burgers2D, Euler, make_model
from idpfem.runner import integrate, run, setup
from idpfem.schemes import SpatialScheme
from idpfem.timestepping import TimeControls, ssp_rk_step

from conftest import p1_mass_matrix
from reference import residual_split


def verdict(num, ok, text):
    print(f"\ncriterion {num:2d} {'PASS' if ok else 'FAIL'}: {text}",
          flush=True)
    assert ok, f"criterion {num} failed: {text}"


def _disjoint_triangle_system(rng, n):
    """n independent random triangles assembled into one mesh."""
    p = rng.uniform(-1.0, 1.0, (n, 3, 2))
    a = p[:, 1] - p[:, 0]
    b = p[:, 2] - p[:, 0]
    area = 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
    flip = area < 0
    p[flip] = p[flip][:, [0, 2, 1]]
    bad = np.abs(area) < 1e-3
    while bad.any():
        p[bad] = rng.uniform(-1.0, 1.0, (int(bad.sum()), 3, 2))
        a = p[:, 1] - p[:, 0]
        b = p[:, 2] - p[:, 0]
        area = 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
        flip = area < 0
        p[flip] = p[flip][:, [0, 2, 1]]
        bad = np.abs(area) < 1e-3
    nodes = p.reshape(-1, 2)
    tris = np.arange(3 * n).reshape(-1, 3)
    return build_system(Mesh(nodes=nodes, triangles=tris))


def test_criterion_01_element_geometry_oracle(rng):
    t0 = time.perf_counter()
    ms = _disjoint_triangle_system(rng, 100)
    g = ms.geometry
    ok = True
    for e in range(100):
        p = ms.mesh.nodes[ms.mesh.triangles[e]]
        A = np.column_stack([np.ones(3), p])
        grads = np.linalg.solve(A, np.eye(3))[1:].T        # analytic oracle
        c_ref = -3.0 * g.m_elem[e] * grads
        ok &= np.allclose(g.c[e], c_ref, rtol=1e-13, atol=1e-13 * np.abs(c_ref).max())
        scale = np.abs(g.c[e]).max()
        ok &= np.abs(g.c[e].sum(axis=0)).max() <= 1e-14 * scale
        mp = p1_mass_matrix(p)                             # quadrature oracle
        ok &= np.allclose(np.diag(mp), 2.0 * g.m_off[e], rtol=1e-14)
        ok &= np.allclose(mp[~np.eye(3, dtype=bool)], g.m_off[e], rtol=1e-14)
        ok &= np.allclose(mp.sum(axis=1), g.m_elem[e], rtol=1e-14)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    verdict(1, ok, f"geometry matches barycentric-gradient oracle on 100 "
                   f"random triangles ({elapsed:.2f} s)")


def test_criterion_02_zero_sum_and_fluctuation(rng):
    t0 = time.perf_counter()
    n = 10 ** 4
    ms = _disjoint_triangle_system(rng, n)
    cases = {
        "advection": (make_model("advection", velocity="translation",
                                 vx=1.0, vy=0.5),
                      rng.uniform(-1.0, 1.0, (ms.n_dofs, 1))),
        "burgers": (Burgers2D(), rng.uniform(-1.0, 1.0, (ms.n_dofs, 1))),
        "euler": (Euler(), Euler().conserved(
            rng.uniform(0.5, 2.0, ms.n_dofs),
            rng.uniform(-1.0, 1.0, (ms.n_dofs, 2)),
            rng.uniform(0.5, 2.0, ms.n_dofs))),
    }
    ok = True
    for name, (model, u) in cases.items():
        split = residual_split(ms, model, u)
        f_anti, fluctuation = split.work.f_anti, split.fluctuation
        scale = (np.abs(f_anti).max(axis=(1, 2))
                 + np.abs(fluctuation).max(axis=1) + 1.0)[:, None]
        ok &= bool(np.all(np.abs(f_anti.sum(axis=1)) <= 1e-12 * scale))
        ok &= bool(np.all(np.abs(split.r_low.sum(axis=1) - fluctuation)
                          <= 1e-12 * scale))
        ok &= bool(np.all(np.abs(split.r_high.sum(axis=1) - fluctuation)
                          <= 1e-12 * scale))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    verdict(2, ok, f"element zero-sum and fluctuation identities on 10^4 "
                   f"random elements per model ({elapsed:.2f} s)")


def test_criterion_03_limiter_unit_suite(rng):
    ok = True
    # worked examples
    f = np.array([[3.0, -1.0, -2.0]])
    fmax = np.array([[1.0, 2.0, 2.0]])
    fmin = np.array([[-2.0, -2.0, -1.0]])
    fs, alpha = scaling_limiter(f, fmin, fmax)
    ok &= np.allclose(_node_factors(f, fmin, fmax), [[1 / 3, 1.0, 0.5]],
                      atol=1e-14)
    ok &= abs(alpha[0] - 1 / 3) < 1e-14
    ok &= np.allclose(fs, [[1.0, -1 / 3, -2 / 3]], atol=1e-14)
    ok &= np.allclose(clip_and_scale(f, fmin, fmax), [[1.0, -0.5, -0.5]],
                      atol=1e-14)
    f2 = np.array([[2.0, -1.0, 0.0]])
    ok &= np.allclose(
        clip_and_scale(f2, np.full((1, 3), -10.0),
                       np.array([[2.0, 10.0, 10.0]])),
        [[1.0, -1.0, 0.0]], atol=1e-14)
    # random constraint sets
    n = 10 ** 5
    fr = rng.normal(size=(n, 3))
    fr -= fr.mean(axis=1, keepdims=True)
    lo = -np.abs(rng.normal(size=(n, 3)))
    hi = np.abs(rng.normal(size=(n, 3)))
    scale = np.abs(fr).max(axis=1, keepdims=True) + 1e-30
    for out in (scaling_limiter(fr, lo, hi)[0], clip_and_scale(fr, lo, hi)):
        ok &= bool(np.all(out >= lo - 1e-12 * scale))
        ok &= bool(np.all(out <= hi + 1e-12 * scale))
        ok &= bool(np.all(np.abs(out.sum(axis=1, keepdims=True))
                          <= 1e-12 * scale))
    # continuity probe
    delta = rng.normal(size=fr.shape) * 1e-8 * scale
    diff = np.abs(clip_and_scale(fr + delta, lo, hi)
                  - clip_and_scale(fr, lo, hi)).max(axis=1)
    K = (diff / (np.abs(delta).max(axis=1) + 1e-300)).max()
    ok &= K <= 10.0
    verdict(3, ok, f"limiter worked examples, 10^5 random constraint sets, "
                   f"continuity K = {K:.2f}")


SCALAR_SCHEMES = ("low", "fct.scale", "fct.cs", "mcl.scale", "mcl.cs")


def _scalar_idp_trace(limiter, steps=200):
    """200 SSP2 steps of advected random data; returns (worst defect, csv)."""
    ms = build_system(structured_rect(32, 32, periodic=True))
    model = make_model("advection", velocity="translation", vx=1.0, vy=0.5)
    rng = np.random.default_rng(2024)
    u = rng.uniform(0.0, 1.0, (ms.n_dofs, 1))
    model.set_global_bounds(u)
    scheme = SpatialScheme(ms=ms, model=model, limiter=limiter)
    stage = scheme.stage_map()
    worst = [0.0]

    def on_stage(v):
        worst[0] = max(worst[0], float(-v.min()), float(v.max() - 1.0))

    rows = [csv_header(1)]
    t = 0.0
    for _ in range(steps):
        dt = 0.9 * scheme.dt_bound(u, t)
        u = ssp_rk_step("ssp2", stage, u, t, dt, on_stage=on_stage)
        t += dt
        worst[0] = max(worst[0], float(-u.min()), float(u.max() - 1.0))
        rep = audit_step(ms, model, u, t, dt,
                         alpha=None if scheme.record is None
                         else scheme.record.alpha,
                         check_admissibility=False)
        rows.append(rep.csv_row())
    return worst[0], "\n".join(rows) + "\n"


def test_criterion_04_scalar_idp():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for limiter in SCALAR_SCHEMES:
        defect, _ = _scalar_idp_trace(limiter)
        ok &= defect <= 1e-12
        detail.append(f"{limiter}:{defect:.1e}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    verdict(4, ok, "per-stage [0,1] preservation over 200 steps at CFL 0.9 "
                   f"({', '.join(detail)}; {elapsed:.1f} s)")


def test_criterion_05_conservation():
    ms = build_system(structured_rect(16, 16, periodic=True))
    x = ms.dof_coords
    smooth = (0.5 + 0.4 * np.sin(2 * np.pi * x[:, 0])
              * np.sin(2 * np.pi * x[:, 1]))[:, None]
    euler0 = Euler().conserved(
        1.0 + 0.2 * np.sin(2 * np.pi * x[:, 0]) * np.cos(2 * np.pi * x[:, 1]),
        np.broadcast_to([0.3, -0.2], (ms.n_dofs, 2)),
        np.full(ms.n_dofs, 1.0))
    ok = True
    worst = 0.0
    for name in ("advection", "burgers", "euler"):
        for limiter in ("none",) + SCALAR_SCHEMES:
            if name == "advection":
                model = make_model("advection", velocity="translation",
                                   vx=1.0, vy=0.5)
                u = smooth.copy()
            elif name == "burgers":
                model = Burgers2D()
                u = smooth.copy()
            else:
                model = Euler()
                u = euler0.copy()
            model.set_global_bounds(u)
            scheme = SpatialScheme(ms=ms, model=model, limiter=limiter)
            stage = scheme.stage_map()
            total0 = (ms.lumped_mass[:, None] * u).sum(axis=0)
            t = 0.0
            for _ in range(200):
                dt = 0.5 * scheme.dt_bound(u, t)
                u = ssp_rk_step("ssp2", stage, u, t, dt)
                t += dt
            total = (ms.lumped_mass[:, None] * u).sum(axis=0)
            drift = float((np.abs(total - total0) / np.abs(total0)).max())
            worst = max(worst, drift)
            ok &= drift <= 1e-12
    verdict(5, ok, f"conservation drift over 200 steps, all schemes and "
                   f"models, worst {worst:.2e}")


def test_criterion_06_scheme_recovery(monkeypatch):
    ms = build_system(structured_rect(16, 16, periodic=True))
    model = make_model("advection", velocity="translation", vx=1.0, vy=0.5)
    rng = np.random.default_rng(5)
    u0 = rng.uniform(0.0, 1.0, (ms.n_dofs, 1))
    model.set_global_bounds(u0)

    def trajectory(scheme, steps=20):
        stage = scheme.stage_map()
        u = u0.copy()
        t = 0.0
        for _ in range(steps):
            dt = 0.5 * scheme.dt_bound(u, t)
            u = ssp_rk_step("ssp2", stage, u, t, dt)
            t += dt
        return u

    # MCL with infinite bounds reduces to the stabilized Galerkin operator
    ref_galerkin = trajectory(SpatialScheme(ms=ms, model=model,
                                            limiter="none"))
    with monkeypatch.context() as mp:
        mp.setattr(schemes_mod, "local_bounds",
                   lambda ms_, f, ev, bw, ws: (
                       np.full(f.shape, -np.inf), np.full(f.shape, np.inf)))
        got_mcl = trajectory(SpatialScheme(ms=ms, model=model,
                                           limiter="mcl.cs"))
    err_mcl = np.abs(got_mcl - ref_galerkin).max()

    # FCT with zero correction reduces to the low-order scheme
    ref_low = trajectory(SpatialScheme(ms=ms, model=model, limiter="low"))
    with monkeypatch.context() as mp:
        mp.setattr(schemes_mod, "limit_scalar_contributions",
                   lambda ms_, f, base, gamma, lo, hi, cfg, ws=None: LimitResult(
                       f_star=np.zeros_like(f), alpha=None))
        got_fct = trajectory(SpatialScheme(ms=ms, model=model,
                                           limiter="fct.cs"))
    err_fct = np.abs(got_fct - ref_low).max()

    ok = err_mcl <= 1e-12 and err_fct <= 1e-12
    verdict(6, ok, f"recovery limits: |MCL - Galerkin| = {err_mcl:.1e}, "
                   f"|FCT - low| = {err_fct:.1e}")


def _gaussian_l1(limiter, h, t_end):
    cfg = RunConfig(benchmark="advected_gaussian", h=h, limiter=limiter,
                    vx=1.0, vy=1.0, cfl=0.5, t_end=t_end)
    bench, ms, model, scheme, u = setup(cfg)
    controls = TimeControls(cfl=cfg.cfl, t_end=t_end, scheme=cfg.rk)
    u, t, _ = integrate(scheme, u, controls)
    return error_norms(ms, u, bench.exact, t)["l1"][0]


def test_criterion_07_accuracy_ordering():
    t0 = time.perf_counter()
    l1 = {lim: _gaussian_l1(lim, 1 / 32, 1.0)
          for lim in ("low", "mcl.cs", "fct.cs")}
    elapsed = time.perf_counter() - t0
    ok = (l1["mcl.cs"] < 0.5 * l1["low"]
          and l1["fct.cs"] < 0.5 * l1["low"]
          and elapsed < 60.0)
    verdict(7, ok, "one-period Gaussian L1: low {low:.2e}, mcl.cs "
                   "{mcl:.2e}, fct.cs {fct:.2e} ({t:.1f} s)".format(
                       low=l1["low"], mcl=l1["mcl.cs"], fct=l1["fct.cs"],
                       t=elapsed))


def test_criterion_08_convergence_rates():
    hs = (1 / 16, 1 / 32, 1 / 64)
    rates = {}
    for lim in ("none", "low"):
        errs = [_gaussian_l1(lim, h, 0.25) for h in hs]
        rates[lim] = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    galerkin_ok = min(rates["none"]) >= 1.8
    low_ok = all(0.6 <= r <= 1.2 for r in rates["low"])
    ok = galerkin_ok and low_ok
    verdict(8, ok, "EOC Galerkin {g}, low-order {l}".format(
        g=[f"{r:.2f}" for r in rates["none"]],
        l=[f"{r:.2f}" for r in rates["low"]]))


def test_criterion_09_double_mach_reflection(tmp_path):
    t0 = time.perf_counter()
    cfg = RunConfig(benchmark="dmr", h=1 / 32, limiter="mcl.cs",
                    system_limiter="sequential", cfl=0.5, t_end=0.2,
                    audit_every=50, out=str(tmp_path / "dmr"))
    result = run(cfg)
    elapsed = time.perf_counter() - t0
    model = result.model
    rho = result.u[:, 0]
    p = model.pressure(result.u)
    ok = (np.all(np.isfinite(result.u)) and rho.min() > 0.0 and p.min() > 0.0
          and elapsed < 600.0)
    verdict(9, ok, f"double Mach reflection to t = 0.2: rho_min = "
                   f"{rho.min():.3f}, p_min = {p.min():.3f}, "
                   f"{result.steps} steps in {elapsed:.0f} s")


def test_criterion_10_determinism():
    a = {lim: _scalar_idp_trace(lim)[1] for lim in SCALAR_SCHEMES}
    b = {lim: _scalar_idp_trace(lim)[1] for lim in SCALAR_SCHEMES}
    ok = all(a[lim].encode() == b[lim].encode() for lim in SCALAR_SCHEMES)
    verdict(10, ok, "two identical runs produce byte-identical diagnostics "
                    "CSV for every scheme")
