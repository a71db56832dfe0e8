import numpy as np
import pytest

import idpfem.schemes as schemes_mod
from idpfem.config import RunConfig
from idpfem.mesh import build_system, structured_rect, write_mesh
from idpfem.models import Euler, make_model
from idpfem.runner import integrate, setup
from idpfem.schemes import (SCHEME_KEYS, CFLError, SpatialScheme,
                            parse_limiter_key)
from idpfem.timestepping import TimeControls, ssp_rk_step

from conftest import single_triangle_system


def make_scheme(ms, model, limiter):
    return SpatialScheme(ms=ms, model=model, limiter=limiter)


class TestLimiterKey:
    def test_valid_keys(self):
        assert parse_limiter_key("low") == ("low", None)
        assert parse_limiter_key("none") == ("none", None)
        assert parse_limiter_key("fct.cs") == ("fct", "cs")
        assert parse_limiter_key("mcl.scale") == ("mcl", "scale")

    def test_invalid_key(self):
        with pytest.raises(ValueError, match="banana"):
            parse_limiter_key("banana")


class TestDtBound:
    def test_unit_triangle_worked_example(self, unit_triangle):
        model = make_model("advection", velocity="translation", vx=1.0, vy=0.0)
        scheme = make_scheme(unit_triangle, model, "low")
        u = np.array([[0.0], [1.0], [0.0]])
        # m_i = 1/6, d = 1/2 -> dt = (1/6) / (2 * 1/2)
        assert scheme.dt_bound(u) == pytest.approx(1.0 / 6.0)

    def test_zero_velocity_unbounded(self, periodic8):
        model = make_model("advection", velocity="translation", vx=0.0, vy=0.0)
        scheme = make_scheme(periodic8, model, "low")
        u = np.random.default_rng(0).uniform(size=(periodic8.n_dofs, 1))
        assert scheme.dt_bound(u) == np.inf

    def test_halving_h_roughly_halves_dt(self):
        model = make_model("advection", velocity="translation", vx=1.0, vy=0.3)

        def bound(n):
            ms = build_system(structured_rect(n, n, periodic=True))
            u = np.zeros((ms.n_dofs, 1))
            return make_scheme(ms, model, "low").dt_bound(u)

        ratio = bound(8) / bound(16)
        assert 1.7 < ratio < 2.3


def _scalar_setup(limiter, n=8, seed=7):
    ms = build_system(structured_rect(n, n, periodic=True))
    model = make_model("advection", velocity="translation", vx=1.0, vy=0.5)
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, (ms.n_dofs, 1))
    model.set_global_bounds(u)
    return ms, model, make_scheme(ms, model, limiter), u


class TestScalarIdpStep:
    @pytest.mark.parametrize("limiter",
                             ["low", "fct.scale", "fct.cs", "mcl.scale",
                              "mcl.cs"])
    def test_forward_euler_stays_in_global_interval(self, limiter):
        ms, model, scheme, u = _scalar_setup(limiter)
        stage = scheme.stage_map()
        t = 0.0
        for _ in range(20):
            dt = 0.9 * scheme.dt_bound(u, t)
            u = stage(u, t, dt)
            t += dt
            assert u.min() >= -1e-12
            assert u.max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("limiter",
                             ["low", "fct.cs", "mcl.cs"])
    def test_conservation_per_step(self, limiter):
        ms, model, scheme, u = _scalar_setup(limiter)
        stage = scheme.stage_map()
        total0 = (ms.lumped_mass[:, None] * u).sum()
        t = 0.0
        for _ in range(20):
            dt = 0.9 * scheme.dt_bound(u, t)
            u = stage(u, t, dt)
            t += dt
            total = (ms.lumped_mass[:, None] * u).sum()
            assert abs(total - total0) < 1e-12 * abs(total0)


class TestFct:
    def test_cfl_violation_raises_before_update(self):
        ms, model, scheme, u = _scalar_setup("fct.cs")
        dt = 2.0 * scheme.dt_bound(u, 0.0)
        with pytest.raises(CFLError):
            scheme.step(u, 0.0, dt)

    def test_constant_state_is_fixed_point(self, periodic8):
        model = make_model("advection", velocity="translation", vx=1.0, vy=0.5)
        u = np.full((periodic8.n_dofs, 1), 0.4)
        model.set_global_bounds(u)
        scheme = make_scheme(periodic8, model, "fct.cs")
        out = scheme.step(u, 0.0, 0.5 * scheme.dt_bound(u))
        assert np.allclose(out, 0.4, atol=1e-14)

    def test_zero_correction_recovers_low_order(self, monkeypatch):
        ms, model, scheme, u = _scalar_setup("fct.cs")
        low = make_scheme(ms, model, "low")

        def zero_limit(ms_, f, base, gamma, lo, hi, kind, ws=None):
            from idpfem.limiting import LimitResult
            return LimitResult(f_star=np.zeros_like(f), alpha=None)

        monkeypatch.setattr(schemes_mod, "limit_scalar_contributions",
                            zero_limit)
        dt = 0.9 * scheme.dt_bound(u)
        out = scheme.step(u, 0.0, dt)
        expect = u + dt * low.rhs(u, 0.0)
        assert np.abs(out - expect).max() < 1e-12

    def test_semi_discrete_interface_refused(self):
        ms, model, scheme, u = _scalar_setup("fct.cs")
        with pytest.raises(ValueError):
            scheme.rhs(u, 0.0)
        low = make_scheme(ms, model, "low")
        with pytest.raises(ValueError):
            low.step(u, 0.0, 0.1)


def _euler_setup(n=8):
    ms = build_system(structured_rect(n, n, periodic=True))
    model = Euler()
    x = ms.dof_coords
    rho = 1.0 + 0.5 * np.sin(2 * np.pi * x[:, 0]) * np.cos(2 * np.pi * x[:, 1])
    v = np.stack([0.8 * np.cos(2 * np.pi * x[:, 1]),
                  -0.4 * np.ones(ms.n_dofs)], axis=-1)
    p = 1.0 + 0.3 * np.cos(2 * np.pi * x[:, 0])
    return ms, model, model.conserved(rho, v, p)


def test_unknown_system_mode_raises_at_construction():
    ms, model, _ = _euler_setup(n=2)
    with pytest.raises(ValueError, match="unknown system limiter 'banana'"):
        SpatialScheme(ms=ms, model=model, limiter="mcl.cs", system="banana")


class TestMcl:
    def test_infinite_bounds_recover_galerkin(self, monkeypatch):
        ms, model, scheme, u = _scalar_setup("mcl.cs")
        galerkin = make_scheme(ms, model, "none")

        def wide_bounds(ms_, field_dof, elem_vals, bwork, ws):
            return (np.full(field_dof.shape, -np.inf),
                    np.full(field_dof.shape, np.inf))

        monkeypatch.setattr(schemes_mod, "local_bounds", wide_bounds)
        a = scheme.rhs(u, 0.0)
        b = galerkin.rhs(u, 0.0)
        assert np.abs(a - b).max() < 1e-12 * max(np.abs(b).max(), 1.0)

    def test_euler_forward_step_preserves_admissibility(self):
        ms = build_system(structured_rect(8, 8, periodic=True))
        model = Euler()
        x = ms.dof_coords
        rho = 1.0 + 0.2 * np.sin(2 * np.pi * x[:, 0]) \
            * np.cos(2 * np.pi * x[:, 1])
        v = np.stack([0.3 * np.ones(ms.n_dofs), -0.1 * np.ones(ms.n_dofs)],
                     axis=-1)
        p = np.full(ms.n_dofs, 1.0)
        u = model.conserved(rho, v, p)
        scheme = make_scheme(ms, model, "mcl.cs")
        t = 0.0
        for _ in range(5):
            dt = 0.5 * scheme.dt_bound(u, t)
            u = u + dt * scheme.rhs(u, t)
            t += dt
            assert np.all(model.admissible(u, 1e-12))

    def test_alpha_statistics_exposed_for_systems(self):
        ms = build_system(structured_rect(6, 6, periodic=True))
        model = Euler()
        rng = np.random.default_rng(1)
        rho = rng.uniform(0.5, 2.0, ms.n_dofs)
        v = rng.uniform(-0.5, 0.5, (ms.n_dofs, 2))
        p = rng.uniform(0.5, 2.0, ms.n_dofs)
        u = model.conserved(rho, v, p)
        scheme = make_scheme(ms, model, "mcl.cs")
        scheme.rhs(u, 0.0)
        alpha = scheme.record.alpha
        assert alpha is not None
        assert np.all((alpha >= 0) & (alpha <= 1))


class TestDegenerateCases:
    @pytest.mark.parametrize("limiter", SCHEME_KEYS)
    def test_vanishing_wave_speed_keeps_the_state(self, limiter):
        """At zero velocity every element has d = 0: the bar states take
        their fix-up path and gamma its TINY guard, and the state must come
        back bit for bit."""
        cfg = RunConfig(benchmark="advected_gaussian", h=1 / 8, vx=0.0,
                        vy=0.0, limiter=limiter)
        _, _, _, scheme, u0 = setup(cfg)
        u, _, steps = integrate(scheme, u0, TimeControls(
            cfl=0.5, t_end=0.05, scheme="ssp2", dt_max=0.01))
        assert steps == 5
        assert u.tobytes() == u0.tobytes()

    @pytest.mark.parametrize("limiter", ["mcl.cs", "fct.cs", "mcl.scale"])
    def test_sliver_mesh_keeps_global_bounds(self, tmp_path, limiter):
        """Every 4th column of nodes moved to 1e-8 h of the column before
        it leaves sliver elements; the limited schemes still keep the
        advected Gaussian inside its initial range."""
        n = 32
        mesh = structured_rect(n, n, periodic=True)
        col = np.rint(mesh.nodes[:, 0] * n).astype(int)
        sliver = col % 4 == 1
        mesh.nodes[sliver, 0] = (col[sliver] - 1 + 1e-8) / n
        path = tmp_path / "sliver.mesh"
        path.write_text(write_mesh(mesh))
        cfg = RunConfig(benchmark="advected_gaussian", mesh=str(path),
                        vx=1.0, vy=0.5, limiter=limiter)
        _, ms, _, scheme, u = setup(cfg)
        assert ms.geometry.m_elem.min() < 1e-7 * ms.geometry.m_elem.max()
        lo, hi = u.min(), u.max()
        stage, t = scheme.stage_map(), 0.0
        for _ in range(30):
            dt = 0.5 * scheme.dt_bound(u, t)
            u = ssp_rk_step("ssp2", stage, u, t, dt)
            t += dt
        assert lo <= u.min() and u.max() <= hi
