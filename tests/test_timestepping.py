import numpy as np
import pytest

from idpfem.mesh import build_system, structured_rect
from idpfem.models import make_model
from idpfem.runner import integrate
from idpfem.schemes import SpatialScheme
from idpfem.timestepping import (TimeControls, TimeSteppingError, compute_dt,
                                 ssp_rk_step)


class TestTimeControls:
    def test_valid(self):
        tc = TimeControls(cfl=0.9, t_end=2.0, scheme="ssp3")
        assert tc.cfl == 0.9

    def test_cfl_out_of_range(self):
        with pytest.raises(TimeSteppingError):
            TimeControls(cfl=1.5, t_end=1.0)
        with pytest.raises(TimeSteppingError):
            TimeControls(cfl=0.0, t_end=1.0)

    def test_unknown_scheme(self):
        with pytest.raises(TimeSteppingError):
            TimeControls(scheme="rk4", t_end=1.0)


class TestComputeDt:
    def test_plain(self):
        assert compute_dt(0.2, 0.5, 0.0, 10.0) == pytest.approx(0.1)

    def test_truncated_to_t_end(self):
        assert compute_dt(1.0, 1.0, 0.95, 1.0) == pytest.approx(0.05)

    def test_dt_max_cap(self):
        assert compute_dt(1.0, 1.0, 0.0, 10.0, dt_max=0.01) == 0.01

    def test_infinite_bound_uses_dt_max(self):
        assert compute_dt(np.inf, 0.5, 0.0, 10.0, dt_max=0.3) == 0.3

    def test_infinite_bound_without_cap_errors(self):
        with pytest.raises(TimeSteppingError):
            compute_dt(np.inf, 0.5, 0.0, 10.0)

    def test_nonpositive_step_errors(self):
        with pytest.raises(TimeSteppingError):
            compute_dt(0.1, 0.5, 1.0, 1.0)


def decay_stage(u, t, dt):
    return u + dt * (-u)


class DecayScheme:
    """The ODE u' = -u posing as a spatial scheme with a fixed step bound."""

    def __init__(self, dt):
        self.dt = dt

    def dt_bound(self, u, t):
        return self.dt

    def stage_map(self):
        return decay_stage


class TestSspRk:
    def test_ssp2_hand_example(self):
        u = np.array([1.0])
        out = ssp_rk_step("ssp2", decay_stage, u, 0.0, 1.0)
        # u1 = 0, u2 = 0, result = (1 + 0) / 2
        assert out[0] == pytest.approx(0.5)

    def test_identity_operator(self):
        u = np.array([2.0, -1.0])
        for scheme in ("euler", "ssp2", "ssp3"):
            out = ssp_rk_step(scheme, lambda u, t, dt: u, u, 0.0, 0.3)
            assert np.array_equal(out, u)

    def test_ssp3_matches_convex_combination_formula(self):
        u, dt = 1.0, 0.1
        u1 = u + dt * (-u)
        u2 = 0.75 * u + 0.25 * (u1 + dt * (-u1))
        u3 = u / 3.0 + (2.0 / 3.0) * (u2 + dt * (-u2))
        out = ssp_rk_step("ssp3", decay_stage, np.array([u]), 0.0, dt)
        assert out[0] == pytest.approx(u3, abs=1e-15)

    @pytest.mark.parametrize("scheme,min_rate", [("euler", 0.9),
                                                 ("ssp2", 1.95),
                                                 ("ssp3", 2.90)])
    def test_order_of_accuracy_on_decay_ode(self, scheme, min_rate):
        def solve(dt):
            controls = TimeControls(cfl=1.0, t_end=1.0, scheme=scheme)
            u, _, _ = integrate(DecayScheme(dt), np.array([1.0]), controls)
            return abs(u[0] - np.exp(-1.0))

        errors = [solve(dt) for dt in (0.1, 0.05, 0.025)]
        rates = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(rates) >= min_rate

    def test_nonfinite_stage_aborts(self):
        def bad(u, t, dt):
            return u * np.nan

        with pytest.raises(TimeSteppingError, match="non-finite"):
            ssp_rk_step("ssp2", bad, np.array([1.0]), 0.0, 0.1)

    def test_on_stage_hook_called_per_stage(self):
        calls = []
        ssp_rk_step("ssp3", decay_stage, np.array([1.0]), 0.0, 0.1,
                    on_stage=lambda u: calls.append(u.copy()))
        assert len(calls) == 3

    def test_unknown_scheme(self):
        with pytest.raises(TimeSteppingError):
            ssp_rk_step("rk4", decay_stage, np.array([1.0]), 0.0, 0.1)


def _advection_scheme(vx=1.0, vy=0.5):
    ms = build_system(structured_rect(8, 8, periodic=True))
    model = make_model("advection", velocity="translation", vx=vx, vy=vy)
    u = np.random.default_rng(3).uniform(0.0, 1.0, (ms.n_dofs, 1))
    model.set_global_bounds(u)
    return SpatialScheme(ms=ms, model=model, limiter="mcl.cs"), u


class TestIntegrate:
    def test_lands_on_t_end_and_calls_on_step_once_per_step(self):
        scheme, u0 = _advection_scheme()
        calls = []
        controls = TimeControls(cfl=0.5, t_end=0.1, scheme="ssp2")
        u, t, steps = integrate(
            scheme, u0, controls,
            on_step=lambda u, t, dt, step: calls.append((t, dt, step)))
        assert t == pytest.approx(0.1, rel=0, abs=1e-14)
        assert steps > 1
        assert [c[2] for c in calls] == list(range(1, steps + 1))
        assert calls[-1][0] == t
        assert sum(c[1] for c in calls) == pytest.approx(0.1, abs=1e-14)

    def test_starts_at_given_time(self):
        scheme, u0 = _advection_scheme()
        controls = TimeControls(cfl=0.5, t_end=0.1, scheme="ssp2")
        _, t, steps = integrate(scheme, u0, controls, t=0.1)
        assert (t, steps) == (0.1, 0)

    def test_matches_hand_written_loop(self):
        scheme, u0 = _advection_scheme()
        controls = TimeControls(cfl=0.5, t_end=0.1, scheme="ssp3")
        u, t, steps = integrate(scheme, u0, controls)

        stage = scheme.stage_map()
        ref, t_ref, n_ref = u0, 0.0, 0
        while t_ref < 0.1 - 1e-14:
            dt = compute_dt(scheme.dt_bound(ref, t_ref), 0.5, t_ref, 0.1)
            ref = ssp_rk_step("ssp3", stage, ref, t_ref, dt)
            t_ref += dt
            n_ref += 1
        assert (t, steps) == (t_ref, n_ref)
        assert u.tobytes() == ref.tobytes()

    def test_zero_wave_speeds_without_dt_max_raise(self):
        scheme, u0 = _advection_scheme(vx=0.0, vy=0.0)
        controls = TimeControls(cfl=0.5, t_end=0.1, scheme="ssp2")
        with pytest.raises(TimeSteppingError, match="dt_max"):
            integrate(scheme, u0, controls)
        capped = TimeControls(cfl=0.5, t_end=0.1, scheme="ssp2", dt_max=0.025)
        u, t, steps = integrate(scheme, u0, capped)
        assert steps == 4 and np.allclose(u, u0, rtol=0, atol=1e-15)
