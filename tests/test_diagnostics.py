import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_euler_states
from idpfem import runner
from idpfem.config import RunConfig
from idpfem.diagnostics import (AuditError, audit_step, csv_header,
                                error_norms, lumped_totals)
from idpfem.mesh import build_system, structured_rect
from idpfem.models import Euler, make_model
from idpfem.schemes import SpatialScheme
from reference import rd_weights


class TestRdWeights:
    def test_worked_example(self):
        w = rd_weights(np.array([2.0, -1.0, -1.0]))
        assert w.r_plus[0] == 2.0
        assert w.r_minus[0] == -2.0
        assert np.allclose(w.beta_plus[:, 0], [1.0, 0.0, 0.0])
        assert np.allclose(w.beta_minus[:, 0], [0.0, 0.5, 0.5])

    def test_zero_residuals(self):
        w = rd_weights(np.zeros(3))
        assert w.r_plus[0] == 0 and w.r_minus[0] == 0
        assert np.all(w.beta_plus == 0) and np.all(w.beta_minus == 0)

    def test_weights_normalized(self, rng):
        r = rng.normal(size=(100, 3, 2))
        w = rd_weights(r)
        active = w.r_plus > 0
        sums = w.beta_plus.sum(axis=-2)
        assert np.allclose(sums[active], 1.0)
        assert np.all(w.beta_plus >= 0) and np.all(w.beta_minus >= 0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_reconstruction_identity(self, seed):
        r = np.random.default_rng(seed).normal(size=(4, 3, 2))
        w = rd_weights(r)
        recon = w.beta_plus * w.r_plus[..., None, :] \
            + w.beta_minus * w.r_minus[..., None, :]
        assert np.abs(recon - r).max() < 1e-12 * max(np.abs(r).max(), 1.0)

    def test_scalar_input_promoted(self):
        w = rd_weights(np.ones((5, 3)))
        assert w.r_plus.shape == (5, 1)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            rd_weights(np.ones((5, 4, 2)))


@pytest.fixture
def adv_setup():
    ms = build_system(structured_rect(8, 8, periodic=True))
    model = make_model("advection", velocity="translation", vx=1.0, vy=0.5)
    return ms, model


class TestAuditStep:
    def test_constant_state_clean(self, adv_setup):
        ms, model = adv_setup
        u = np.full((ms.n_dofs, 1), 0.25)
        model.set_global_bounds(u)
        bounds = [(np.full(ms.n_dofs, 0.25), np.full(ms.n_dofs, 0.25))]
        rep = audit_step(ms, model, u, 0.0, 0.1, bounds=bounds)
        assert rep.bound_violation == 0.0
        assert rep.admissible
        assert rep.totals[0] == pytest.approx(0.25 * 1.0, rel=1e-13)

    def test_injected_fault_located(self, adv_setup):
        ms, model = adv_setup
        u = np.full((ms.n_dofs, 1), 0.5)
        model.set_global_bounds(u)
        u[17, 0] += 1e-3
        bounds = [(np.full(ms.n_dofs, 0.5), np.full(ms.n_dofs, 0.5))]
        with pytest.raises(AuditError, match="node 17"):
            audit_step(ms, model, u, 0.0, 0.1, bounds=bounds)
        rep = audit_step(ms, model, u, 0.0, 0.1, bounds=bounds,
                         raise_on_failure=False)
        assert rep.bound_violation == pytest.approx(1e-3)
        assert rep.bound_node == 17

    def test_low_order_step_passes_audit(self, adv_setup, rng):
        ms, model = adv_setup
        u = rng.uniform(0.0, 1.0, (ms.n_dofs, 1))
        model.set_global_bounds(u)
        scheme = SpatialScheme(ms=ms, model=model, limiter="low")
        dt = 0.9 * scheme.dt_bound(u)
        u2 = u + dt * scheme.rhs(u, 0.0)
        bounds = [(np.full(ms.n_dofs, 0.0), np.full(ms.n_dofs, 1.0))]
        rep = audit_step(ms, model, u2, dt, dt, bounds=bounds,
                         conservation_ref=(ms.lumped_mass[:, None]
                                           * u).sum(axis=0))
        assert rep.bound_violation <= 1e-12

    def test_conservation_drift_detected(self, adv_setup):
        ms, model = adv_setup
        u = np.full((ms.n_dofs, 1), 0.5)
        model.set_global_bounds(u)
        ref = (ms.lumped_mass[:, None] * u).sum(axis=0) * (1.0 + 1e-6)
        with pytest.raises(AuditError, match="conservation"):
            audit_step(ms, model, u, 0.0, 0.1, conservation_ref=ref)

    def test_nonfinite_state_rejected(self, adv_setup):
        ms, model = adv_setup
        u = np.full((ms.n_dofs, 1), np.nan)
        with pytest.raises(AuditError, match="non-finite"):
            audit_step(ms, model, u, 0.0, 0.1)

    def test_audit_is_pure_observer(self, adv_setup, rng):
        ms, model = adv_setup
        u = rng.uniform(0.0, 1.0, (ms.n_dofs, 1))
        model.set_global_bounds(u)
        before = u.copy()
        audit_step(ms, model, u, 0.0, 0.1,
                   bounds=[(np.zeros(ms.n_dofs), np.ones(ms.n_dofs))])
        assert np.array_equal(u, before)

    def test_zero_sum_defect_reported(self, adv_setup):
        ms, model = adv_setup
        u = np.full((ms.n_dofs, 1), 0.5)
        f = np.zeros((ms.n_elements, 3, 1))
        f[3, 0, 0] = 1e-4
        rep = audit_step(ms, model, u, 0.0, 0.1, f_star=f,
                         raise_on_failure=False)
        assert rep.zerosum_defect == pytest.approx(1e-4)
        assert rep.zerosum_element == 3

    def test_csv_row_matches_header_width(self, adv_setup):
        ms, model = adv_setup
        u = np.full((ms.n_dofs, 1), 0.5)
        model.set_global_bounds(u)
        rep = audit_step(ms, model, u, 0.0, 0.1)
        assert len(rep.csv_row().split(",")) == len(csv_header(1).split(","))
        assert len(csv_header(4).split(",")) == 2 + 3 * 4 + 3


class TestAuditLayout:
    """The audit report does not depend on the memory order of ``u``, and
    is the one a C-ordered ``u`` gives."""

    def _euler_state(self, rng):
        ms = build_system(structured_rect(16, 12, periodic=True))
        model = Euler()
        u = random_euler_states(rng, model, (ms.n_dofs,))
        # zeros of both signs, where min and max could keep either
        u[::7, 1] = 0.0
        u[3::7, 1] = -0.0
        return ms, model, u

    def test_c_and_fortran_order_give_equal_rows(self, rng):
        ms, model, u = self._euler_state(rng)
        c_row = audit_step(ms, model, u, 0.5, 0.1).csv_row()
        f_row = audit_step(ms, model, np.asfortranarray(u), 0.5, 0.1).csv_row()
        assert f_row == c_row
        assert lumped_totals(ms, np.asfortranarray(u)).tobytes() == \
            lumped_totals(ms, u).tobytes()

    def test_totals_keep_the_row_by_row_sum(self, rng):
        ms, _, u = self._euler_state(rng)
        want = np.zeros(u.shape[1])
        for i in range(u.shape[0]):
            want = want + ms.lumped_mass[i] * u[i]
        assert lumped_totals(ms, np.asfortranarray(u)).tobytes() == \
            want.tobytes()

    def test_fortran_ordered_run_writes_the_same_report(self, tmp_path,
                                                         monkeypatch):
        """A DMR run started from a Fortran-ordered state keeps that order
        and writes the bytes of a C-ordered run."""
        cfg = RunConfig(benchmark="dmr", h=1 / 8, t_end=0.004, audit_every=1)
        c_run = runner.run(cfg, out_dir=tmp_path / "c")
        original = runner.setup

        def fortran_setup(cfg):
            *rest, u0 = original(cfg)
            return (*rest, np.asfortranarray(u0))

        monkeypatch.setattr(runner, "setup", fortran_setup)
        f_run = runner.run(cfg, out_dir=tmp_path / "f")
        assert f_run.u.flags.f_contiguous and c_run.u.flags.c_contiguous
        assert c_run.steps > 2
        assert f_run.u.tobytes() == c_run.u.tobytes()
        for name in ("diagnostics.csv", "summary.txt"):
            got, want = [[line for line in (tmp_path / side / name)
                          .read_text().splitlines()
                          if not line.startswith("wall_time_s")]
                         for side in ("f", "c")]
            assert got == want, name


class TestErrorNorms:
    def test_exact_state_gives_zero(self, adv_setup):
        ms, _ = adv_setup

        def exact(x, t):
            return np.sin(x[:, :1])

        u = exact(ms.dof_coords, 0.0)
        norms = error_norms(ms, u, exact, 0.0)
        assert norms["l1"][0] == 0 and norms["linf"][0] == 0

    def test_constant_offset(self, adv_setup):
        ms, _ = adv_setup
        delta = 0.3

        def exact(x, t):
            return np.zeros((x.shape[0], 1))

        u = np.full((ms.n_dofs, 1), delta)
        norms = error_norms(ms, u, exact, 0.0)
        assert norms["l1"][0] == pytest.approx(delta * 1.0, rel=1e-13)
        assert norms["l2"][0] == pytest.approx(delta * 1.0, rel=1e-13)
        assert norms["linf"][0] == pytest.approx(delta)

    def test_euler_componentwise(self, adv_setup):
        ms, _ = adv_setup
        model = Euler()
        state = model.conserved(1.0, [0.1, 0.2], 1.0)

        def exact(x, t):
            return np.broadcast_to(state, (x.shape[0], 4)).copy()

        u = np.broadcast_to(state, (ms.n_dofs, 4)).copy()
        u[:, 0] += 0.1
        norms = error_norms(ms, u, exact, 0.0)
        assert norms["linf"][0] == pytest.approx(0.1)
        assert np.all(norms["linf"][1:] == 0)
