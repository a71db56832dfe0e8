from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_euler_states
from idpfem import runner
from idpfem.config import RunConfig
from idpfem.diagnostics import (AuditError, audit_step, csv_header,
                                error_norms, lumped_totals, stage_defects)
from idpfem.mesh import build_system, structured_rect
from idpfem.models import Euler, make_model
from idpfem.schemes import SpatialScheme
from idpfem.runner import integrate
from idpfem.timestepping import TimeControls
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
        rep = audit_step(ms, model, u, 0.0, 0.1)
        assert rep.bound_violation == 0.0
        assert rep.totals[0] == pytest.approx(0.25 * 1.0, rel=1e-13)

    def test_injected_fault_located(self, adv_setup):
        ms, model = adv_setup
        u = np.full((ms.n_dofs, 1), 0.5)
        model.set_global_bounds(u)
        u[17, 0] += 1e-3
        with pytest.raises(AuditError, match="node 17"):
            audit_step(ms, model, u, 0.0, 0.1)
        rep = audit_step(ms, model, u, 0.0, 0.1, check_admissibility=False)
        assert rep.bound_violation == pytest.approx(1e-3)

    def test_low_order_step_passes_audit(self, adv_setup, rng):
        ms, model = adv_setup
        u = rng.uniform(0.0, 1.0, (ms.n_dofs, 1))
        model.set_global_bounds(u)
        scheme = SpatialScheme(ms=ms, model=model, limiter="low")
        dt = 0.9 * scheme.dt_bound(u)
        u2 = u + dt * scheme.rhs(u, 0.0)
        rep = audit_step(ms, model, u2, dt, dt,
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
        audit_step(ms, model, u, 0.0, 0.1)
        assert np.array_equal(u, before)

    def test_euler_internal_energy_fault_located(self):
        """Euler states are checked on rho and rho e, and a failing audit
        names the node."""
        ms = build_system(structured_rect(8, 8, periodic=True))
        model = Euler()
        u = model.conserved(np.ones(ms.n_dofs), np.zeros((ms.n_dofs, 2)),
                            np.ones(ms.n_dofs))
        rep = audit_step(ms, model, u, 0.0, 0.1)
        assert rep.bound_violation == 0.0
        u[23, 3] = -1e-3            # at rest, so rho e = E
        with pytest.raises(AuditError,
                           match=r"bound violation 0\.001 at node 23,"):
            audit_step(ms, model, u, 0.0, 0.1)
        rep = audit_step(ms, model, u, 0.0, 0.1, check_admissibility=False)
        assert rep.bound_violation == 1e-3

    def test_csv_row_matches_header_width(self, adv_setup):
        ms, model = adv_setup
        u = np.full((ms.n_dofs, 1), 0.5)
        model.set_global_bounds(u)
        rep = audit_step(ms, model, u, 0.0, 0.1)
        assert len(rep.csv_row().split(",")) == len(csv_header(1).split(","))
        assert len(csv_header(4).split(",")) == 2 + 3 * 4 + 2


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
        """DMR runs set up with a C-ordered and with a Fortran-ordered
        state write the same bytes; the time loop stores either state with
        the DOF index fastest."""
        cfg = RunConfig(benchmark="dmr", h=1 / 8, t_end=0.004, audit_every=1)
        original = runner.setup
        runs = {}
        for side, order in (("c", np.ascontiguousarray),
                            ("f", np.asfortranarray)):
            def ordered_setup(cfg, order=order):
                *rest, u0 = original(cfg)
                return (*rest, order(u0))

            monkeypatch.setattr(runner, "setup", ordered_setup)
            runs[side] = runner.run(cfg, out_dir=tmp_path / side)
        f_run, c_run = runs["f"], runs["c"]
        assert f_run.u.flags.f_contiguous and c_run.u.flags.f_contiguous
        assert c_run.steps > 2
        assert f_run.u.tobytes() == c_run.u.tobytes()
        for name in ("diagnostics.csv", "summary.txt"):
            got, want = [[line for line in (tmp_path / side / name)
                          .read_text().splitlines()
                          if not line.startswith("wall_time_s")]
                         for side in ("f", "c")]
            assert got == want, name

    def test_dmr_state_stays_dof_fastest_through_its_steps(self):
        """The time loop stores the state as every per-DOF result is
        stored, with the DOF index fastest, from a C-ordered start on."""
        cfg = RunConfig(benchmark="dmr", h=1 / 8, t_end=0.004)
        _, ms, _, scheme, u0 = runner.setup(cfg)
        assert u0.flags.c_contiguous and not u0.flags.f_contiguous
        orders = []
        u, _, steps = runner.integrate(
            scheme, u0, TimeControls(t_end=0.004),
            on_step=lambda u, t, dt, step: orders.append(u.flags.f_contiguous))
        assert steps > 2 and orders == [True] * steps
        assert u.shape == (ms.n_dofs, 4) and u.flags.f_contiguous


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


def _double_rarefaction(limiter, system):
    """A scheme and the initial state of a periodic double rarefaction on
    32 x 32 cells: rho = 1, p = 0.1, v_x = +2 on 1/4 <= x < 3/4 and -2
    elsewhere. The gas streams apart at x = 1/4, so the density there
    falls towards vacuum and the IDP fix acts."""
    ms = build_system(structured_rect(32, 32, periodic=True))
    model = Euler()
    x = ms.dof_coords[:, 0]
    vx = np.where((x >= 0.25) & (x < 0.75), 2.0, -2.0)
    u = model.conserved(np.ones(ms.n_dofs),
                        np.stack([vx, np.zeros_like(vx)], axis=1),
                        np.full(ms.n_dofs, 0.1))
    model.set_global_bounds(u)
    return SpatialScheme(ms=ms, model=model, limiter=limiter,
                         system=system), u


def _record(model_name):
    """The stage record of one ``mcl.cs`` stage: of the advected Gaussian
    at t = 0, or of the double rarefaction in the sequential mode at t =
    0.01, where the IDP fix acts and the specific values of the base
    reach beyond the product rule's range."""
    t = 0.0
    if model_name == "advection":
        _, _, _, scheme, u = runner.setup(
            RunConfig(benchmark="advected_gaussian", h=1 / 16))
    else:
        scheme, u = _double_rarefaction("mcl.cs", "sequential")
        u, t, _ = integrate(scheme, u, TimeControls(cfl=0.5, t_end=0.01,
                                                    scheme="ssp2"))
    scheme.stage_map()(u, t, 0.5 * scheme.dt_bound(u, t))
    record = scheme.record
    assert max(stage_defects(record)) < 1e-12
    return record


class TestStageDefects:
    @pytest.mark.parametrize("limiter, system", [
        ("mcl.cs", "sequential"), ("mcl.scale", "sequential"),
        ("mcl.scale", "synchronized")])
    def test_stages_the_idp_fix_scales_stay_in_bounds(self, limiter,
                                                       system):
        """Where the fix scales an element (alpha < 1), the sequential
        mode's specific values leave the product rule's range, but not its
        hull with those of the base."""
        scheme, u = _double_rarefaction(limiter, system)
        defects, fixed = [], []

        def on_stage(record):
            defects.append(stage_defects(record))
            fixed.append(np.count_nonzero(record.alpha < 1.0))

        u, _, _ = integrate(scheme, u, TimeControls(cfl=0.5, t_end=0.05,
                                                    scheme="ssp2"),
                            on_stage=on_stage)
        rho, _, p, _ = scheme.model.primitives(u)
        assert sum(fixed) > 0
        assert rho.min() > 0 and p.min() > 0
        assert np.max(defects) < 1e-12

    @pytest.mark.parametrize("model_name, k", [
        ("advection", 0), ("euler", 0), ("euler", 1), ("euler", 3)])
    def test_a_contribution_past_its_bound_is_reported(self, model_name, k):
        """One node of an element the IDP fix left alone gets the final
        contribution that puts its candidate 1e-8 relative above its
        bound: for a product, rho phi_hi at the candidate density. That
        node is where phi(base) reaches furthest above phi_hi, so the push
        stays inside the hull that only elements with alpha < 1 take."""
        record = _record(model_name)
        ms, base, gamma = record.ms, record.base, record.gamma
        f = record.f_star.copy()
        if k == 0:
            e, i = 0, 0
            hi = ms.gather(record.bounds[1])[e, i, 0]
        else:
            phi_hi = ms.gather(record.phi_hi)[..., k - 1]
            _, base_hi = ms.scatter_min_max(base[..., k] / base[..., 0])
            gap = np.where((record.alpha == 1.0)[:, None],
                           ms.gather(base_hi) - phi_hi, -np.inf)
            e, i = np.unravel_index(np.argmax(gap), gap.shape)
            assert gap[e, i] > 1e-6
            hi = (base[e, i, 0] + f[e, i, 0] / gamma[e, 0]) * phi_hi[e, i]
        hi += 1e-8 * np.abs(base[..., k]).max()
        f[e, i, k] = (hi - base[e, i, k]) * gamma[e, 0]
        assert stage_defects(replace(record, f_star=f))[1] >= 1e-9

    @pytest.mark.parametrize("model_name", ["advection", "euler"])
    def test_a_broken_zero_sum_is_reported(self, model_name):
        record = _record(model_name)
        f = record.f_star.copy()
        f[0, 0, -1] += 1e-8 * max(np.abs(f).max(), 1.0)
        assert stage_defects(replace(record, f_star=f))[0] >= 1e-9
