import numpy as np
import pytest

from idpfem.assembly import assemble, boundary_terms, element_average
from idpfem.mesh import Workspace, build_system, structured_rect
from idpfem.models import Burgers2D, Euler, LinearAdvection, make_model, \
    translation_velocity

from conftest import perfbench_workloads, random_euler_states, \
    random_triangle, single_triangle_system
from reference import reference_assembly, relative_error, residual_split


def models_with_states(rng, ms):
    adv = make_model("advection", velocity="translation", vx=1.0, vy=0.5)
    yield adv, rng.uniform(-1.0, 1.0, (ms.n_dofs, 1))
    yield Burgers2D(), rng.uniform(-1.0, 1.0, (ms.n_dofs, 1))
    yield Euler(), random_euler_states(rng, Euler(), (ms.n_dofs,))


class TestWorkedExample:
    """Unit right triangle, advection v = (1, 0), u = (0, 1, 0)."""

    def setup_method(self):
        self.ms = single_triangle_system([[0, 0], [1, 0], [0, 1]])
        self.model = LinearAdvection(velocity=translation_velocity(1.0, 0.0))
        self.u = np.array([[0.0], [1.0], [0.0]])
        self.work, _ = assemble(self.ms, self.model, self.u)

    def test_viscosity(self):
        assert self.work.d[0] == pytest.approx(0.5, abs=1e-15)

    def test_element_average(self):
        assert self.work.ubar[0, 0] == pytest.approx(1.0 / 3.0)

    def test_bar_state_at_second_node(self):
        assert self.work.bar_states[0, 1, 0] == pytest.approx(1.0 / 3.0)

    def test_low_order_residual_at_second_node(self):
        assert self.work.r_rusanov[0, 1, 0] == pytest.approx(-1.0 / 6.0)

    def test_fluctuation(self):
        split = residual_split(self.ms, self.model, self.u)
        assert split.fluctuation[0, 0] == pytest.approx(-0.5)

    def test_low_order_residuals_sum_to_zero_single_element(self):
        # the closed form telescopes: d sum(ubar - u_i) = 0 and sum c_i = 0
        assert abs(self.work.r_rusanov[0].sum()) < 1e-15


class TestElementIdentities:
    def test_zero_sum_and_fluctuation_preservation(self, rng, periodic8):
        ms = periodic8
        for model, u in models_with_states(rng, ms):
            split = residual_split(ms, model, u)
            f_anti = split.work.f_anti
            scale = max(np.abs(f_anti).max(),
                        np.abs(split.r_high).max(), 1.0)
            assert np.abs(f_anti.sum(axis=1)).max() < 1e-12 * scale
            assert np.abs(split.r_high.sum(axis=1)
                          - split.fluctuation).max() < 1e-12 * scale
            assert np.abs(split.r_low.sum(axis=1)
                          - split.fluctuation).max() < 1e-12 * scale

    def test_galerkin_recovery_split(self, rng, periodic8):
        for model, u in models_with_states(rng, periodic8):
            split = residual_split(periodic8, model, u)
            assert np.array_equal(split.r_high - split.work.f_anti,
                                  split.r_low)

    def test_split_uses_the_assembled_antidiffusion(self, rng, periodic8):
        for model, u in models_with_states(rng, periodic8):
            work, _ = assemble(periodic8, model, u, ws=Workspace())
            split = residual_split(periodic8, model, u)
            assert split.work.f_anti.tobytes() == work.f_anti.tobytes()

    def test_closed_form_matches_split_after_assembly(self, rng, periodic8):
        # Elementwise the closed-form Rusanov residual and the split r_low
        # differ by boundary-flux terms; those telescope at interior nodes,
        # and on a torus every node is interior.
        ms = periodic8
        for model, u in models_with_states(rng, ms):
            split = residual_split(ms, model, u)
            a = np.zeros_like(u)
            b = np.zeros_like(u)
            np.add.at(a, ms.elem_dofs, split.work.r_rusanov)
            np.add.at(b, ms.elem_dofs, split.r_low)
            scale = max(np.abs(a).max(), 1.0)
            assert np.abs(a - b).max() < 1e-12 * scale

    def test_constant_state_kills_everything(self, periodic8):
        model = make_model("advection", velocity="translation", vx=1.0, vy=2.0)
        u = np.full((periodic8.n_dofs, 1), 0.7)
        split = residual_split(periodic8, model, u)
        # per element only the flux through the boundary remains; it cancels
        # under assembly, and the antidiffusive part vanishes identically
        assert np.abs(split.work.f_anti).max() < 1e-14
        assert np.abs(split.work.udot).max() < 1e-14
        assert np.abs(split.fluctuation).max() < 1e-14

    def test_fluctuations_telescope_on_periodic_mesh(self, rng, periodic8):
        for model, u in models_with_states(rng, periodic8):
            fluctuation = residual_split(periodic8, model, u).fluctuation
            scale = max(np.abs(fluctuation).max(), 1.0)
            assert abs(fluctuation.sum(axis=0)).max() < 1e-12 * scale


class TestBarStates:
    def test_scalar_bar_states_stay_in_local_hull(self, rng, periodic8):
        scalar = [(model, u) for model, u in models_with_states(rng, periodic8)
                  if model.m == 1]
        kinds = [model.kind for model, _ in scalar]
        assert kinds == ["linear_advection", "burgers_2d"]
        for model, u in scalar:
            work, _ = assemble(periodic8, model, u)
            lo = np.minimum(work.u_loc[..., 0].min(axis=1), work.ubar[..., 0])
            hi = np.maximum(work.u_loc[..., 0].max(axis=1), work.ubar[..., 0])
            assert np.all(work.bar_states[..., 0] >= lo[:, None] - 1e-12)
            assert np.all(work.bar_states[..., 0] <= hi[:, None] + 1e-12)

    def test_euler_bar_states_admissible(self, rng, periodic8):
        model = Euler()
        u = random_euler_states(rng, model, (periodic8.n_dofs,))
        work, _ = assemble(periodic8, model, u)
        assert np.all(model.admissible(work.bar_states, 1e-12))

    def test_zero_velocity_gives_arithmetic_mean(self, periodic8):
        model = LinearAdvection(velocity=translation_velocity(0.0, 0.0))
        u = np.linspace(0, 1, periodic8.n_dofs)[:, None]
        work, _ = assemble(periodic8, model, u)
        mean = 0.5 * (work.ubar[:, None, :] + work.u_loc)
        assert np.allclose(work.bar_states, mean)
        assert np.all(work.d == 0)


class TestSymbolicOracle:
    """Independent evaluation of the antidiffusive integrals by symbolic
    integration over the reference triangle."""

    @pytest.mark.parametrize("model_name", ["advection", "burgers"])
    def test_f_anti_matches_symbolic_integration(self, rng, model_name):
        import sympy as sp

        p = random_triangle(rng)
        ms = single_triangle_system(p)
        if model_name == "advection":
            model = make_model("advection", velocity="translation",
                               vx=0.7, vy=-0.3)
        else:
            model = Burgers2D()
        u = rng.uniform(0.1, 1.0, (3, 1))
        work, _ = assemble(ms, model, u)

        xi, eta = sp.symbols("xi eta", nonnegative=True)
        phis = [1 - xi - eta, xi, eta]
        area = float(ms.geometry.area[0])
        jac = 2.0 * area

        F = model.flux(u, np.broadcast_to(ms.geometry.centroid,
                                          (3, 2)))[:, 0, :]     # (3, 2)
        ubar = element_average(u[None, :, :])[0]
        Fbar = model.flux(ubar[None, :], ms.geometry.centroid)[0, 0]
        udot = work.udot[:, 0]
        d = float(work.d[0])
        grads = ms.geometry.grad[0]

        def integrate(expr):
            inner = sp.integrate(expr, (eta, 0, 1 - xi))
            return float(sp.integrate(inner, (xi, 0, 1)))

        for i in range(3):
            # mass part: int phi_i (udot_i - udot_h)
            udot_h = sum(udot[j] * phis[j] for j in range(3))
            mass = integrate(phis[i] * (udot[i] - udot_h)) * jac
            # flux part with the group interpolant f_h = sum f(u_j) phi_j
            flux = 0.0
            for k in range(2):
                fh = sum(F[j, k] * phis[j] for j in range(3))
                flux += grads[i, k] * integrate(fh - Fbar[k]) * jac
            expected = mass + flux - d * (ubar[0] - u[i, 0])
            assert work.f_anti[0, i, 0] == pytest.approx(expected, abs=1e-12)


class TestLumpedDerivative:
    def test_interior_consistency_for_linear_profile(self):
        model = make_model("advection", velocity="translation", vx=0.9, vy=0.4)
        b, c = 0.37, -0.61

        def interior_error(n):
            ms = build_system(structured_rect(n, n))
            u = (0.2 + b * ms.dof_coords[:, 0]
                 + c * ms.dof_coords[:, 1])[:, None]
            work, _ = assemble(ms, model, u)
            exact = -(0.9 * b + 0.4 * c)
            mask = np.ones(ms.n_dofs, dtype=bool)
            mask[ms.boundary_dofs] = False
            return np.abs(work.udot[mask, 0] - exact).max()

        e1, e2 = interior_error(8), interior_error(16)
        assert e2 <= max(0.6 * e1, 1e-12)

    def test_single_element_udot_is_residual_over_mass(self, unit_triangle):
        model = make_model("advection", velocity="translation", vx=1.0, vy=0.0)
        u = np.array([[0.0], [1.0], [0.0]])
        work, _ = assemble(unit_triangle, model, u)
        assert np.allclose(work.udot,
                           work.r_rusanov[0] / (0.5 / 3.0))


class TestBoundaryTerms:
    def test_constant_state_with_echo_bc_is_steady(self):
        ms = build_system(structured_rect(6, 6))
        model = Euler()
        state = model.conserved(1.0, [0.4, -0.2], 2.0)
        u = np.broadcast_to(state, (ms.n_dofs, 4)).copy()

        def bc(x, t, u_in, nhat):
            return u_in

        work, bwork = assemble(ms, model, u, 0.0, bc)
        rhs = np.zeros_like(u)
        np.add.at(rhs, ms.elem_dofs, work.r_rusanov)
        rhs[bwork.dofs] += bwork.flux_term
        assert np.abs(rhs).max() < 1e-12

    def test_boundary_viscosity_nonnegative(self, rng):
        ms = build_system(structured_rect(4, 4))
        model = Burgers2D()
        u = rng.uniform(-1.0, 1.0, (ms.n_dofs, 1))
        bwork = boundary_terms(ms, model, u, 0.0,
                               lambda x, t, ui, n: np.zeros_like(ui))
        assert np.all(bwork.visc >= 0)
        assert bwork.dofs.shape[0] == ms.boundary_dofs.shape[0]


def _model(name):
    """``seed<n>``: translation in the direction of seed n of the advect
    workloads; ``rotation``, ``burgers`` and ``euler`` as named."""
    if name.startswith("seed"):
        vx, vy = perfbench_workloads().advect_velocity(int(name[4:]))
        return make_model("advection", velocity="translation", vx=vx, vy=vy)
    if name == "rotation":
        return make_model("advection", velocity="rotation")
    return make_model(name)


def _mixing_bc(x, t, u_in, nhat):
    """Exterior states that mix the interior ones (admissible for every
    model, whose invariant sets are convex) and move with t."""
    return (0.5 + t) * u_in + (0.5 - t) * u_in[::-1]


def _coefficient_problem(model_name, periodic):
    """h = 1/16 on the unit square, so every c_i is dyadic."""
    ms = build_system(structured_rect(16, 16, periodic=periodic))
    model = _model(model_name)
    rng = np.random.default_rng(11)
    if model_name == "euler":
        u = random_euler_states(rng, model, (ms.n_dofs,))
    else:
        u = rng.uniform(-1.0, 1.0, (ms.n_dofs, 1))
    return ms, model, u, None if periodic else _mixing_bc


COEFFICIENT_FIELDS = ("d", "bar_states", "r_rusanov", "udot", "f_anti")


@pytest.mark.parametrize("periodic", [True, False],
                         ids=["periodic", "bounded"])
class TestCoefficientForm:
    """Linear advection is assembled from k_i = v(x_e) . c_i alone, without
    its flux. What it assembles equals the flux formulas of
    ``reference.reference_assembly`` to rounding, and bit for bit for
    v = (1, 1) on the structured mesh, whose c_i are dyadic. Burgers and
    Euler, assembled through their fluxes, match the same reference."""

    @pytest.mark.parametrize("model_name", ["seed1", "seed2", "seed3",
                                            "rotation", "burgers", "euler"])
    def test_matches_the_flux_formulas(self, model_name, periodic):
        ms, model, u, bc = _coefficient_problem(model_name, periodic)
        ref = reference_assembly(ms, model, u, 0.1, bc)
        for ws in (None, Workspace()):
            work, _ = assemble(ms, model, u, 0.1, bc, ws=ws)
            for name in COEFFICIENT_FIELDS:
                assert relative_error(getattr(work, name),
                                      getattr(ref, name)) <= 1e-13, name

    def test_seed0_translation_is_bit_equal(self, periodic):
        ms, model, u, bc = _coefficient_problem("seed0", periodic)
        assert model.velocity(None).tolist() == [1.0, 1.0]
        ref = reference_assembly(ms, model, u, 0.1, bc)
        work, _ = assemble(ms, model, u, 0.1, bc, ws=Workspace())
        for name in COEFFICIENT_FIELDS:
            assert getattr(work, name).tobytes() == \
                getattr(ref, name).tobytes(), name

    @pytest.mark.parametrize("model_name", ["seed1", "rotation"])
    def test_advection_assembly_evaluates_no_flux(self, monkeypatch,
                                                  model_name, periodic):
        ms, model, u, bc = _coefficient_problem(model_name, periodic)
        ref, ref_b = assemble(ms, model, u, 0.1, bc)

        def no_flux(*args, **kwargs):
            raise AssertionError("model.flux called")

        monkeypatch.setattr(LinearAdvection, "flux", no_flux)
        for ws in (None, Workspace()):
            work, bwork = assemble(ms, model, u, 0.1, bc, ws=ws)
            assert (bwork is None) == periodic
            for name in COEFFICIENT_FIELDS:
                assert getattr(work, name).tobytes() == \
                    getattr(ref, name).tobytes(), name
        if not periodic:
            assert bwork.flux_term.tobytes() == ref_b.flux_term.tobytes()
