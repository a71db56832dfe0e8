import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idpfem.models import (AdmissibilityError, Burgers2D, Euler,
                           LinearAdvection, make_model, rotation_velocity,
                           translation_velocity)

from conftest import random_euler_states
from riemann import exact_fan_speed, star_pressure


class TestLinearAdvection:
    def test_flux_is_velocity_times_state(self):
        model = LinearAdvection(velocity=translation_velocity(2.0, -1.0))
        x = np.zeros((5, 2))
        u = np.arange(5.0)[:, None]
        f = model.flux(u, x)
        assert f.shape == (5, 1, 2)
        assert np.allclose(f[:, 0, 0], 2.0 * u[:, 0])
        assert np.allclose(f[:, 0, 1], -1.0 * u[:, 0])

    def test_wave_speed_is_normal_velocity(self):
        model = LinearAdvection(velocity=translation_velocity(3.0, 4.0))
        n = np.array([[0.6, 0.8]])
        lam = model.max_wave_speed(np.zeros((1, 1)), np.ones((1, 1)), n,
                                   np.zeros((1, 2)))
        assert lam[0] == pytest.approx(0.6 * 3 + 0.8 * 4)

    def test_global_bounds_from_initial_data(self):
        model = LinearAdvection()
        model.set_global_bounds(np.array([[0.2], [0.9], [-0.1]]))
        assert model.u_min == -0.1 and model.u_max == 0.9
        assert model.admissible(np.array([[0.5]]))[0]
        assert not model.admissible(np.array([[1.0]]))[0]

    def test_rotation_field_is_divergence_free_rigid_motion(self):
        vel = rotation_velocity()
        x = np.array([[0.5, 0.75]])
        v = vel(x)
        # speed omega * r, direction tangential
        assert np.allclose(v, [[-2.0 * np.pi * 0.25, 0.0]])


class TestBurgers:
    def test_flux(self):
        model = Burgers2D()
        f = model.flux(np.array([[3.0]]))
        assert np.allclose(f, [[[4.5, 4.5]]])

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0, 2 * np.pi),
           st.floats(-2, 2, exclude_min=True, exclude_max=True))
    def test_wave_speed_dominates_characteristics(self, ul, ur, ang, umid):
        # the directional characteristic speed at any state between ul and ur
        # must not exceed the bound
        model = Burgers2D()
        n = np.array([np.cos(ang), np.sin(ang)])
        lo, hi = min(ul, ur), max(ul, ur)
        u = lo + (umid + 2) / 4 * (hi - lo)
        lam = model.max_wave_speed(np.array([ul]), np.array([ur]), n)
        assert lam >= abs(u * (n[0] + n[1])) - 1e-12


class TestEuler:
    def test_conserved_primitives_roundtrip(self, rng):
        model = Euler()
        rho = rng.uniform(0.5, 3.0, 20)
        v = rng.uniform(-2.0, 2.0, (20, 2))
        p = rng.uniform(0.1, 5.0, 20)
        u = model.conserved(rho, v, p)
        r2, v2, p2, c2 = model.primitives(u)
        assert np.allclose(r2, rho)
        assert np.allclose(v2, v)
        assert np.allclose(p2, p)
        assert np.allclose(c2, np.sqrt(1.4 * p / rho))

    def test_flux_against_hand_computation(self):
        model = Euler(gamma=1.4)
        u = model.conserved(2.0, [3.0, -1.0], 5.0)
        f = model.flux(u)
        rho, v, p = 2.0, np.array([3.0, -1.0]), 5.0
        E = u[3]
        expect = np.array([
            [rho * v[0], rho * v[1]],
            [rho * v[0] ** 2 + p, rho * v[0] * v[1]],
            [rho * v[0] * v[1], rho * v[1] ** 2 + p],
            [(E + p) * v[0], (E + p) * v[1]],
        ])
        assert np.allclose(f, expect)

    def test_wave_speed_bounds_eigenvalues_of_both_states(self, rng):
        model = Euler()
        ul = random_euler_states(rng, model, (50,))
        ur = random_euler_states(rng, model, (50,))
        ang = rng.uniform(0, 2 * np.pi, 50)
        n = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        lam = model.max_wave_speed(ul, ur, n)
        for u in (ul, ur):
            _, v, _, c = model.primitives(u)
            assert np.all(lam >= np.abs(np.sum(v * n, axis=-1)) + c - 1e-12)

    def test_phi_values_detect_vacuum_and_negative_pressure(self):
        model = Euler()
        good = model.conserved(1.0, [0.5, 0.0], 1.0)
        assert model.admissible(good)
        bad_p = good.copy()
        bad_p[3] = 0.1  # E below kinetic energy -> negative pressure
        assert not model.admissible(bad_p)
        bad_rho = good.copy()
        bad_rho[0] = -1.0
        assert not model.admissible(bad_rho)

    def test_flux_raises_on_nonpositive_density(self):
        model = Euler()
        u = np.array([0.0, 0.0, 0.0, 1.0])
        with pytest.raises(AdmissibilityError):
            model.flux(u)

    def test_gamma_must_exceed_one(self):
        with pytest.raises(ValueError):
            Euler(gamma=1.0)

    def test_pressure_identity(self, rng):
        model = Euler(gamma=1.4)
        u = random_euler_states(rng, model, (30,))
        # p = (gamma - 1) * rho * e_int
        assert np.allclose(model.pressure(u),
                           0.4 * model.internal_energy_density(u))


@pytest.mark.parametrize("left, right, p_star, last_digit", [
    ((1.0, 0.0, 1.0), (0.125, 0.0, 0.1), 0.30313, 1e-5),
    ((1.0, -2.0, 0.4), (1.0, 2.0, 0.4), 0.00189, 1e-5),
    ((1.0, 0.0, 1000.0), (1.0, 0.0, 0.01), 460.894, 1e-3)],
    ids=["sod", "two-rarefactions", "strong-shock"])
def test_star_pressure_matches_toro(left, right, p_star, last_digit):
    """``riemann.star_pressure`` gives the p* of Toro's Table 4.3 (tests 1
    to 3, gamma = 1.4, left and right states as (rho, u, p)) to the digits
    quoted there, along either axis."""
    model = Euler(gamma=1.4)
    for n in ([1.0, 0.0], [0.0, 1.0]):
        n = np.array(n)
        ul, ur = (model.conserved(np.array([rho]), np.array([u * n]),
                                  np.array([p])) for rho, u, p in (left, right))
        got = star_pressure(model, ul, ur, n[None])
        assert got == pytest.approx([p_star], abs=0.5 * last_digit)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1 (finding (a)): max(|v.n| + c) of "
                          "the two states is below the exact fan speed")
@pytest.mark.parametrize("gamma", [1.4, 5.0 / 3.0])
def test_wave_speed_bounds_the_exact_riemann_fan(gamma):
    """``Euler.max_wave_speed`` at (E, 3) shape, as the assembly calls it,
    is at least the fastest wave of the exact Riemann solution of every
    random pair of states, up to rounding."""
    model = Euler(gamma=gamma)
    rng = np.random.default_rng(3)
    shape = (400, 3)

    def states():
        return model.conserved(10.0 ** rng.uniform(-1.0, 1.0, shape),
                               rng.normal(0.0, 2.0, shape + (2,)),
                               10.0 ** rng.uniform(-2.0, 2.0, shape))

    ul, ur = states(), states()
    ang = rng.uniform(0.0, 2.0 * np.pi, shape)
    n = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    lam = model.max_wave_speed(ul, ur, n)
    assert lam.shape == shape
    exact = exact_fan_speed(model, ul, ur, n)
    below = lam < exact * (1.0 - 1e-12)
    assert not below.any(), (
        f"{below.sum()} of {below.size} pairs below the exact fan speed, "
        f"worst by {np.max(exact / lam):.2f}x")


@pytest.mark.parametrize("model", [
    LinearAdvection(velocity=rotation_velocity()), Burgers2D(), Euler()],
    ids=["advection", "burgers", "euler"])
def test_normal_flux_is_the_flux_tensor_along_n(model, rng):
    """f(u) . n without the flux tensor: that of ``flux`` dotted with n,
    with the Euler pressure given or not."""
    x = rng.uniform(0.0, 1.0, (40, 2))
    n = rng.normal(size=(40, 2))
    u = (random_euler_states(rng, model, (40,)) if model.m == 4
         else rng.uniform(-1.0, 1.0, (40, 1)))
    want = (model.flux(u, x) * n[:, None, :]).sum(axis=-1)
    for aux in (None, model.aux(u)):
        got = model.normal_flux(u, n, x, aux)
        assert got.shape == u.shape
        assert np.allclose(got, want, rtol=1e-14, atol=1e-14)


class TestFactory:
    def test_make_model_dispatch(self):
        assert isinstance(make_model("advection"), LinearAdvection)
        assert isinstance(make_model("burgers"), Burgers2D)
        assert isinstance(make_model("euler", gamma=1.3), Euler)
        assert make_model("euler", gamma=1.3).gamma == 1.3

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            make_model("banana")

    def test_unknown_velocity_rejected(self):
        with pytest.raises(ValueError, match="velocity"):
            make_model("advection", velocity="banana")
