import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idpfem.models import (AdmissibilityError, Burgers2D, Euler,
                           LinearAdvection, make_model, rotation_velocity,
                           translation_velocity)

from conftest import random_euler_states


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
        vel = rotation_velocity(0.5, 0.5)
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


def exact_fan_speed(model, ul, ur, n):
    """max(-S_L, S_R, 0) of the exact Riemann fan between the states ul
    (left) and ur (right) along the unit normal n. The star pressure p*
    solves f_L(p) + f_R(p) + u_R - u_L = 0 (Toro, Sec. 4.2), by bisection;
    S_L is the left shock speed where p* > p_L, else the rarefaction head
    u_L - c_L, and S_R likewise."""
    g = model.gamma
    (rl, vl, pl, cl), (rr, vr, pr, cr) = (model.primitives(u)
                                          for u in (ul, ur))
    unl, unr = (vl * n).sum(axis=-1), (vr * n).sum(axis=-1)

    def f(p, rho, pk, c):
        shock = (p - pk) * np.sqrt(2.0 / ((g + 1.0) * rho)
                                   / (p + (g - 1.0) / (g + 1.0) * pk))
        fan = 2.0 * c / (g - 1.0) * ((p / pk) ** ((g - 1.0) / (2.0 * g))
                                     - 1.0)
        return np.where(p > pk, shock, fan)

    def rises(p):
        return f(p, rl, pl, cl) + f(p, rr, pr, cr) + unr - unl >= 0.0

    lo, hi = np.zeros_like(pl), np.maximum(pl, pr)
    while not np.all(rises(hi)):
        hi = np.where(rises(hi), hi, 2.0 * hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        up = rises(mid)
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)

    def speed(c, pk):
        return c * np.sqrt(1.0 + (g + 1.0) / (2.0 * g)
                           * np.maximum(hi / pk - 1.0, 0.0))

    return np.maximum(np.maximum(speed(cl, pl) - unl, unr + speed(cr, pr)),
                      0.0)


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
