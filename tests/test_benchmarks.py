import hashlib

import numpy as np
import pytest

from idpfem.benchmarks import (BENCHMARK_IDS, dmr_shock_indicator, dmr_states,
                               make_benchmark, moving_shock_state)
from idpfem.config import ConfigError, RunConfig
from idpfem.mesh import build_system, structured_rect
from idpfem.models import Euler

from conftest import perfbench_workloads, random_euler_states


def rankine_hugoniot_residuals(model, pre, post, mach, direction):
    """Oracle: jump-condition residuals in the shock-stationary frame.

    For a shock moving with speed s = M c1 into gas at rest, the flow
    velocities relative to the front must satisfy continuity of mass flux,
    normal momentum flux and total specific enthalpy.
    """
    g = model.gamma
    n = np.asarray(direction, dtype=float)
    rho1, v1, p1, c1 = model.primitives(pre)
    rho2, v2, p2, _ = model.primitives(post)
    s = mach * c1
    w1 = np.dot(v1, n) - s
    w2 = np.dot(v2, n) - s
    mass = rho1 * w1 - rho2 * w2
    mom = (rho1 * w1 ** 2 + p1) - (rho2 * w2 ** 2 + p2)
    enth = (g / (g - 1) * p1 / rho1 + 0.5 * w1 ** 2) \
        - (g / (g - 1) * p2 / rho2 + 0.5 * w2 ** 2)
    dv = v1 - v2  # tangential velocity continuous
    tang = dv[0] * n[1] - dv[1] * n[0]
    return mass, mom, enth, float(tang)


class TestMovingShockOracle:
    @pytest.mark.parametrize("mach", [1.5, 3.0, 10.0])
    def test_jump_conditions(self, mach):
        model = Euler(gamma=1.4)
        direction = np.array([0.8, -0.6])
        pre = model.conserved(1.4, [0.0, 0.0], 1.0)
        post = moving_shock_state(model, mach, 1.4, 1.0, direction)
        res = rankine_hugoniot_residuals(model, pre, post, mach, direction)
        for r in res:
            assert abs(r) < 1e-11

    def test_compression(self):
        model = Euler()
        post = moving_shock_state(model, 10.0, 1.4, 1.0, [1.0, 0.0])
        rho2, v2, p2, _ = model.primitives(post)
        assert rho2 > 1.4 and p2 > 1.0
        assert v2[0] > 0  # gas pushed in the propagation direction


class TestDmr:
    def test_states_satisfy_jump_conditions(self):
        model = Euler(gamma=1.4)
        pre, post = dmr_states(model)
        direction = np.array([np.sqrt(3) / 2, -0.5])
        res = rankine_hugoniot_residuals(model, pre, post, 10.0, direction)
        for r in res:
            assert abs(r) < 1e-11
        assert np.all(model.admissible(np.stack([pre, post])))

    def test_front_geometry(self):
        # the front crosses the wall start (1/6, 0) at t = 0 and is
        # inclined 60 degrees against the x axis
        eps = 1e-9
        x0 = 1.0 / 6.0
        assert dmr_shock_indicator(np.array([[x0 + eps, 0.0]]), 0.0)[0]
        assert not dmr_shock_indicator(np.array([[x0 - eps, 0.0]]), 0.0)[0]
        # moving up along the 60-degree line keeps the indicator boundary
        up = np.array([[x0 + 0.5 / np.tan(np.pi / 3), 0.5]])
        assert not dmr_shock_indicator(up - [[eps, 0.0]], 0.0)[0]
        assert dmr_shock_indicator(up + [[eps, 0.0]], 0.0)[0]

    def test_front_speed_along_x(self):
        # on the wall (y = 0) the trace moves with speed 10 / sin(60 deg)
        t = 0.05
        x_t = 1.0 / 6.0 + 10.0 * t / (np.sqrt(3) / 2)
        eps = 1e-7
        assert dmr_shock_indicator(np.array([[x_t + eps, 0.0]]), t)[0]
        assert not dmr_shock_indicator(np.array([[x_t - eps, 0.0]]), t)[0]

    def test_wall_bc_mirrors_momentum(self):
        cfg = RunConfig(benchmark="dmr", h=1 / 8)
        bench = make_benchmark(cfg)
        model = bench.model
        x = np.array([[2.0, 0.0]])
        nhat = np.array([[0.0, -1.0]])
        u_in = model.conserved(np.array([2.0]), np.array([[1.0, -3.0]]),
                               np.array([5.0]))
        u_ext = bench.bc(x, 0.1, u_in, nhat)
        assert u_ext[0, 1] == pytest.approx(u_in[0, 1])     # tangential kept
        assert u_ext[0, 2] == pytest.approx(-u_in[0, 2])    # normal flipped
        assert u_ext[0, 0] == u_in[0, 0]
        assert u_ext[0, 3] == u_in[0, 3]

    def test_bc_follows_its_position_array(self):
        """The DMR boundary masks are made once per position array: a call
        with other positions, or back with the first ones, gives the
        exterior states of the masks formed on every call."""
        cfg = RunConfig(benchmark="dmr", h=1 / 8)
        bench = make_benchmark(cfg)
        ms = build_system(bench.mesh)
        pre, post = dmr_states(bench.model)

        def reference(x, t, u_in, nhat):
            u_ext = u_in.copy()
            left = x[:, 0] <= 1e-12
            bottom = x[:, 1] <= 1e-12
            top = x[:, 1] >= 1.0 - 1e-12
            inflow_bottom = bottom & (x[:, 0] < 1.0 / 6.0)
            wall = bottom & ~inflow_bottom
            u_ext[left | inflow_bottom] = post
            ahead = dmr_shock_indicator(x[top], t)
            u_ext[top] = np.where(ahead[:, None], pre, post)
            mom, n = u_in[wall, 1:3], nhat[wall]
            u_ext[wall, 1:3] = mom - 2.0 * np.sum(mom * n, axis=-1,
                                                  keepdims=True) * n
            return u_ext

        rng = np.random.default_rng(2)
        x, nhat = ms.boundary_x, ms.boundary_nhat
        flipped = (x[::-1].copy(), nhat[::-1].copy())
        for t, (xx, nn) in zip([0.0, 0.01, 0.02, 0.03, 0.04],
                               [(x, nhat), (x, nhat), flipped, (x, nhat),
                                flipped]):
            u_in = random_euler_states(rng, bench.model, (len(xx),))
            got = bench.bc(xx, t, u_in, nn)
            assert got.tobytes() == reference(xx, t, u_in, nn).tobytes()

    def test_initial_state_matches_indicator(self):
        cfg = RunConfig(benchmark="dmr", h=1 / 8)
        bench = make_benchmark(cfg)
        ms = build_system(bench.mesh)
        u0 = bench.u0(ms.dof_coords)
        pre, post = dmr_states(bench.model)
        ahead = dmr_shock_indicator(ms.dof_coords, 0.0)
        assert np.allclose(u0[ahead], pre)
        assert np.allclose(u0[~ahead], post)


class TestRegistry:
    def test_all_ids_registered(self):
        assert set(BENCHMARK_IDS) == {"constant", "advected_gaussian",
                                      "solid_body_rotation",
                                      "burgers_riemann", "dmr"}

    def test_unknown_benchmark(self):
        cfg = RunConfig()
        cfg.benchmark = "banana"
        with pytest.raises(ConfigError):
            make_benchmark(cfg)

    @pytest.mark.parametrize("name", BENCHMARK_IDS)
    def test_initial_states_admissible(self, name):
        cfg = RunConfig(benchmark=name, h=1 / 8)
        bench = make_benchmark(cfg)
        ms = build_system(bench.mesh)
        u0 = bench.u0(ms.dof_coords)
        bench.model.set_global_bounds(u0)
        assert np.all(bench.model.admissible(u0, 0.0))

    @pytest.mark.parametrize("keys, message", [
        (dict(benchmark="dmr", model="advection"),
         "benchmark dmr runs model = euler, not advection"),
        (dict(benchmark="burgers_riemann", model="advection"),
         "benchmark burgers_riemann runs model = burgers, not advection"),
        (dict(benchmark="advected_gaussian", model="euler"),
         "benchmark advected_gaussian runs model = advection, not euler"),
        (dict(benchmark="solid_body_rotation", velocity="translation"),
         "benchmark solid_body_rotation runs velocity = rotation, not "
         "translation"),
        (dict(benchmark="burgers_riemann", velocity="rotation"),
         "benchmark burgers_riemann runs velocity = none, not rotation"),
        (dict(benchmark="constant", model="euler", velocity="translation"),
         "benchmark constant runs velocity = none, not translation")])
    def test_ignored_model_or_velocity_rejected(self, keys, message):
        with pytest.raises(ConfigError, match=message):
            make_benchmark(RunConfig(h=1 / 4, **keys))

    @pytest.mark.parametrize("keys", [
        dict(benchmark="dmr", model="euler"),
        dict(benchmark="burgers_riemann", model="burgers"),
        dict(benchmark="solid_body_rotation", model="advection",
             velocity="rotation"),
        dict(benchmark="advected_gaussian", velocity="rotation"),
        dict(benchmark="constant", model="burgers"),
        dict(benchmark="constant", velocity="rotation")])
    def test_model_and_velocity_the_benchmark_runs_accepted(self, keys):
        assert make_benchmark(RunConfig(h=1 / 4, **keys)).id == \
            keys["benchmark"]

    @pytest.mark.parametrize("keys, key", [
        (dict(benchmark="advected_gaussian", velocity="rotation", vx=5.0),
         "vx"),
        (dict(benchmark="advected_gaussian", velocity="rotation", vy=-3.0),
         "vy"),
        (dict(benchmark="solid_body_rotation", vx=1.0), "vx"),
        (dict(benchmark="constant", velocity="rotation", vy=1.0), "vy"),
        (dict(benchmark="constant", model="euler", vx=1.0), "vx"),
        (dict(benchmark="dmr", body="slotted", vx=3.0), "vx"),
        (dict(benchmark="dmr", body="slotted"), "body"),
        (dict(benchmark="burgers_riemann", vy=0.5), "vy"),
        (dict(benchmark="advected_gaussian", body="smooth"), "body"),
        (dict(benchmark="constant", body="slotted"), "body")])
    def test_key_the_benchmark_does_not_read_rejected(self, keys, key):
        with pytest.raises(ConfigError, match=f"does not read {key}$"):
            make_benchmark(RunConfig(h=1 / 4, **keys))

    @pytest.mark.parametrize("keys", [
        dict(benchmark="advected_gaussian", vx=0.5, vy=-1.0),
        dict(benchmark="advected_gaussian", velocity="translation", vx=2.0),
        dict(benchmark="constant", vy=0.0),
        dict(benchmark="solid_body_rotation", body="slotted")])
    def test_key_the_benchmark_reads_accepted(self, keys):
        assert make_benchmark(RunConfig(h=1 / 4, **keys)).id == \
            keys["benchmark"]

    def test_unset_translation_moves_along_the_diagonal(self):
        bench = make_benchmark(RunConfig(benchmark="advected_gaussian",
                                         h=1 / 4))
        assert bench.model.velocity(None).tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("smoke", [False, True])
    def test_benchmark_workload_configs_accepted(self, seed, smoke):
        for workload in perfbench_workloads().WORKLOADS.values():
            cfg = RunConfig(**workload.config(seed, smoke))
            assert make_benchmark(cfg).id == cfg.benchmark

    def test_euler_constant_variant(self):
        cfg = RunConfig(benchmark="constant", model="euler", h=1 / 4)
        bench = make_benchmark(cfg)
        assert bench.model.m == 4

    def test_h_with_a_mesh_rejected(self):
        mesh = structured_rect(4, 4, periodic=True)
        with pytest.raises(ConfigError, match="^benchmark constant with a "
                           "mesh file does not read h$"):
            make_benchmark(RunConfig(h=1 / 4), mesh)
        assert make_benchmark(RunConfig(), mesh).mesh is mesh

    def test_h_controls_resolution(self):
        small = make_benchmark(RunConfig(benchmark="constant", h=1 / 4)).mesh
        large = make_benchmark(RunConfig(benchmark="constant", h=1 / 8)).mesh
        assert large.n_elements == 4 * small.n_elements


class TestExactSolutions:
    def test_gaussian_exact_at_t0(self):
        cfg = RunConfig(benchmark="advected_gaussian", h=1 / 8)
        bench = make_benchmark(cfg)
        ms = build_system(bench.mesh)
        assert np.allclose(bench.exact(ms.dof_coords, 0.0),
                           bench.u0(ms.dof_coords))

    def test_translation_exact_wraps_one_period(self):
        cfg = RunConfig(benchmark="advected_gaussian", h=1 / 8, vx=1.0, vy=1.0)
        bench = make_benchmark(cfg)
        ms = build_system(bench.mesh)
        assert np.allclose(bench.exact(ms.dof_coords, 1.0),
                           bench.u0(ms.dof_coords), atol=1e-12)

    def test_rotation_exact_full_turn(self):
        cfg = RunConfig(benchmark="solid_body_rotation", h=1 / 8)
        bench = make_benchmark(cfg)
        ms = build_system(bench.mesh)
        assert np.allclose(bench.exact(ms.dof_coords, 1.0),
                           bench.u0(ms.dof_coords), atol=1e-12)

    def test_sbr_inflow_is_zero(self):
        cfg = RunConfig(benchmark="solid_body_rotation", h=1 / 8)
        bench = make_benchmark(cfg)
        # at (1, 0.5) the rotation velocity points in +y; the right-edge
        # outward normal is +x, so this is neither clearly in nor out; use
        # the bottom edge where v = (2 pi (0.5 - y), ...) -> v_y < 0 at x > 0.5
        x = np.array([[0.75, 0.0]])
        nhat = np.array([[0.0, -1.0]])
        u_in = np.array([[0.7]])
        out = bench.bc(x, 0.0, u_in, nhat)
        # velocity at (0.75, 0) is (pi, ...) with v_y = 2 pi (0.25) > 0,
        # so flow enters through the bottom -> prescribed zero
        assert out[0, 0] == 0.0

    def test_sbr_bc_follows_its_position_array(self):
        """The rotation inflow mask follows the positions and normals it is
        given: calls with the same arrays, with a shuffled copy of them and
        back with the first ones give the exterior states of the mask
        formed from each call's arrays."""
        cfg = RunConfig(benchmark="solid_body_rotation", h=1 / 8)
        bench = make_benchmark(cfg)
        ms = build_system(bench.mesh)
        velocity = bench.model.velocity

        def reference(x, t, u_in, nhat):
            inflow = np.sum(velocity(x) * nhat, axis=-1) < 0.0
            return np.where(inflow[:, None], 0.0, u_in)

        rng = np.random.default_rng(3)
        x, nhat = ms.boundary_x, ms.boundary_nhat
        # shuffled, not reversed: the inflow mask reads the same backwards
        order = rng.permutation(len(x))
        shuffled = (x[order], nhat[order])
        inflow = reference(x, 0.0, np.ones((len(x), 1)), nhat) == 0.0
        assert inflow.any() and not inflow.all()
        for t, (xx, nn) in zip([0.0, 0.01, 0.02, 0.03],
                               [(x, nhat), (x, nhat), shuffled, (x, nhat)]):
            u_in = rng.uniform(0.1, 1.0, (len(xx), 1))
            got = bench.bc(xx, t, u_in, nn)
            assert got.tobytes() == reference(xx, t, u_in, nn).tobytes()


def _setup_digest(bench):
    """sha256 prefix over what set-up takes from a benchmark: the model
    class (and its gamma or velocity at the DOFs), the resolved t_end, the
    mesh arrays, boundary tags and periodic pairs, u0 at the DOF
    coordinates, the exact solution at t = 0.3 and the boundary states at
    two times."""
    ms = build_system(bench.mesh)
    mesh, x = bench.mesh, ms.dof_coords
    model = bench.model
    h = hashlib.sha256()
    h.update(f"{type(model).__name__} {getattr(model, 'gamma', None)!r} "
             f"t_end = {bench.t_end!r}\n".encode())
    h.update(repr(sorted((int(i), int(j), str(tag)) for (i, j), tag
                         in mesh.boundary_tags.items())).encode())
    h.update(repr(sorted((int(a), int(b)) for a, b
                         in mesh.periodic_pairs.items())).encode())
    arrays = [mesh.nodes, mesh.triangles, bench.u0(x)]
    if hasattr(model, "velocity"):
        arrays.append(model.velocity(x))
    if bench.exact is not None:
        arrays.append(bench.exact(x, 0.3))
    if bench.bc is not None:
        xb, nb = ms.boundary_x, ms.boundary_nhat
        u_in = bench.u0(xb)
        arrays += [bench.bc(xb, t, u_in, nb) for t in (0.0, 0.1)]
    for a in map(np.asarray, arrays):
        h.update(f"{a.dtype.str} {a.shape}\n".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# What make_benchmark hands to set-up, pinned for every benchmark at its
# defaults, at h = 1/8 and at t_end = 0.3, and for the variants of model,
# velocity, translation and body: a change to how the benchmarks resolve
# their defaults must leave every bit as it was.
SETUP_CONFIGS = {
    **{f"{name}": dict(benchmark=name) for name in BENCHMARK_IDS},
    **{f"{name}-h": dict(benchmark=name, h=1 / 8) for name in BENCHMARK_IDS},
    **{f"{name}-t_end": dict(benchmark=name, t_end=0.3)
       for name in BENCHMARK_IDS},
    "constant-euler": dict(benchmark="constant", model="euler"),
    "constant-burgers": dict(benchmark="constant", model="burgers"),
    "constant-rotation": dict(benchmark="constant", velocity="rotation"),
    "advected_gaussian-rotation": dict(benchmark="advected_gaussian",
                                       velocity="rotation"),
    "advected_gaussian-vx-vy": dict(benchmark="advected_gaussian", vx=0.5,
                                    vy=-1.0),
    "solid_body_rotation-slotted": dict(benchmark="solid_body_rotation",
                                        body="slotted"),
}
SETUP_PINS = {
    "advected_gaussian": "7d23cf56a5459b70",
    "burgers_riemann": "b7cbe0a39b48c40e",
    "constant": "0d0b79c964e5ab88",
    "dmr": "d9ba7346307c4c1e",
    "solid_body_rotation": "7f1991236689b57e",
    "advected_gaussian-h": "8e686f63f755a477",
    "burgers_riemann-h": "9a9157e023cb04f1",
    "constant-h": "d8955f32b4d96486",
    "dmr-h": "9ee64454ac2c119d",
    "solid_body_rotation-h": "a38298109ebdf95e",
    "advected_gaussian-t_end": "0ee32932b9f2b854",
    "burgers_riemann-t_end": "adb4426289dd5326",
    "constant-t_end": "d864f5432e0c8689",
    "dmr-t_end": "de2828fe49d853ce",
    "solid_body_rotation-t_end": "42e34d5f81f55f10",
    "constant-euler": "0ee61fd7a8d5865d",
    "constant-burgers": "4d1c7ddf279fa1f3",
    "constant-rotation": "e219335aa149f110",
    "advected_gaussian-rotation": "dc21bc32755c7bfa",
    "advected_gaussian-vx-vy": "189cd40b5cd07b26",
    "solid_body_rotation-slotted": "045a9a41e028cc1d",
}


@pytest.mark.parametrize("name", SETUP_CONFIGS)
def test_setup_bytes_are_pinned(name):
    bench = make_benchmark(RunConfig(**SETUP_CONFIGS[name]))
    assert _setup_digest(bench) == SETUP_PINS[name]
