"""The hot path: numpy scatters equal the ``ufunc.at`` forms bit for bit,
each SSP stage assembles once, and the assembly that ``dt_bound`` leaves
behind is only reused for the same state."""

import numpy as np
import pytest

import idpfem.schemes as schemes_mod
from idpfem.limiting import LimiterConfig
from idpfem.mesh import Mesh, build_system, structured_rect
from idpfem.models import Burgers2D, make_model
from idpfem.runner import integrate
from idpfem.schemes import SpatialScheme
from idpfem.timestepping import TimeControls

MESHES = {
    "periodic": lambda: build_system(structured_rect(6, 5, periodic=True)),
    "boundary": lambda: build_system(structured_rect(5, 7)),
}


@pytest.mark.parametrize("mesh", sorted(MESHES))
@pytest.mark.parametrize("trailing", [(), (3,)])
class TestScatter:
    def _vals(self, ms, trailing, seed):
        return np.random.default_rng(seed).normal(
            size=(ms.n_elements, 3) + trailing)

    def test_add_matches_add_at(self, mesh, trailing):
        ms = MESHES[mesh]()
        vals = self._vals(ms, trailing, 1)
        ref = np.zeros((ms.n_dofs,) + trailing)
        np.add.at(ref, ms.elem_dofs, vals)
        assert ms.scatter_add(vals).tobytes() == ref.tobytes()

    def test_min_max_match_ufunc_at(self, mesh, trailing):
        ms = MESHES[mesh]()
        vals = self._vals(ms, trailing, 2)
        lo = np.full((ms.n_dofs,) + trailing, np.inf)
        hi = np.full((ms.n_dofs,) + trailing, -np.inf)
        np.minimum.at(lo, ms.elem_dofs, vals)
        np.maximum.at(hi, ms.elem_dofs, vals)
        assert ms.scatter_min(vals).tobytes() == lo.tobytes()
        assert ms.scatter_max(vals).tobytes() == hi.tobytes()


def _scheme(limiter, bc=None, periodic=True):
    ms = build_system(structured_rect(6, 6, periodic=periodic))
    if bc is None:
        model = make_model("advection", velocity="translation", vx=1.0, vy=0.5)
    else:
        model = Burgers2D()
    u = np.random.default_rng(5).uniform(0.1, 1.0, (ms.n_dofs, 1))
    model.set_global_bounds(u)
    return SpatialScheme(ms=ms, model=model, limiter=limiter,
                         lcfg=LimiterConfig(), bc=bc), u


def _time_bc(x, t, u_in, nhat, tags):
    """An inflow state that moves with t, so the assembly depends on t."""
    return np.full_like(u_in, 0.5 + t)


@pytest.mark.parametrize("limiter", ["mcl.cs", "fct.cs", "low"])
@pytest.mark.parametrize("rk, stages", [("euler", 1), ("ssp2", 2), ("ssp3", 3)])
def test_one_assembly_per_stage(monkeypatch, limiter, rk, stages):
    calls = []
    original = schemes_mod.assemble

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(schemes_mod, "assemble", counting)
    scheme, u = _scheme(limiter)
    controls = TimeControls(cfl=0.5, t_end=0.05, scheme=rk)
    _, _, steps = integrate(scheme, u, controls)
    assert steps > 1
    assert len(calls) == stages * steps


@pytest.mark.parametrize("limiter", ["mcl.cs", "fct.cs", "low", "none"])
class TestMemo:
    def _fresh(self, limiter, u, t, dt=None):
        scheme, _ = _scheme(limiter, bc=_time_bc, periodic=False)
        if dt is not None:
            return scheme.step(u, t, dt)
        return scheme.rhs(u, t)

    def _check(self, limiter, mutate):
        """dt_bound at (u, 0.1), then ``mutate`` returns the (u, t) of the
        next call; its result must equal a fresh scheme's."""
        scheme, u = _scheme(limiter, bc=_time_bc, periodic=False)
        dt = 0.25 * scheme.dt_bound(u, 0.1)
        v, t = mutate(u)
        if scheme.driver == "fct":
            got = scheme.step(v, t, dt)
            ref = self._fresh(limiter, v.copy(), t, dt)
        else:
            got = scheme.rhs(v, t)
            ref = self._fresh(limiter, v.copy(), t)
        assert got.tobytes() == ref.tobytes()

    def test_same_state_reuses_bit_identically(self, limiter):
        self._check(limiter, lambda u: (u, 0.1))

    def test_in_place_change_of_u_is_noticed(self, limiter):
        def bump(u):
            u[3, 0] += 0.125
            return u, 0.1
        self._check(limiter, bump)

    def test_change_of_t_is_noticed(self, limiter):
        self._check(limiter, lambda u: (u, 0.3))

    def test_memo_is_single_use(self, limiter, monkeypatch):
        scheme, u = _scheme(limiter)
        dt = 0.25 * scheme.dt_bound(u, 0.0)
        calls = []
        original = schemes_mod.assemble
        monkeypatch.setattr(schemes_mod, "assemble",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        for _ in range(2):
            if scheme.driver == "fct":
                scheme.step(u, 0.0, dt)
            else:
                scheme.rhs(u, 0.0)
        assert len(calls) == 1


def _edges_reference(mesh):
    tri = mesh.triangles
    pairs = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
    pairs.sort(axis=1)
    return np.unique(pairs, axis=0, return_counts=True)


@pytest.mark.parametrize("make", [
    lambda: structured_rect(7, 4),
    lambda: structured_rect(5, 5, periodic=True),
    lambda: Mesh(nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                                 [2.0, 0.5]]),
                 triangles=np.array([[3, 2, 1], [0, 1, 2], [1, 4, 3]])).validate(),
])
def test_edges_match_unique_rows(make):
    mesh = make()
    uniq, counts = mesh.edges()
    ref_uniq, ref_counts = _edges_reference(mesh)
    assert uniq.dtype == ref_uniq.dtype
    assert np.array_equal(uniq, ref_uniq)
    assert np.array_equal(counts, ref_counts)
