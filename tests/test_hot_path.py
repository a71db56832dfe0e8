"""The hot path: numpy scatters equal the ``ufunc.at`` forms bit for bit,
each SSP stage assembles once, the assembly that ``dt_bound`` leaves behind
is only reused for the same state, a model with a linear flux has its
coefficients, viscosity and CFL bound computed once per scheme and no wave
speed at all, element blocks stored with the element
index fastest give the same bits as C-ordered ones, a step reuses the
scheme's buffers instead of allocating element-sized temporaries, and the
records it passes along carry no field that the package does not read."""

import ast
import contextlib
import dataclasses
import gc
import pathlib
import tracemalloc
import weakref

import numpy as np
import pytest

import idpfem
import idpfem.assembly as assembly_mod
import idpfem.limiting as limiting_mod
import idpfem.runner as runner_mod
import idpfem.schemes as schemes_mod
from conftest import perfbench_workloads, random_euler_states
from idpfem.assembly import (BoundaryWork, ElementWork, LinearFlux,
                             assemble, linear_flux)
from idpfem.config import RunConfig
from idpfem.benchmarks import Benchmark
from idpfem.diagnostics import StepReport
from idpfem.limiting import LimitResult, local_bounds
from idpfem.mesh import (ElementGeometry, Mesh, MeshSystem, Workspace,
                         build_system, read_mesh, scratch, structured_rect,
                         write_mesh)
from idpfem.models import Burgers2D, Euler, LinearAdvection, make_model
from idpfem.runner import RunResult, integrate, setup
from idpfem.schemes import SCHEME_KEYS, CFLError, SpatialScheme, StageRecord
from idpfem.timestepping import TimeControls, compute_dt, ssp_rk_step

def _dmr_system():
    _, ms, _, _, _ = setup(RunConfig(benchmark="dmr", h=1 / 8))
    return ms


MESHES = {
    "periodic": lambda: build_system(structured_rect(6, 5, periodic=True)),
    # bounded: corner and edge DOFs have padded table columns
    "boundary": lambda: build_system(structured_rect(5, 7)),
    # one periodic row: elements whose nodes share a DOF
    "repeated": lambda: build_system(structured_rect(1, 3, periodic=True)),
    "dmr": _dmr_system,
}


def _dof_fastest(a):
    """Stored with the DOF index fastest: a.T is C-contiguous."""
    return a.T.flags.c_contiguous


@pytest.mark.parametrize("mesh", sorted(MESHES))
@pytest.mark.parametrize("trailing", [(), (1,), (3,), (4,)])
class TestScatter:
    """Every scatter equals its ``ufunc.at`` form bit for bit, for both
    storage orders of the element values, and returns its per-DOF result
    with the DOF index fastest."""

    def _vals(self, ms, trailing, seed):
        vals = np.random.default_rng(seed).normal(
            size=(ms.n_elements, 3) + trailing)
        return vals, np.asfortranarray(vals)

    def _min_max_ref(self, ms, vals):
        lo = np.full((ms.n_dofs,) + vals.shape[2:], np.inf)
        hi = np.full((ms.n_dofs,) + vals.shape[2:], -np.inf)
        np.minimum.at(lo, ms.elem_dofs, vals)
        np.maximum.at(hi, ms.elem_dofs, vals)
        return lo, hi

    def test_padding_only_off_periodic_meshes(self, mesh, trailing):
        ms = MESHES[mesh]()
        assert (ms.dof_pad.size > 0) == (mesh in ("boundary", "dmr"))

    def test_add_matches_add_at(self, mesh, trailing):
        ms = MESHES[mesh]()
        vals, vals_f = self._vals(ms, trailing, 1)
        ref = np.zeros((ms.n_dofs,) + trailing)
        np.add.at(ref, ms.elem_dofs, vals)
        for v, ws in ((vals, None), (vals_f, None), (vals_f, Workspace())):
            got = ms.scatter_add(v, ws)
            assert got.tobytes() == ref.tobytes()
            assert _dof_fastest(got)

    def test_add_keeps_signed_zeros(self, mesh, trailing):
        """Zeros of either sign, the case where an added +0.0 for a
        padding slot could flip a bit."""
        ms = MESHES[mesh]()
        vals, _ = self._vals(ms, trailing, 3)
        vals = np.where(vals > 0, -0.0, np.where(vals > -0.5, 0.0, vals))
        ref = np.zeros((ms.n_dofs,) + trailing)
        np.add.at(ref, ms.elem_dofs, vals)
        assert ms.scatter_add(np.asfortranarray(vals)).tobytes() == \
            ref.tobytes()

    def test_min_max_match_ufunc_at(self, mesh, trailing):
        ms = MESHES[mesh]()
        vals, vals_f = self._vals(ms, trailing, 2)
        lo, hi = self._min_max_ref(ms, vals)
        for v in (vals, vals_f):
            got_lo, got_hi = ms.scatter_min_max(v)
            assert got_lo.tobytes() == lo.tobytes()
            assert got_hi.tobytes() == hi.tobytes()
            assert _dof_fastest(got_lo) and _dof_fastest(got_hi)

    def test_fused_min_max_matches_ufunc_at(self, mesh, trailing):
        ms = MESHES[mesh]()
        vals, vals_f = self._vals(ms, trailing, 4)
        lo, hi = self._min_max_ref(ms, vals)
        for v, ws in ((vals, None), (vals_f, None), (vals_f, Workspace())):
            got_lo, got_hi = ms.scatter_min_max(v, ws)
            assert got_lo.tobytes() == lo.tobytes()
            assert got_hi.tobytes() == hi.tobytes()
            assert _dof_fastest(got_lo) and _dof_fastest(got_hi)
            assert not np.shares_memory(got_lo, got_hi)


class TestShapeContracts:
    """``gather`` and the scatters take with mode="clip", which would read a
    block of the wrong shape through wrong positions; they raise instead."""

    def test_gather_rejects_short_values(self):
        ms = MESHES["boundary"]()
        u = np.ones((ms.n_dofs, 1))
        assert ms.gather(u).shape == (ms.n_elements, 3, 1)
        with pytest.raises(ValueError, match="gather"):
            ms.gather(u[:5])

    @pytest.mark.parametrize("rows, shape", [(0, (3, 2)), (0, (1, 1)),
                                             (0, (3,)), (-1, (3, 1))])
    def test_gather_rejects_misshapen_out(self, rows, shape):
        ms = MESHES["boundary"]()
        u = np.ones((ms.n_dofs, 1))
        ms.gather(u, out=np.empty((ms.n_elements, 3, 1), order="F"))
        out = np.empty((ms.n_elements + rows,) + shape, order="F")
        with pytest.raises(ValueError, match="gather"):
            ms.gather(u, out=out)

    @pytest.mark.parametrize("scatter", ["scatter_add", "scatter_min",
                                         "scatter_max", "scatter_min_max"])
    @pytest.mark.parametrize("shape", ["E11", "E-1,3", "3E"])
    def test_scatters_reject_misshapen_blocks(self, scatter, shape):
        ms = MESHES["boundary"]()
        n_el = ms.n_elements
        vals = np.ones({"E11": (n_el, 1, 1), "E-1,3": (n_el - 1, 3),
                        "3E": (3 * n_el,)}[shape])
        call = {"scatter_add": ms.scatter_add,
                "scatter_min": lambda v: ms.scatter_min_max(v)[0],
                "scatter_max": lambda v: ms.scatter_min_max(v)[1],
                "scatter_min_max": ms.scatter_min_max}[scatter]
        with pytest.raises(ValueError, match="element block"):
            call(vals)


def _scheme(limiter, bc=None, periodic=True):
    ms = build_system(structured_rect(6, 6, periodic=periodic))
    if bc is None:
        model = make_model("advection", velocity="translation", vx=1.0, vy=0.5)
    else:
        model = Burgers2D()
    u = np.random.default_rng(5).uniform(0.1, 1.0, (ms.n_dofs, 1))
    model.set_global_bounds(u)
    return SpatialScheme(ms=ms, model=model, limiter=limiter, bc=bc), u


def _time_bc(x, t, u_in, nhat):
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
    lambda: build_system(Mesh(
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                        [2.0, 0.5]]),
        triangles=np.array([[3, 2, 1], [0, 1, 2], [1, 4, 3]]))).mesh,
])
def test_edges_match_unique_rows(make):
    mesh = make()
    keys, counts, n = mesh._edge_keys()
    uniq = np.stack(np.divmod(keys, n), axis=1)
    ref_uniq, ref_counts = _edges_reference(mesh)
    assert uniq.dtype == ref_uniq.dtype
    assert np.array_equal(uniq, ref_uniq)
    assert np.array_equal(counts, ref_counts)


# --- storage order ---------------------------------------------------------

def _element_fastest(a):
    return a.strides[0] == a.itemsize


def _problem(model_name, mesh_kind):
    """(ms, model, bc, u) of a small problem with nontrivial gradients."""
    rng = np.random.default_rng(7)
    if model_name == "euler" and mesh_kind == "bounded":
        _, ms, model, scheme, u0 = setup(RunConfig(benchmark="dmr", h=1 / 4))
        # Scaling a state by a positive factor keeps it admissible.
        u = u0 * rng.uniform(0.9, 1.1, (ms.n_dofs, 1))
        return ms, model, scheme.bc, u
    ms = build_system(structured_rect(6, 5, periodic=mesh_kind == "periodic"))
    bc = None if mesh_kind == "periodic" else _time_bc
    if model_name == "euler":
        model = make_model("euler")
        return ms, model, bc, random_euler_states(rng, model, (ms.n_dofs,))
    if model_name == "burgers":
        model = Burgers2D()
    else:
        model = make_model("advection", velocity=model_name,
                           **({"vx": 1.0, "vy": 0.5}
                              if model_name == "translation" else {}))
    u = rng.uniform(0.1, 1.0, (ms.n_dofs, 1))
    model.set_global_bounds(u)
    return ms, model, bc, u


def _into(out, result):
    """``result``, copied into ``out`` when one is given (numpy's ``out=``)."""
    if out is None:
        return result
    out[...] = result
    return out


class _COrderModel:
    """A model whose fluxes and wave speeds come back C-ordered."""

    def __init__(self, model):
        self._model = model

    def __getattr__(self, name):
        return getattr(self._model, name)

    def flux(self, u, x=None, out=None, **aux):
        return _into(out, np.ascontiguousarray(self._model.flux(u, x, **aux)))

    def max_wave_speed(self, ul, ur, n, x=None, out=None, **aux):
        return _into(out, np.ascontiguousarray(
            self._model.max_wave_speed(ul, ur, n, x, **aux)))


def _plain_dot(f, c, out=None, tmp=None):
    return _into(out, f[..., 0] * c[..., None, 0] + f[..., 1] * c[..., None, 1])


@contextlib.contextmanager
def _c_order(monkeypatch, ms, model):
    """The same mesh system and model with every per-element array
    C-ordered, a fancy-indexing gather and the plain f . c: the reference
    layout."""
    geom = dataclasses.replace(ms.geometry, **{
        f.name: np.ascontiguousarray(getattr(ms.geometry, f.name))
        for f in dataclasses.fields(ms.geometry)})
    twin = dataclasses.replace(ms, geometry=geom,
                               elem_dofs=np.ascontiguousarray(ms.elem_dofs))
    twin.gather = lambda x, out=None: _into(out, x[twin.elem_dofs])
    with monkeypatch.context() as patch:
        patch.setattr(assembly_mod, "_dot", _plain_dot)
        yield twin, _COrderModel(model)


def _arrays(*parts):
    """Every array field of the given work records, by name."""
    out = {}
    for part in parts:
        if part is None:
            continue
        for k, v in vars(part).items():
            if isinstance(v, np.ndarray):
                out[f"{type(part).__name__}.{k}"] = v
    return out


MODELS = ["translation", "rotation", "burgers", "euler"]
MESH_KINDS = ["periodic", "bounded"]


@pytest.mark.parametrize("mesh_kind", MESH_KINDS)
@pytest.mark.parametrize("model_name", MODELS)
def test_assembly_is_element_fastest_and_bit_equal_to_c_order(
        monkeypatch, model_name, mesh_kind):
    ms, model, bc, u = _problem(model_name, mesh_kind)
    geom = ms.geometry
    for a in (ms.elem_dofs, geom.c, geom.c_hat, geom.c_norm, geom.centroid):
        assert _element_fastest(a)
    work, bwork = assemble(ms, model, u, 0.1, bc)
    x = np.broadcast_to(geom.centroid[:, None, :], geom.c.shape)
    assert model.flux(work.u_loc, x).flags.f_contiguous
    with _c_order(monkeypatch, ms, model) as (twin, cmodel):
        ref_work, ref_bwork = assemble(twin, cmodel, u, 0.1, bc)

    got, ref = _arrays(work, bwork), _arrays(ref_work, ref_bwork)
    assert got.keys() == ref.keys()
    for name, a in got.items():
        if name.startswith("ElementWork.") and a.shape[0] == ms.n_elements:
            assert _element_fastest(a), name
            assert ref[name].flags.c_contiguous, name
        assert a.tobytes() == ref[name].tobytes(), name


@pytest.mark.parametrize("limiter", ["low", "mcl.cs", "fct.cs", "mcl.scale"])
@pytest.mark.parametrize("mesh_kind", MESH_KINDS)
@pytest.mark.parametrize("model_name", MODELS)
def test_stage_bit_equal_to_c_order(monkeypatch, model_name, mesh_kind,
                                    limiter):
    ms, model, bc, u = _problem(model_name, mesh_kind)
    scheme = SpatialScheme(ms=ms, model=model, limiter=limiter, bc=bc)
    dt = scheme.dt_bound(u, 0.1)
    got = (scheme.step(u, 0.1, 0.5 * dt) if scheme.driver == "fct"
           else scheme.rhs(u, 0.1))
    with _c_order(monkeypatch, ms, model) as (twin, cmodel):
        ref = SpatialScheme(ms=twin, model=cmodel, limiter=limiter, bc=bc)
        assert ref.dt_bound(u, 0.1) == dt
        want = (ref.step(u, 0.1, 0.5 * dt) if ref.driver == "fct"
                else ref.rhs(u, 0.1))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("limiter", ["mcl.cs", "fct.cs", "mcl.scale"])
@pytest.mark.parametrize("model_name", ["translation", "euler"])
def test_gathered_bounds_are_element_fastest(monkeypatch, model_name, limiter):
    """Every block ``MeshSystem.gather`` hands the limiters (the gathered
    bounds and bound candidates) is stored with the element index fastest.
    A system model's bounds are gathered once for all components, by the
    system limiter, and the product rule's bounds on the specific values
    inside the ``limit_scalar_contributions`` call that limits its
    remainder."""
    inside = {"limit_scalar_contributions", "limit_system_contributions",
              "product_rule_cs"}
    seen = []
    stack = []
    original_gather = MeshSystem.gather

    def gather(self, x, out=None):
        out = original_gather(self, x, out)
        if stack:
            seen.append((stack[-1], out))
        return out

    monkeypatch.setattr(MeshSystem, "gather", gather)
    for name in inside:
        fn = getattr(limiting_mod, name)

        def entered(*args, _fn=fn, _name=name, **kwargs):
            stack.append(_name)
            try:
                return _fn(*args, **kwargs)
            finally:
                stack.pop()

        monkeypatch.setattr(limiting_mod, name, entered)
        if hasattr(schemes_mod, name):
            monkeypatch.setattr(schemes_mod, name, entered)

    ms, model, bc, u = _problem(model_name, "bounded")
    scheme = SpatialScheme(ms=ms, model=model, limiter=limiter, bc=bc)
    dt = scheme.dt_bound(u, 0.0)
    if scheme.driver == "fct":
        scheme.step(u, 0.0, 0.5 * dt)
    else:
        scheme.rhs(u, 0.0)
    expected = ({"limit_system_contributions", "limit_scalar_contributions"}
                if model.m > 1 else {"limit_scalar_contributions"})
    assert {name for name, _ in seen} == expected
    for name, a in seen:
        assert a.shape[:2] == (ms.n_elements, 3)
        assert _element_fastest(a), name


def test_assembly_computes_each_euler_pressure_once(monkeypatch):
    """One DMR assembly computes the pressure once per state set (ubar,
    u_loc and the two boundary states) and shares it between the fluxes
    and the wave speeds, with the bits of each computing its own."""
    ms, model, bc, u = _problem("euler", "bounded")
    counts = {"pressure": 0, "internal_energy_density": 0}
    for name in counts:
        def counting(self, *args, _name=name, _fn=getattr(Euler, name),
                     **kwargs):
            counts[_name] += 1
            return _fn(self, *args, **kwargs)
        monkeypatch.setattr(Euler, name, counting)

    work, bwork = assemble(ms, model, u, 0.1, bc, ws=Workspace())
    assert bwork is not None
    assert counts == {"pressure": 4, "internal_energy_density": 4}

    monkeypatch.setattr(Euler, "aux", lambda self, u, out=None, tmp=None: None)
    ref_work, ref_bwork = assemble(ms, model, u, 0.1, bc)
    assert counts == {"pressure": 12, "internal_energy_density": 12}
    got, ref = _arrays(work, bwork), _arrays(ref_work, ref_bwork)
    assert got.keys() == ref.keys()
    for name, a in got.items():
        assert a.tobytes() == ref[name].tobytes(), name


# --- bounds of all components in one pass ------------------------------------

def _bounds_per_component(ms, field, elem_vals, bwork):
    """The reference: one ``local_bounds`` call per component."""
    out = []
    for k in range(field.shape[1]):
        bwork_k = None if bwork is None else dataclasses.replace(
            bwork, bar_states=bwork.bar_states[:, k])
        out.append(local_bounds(ms, field[:, k], None if elem_vals is None
                                else elem_vals[..., k], bwork_k))
    return out


@pytest.mark.parametrize("ws", [False, True], ids=["fresh", "workspace"])
@pytest.mark.parametrize("mode", ["barstate", "stencil"])
@pytest.mark.parametrize("mesh_kind", MESH_KINDS)
@pytest.mark.parametrize("model_name", ["translation", "euler"])
def test_component_bounds_bit_equal_to_per_component_loop(
        model_name, mesh_kind, mode, ws):
    ws = Workspace() if ws else None
    ms, model, bc, u = _problem(model_name, mesh_kind)
    work, bwork = assemble(ms, model, u, 0.1, bc, ws=ws)
    assert (bwork is not None) == (mesh_kind == "bounded")
    # bar-state bounds take the element values, stencil bounds none
    elem_vals = work.bar_states if mode == "barstate" else None
    lo, hi = local_bounds(ms, u, elem_vals, bwork, ws)
    ref = _bounds_per_component(ms, u, elem_vals, bwork)
    assert lo.shape == hi.shape == (ms.n_dofs, model.m)
    assert len(ref) == model.m
    for k, (lo_ref, hi_ref) in enumerate(ref):
        assert lo[:, k].tobytes() == lo_ref.tobytes()
        assert hi[:, k].tobytes() == hi_ref.tobytes()


# --- buffers: allocation and aliasing ----------------------------------------

# The benchmark workloads: 8192 elements, ssp2, cfl 0.5.
WORKLOAD_CONFIGS = {
    "advect-mcl": dict(benchmark="advected_gaussian", h=1 / 64,
                       limiter="mcl.cs", velocity="translation", vx=1.0,
                       vy=1.0, t_end=0.1, audit_every=1),
    "advect-fct": dict(benchmark="advected_gaussian", h=1 / 64,
                       limiter="fct.cs", velocity="translation", vx=1.0,
                       vy=1.0, t_end=0.1, audit_every=1),
    "dmr-mcl": dict(benchmark="dmr", h=1 / 32, limiter="mcl.cs",
                    system_limiter="sequential", t_end=0.002,
                    audit_every=50, output_every_t=0.0002),
    # the scaling limiter in the same stage
    "dmr-scale": dict(benchmark="dmr", h=1 / 32, limiter="mcl.scale",
                      system_limiter="sequential", t_end=0.002,
                      audit_every=50, output_every_t=0.0002),
    # a position-dependent velocity, evaluated only for the kept d^e and k
    "rotation-mcl": dict(benchmark="advected_gaussian", h=1 / 64,
                         limiter="mcl.cs", velocity="rotation", t_end=0.1,
                         audit_every=1),
}
# Largest traced growth of memory during one warm SSP2 step, in bytes: the
# per-DOF arrays and masks a step allocates (measured 0.24, 0.30 and 1.11
# MB; 0.23 for rotation), with a margin. The element-sized temporaries each
# step used to allocate peaked at 3.9 MB (advection) and 13.8 MB (DMR),
# those of the limiters alone at 0.64, 0.67 and 2.46 MB, and the rotation
# velocity at the centroids and its products with c_i at 0.36 MB.
STEP_ALLOCATION_LIMIT = {"advect-mcl": 0.35e6, "advect-fct": 0.45e6,
                         "dmr-mcl": 1.5e6, "dmr-scale": 1.5e6,
                         "rotation-mcl": 0.35e6}
# Largest size of the scheme's workspace after a warm step, in bytes. It was
# 3.44, 4.03 and 14.98 MB while the assembly kept f(u_i) . c_i, the mass
# term and the wave speeds in buffers of their own, 3.28 MB on advect-fct
# while the stencil bounds kept a gathered field and element candidates in
# two (E, 3) buffers, and 2.56, 2.39, 12.74 and 2.56 MB (advect-mcl,
# advect-fct, dmr-mcl, rotation-mcl) while the CFL bound, the bound gaps
# and the limiters kept their element temporaries and the system limiter
# its result in buffers of their own, and 1.84, 1.67, 8.35, 8.94
# (dmr-scale) and 1.84 MB (now 1.64, 1.47, 5.97, 6.17 and 1.64) while the
# scatters took one row block of all components, the limiter's
# per-element sums and the scaling limiter's node factors had buffers of
# their own, the Euler f_anti had its own beside the spent flux tensor,
# and FCT gathered its base (scalar FCT: at all).
WORKSPACE_LIMIT = {"advect-mcl": 1.7e6, "advect-fct": 1.55e6,
                   "dmr-mcl": 6.1e6, "dmr-scale": 6.29e6,
                   "rotation-mcl": 1.7e6}


@pytest.mark.parametrize("name", sorted(WORKLOAD_CONFIGS))
def test_warm_step_allocates_no_element_blocks(name):
    cfg = RunConfig(rk="ssp2", cfl=0.5, **WORKLOAD_CONFIGS[name])
    _, ms, _, scheme, u = setup(cfg)
    assert ms.n_elements == 8192
    stage = scheme.stage_map()

    def step(u, t):
        dt = compute_dt(scheme.dt_bound(u, t), cfg.cfl, t, cfg.t_end)
        return ssp_rk_step("ssp2", stage, u, t, dt), t + dt

    u, t = step(u, 0.0)                       # fills the buffers
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        step(u, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= STEP_ALLOCATION_LIMIT[name]
    assert sum(a.nbytes for a in scheme.ws.values()) <= WORKSPACE_LIMIT[name]


@pytest.mark.parametrize("name", sorted(WORKLOAD_CONFIGS))
def test_warm_step_makes_no_views_and_no_broadcasts(monkeypatch, name):
    """A warm step takes every buffer view from the scheme's workspace,
    where it was made once, and broadcasts nothing through
    ``np.broadcast_to``."""
    cfg = RunConfig(rk="ssp2", cfl=0.5, **WORKLOAD_CONFIGS[name])
    _, ms, _, scheme, u = setup(cfg)
    stage = scheme.stage_map()

    def step(u, t):
        dt = compute_dt(scheme.dt_bound(u, t), cfg.cfl, t, cfg.t_end)
        return ssp_rk_step("ssp2", stage, u, t, dt), t + dt

    u, t = step(*step(u, 0.0))                # fills the buffers and views
    views = dict(scheme.ws.views)
    assert views
    calls = []
    original = np.broadcast_to
    monkeypatch.setattr(np, "broadcast_to",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    step(u, t)
    assert calls == []
    assert scheme.ws.views.keys() == views.keys()
    assert all(scheme.ws.views[k] is v for k, v in views.items())


# Largest traced peak of one warm runner.run, in bytes (measured 4.58 and
# 4.26 MB on advect-fct and advect-mcl; 5.50 and 4.85 MB while every run
# formed the wave-speed geometry c_norm and c_hat, and every linear run the
# bar-state weights w).
RUN_PEAK_LIMIT = {"advect-fct": 4.9e6, "advect-mcl": 4.5e6}


@pytest.mark.parametrize("name", sorted(RUN_PEAK_LIMIT))
def test_warm_run_traced_peak(tmp_path, name):
    cfg = RunConfig(rk="ssp2", cfl=0.5, **WORKLOAD_CONFIGS[name])
    runner_mod.run(cfg, out_dir=tmp_path)            # the one-time costs
    tracemalloc.start()
    try:
        result = runner_mod.run(cfg, out_dir=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.ms.n_elements == 8192
    assert peak <= RUN_PEAK_LIMIT[name]


@pytest.mark.parametrize("bench, limiter", [
    ("advected_gaussian", "mcl.cs"), ("advected_gaussian", "fct.cs"),
    ("advected_gaussian", "low"), ("solid_body_rotation", "mcl.cs"),
    ("solid_body_rotation", "fct.scale"), ("burgers_riemann", "fct.cs")])
def test_linear_runs_form_only_what_they_read(monkeypatch, tmp_path,
                                              bench, limiter):
    """A run with a linear flux forms no wave-speed geometry (``c_norm``,
    ``c_hat``), which only a nonlinear flux reads, and only an MCL run
    forms the bar-state weights ``w`` of its ``LinearFlux``."""
    schemes, original = [], runner_mod.setup

    def kept(cfg):
        made = original(cfg)
        schemes.append(made[3])
        return made

    monkeypatch.setattr(runner_mod, "setup", kept)
    result = runner_mod.run(RunConfig(benchmark=bench, h=1 / 8,
                                      t_end=0.05, limiter=limiter),
                            out_dir=tmp_path)
    assert result.steps > 0
    lin = schemes[0]._lin
    formed = vars(result.ms.geometry).keys() & {"c_norm", "c_hat"}
    if bench == "burgers_riemann":
        assert lin is None and formed == {"c_norm", "c_hat"}
        return
    assert formed == set()
    assert ("w" in vars(lin)) == limiter.startswith("mcl")


def test_workspace_dies_with_its_scheme():
    """The cached views live in the scheme's own workspace: nothing else
    keeps it alive once the scheme is dropped, even while its mesh system
    and model live on."""
    scheme, u = _scheme("mcl.cs")
    ms, model = scheme.ms, scheme.model
    scheme.rhs(u, 0.0)
    ws = weakref.ref(scheme.ws)
    assert ws().views
    del scheme
    gc.collect()
    assert ws() is None
    assert ms is not None and model is not None


def test_workspace_view_follows_a_grown_buffer():
    assert scratch(None, "x", (2, 3)) is None
    ws = Workspace()
    small = scratch(ws, "x", (2, 3))
    assert scratch(ws, "x", (2, 3)) is small
    big = scratch(ws, "x", (4, 3))               # the buffer is replaced
    again = scratch(ws, "x", (2, 3))
    assert again is not small and np.shares_memory(again, big)
    assert again.flags.f_contiguous and again.shape == (2, 3)


def _stage(scheme, u, t, dt):
    if scheme.driver == "fct":
        return scheme.step(u, t, dt)
    return scheme.rhs(u, t)


@pytest.mark.parametrize("limiter", ["mcl.cs", "fct.cs", "low", "none"])
@pytest.mark.parametrize("model_name", ["translation", "euler"])
def test_consecutive_results_share_no_memory(model_name, limiter):
    ms, model, bc, u = _problem(model_name, "bounded")
    scheme = SpatialScheme(ms=ms, model=model, limiter=limiter, bc=bc)
    dt = 0.5 * scheme.dt_bound(u, 0.1)
    first = _stage(scheme, u, 0.1, dt)
    kept = first.copy()
    second = _stage(scheme, u, 0.1, dt)
    assert not np.shares_memory(first, second)
    assert first.tobytes() == kept.tobytes() == second.tobytes()


@pytest.mark.parametrize("model_name", ["translation", "euler"])
def test_fresh_assembly_is_not_overwritten(model_name):
    ms, model, bc, u = _problem(model_name, "bounded")
    work, bwork = assemble(ms, model, u, 0.1, bc)
    first = {k: a.copy() for k, a in _arrays(work, bwork).items()}
    other, _ = assemble(ms, model, u[::-1].copy(), 0.3, bc)
    for name, a in _arrays(work, bwork).items():
        assert a.tobytes() == first[name].tobytes(), name
    for name, a in _arrays(work).items():
        for b in _arrays(other).values():
            assert not np.shares_memory(a, b), name
    # a workspace gives the same bits
    ws_work, ws_bwork = assemble(ms, model, u, 0.1, bc, ws=Workspace())
    for name, a in _arrays(ws_work, ws_bwork).items():
        assert a.tobytes() == first[name].tobytes(), name


@pytest.mark.parametrize("limiters", [("mcl.cs", "mcl.cs"), ("mcl.cs", "fct.cs"),
                                      ("fct.cs", "low"), ("mcl.cs", "mcl.scale"),
                                      ("mcl.scale", "mcl.cs"),
                                      ("fct.cs", "fct.scale"),
                                      ("fct.scale", "fct.cs")])
@pytest.mark.parametrize("model_name", ["translation", "euler"])
def test_interleaved_schemes_on_one_mesh_system(model_name, limiters):
    """Two schemes on one MeshSystem and model, stepped stage by stage in
    turn (each one's dt_bound assembly waits while the other assembles),
    give the bits of each scheme built and stepped alone."""
    ms, model, bc, u0 = _problem(model_name, "bounded")

    def scheme_of(limiter):
        return SpatialScheme(ms=ms, model=model, limiter=limiter, bc=bc)

    def dt_of(scheme, u, t):
        return compute_dt(scheme.dt_bound(u, t), 0.5, t, 1.0)

    alone = []
    for lim in limiters:
        scheme = scheme_of(lim)
        u, t = u0, 0.1
        for _ in range(3):
            dt = dt_of(scheme, u, t)
            u, t = ssp_rk_step("ssp2", scheme.stage_map(), u, t, dt), t + dt
        alone.append(u)

    pair = [scheme_of(lim) for lim in limiters]
    maps = [scheme.stage_map() for scheme in pair]
    us, t = [u0, u0], [0.1, 0.1]
    for _ in range(3):
        dts = [dt_of(s, u, tt) for s, u, tt in zip(pair, us, t)]
        u1 = [f(u, tt, dt) for f, u, tt, dt in zip(maps, us, t, dts)]
        u2 = [f(v, tt + dt, dt) for f, v, tt, dt in zip(maps, u1, t, dts)]
        us = [0.5 * u + 0.5 * w for u, w in zip(us, u2)]
        t = [tt + dt for tt, dt in zip(t, dts)]
    for u, ref in zip(us, alone):
        assert u.tobytes() == ref.tobytes()


# --- stencil bounds in one take ----------------------------------------------

def _unstructured_system():
    """A mesh read from the text format whose valences vary from node to
    node: a 4 x 3 grid of jittered cells, each split along a random
    diagonal or into four triangles around a node at its centre."""
    rng = np.random.default_rng(3)
    nx, ny = 4, 3
    nodes, index = [], {}
    for j in range(ny + 1):
        for i in range(nx + 1):
            jitter = rng.uniform(-0.2, 0.2, 2) * [0 < i < nx, 0 < j < ny]
            index[i, j] = len(nodes)
            nodes.append(np.array([i, j]) + jitter)
    tris = []
    for j in range(ny):
        for i in range(nx):
            a, b, c, d = (index[i, j], index[i + 1, j], index[i + 1, j + 1],
                          index[i, j + 1])
            split = rng.integers(3)
            if split == 0:
                tris += [(a, b, c), (a, c, d)]
            elif split == 1:
                tris += [(a, b, d), (b, c, d)]
            else:
                m = len(nodes)
                nodes.append(np.mean([nodes[k] for k in (a, b, c, d)], axis=0))
                tris += [(a, b, m), (b, c, m), (c, d, m), (d, a, m)]
    mesh = Mesh(nodes=np.array(nodes), triangles=np.array(tris))
    return build_system(read_mesh(write_mesh(mesh)))


STENCIL_MESHES = dict(MESHES, unstructured=_unstructured_system)


def _stencil_bounds_reference(ms, field, bwork):
    """The reference stencil bounds: the gathered field's element minimum
    and maximum, written at each node of the element and scattered to the
    DOFs, then widened to the field and to the extra values."""
    f_loc = ms.gather(field)
    first, second, third = f_loc[:, :1], f_loc[:, 1:2], f_loc[:, 2:]
    e_min = np.minimum(np.minimum(first, second), third)
    e_max = np.maximum(np.maximum(first, second), third)
    lo = ms.scatter_min_max(np.repeat(e_min, 3, axis=1))[0]
    hi = ms.scatter_min_max(np.repeat(e_max, 3, axis=1))[1]
    lo, hi = np.minimum(field, lo), np.maximum(field, hi)
    if bwork is not None:
        dofs, vals = bwork.dofs, bwork.bar_states
        lo[dofs] = np.minimum(lo[dofs], vals)
        hi[dofs] = np.maximum(hi[dofs], vals)
    return lo, hi


def _neighbours(ms):
    """Per DOF, the set of DOFs it shares an element with, itself included."""
    sets = [set() for _ in range(ms.n_dofs)]
    for row in ms.elem_dofs.tolist():
        for d in row:
            sets[d].update(row)
    return sets


@pytest.mark.parametrize("mesh", sorted(STENCIL_MESHES))
def test_stencil_table_lists_each_neighbour_once(mesh):
    ms = STENCIL_MESHES[mesh]()
    assert "stencil_table" not in vars(ms)        # built on first use only
    table = ms.stencil_table
    assert ms.stencil_table is table
    sets = _neighbours(ms)
    assert table.shape == (max(map(len, sets)), ms.n_dofs)
    for d, want in enumerate(sets):
        col = table[:, d].tolist()
        k = len(want)
        assert d in col
        assert len(set(col[:k])) == k and set(col[:k]) == want
        assert col[k:] == [col[k - 1]] * (len(col) - k)


@pytest.mark.parametrize("ws", [None, "workspace"])
@pytest.mark.parametrize("extras", [False, True])
@pytest.mark.parametrize("trailing", [(), (4,)])
@pytest.mark.parametrize("mesh", sorted(STENCIL_MESHES))
def test_stencil_bounds_bit_equal_to_element_scatter(mesh, trailing, extras,
                                                     ws):
    ms = STENCIL_MESHES[mesh]()
    rng = np.random.default_rng(11)
    shape = (ms.n_dofs,) + trailing
    # continuous values, and a coarse grid of them, which makes many ties
    fields = [rng.normal(size=shape), rng.integers(-3, 4, shape) / 2.0]
    bwork = None
    if extras:
        dofs = rng.choice(ms.n_dofs, ms.n_dofs // 3, replace=False)
        bwork = BoundaryWork(dofs=dofs, flux_term=None, visc=None,
                             bar_states=rng.normal(size=dofs.shape + trailing))
    space = Workspace() if ws else None
    for field in fields + [np.asfortranarray(fields[0])]:
        for _ in range(2):                     # a warm workspace as well
            lo, hi = local_bounds(ms, field, None, bwork, space)
            ref_lo, ref_hi = _stencil_bounds_reference(ms, field, bwork)
            assert lo.shape == hi.shape == field.shape
            assert lo.tobytes() == ref_lo.tobytes()
            assert hi.tobytes() == ref_hi.tobytes()
            assert _dof_fastest(lo) and _dof_fastest(hi)
            assert not np.shares_memory(lo, hi)


# --- bar states only where a scheme reads them -------------------------------

@pytest.mark.parametrize("ws", [None, "workspace"])
@pytest.mark.parametrize("anti", [True, False])
@pytest.mark.parametrize("mesh_kind", MESH_KINDS)
@pytest.mark.parametrize("model_name", MODELS)
def test_assembly_without_bar_states_keeps_every_other_bit(
        model_name, mesh_kind, anti, ws):
    ms, model, bc, u = _problem(model_name, mesh_kind)
    full, full_b = assemble(ms, model, u, 0.1, bc, with_antidiffusion=anti)
    assert full.bar_states is not None
    work, bwork = assemble(ms, model, u, 0.1, bc, with_antidiffusion=anti,
                           ws=Workspace() if ws else None,
                           with_bar_states=False)
    assert work.bar_states is None
    assert (work.f_anti is None) == (not anti)
    got, ref = _arrays(work, bwork), _arrays(full, full_b)
    assert got.keys() == ref.keys() - {"ElementWork.bar_states"}
    for name, a in got.items():
        assert a.tobytes() == ref[name].tobytes(), name


@pytest.mark.parametrize("limiter, reads", [
    ("fct.cs", False), ("fct.scale", False), ("low", False),
    ("none", False), ("mcl.cs", True), ("mcl.scale", True)])
@pytest.mark.parametrize("model_name", ["translation", "euler"])
def test_bar_states_assembled_only_for_their_readers(
        monkeypatch, model_name, limiter, reads):
    """Only an MCL stage has its assembly form the element bar states,
    whichever way they are formed: the weight form of a linear flux or
    ``bar_states`` from the fluxes."""
    calls = []
    original = schemes_mod.assemble

    def spy(*args, **kwargs):
        work, bwork = original(*args, **kwargs)
        if work.bar_states is not None:
            calls.append(1)
        return work, bwork

    monkeypatch.setattr(schemes_mod, "assemble", spy)
    ms, model, bc, u = _problem(model_name, "bounded")
    scheme = SpatialScheme(ms=ms, model=model, limiter=limiter, bc=bc)
    dt = 0.5 * scheme.dt_bound(u, 0.1)
    _stage(scheme, u, 0.1, dt)                 # the assembly of dt_bound
    _stage(scheme, u, 0.1, dt)                 # a fresh one
    assert len(calls) == (2 if reads else 0)


# --- the CFL bound of dt_bound, reused by the FCT stage ------------------------

@pytest.mark.parametrize("model_name", ["translation", "euler"])
class TestCflBoundReuse:
    def _scheme(self, model_name):
        ms, model, bc, u = _problem(model_name, "bounded")
        return SpatialScheme(ms=ms, model=model, limiter="fct.cs", bc=bc), u

    @pytest.mark.parametrize("factor", [1.0 + 1e-6, 2.0])
    def test_step_after_dt_bound_rejects_like_a_fresh_step(
            self, model_name, factor):
        scheme, u = self._scheme(model_name)
        dt = factor * scheme.dt_bound(u, 0.1)
        with pytest.raises(CFLError):
            scheme.step(u, 0.1, dt)            # reuses the bound
        fresh, _ = self._scheme(model_name)
        with pytest.raises(CFLError):
            fresh.step(u, 0.1, dt)             # computes it
        with pytest.raises(CFLError):
            scheme.step(u, 0.1, dt)            # the memo is used up

    def test_step_at_the_bound_passes_like_a_fresh_step(self, model_name):
        scheme, u = self._scheme(model_name)
        dt = scheme.dt_bound(u, 0.1)
        fresh, _ = self._scheme(model_name)
        assert scheme.step(u, 0.1, dt).tobytes() == \
            fresh.step(u, 0.1, dt).tobytes()

    def test_memo_hit_does_not_recompute_the_bound(self, model_name,
                                                   monkeypatch):
        calls = []
        original = SpatialScheme._dt_from_work
        monkeypatch.setattr(
            SpatialScheme, "_dt_from_work",
            lambda self, *a: calls.append(1) or original(self, *a))
        scheme, u = self._scheme(model_name)
        dt = 0.5 * scheme.dt_bound(u, 0.1)
        assert len(calls) == 1
        scheme.step(u, 0.1, dt)                # the memo of dt_bound
        assert len(calls) == 1
        scheme.step(u, 0.1, dt)                # a fresh assembly is checked
        if model_name == "euler":
            assert len(calls) == 2
        else:
            # against the kept bound: with a linear flux it is computed
            # once per scheme
            scheme.dt_bound(u, 0.3)
            assert len(calls) == 1


# --- a linear flux: k, d^e and the CFL bound kept per scheme -----------------

class _FreshBound(SpatialScheme):
    """A scheme that computes its CFL bound anew in every ``dt_bound``, from
    the assembly of the state it is given: the reference for the kept
    bound."""

    def dt_bound(self, u, t=0.0):
        self._dt = None
        return super().dt_bound(u, t)


def _ssp2_steps(scheme, u, t, n):
    """``n`` SSP2 steps at cfl 0.5; yields the bits of (dt, u, and the
    bounds and alpha of the stage record) after each."""
    stage = scheme.stage_map()
    for _ in range(n):
        dt = 0.5 * scheme.dt_bound(u, t)
        u = ssp_rk_step("ssp2", stage, u, t, dt)
        t += dt
        record = scheme.record
        bounds = () if record is None else record.bounds
        alpha = None if record is None else record.alpha
        yield (dt, u.tobytes(), [b.tobytes() for b in bounds],
               None if alpha is None else alpha.tobytes())


@pytest.mark.parametrize("limiter", SCHEME_KEYS)
@pytest.mark.parametrize("velocity", ["translation", "rotation"])
@pytest.mark.parametrize("mesh_kind", ["periodic", "bounded"])
def test_kept_wave_speeds_change_no_bit(limiter, velocity, mesh_kind):
    """The kept CFL bound gives every stage the bits of a bound assembled
    anew for each step."""
    ms, model, bc, u = _problem(velocity, mesh_kind)
    kept = SpatialScheme(ms=ms, model=model, limiter=limiter, bc=bc)
    fresh = _FreshBound(ms=ms, model=model, limiter=limiter, bc=bc)
    for got, ref in zip(_ssp2_steps(kept, u, 0.1, 4),
                        _ssp2_steps(fresh, u.copy(), 0.1, 4)):
        assert got == ref
    assert kept._dt is not None


@pytest.mark.parametrize("velocity", ["translation", "rotation", "seed1",
                                      "seed2", "seed3"])
@pytest.mark.parametrize("mesh", ["periodic", "unstructured"])
def test_linear_viscosity_is_max_abs_k_and_the_wave_speed_one(velocity,
                                                               mesh):
    """d^e of a linear flux is max_i |k_i| bit for bit, and the d^e of its
    wave speeds, max_i lambda_i |c_i|, to rounding."""
    ms = STENCIL_MESHES[mesh]()
    if velocity.startswith("seed"):
        vx, vy = perfbench_workloads().advect_velocity(int(velocity[4:]))
        model = make_model("advection", velocity="translation", vx=vx, vy=vy)
    else:
        model = make_model("advection", velocity=velocity)
    scheme = SpatialScheme(ms=ms, model=model, limiter="mcl.cs")
    k, d = scheme._lin.k, scheme._lin.d
    assert d.tobytes() == np.abs(k).max(axis=1).tobytes()
    u = np.random.default_rng(3).uniform(0.0, 1.0, (ms.n_dofs, 1))
    u_loc = ms.gather(u)
    geom = ms.geometry
    lam = model.max_wave_speed(u_loc.mean(axis=1, keepdims=True), u_loc,
                               geom.c_hat, geom.centroid[:, None, :])
    ref = (lam * geom.c_norm).max(axis=1)
    assert np.abs(d - ref).max() <= 1e-15 * np.abs(ref).max()


def _count(monkeypatch, owner, name, calls):
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *a, **k: calls.append(1) or original(*a, **k))


@pytest.mark.parametrize("limiter", ["mcl.cs", "fct.cs", "low"])
@pytest.mark.parametrize("model_name", ["translation", "rotation", "burgers",
                                        "euler"])
def test_warm_step_computes_wave_speeds_only_if_they_depend_on_u(
        monkeypatch, model_name, limiter):
    """On a periodic mesh (no boundary terms) a warm SSP2 step assembles
    once per stage; advection calls max_wave_speed and flux in none of
    them, Burgers and Euler max_wave_speed once and flux twice (at ubar
    and at u_i) in each. Advection calls no max_wave_speed at construction
    or in the first step either."""
    ms, model, bc, u = _problem(model_name, "periodic")
    speeds, fluxes, assemblies = [], [], []
    _count(monkeypatch, type(model), "max_wave_speed", speeds)
    scheme = SpatialScheme(ms=ms, model=model, limiter=limiter, bc=bc)
    steps = _ssp2_steps(scheme, u, 0.0, 3)
    next(steps)
    linear = model_name in ("translation", "rotation")
    assert len(speeds) == (0 if linear else 2)
    speeds.clear()
    _count(monkeypatch, type(model), "flux", fluxes)
    _count(monkeypatch, schemes_mod, "assemble", assemblies)
    next(steps)
    next(steps)
    assert len(assemblies) == 2 * 2
    assert len(speeds) == (0 if linear else len(assemblies))
    assert len(fluxes) == (0 if linear else 2 * len(assemblies))


def test_dt_bound_of_a_state_free_model_assembles_once(monkeypatch):
    ms, model, bc, u = _problem("rotation", "bounded")
    scheme = SpatialScheme(ms=ms, model=model, limiter="mcl.cs", bc=bc)
    assemblies = []
    _count(monkeypatch, schemes_mod, "assemble", assemblies)
    dt = scheme.dt_bound(u, 0.1)
    for t in (0.1, 0.2, 0.3):
        assert scheme.dt_bound(2.0 * u, t) == dt
    assert len(assemblies) == 1
    assert scheme._memo is not None and scheme._memo[1] == 0.1


def test_kept_viscosity_is_a_read_only_copy_of_the_first():
    ms, model, bc, u = _problem("rotation", "bounded")
    scheme = SpatialScheme(ms=ms, model=model, limiter="fct.cs", bc=bc)
    scheme.step(u, 0.1, 0.5 * scheme.dt_bound(u, 0.1))
    kept = scheme._lin.d
    assert kept.shape == (ms.n_elements,)
    assert not kept.flags.writeable
    with pytest.raises(ValueError):
        kept[0] = 1.0
    work, _ = assemble(ms, model, u, 0.1, bc)
    assert kept.tobytes() == work.d.tobytes()
    assert not any(np.shares_memory(kept, buf) for buf in scheme.ws.values())


@pytest.mark.parametrize("limiter", ["mcl.cs", "fct.cs"])
@pytest.mark.parametrize("model_name", ["translation", "rotation",
                                        "burgers"])
def test_kept_flux_coefficients_are_read_only_and_made_once(
        monkeypatch, model_name, limiter):
    """A scheme over linear advection forms k at construction, keeps it
    read-only and outside its workspace, and passes it to every assembly;
    a scheme over a flux model keeps none."""
    ms, model, bc, u = _problem(model_name, "periodic")
    made, given = [], []
    if model_name != "burgers":
        _count(monkeypatch, LinearAdvection, "flux_coefficients", made)
    original = schemes_mod.assemble
    monkeypatch.setattr(schemes_mod, "assemble", lambda *a, **kw: (
        given.append(kw["lin"]) or original(*a, **kw)))
    scheme = SpatialScheme(ms=ms, model=model, limiter=limiter, bc=bc)
    for _ in _ssp2_steps(scheme, u, 0.0, 3):
        pass
    assert len(given) == 6
    if model_name == "burgers":
        assert scheme._lin is None and given == [None] * 6
        return
    kept = scheme._lin.k
    assert len(made) == 1
    assert all(lin is scheme._lin for lin in given)
    assert kept.shape == (ms.n_elements, 3)
    assert not kept.flags.writeable
    with pytest.raises(ValueError):
        kept[0, 0] = 1.0
    ref = model.flux_coefficients(ms.geometry.c,
                                  ms.geometry.centroid[:, None, :])
    assert kept.tobytes() == ref.tobytes()
    assert not any(np.shares_memory(kept, buf) for buf in scheme.ws.values())


@pytest.mark.parametrize("record", [ElementWork, BoundaryWork, LinearFlux,
                                    Mesh, MeshSystem, ElementGeometry,
                                    StepReport, RunResult, StageRecord,
                                    LimitResult, Benchmark, TimeControls,
                                    RunConfig],
                         ids=lambda record: record.__name__)
def test_every_record_field_is_read_by_the_package(record):
    """Each field of the records the package builds is read as an
    attribute somewhere in the package, its scripts or its benchmark: a
    value only the tests read is recomputed there from what the package
    keeps."""
    package = pathlib.Path(idpfem.__file__).parent
    repo = pathlib.Path(__file__).resolve().parents[1]
    sources = [*package.glob("*.py"), *(repo / "scripts").glob("*.py"),
               *(repo / "perfbench").glob("*.py")]
    read = {node.attr for path in sources
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    assert [f.name for f in dataclasses.fields(record)
            if f.name not in read] == []
