"""Every scalar stage equals the reference stage of ``tests/reference.py``.

``reference_stage`` is written from the formulas, allocating and without a
workspace: the low-order predictor, MCL's bar-state bounds and ``r + f*``,
FCT's stencil bounds and corrector, and the scaling and clip-and-scale
limiters. Each case compares ``SpatialScheme.stage_map()(u, t, dt)`` with
it to 1e-12 relative, for all six scheme keys, for translation, rotation
and Burgers, on a periodic and on a bounded mesh, both with jittered
interior nodes. A scaling limiter's factors are compared by what they do:
their difference times the element's largest contribution.

The states are drawn: uniform ones, and ones that vanish at about half of
the DOFs, where Burgers has elements with d^e = 0.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NO_SHRINK
from idpfem.mesh import build_system, structured_rect
from idpfem.models import Burgers2D, make_model
from idpfem.schemes import SCHEME_KEYS, SpatialScheme
from reference import reference_stage, relative_error


@functools.lru_cache(maxsize=None)
def _system(periodic):
    """An 8 x 8 structured mesh with its interior nodes moved by up to a
    fifth of a cell, so that no c_i is dyadic."""
    mesh = structured_rect(8, 8, periodic=periodic)
    inner = np.all((mesh.nodes > 0.0) & (mesh.nodes < 1.0), axis=1)
    rng = np.random.default_rng(5)
    mesh.nodes[inner] += rng.uniform(-0.025, 0.025, (inner.sum(), 2))
    return build_system(mesh)


def _mixing_bc(x, t, u_in, nhat):
    """Exterior states that mix the interior ones and move with t."""
    return (0.5 + t) * u_in + (0.5 - t) * u_in[::-1]


def _model(name):
    if name == "burgers":
        return Burgers2D()
    if name == "translation":
        return make_model("advection", velocity="translation", vx=1.0,
                          vy=0.37)
    return make_model("advection", velocity="rotation")


@pytest.mark.parametrize("mesh", ["periodic", "bounded"])
@pytest.mark.parametrize("model_name", ["translation", "rotation", "burgers"])
@pytest.mark.parametrize("key", SCHEME_KEYS)
@settings(max_examples=4, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(seed=st.integers(0, 2 ** 32 - 1), sparse=st.booleans(),
       frac=st.floats(0.05, 1.0), t=st.floats(0.0, 0.4))
def test_stage_matches_the_reference(key, model_name, mesh, seed, sparse,
                                     frac, t):
    ms = _system(mesh == "periodic")
    bc = None if mesh == "periodic" else _mixing_bc
    model = _model(model_name)
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, (ms.n_dofs, 1))
    if sparse:
        u[rng.random(ms.n_dofs) < 0.5] = 0.0
    model.set_global_bounds(u)
    scheme = SpatialScheme(ms=ms, model=model, limiter=key, bc=bc)
    dt = frac * scheme.dt_bound(u, t)

    got = scheme.stage_map()(u, t, dt)
    ref = reference_stage(ms, model, u, t, dt, key, bc)
    assert got.shape == u.shape
    assert relative_error(got, ref.u) <= 1e-12

    alpha = scheme.record.alpha if key.endswith(".scale") else None
    assert (alpha is None) == (ref.alpha is None)
    if alpha is not None:
        reach = np.abs(ref.f_anti).max(axis=(1, 2))
        assert (np.abs(alpha - ref.alpha) * reach).max() <= \
            1e-12 * max(reach.max(), 1e-300)
