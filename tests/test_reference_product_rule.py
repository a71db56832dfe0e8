"""The sequential system limiter equals the reference of ``tests/reference.py``,
and the bounds of both drivers hold their base.

``product_rule`` and ``sequential_limiter`` are written from the formulas of
the ``product_rule_cs`` docstring, allocating and without a workspace. Each
Euler case runs one stage of ``SpatialScheme`` and compares, to 1e-12
relative:

* every ``product_rule_cs`` call with the reference on the same arguments;
* the system limiter's f* before the IDP fix with ``sequential_limiter``
  on the contributions, bases, gamma and bounds the scheme handed it.

Both limiter kinds run with MCL's bases (the bar states) and FCT's (the
low-order predictor), on a periodic and on a bounded mesh, through
hypothesis-drawn Euler states.

The product rule takes no zero clamp on its bound gaps, because every
driver's bounds hold its base: ``lo[dof] <= base <= hi[dof]`` exactly at
every element node, boundary bar states included, so that gamma (lo - base)
<= 0 <= gamma (hi - base). That is checked for scalar and Euler models.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idpfem.limiting as limiting_mod
from conftest import NO_SHRINK
from idpfem.models import Burgers2D, Euler, make_model
from idpfem.schemes import SpatialScheme
from reference import product_rule, relative_error, sequential_limiter
from test_reference_stage import _mixing_bc, _system

LIMITED_KEYS = ("mcl.cs", "mcl.scale", "fct.cs", "fct.scale")


def _euler_states(n, seed, rho_min, speed):
    """Admissible Euler states: density in [rho_min, 2], velocity components
    up to ``speed``, pressure in [0.2, 2]."""
    rng = np.random.default_rng(seed)
    return Euler().conserved(rng.uniform(rho_min, 2.0, n),
                             rng.uniform(-speed, speed, (n, 2)),
                             rng.uniform(0.2, 2.0, n))


def _stage(scheme, u, t, frac):
    """One forward-Euler stage at ``frac`` times the CFL bound."""
    dt = frac * scheme.dt_bound(u, t)
    return scheme.stage_map()(u, t, dt)


def _copies(args):
    """The arguments with every array copied, also those in a tuple (the
    bound gaps), which the call uses up."""
    return [a.copy() if isinstance(a, np.ndarray)
            else tuple(_copies(a)) if isinstance(a, tuple) else a
            for a in args]


@pytest.mark.parametrize("mesh", ["periodic", "bounded"])
@pytest.mark.parametrize("key", LIMITED_KEYS)
@settings(max_examples=4, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(seed=st.integers(0, 2 ** 32 - 1), rho_min=st.floats(0.05, 1.0),
       speed=st.floats(0.0, 3.0), frac=st.floats(0.05, 1.0),
       t=st.floats(0.0, 0.4))
def test_sequential_limiter_matches_the_reference(key, mesh, seed, rho_min,
                                                  speed, frac, t):
    ms = _system(mesh == "periodic")
    bc = None if mesh == "periodic" else _mixing_bc
    scheme = SpatialScheme(ms=ms, model=Euler(), limiter=key, bc=bc)
    u = _euler_states(ms.n_dofs, seed, rho_min, speed)

    calls, product_calls, before_fix = [], [], []
    system, rule, fix = (limiting_mod.limit_system_contributions,
                         limiting_mod.product_rule_cs, limiting_mod.idp_fix)

    def recorded_system(ms, model, f, base, gamma, bounds, *args, **kw):
        calls.append(_copies([f, base, gamma, *bounds]) + [args[0]])
        return system(ms, model, f, base, gamma, bounds, *args, **kw)

    def recorded_rule(*args, **kw):
        copies = _copies(args)
        result = rule(*args, **kw)
        product_calls.append((copies, _copies(result)))
        return result

    def recorded_fix(model, base, f_star, *args, **kw):
        before_fix.append(f_star.copy())
        return fix(model, base, f_star, *args, **kw)

    with pytest.MonkeyPatch.context() as patch:
        # the scheme finds the system limiter in its own module
        patch.setattr("idpfem.schemes.limit_system_contributions",
                      recorded_system)
        patch.setattr(limiting_mod, "product_rule_cs", recorded_rule)
        patch.setattr(limiting_mod, "idp_fix", recorded_fix)
        _stage(scheme, u, t, frac)

    assert len(calls) == len(product_calls) == len(before_fix) == 1
    args, (f_k_star, phi_lo, phi_hi) = product_calls[0]
    ref = product_rule(*args[:9])
    assert relative_error(f_k_star, ref[0]) <= 1e-12
    assert relative_error(phi_lo, ref[1]) <= 1e-12
    assert relative_error(phi_hi, ref[2]) <= 1e-12

    f, base, gamma, lo, hi, kind = calls[0]
    assert kind == key.partition(".")[2]
    want = sequential_limiter(ms, f, base, gamma, lo, hi, kind)
    assert relative_error(before_fix[0], want) <= 1e-12


def _model(name):
    if name == "euler":
        return Euler()
    if name == "burgers":
        return Burgers2D()
    return make_model("advection", velocity="rotation")


@pytest.mark.parametrize("mesh", ["periodic", "bounded"])
@pytest.mark.parametrize("model_name", ["rotation", "burgers", "euler"])
@pytest.mark.parametrize("key", LIMITED_KEYS)
def test_bounds_hold_their_base(monkeypatch, key, model_name, mesh):
    ms = _system(mesh == "periodic")
    bc = None if mesh == "periodic" else _mixing_bc
    model = _model(model_name)
    rng = np.random.default_rng(11)
    if model_name == "euler":
        u = _euler_states(ms.n_dofs, 11, 0.1, 2.0)
    else:
        u = rng.uniform(-1.0, 1.0, (ms.n_dofs, 1))
        model.set_global_bounds(u)
    scheme = SpatialScheme(ms=ms, model=model, limiter=key, bc=bc)
    seen = []
    original = SpatialScheme._limit

    def recorded(self, f, base, gamma, bounds):
        seen.append(_copies([base, gamma, *bounds]))
        return original(self, f, base, gamma, bounds)

    monkeypatch.setattr(SpatialScheme, "_limit", recorded)
    for t in (0.0, 0.3):
        _stage(scheme, u, t, 0.7)
    assert len(seen) == 2
    for base, gamma, lo, hi in seen:
        lo, hi = ms.gather(lo), ms.gather(hi)
        if base.ndim == 2:        # a scalar FCT predictor, passed per DOF
            base = ms.gather(base)
        assert np.all(lo <= base) and np.all(base <= hi)
        gam = gamma[..., None]
        assert np.all(gam > 0)
        assert np.all(gam * (lo - base) <= 0.0)
        assert np.all(gam * (hi - base) >= 0.0)
