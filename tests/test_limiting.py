import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idpfem.limiting as limiting_mod
from idpfem.assembly import assemble
from idpfem.config import RunConfig
from idpfem import diagnostics
from idpfem.limiting import (clip_and_scale, idp_fix,
                             limit_scalar_contributions,
                             limit_system_contributions, local_bounds,
                             product_rule_cs, scaling_limiter)
from idpfem.mesh import Workspace
from idpfem.models import TINY, AdmissibilityError, Burgers2D, Euler
from idpfem.runner import integrate, setup
from idpfem.schemes import StageRecord
from idpfem.timestepping import TimeControls

from conftest import random_euler_states


class TestWorkedExamples:
    F = np.array([[3.0, -1.0, -2.0]])
    FMAX = np.array([[1.0, 2.0, 2.0]])
    FMIN = np.array([[-2.0, -2.0, -1.0]])

    def test_scaling_limiter_example(self):
        f_star, alpha = scaling_limiter(self.F, self.FMIN, self.FMAX)
        alpha_i = limiting_mod._node_factors(self.F, self.FMIN, self.FMAX)
        assert np.allclose(alpha_i, [[1 / 3, 1.0, 1 / 2]], atol=1e-14)
        assert alpha[0] == pytest.approx(1 / 3, abs=1e-14)
        assert np.allclose(f_star, [[1.0, -1 / 3, -2 / 3]], atol=1e-14)

    def test_clip_and_scale_example(self):
        out = clip_and_scale(self.F, self.FMIN, self.FMAX)
        assert np.allclose(out, [[1.0, -0.5, -0.5]], atol=1e-14)

    def test_clip_and_scale_positive_surplus_example(self):
        f = np.array([[2.0, -1.0, 0.0]])
        fmax = np.array([[2.0, 10.0, 10.0]])
        fmin = np.array([[-10.0, -10.0, -10.0]])
        out = clip_and_scale(f, fmin, fmax)
        assert np.allclose(out, [[1.0, -1.0, 0.0]], atol=1e-14)

    def test_within_bounds_passthrough(self):
        f = np.array([[0.5, -0.2, -0.3]])
        wide = np.full((1, 3), 5.0)
        f1, alpha = scaling_limiter(f, -wide, wide)
        assert alpha[0] == 1.0
        assert np.allclose(f1, f)
        assert np.allclose(clip_and_scale(f, -wide, wide), f)

    def test_zero_input(self):
        z = np.zeros((1, 3))
        f1, alpha = scaling_limiter(z, -np.ones((1, 3)), np.ones((1, 3)))
        assert alpha[0] == 1.0 and np.all(f1 == 0)
        assert np.all(clip_and_scale(z, -np.ones((1, 3)),
                                     np.ones((1, 3))) == 0)

    def test_degenerate_bounds_pin_node(self):
        f = np.array([[1.0, -1.0, 0.0]])
        fmin = np.array([[0.0, -2.0, -2.0]])
        fmax = np.array([[0.0, 2.0, 2.0]])
        f1, alpha = scaling_limiter(f, fmin, fmax)
        assert alpha[0] == 0.0
        assert np.all(f1 == 0)
        f2 = clip_and_scale(f, fmin, fmax)
        assert f2[0, 0] == 0.0
        assert abs(f2.sum()) < 1e-14


def _random_constraints(rng, n):
    f = rng.normal(size=(n, 3))
    f -= f.mean(axis=1, keepdims=True)
    fmin = -np.abs(rng.normal(size=(n, 3)))
    fmax = np.abs(rng.normal(size=(n, 3)))
    return f, fmin, fmax


class TestLimiterProperties:
    def test_bounds_and_zero_sum_random(self, rng):
        f, fmin, fmax = _random_constraints(rng, 20000)
        scale = np.abs(f).max()
        for out in (scaling_limiter(f, fmin, fmax)[0],
                    clip_and_scale(f, fmin, fmax)):
            assert np.all(out >= fmin - 1e-12 * scale)
            assert np.all(out <= fmax + 1e-12 * scale)
            assert np.abs(out.sum(axis=1)).max() < 1e-12 * scale

    def test_sign_preservation(self, rng):
        f, fmin, fmax = _random_constraints(rng, 5000)
        assert np.all(scaling_limiter(f, fmin, fmax)[0] * f >= -1e-300)
        assert np.all(clip_and_scale(f, fmin, fmax) * f >= -1e-300)

    def test_cs_no_more_diffusive_than_scaling(self, rng):
        f, fmin, fmax = _random_constraints(rng, 5000)
        cs = np.abs(clip_and_scale(f, fmin, fmax)).sum(axis=1)
        sc = np.abs(scaling_limiter(f, fmin, fmax)[0]).sum(axis=1)
        assert np.all(cs >= sc - 1e-12)

    def test_cs_continuity(self, rng):
        f, fmin, fmax = _random_constraints(rng, 5000)
        scale = np.abs(f).max(axis=1, keepdims=True) + 1e-30
        delta = rng.normal(size=f.shape) * 1e-8 * scale
        a = clip_and_scale(f, fmin, fmax)
        b = clip_and_scale(f + delta, fmin, fmax)
        num = np.abs(a - b).max(axis=1)
        den = np.abs(delta).max(axis=1) + 1e-300
        assert (num / den).max() <= 10.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_limiters_never_escape_feasible_bounds(self, seed):
        rng = np.random.default_rng(seed)
        f, fmin, fmax = _random_constraints(rng, 5)
        scale = max(np.abs(f).max(), 1.0)
        for out in (scaling_limiter(f, fmin, fmax)[0],
                    clip_and_scale(f, fmin, fmax)):
            assert np.all((out >= fmin - 1e-12 * scale)
                          & (out <= fmax + 1e-12 * scale))
            assert np.abs(out.sum(axis=1)).max() < 1e-12 * scale


def _masked_clip_and_scale(f, fmin, fmax):
    """Clip-and-scale written with masked multiplies: the reference whose
    values ``clip_and_scale`` must reproduce exactly (zero signs aside)."""
    ft = np.clip(f, fmin, fmax)
    part = np.maximum(ft, 0.0)
    pos = (part[:, 0] + part[:, 1] + part[:, 2])[:, None]
    part = np.minimum(ft, 0.0)
    neg = (part[:, 0] + part[:, 1] + part[:, 2])[:, None]
    s = pos + neg
    pos_scale = -neg / np.maximum(pos, TINY)
    neg_scale = pos / np.maximum(-neg, TINY)
    np.multiply(pos_scale, ft, out=ft, where=(s > 0) & (ft > 0))
    np.multiply(neg_scale, ft, out=ft, where=(s < 0) & (ft < 0))
    return ft


def _assert_matches_reference(f, fmin, fmax, in_place=False):
    expected = _masked_clip_and_scale(f, fmin, fmax)
    if in_place:
        f = f.copy()
        got = clip_and_scale(f, fmin, fmax, out=f)
        assert got is f
    else:
        got = clip_and_scale(f, fmin, fmax)
    assert np.array_equal(got, expected)


_CS_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, TINY / 8, -TINY / 4,
                     5e-324, -5e-324]),
    st.floats(-4.0, 4.0))


@st.composite
def _cs_problems(draw):
    """(f, fmin, fmax) of shape (E, 3) or (E, 3, k), with bounds that
    straddle zero, may be signed zeros and may broadcast as (1, 3, ...)."""
    n_e = draw(st.integers(1, 5))
    shape = (n_e, 3) + draw(st.sampled_from([(), (1,), (3,)]))
    bound_shape = (1,) + shape[1:] if draw(st.booleans()) else shape

    def block(shape):
        n = int(np.prod(shape))
        vals = draw(st.lists(_CS_VALUES, min_size=n, max_size=n))
        return np.array(vals).reshape(shape, order="F")

    return block(shape), -np.abs(block(bound_shape)), np.abs(block(bound_shape))


class TestClipAndScaleOracle:
    """``clip_and_scale`` rescales with unmasked per-element factors; its
    values equal those of the masked formulation."""

    @settings(max_examples=300, deadline=None)
    @given(_cs_problems(), st.booleans())
    def test_matches_masked_reference(self, problem, in_place):
        _assert_matches_reference(*problem, in_place=in_place)

    @pytest.mark.parametrize("row", [
        [1.0, -1.0, 0.0],                     # s == 0 exactly
        [0.0, -0.0, 0.0],
        [-0.0, -0.0, -0.0],
        [TINY / 4, -TINY / 8, 0.0],           # surplus, sums below TINY
        [TINY / 8, -TINY / 4, -0.0],          # deficit, sums below TINY
        [5e-324, -5e-324, 5e-324],
        [3.0, -1.0, -2.0],
    ])
    @pytest.mark.parametrize("in_place", [False, True])
    def test_edge_cases(self, row, in_place):
        f = np.array([row])
        _assert_matches_reference(f, -np.ones((1, 3)), np.ones((1, 3)),
                                  in_place)
        _assert_matches_reference(f, np.array([[-0.0, -1.0, 0.0]]),
                                  np.array([[0.0, 1.0, 2.0]]), in_place)

    @pytest.mark.parametrize("cfg, blocks", [
        (RunConfig(benchmark="advected_gaussian", h=1 / 16, t_end=0.01,
                   limiter="mcl.cs"), {2}),
        (RunConfig(benchmark="dmr", h=1 / 16, t_end=0.002, limiter="mcl.cs"),
         {2, 3}),
    ])
    def test_every_call_of_a_run(self, monkeypatch, cfg, blocks):
        original = limiting_mod.clip_and_scale
        ndims = []

        def checked(f, fmin, fmax, ws=None, out=None):
            expected = _masked_clip_and_scale(f, fmin, fmax)
            got = original(f, fmin, fmax, ws, out)
            assert np.array_equal(got, expected)
            ndims.append(got.ndim)
            return got

        monkeypatch.setattr(limiting_mod, "clip_and_scale", checked)
        _, _, _, scheme, u = setup(cfg)
        integrate(scheme, u, TimeControls(cfl=0.5, t_end=cfg.t_end,
                                          scheme="ssp2"))
        # density and product-rule blocks on DMR, the scalar block otherwise
        assert set(ndims) == blocks


def _masked_node_factors(f, fmin, fmax):
    """The per-node factors written with masked divides: the reference that
    ``_node_factors`` must reproduce bit for bit, for fmin <= fmax."""
    alpha = np.ones(np.broadcast_shapes(f.shape, fmin.shape, fmax.shape))
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(fmin, f, out=alpha, where=f < fmin)
        np.divide(fmax, f, out=alpha, where=f > fmax)
    return np.maximum(np.minimum(alpha, 1.0), 0.0)


def _assert_node_factors_match(f, fmin, fmax):
    expected = _masked_node_factors(f, fmin, fmax)
    got = limiting_mod._node_factors(f, fmin, fmax)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


_NF_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, TINY, -TINY, TINY / 8,
                     -TINY / 4, 1e-310, -1e-310, 5e-324, -5e-324]),
    st.floats(-4.0, 4.0))


@st.composite
def _nf_problems(draw):
    """(f, fmin, fmax) of shape (E, 3) or (E, 3, k) with fmin <= fmax; the
    bounds may both lie on one side of zero, be signed zeros or be
    subnormal."""
    n_e = draw(st.integers(1, 5))
    shape = (n_e, 3) + draw(st.sampled_from([(), (1,), (3,)]))

    def block():
        n = int(np.prod(shape))
        vals = draw(st.lists(_NF_VALUES, min_size=n, max_size=n))
        return np.array(vals).reshape(shape, order="F")

    a, b = block(), block()
    return block(), np.minimum(a, b), np.maximum(a, b)


class TestNodeFactorsOracle:
    """``_node_factors`` forms both ratios unmasked; its factors equal those
    of the masked formulation bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_nf_problems())
    def test_matches_masked_reference(self, problem):
        _assert_node_factors_match(*problem)

    @pytest.mark.parametrize("f", [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324,
                                   1e-310, -TINY / 4])
    @pytest.mark.parametrize("fmin, fmax", [
        (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),   # zero bounds
        (-1.0, 0.0), (0.0, 1.0), (-1.0, -0.0), (-0.0, 1.0),   # one of them
        (0.5, 2.0), (5e-324, 1e-310),         # both above zero
        (-2.0, -0.5), (-1e-310, -5e-324),     # both below zero
        (-1.0, 1.0), (-5e-324, 5e-324),
    ])
    def test_edge_cases(self, f, fmin, fmax):
        _assert_node_factors_match(np.full((1, 3), f), np.full((1, 3), fmin),
                                   np.full((1, 3), fmax))

    @pytest.mark.parametrize("cfg, callers", [
        (RunConfig(benchmark="dmr", h=1 / 16, t_end=0.002, limiter="mcl.cs"),
         {"product_rule_cs"}),
        (RunConfig(benchmark="dmr", h=1 / 16, t_end=0.002,
                   limiter="mcl.scale"),
         {"product_rule_cs", "scaling_limiter"}),
        (RunConfig(benchmark="dmr", h=1 / 16, t_end=0.002, limiter="mcl.cs",
                   system_limiter="synchronized"),
         {"limit_system_contributions"}),
        (RunConfig(benchmark="advected_gaussian", h=1 / 16, t_end=0.01,
                   limiter="fct.scale"), {"scaling_limiter"}),
    ])
    def test_every_call_of_a_run(self, monkeypatch, cfg, callers):
        """Each caller (R_S, the scaling limiter, the synchronized system
        limiter) hands it bounds with fmin <= fmax and gets the reference's
        bits."""
        original = limiting_mod._node_factors
        seen = set()

        def checked(f, fmin, fmax, tmp=None, out=None):
            assert np.all(fmin <= fmax)
            expected = _masked_node_factors(f, fmin, fmax)
            got = original(f, fmin, fmax, tmp, out)
            assert got.tobytes() == expected.tobytes()
            seen.add(sys._getframe(1).f_code.co_name)
            return got

        monkeypatch.setattr(limiting_mod, "_node_factors", checked)
        _, _, _, scheme, u = setup(cfg)
        integrate(scheme, u, TimeControls(cfl=0.5, t_end=cfg.t_end,
                                          scheme="ssp2"))
        assert seen == callers


class TestLocalBounds:
    def test_constant_field_gives_degenerate_interval(self, periodic8):
        ms = periodic8
        field = np.full(ms.n_dofs, 0.3)
        ev = np.full((ms.n_elements, 3), 0.3)
        for elem_vals in (ev, None):              # bar states, stencil
            lo, hi = local_bounds(ms, field, elem_vals)
            assert np.all(lo == 0.3) and np.all(hi == 0.3)

    def test_barstate_bounds_contain_bar_states(self, rng, periodic8):
        ms = periodic8
        field = rng.uniform(0.0, 1.0, ms.n_dofs)
        bars = rng.uniform(0.0, 1.0, (ms.n_elements, 3))
        lo, hi = local_bounds(ms, field, bars)
        lo_g, hi_g = lo[ms.elem_dofs], hi[ms.elem_dofs]
        assert np.all(bars >= lo_g) and np.all(bars <= hi_g)
        assert np.all(lo <= field) and np.all(hi >= field)

    def test_stencil_hull_contains_scalar_barstate_hull(self, rng, periodic8):
        # scalar bar states are convex combinations of stencil values, so the
        # stencil interval must contain the bar-state interval
        ms = periodic8
        from idpfem.models import Burgers2D
        u = rng.uniform(-1.0, 1.0, (ms.n_dofs, 1))
        work, _ = assemble(ms, Burgers2D(), u)
        lo_b, hi_b = local_bounds(ms, u[:, 0], work.bar_states[..., 0])
        lo_s, hi_s = local_bounds(ms, u[:, 0], None)
        assert np.all(lo_s <= lo_b + 1e-12)
        assert np.all(hi_s >= hi_b - 1e-12)


class TestScalarContributionLimiting:
    def test_constraints_hold(self, rng, periodic8):
        ms = periodic8
        f = rng.normal(size=(ms.n_elements, 3))
        f -= f.mean(axis=1, keepdims=True)
        base = rng.uniform(0.2, 0.8, (ms.n_elements, 3))
        gamma = np.full((ms.n_elements, 3), 2.0)
        lo = np.full(ms.n_dofs, 0.0)
        hi = np.full(ms.n_dofs, 1.0)
        for kind in ("scale", "cs"):
            res = limit_scalar_contributions(ms, f, base, gamma, lo, hi, kind)
            cand = base + res.f_star / gamma
            assert np.all(cand >= -1e-12) and np.all(cand <= 1.0 + 1e-12)
            assert np.abs(res.f_star.sum(axis=1)).max() < 1e-12 * max(
                np.abs(f).max(), 1.0)


def _euler_element_data(rng, ms):
    model = Euler()
    u = random_euler_states(rng, model, (ms.n_dofs,))
    work, _ = assemble(ms, model, u)
    gamma = 2.0 * np.maximum(work.d, TINY)[:, None] * np.ones((1, 3))
    f = np.where((work.d > 0)[:, None, None], work.f_anti, 0.0)
    bounds = local_bounds(ms, u, work.bar_states)
    return model, work, f, gamma, bounds


def _unbounded_gaps(f_k):
    """The bound gaps of products with the bounds -inf and inf."""
    return np.full(f_k.shape, -np.inf), np.full(f_k.shape, np.inf)


class TestProductRule:
    def test_constant_ratio_fixed_point(self, rng, periodic8):
        ms = periodic8
        phi0 = 0.7
        base_rho = rng.uniform(0.5, 2.0, (ms.n_elements, 3))
        base_k = phi0 * np.repeat(base_rho[..., None], 3, axis=-1)
        gamma = np.full((ms.n_elements, 3), 2.0)
        f_rho = rng.normal(size=(ms.n_elements, 3))
        f_rho -= f_rho.mean(axis=1, keepdims=True)
        # keep intermediate densities positive
        f_rho *= 0.1
        rho_bar_star = base_rho + f_rho / gamma
        f_k = phi0 * np.repeat(f_rho[..., None], 3, axis=-1)
        out, _, _ = product_rule_cs(ms, f_rho, rho_bar_star, f_k, base_rho,
                                    base_k, gamma, _unbounded_gaps(f_k),
                                    "cs")
        phi_final = (base_k + out / gamma[..., None]) / rho_bar_star[..., None]
        assert np.allclose(phi_final, phi0, atol=1e-12)

    def test_zero_inputs_stay_zero(self, periodic8):
        ms = periodic8
        base_rho = np.ones((ms.n_elements, 3))
        zeros = np.zeros((ms.n_elements, 3))
        gamma = np.ones((ms.n_elements, 3))
        f_k = np.zeros((ms.n_elements, 3, 3))
        out, _, _ = product_rule_cs(
            ms, zeros, base_rho, f_k, base_rho,
            np.full((ms.n_elements, 3, 3), 0.5), gamma, _unbounded_gaps(f_k),
            "cs")
        assert np.all(out == 0)

    def test_random_zero_sum_and_bounds(self, rng, periodic8):
        ms = periodic8
        model, work, f, gamma, bounds = _euler_element_data(rng, ms)
        base = work.bar_states
        lo, hi = bounds
        f_rho = limit_scalar_contributions(ms, f[..., 0], base[..., 0], gamma,
                                           lo[:, 0], hi[:, 0], "cs").f_star
        rho_bar_star = base[..., 0] + f_rho / gamma
        scale = max(np.abs(f).max(), 1.0)
        gam = gamma[..., None]
        gaps = (gam * (lo[ms.elem_dofs, 1:] - base[..., 1:]),
                gam * (hi[ms.elem_dofs, 1:] - base[..., 1:]))
        out, _, _ = product_rule_cs(ms, f_rho, rho_bar_star, f[..., 1:],
                                    base[..., 0], base[..., 1:], gamma, gaps,
                                    "cs")
        assert np.abs(out.sum(axis=1)).max() < 1e-12 * scale


@pytest.mark.parametrize("kind", ["cs", "scale"])
class TestSequentialLimiterBounds:
    """The sequential system limiter's components sum to zero per element
    and keep every candidate state inside its bounds, the products inside
    the product-rule bounds, with no repair step."""

    def _check(self, defects):
        assert defects
        assert max(z for z, _ in defects) < 1e-12
        assert max(b for _, b in defects) < 1e-12

    def test_random_euler_data(self, rng, periodic8, kind):
        defects = []
        for _ in range(5):
            model, work, f, gamma, bounds = _euler_element_data(rng, periodic8)
            res = limit_system_contributions(periodic8, model, f,
                                             work.bar_states, gamma, bounds,
                                             kind, "sequential")
            defects.append(diagnostics.stage_defects(StageRecord(
                res.f_star, res.alpha, res.phi_lo, res.phi_hi, ms=periodic8,
                base=work.bar_states, gamma=gamma, bounds=bounds)))
        self._check(defects)

    def test_dmr_stages(self, kind):
        cfg = RunConfig(benchmark="dmr", h=1 / 16, limiter=f"mcl.{kind}")
        _, _, _, scheme, u = setup(cfg)
        # each record is read at once: its views live in buffers that the
        # next stage overwrites
        defects = []
        _, _, steps = integrate(
            scheme, u, TimeControls(cfl=0.5, t_end=0.002, scheme="ssp2"),
            on_stage=lambda record: defects.append(
                diagnostics.stage_defects(record)))
        assert len(defects) == 2 * steps
        self._check(defects)


class TestIdpFix:
    def test_zero_correction_gives_one(self, rng):
        model = Euler()
        base = random_euler_states(rng, model, (100, 3))
        alpha = idp_fix(model, base, np.zeros((100, 3, 4)), np.ones((100, 3)))
        assert np.all(alpha == 1.0)

    def test_admissible_at_full_strength_skips_search(self, rng):
        model = Euler()
        base = random_euler_states(rng, model, (50, 3))
        f = 1e-6 * rng.normal(size=(50, 3, 4))
        f -= f.mean(axis=1, keepdims=True)
        alpha = idp_fix(model, base, f, np.ones((50, 3)))
        assert np.all(alpha == 1.0)

    def test_bisection_brackets_the_admissibility_boundary(self, rng):
        model = Euler()
        base = random_euler_states(rng, model, (200, 3))
        f = rng.normal(scale=5.0, size=(200, 3, 4))
        f -= f.mean(axis=1, keepdims=True)
        gamma = np.ones((200, 3))
        alpha = idp_fix(model, base, f, gamma)
        assert np.all((alpha >= 0.0) & (alpha <= 1.0))
        corr = f / gamma[..., None]
        ok_here = model.phi_values(base + alpha[:, None, None] * corr)
        assert np.all(ok_here >= 0.0)
        limited = alpha < 1.0 - 1e-12
        assert limited.any()  # the probe must actually exercise the search
        bumped = np.minimum(1.0, alpha + 2.0 ** -29)
        phi_up = model.phi_values(base + bumped[:, None, None] * corr)
        bad_up = np.any(phi_up < 0.0, axis=(1, 2))
        assert np.all(bad_up[limited])

    def test_inadmissible_base_rejected(self):
        model = Euler()
        base = np.array([[[1.0, 5.0, 0.0, 1.0]] * 3])
        with pytest.raises(AdmissibilityError):
            idp_fix(model, base, np.zeros((1, 3, 4)), np.ones((1, 3)))


class TestSystemLimiting:
    @pytest.mark.parametrize("system", ["sequential", "synchronized"])
    def test_zero_sum_and_admissibility(self, rng, periodic8, system):
        ms = periodic8
        model, work, f, gamma, bounds = _euler_element_data(rng, ms)
        res = limit_system_contributions(ms, model, f, work.bar_states, gamma,
                                         bounds, "cs", system)
        scale = max(np.abs(f).max(), 1.0)
        assert np.abs(res.f_star.sum(axis=1)).max() < 1e-11 * scale
        cand = work.bar_states + res.f_star / gamma[..., None]
        assert np.all(model.phi_values(cand) >= -1e-12)

    def test_nonpositive_limited_density_rejected(self, periodic8):
        """Infinite bounds let through a density contribution that takes
        base + f / gamma below zero at one node: the product rule is not
        entered."""
        ms = periodic8
        model = Euler()
        base = np.broadcast_to(model.conserved(1.0, [0.0, 0.0], 1.0),
                               (ms.n_elements, 3, 4)).copy()
        f = np.zeros_like(base)
        f[0, :, 0] = [-2.0, 1.0, 1.0]
        gamma = np.ones((ms.n_elements, 3))
        wide = (np.full((ms.n_dofs, 4), -np.inf), np.full((ms.n_dofs, 4), np.inf))
        with pytest.raises(AdmissibilityError,
                           match="nonpositive intermediate density"):
            limit_system_contributions(ms, model, f, base, gamma, wide,
                                       "cs", "sequential")

    def test_unknown_system_rejected(self, rng, periodic8):
        model, work, f, gamma, bounds = _euler_element_data(rng, periodic8)
        with pytest.raises(ValueError):
            limit_system_contributions(periodic8, model, f, work.bar_states,
                                       gamma, bounds, "cs", "banana")


class TestZeroContributionStaysZero:
    """Where d^e = 0, ``SpatialScheme.rhs`` hands the limiters f = 0 with
    gamma = 2 TINY. Every limiter, the IDP fix included, keeps such a
    contribution at +-0, which is why the stage zeroes f_anti before
    limiting only. The other elements carry random contributions, with and
    without a workspace."""

    @staticmethod
    def _idle_data(rng, ms, model, u):
        """(work, f, gamma, bounds, idle) of an MCL stage at u, with f and
        gamma as on elements with d^e = 0 at a random quarter of them."""
        work, _ = assemble(ms, model, u)
        idle = rng.random(ms.n_elements) < 0.25
        f = np.where((idle | (work.d <= 0))[:, None, None], 0.0,
                     work.f_anti)
        gamma = 2.0 * np.maximum(work.d, TINY)[:, None]
        gamma[idle] = 2.0 * TINY
        bounds = local_bounds(ms, u, work.bar_states)
        return work, f, gamma, bounds, idle

    @pytest.mark.parametrize("with_ws", [False, True])
    @pytest.mark.parametrize("kind", ["scale", "cs"])
    def test_scalar(self, rng, periodic8, kind, with_ws):
        ms = periodic8
        model = Burgers2D()
        u = rng.uniform(-1.0, 1.0, (ms.n_dofs, 1))
        work, f, gamma, (lo, hi), idle = self._idle_data(rng, ms, model, u)
        res = limit_scalar_contributions(
            ms, f[..., 0], work.bar_states[..., 0], gamma, lo[:, 0],
            hi[:, 0], kind, Workspace() if with_ws else None)
        assert np.all(res.f_star[idle] == 0.0)
        assert np.all(np.isfinite(res.f_star))

    @pytest.mark.parametrize("with_ws", [False, True])
    @pytest.mark.parametrize("kind, system", [
        ("cs", "sequential"), ("scale", "sequential"),
        ("scale", "synchronized")])
    def test_euler_with_idp_fix(self, rng, periodic8, kind, system, with_ws):
        ms = periodic8
        model = Euler()
        u = random_euler_states(rng, model, (ms.n_dofs,))
        work, f, gamma, bounds, idle = self._idle_data(rng, ms, model, u)
        res = limit_system_contributions(
            ms, model, f, work.bar_states, gamma, bounds, kind, system,
            Workspace() if with_ws else None)
        assert np.all(res.f_star[idle] == 0.0)
        assert np.all(np.isfinite(res.f_star))
        assert np.all(res.alpha[idle] == 1.0)
