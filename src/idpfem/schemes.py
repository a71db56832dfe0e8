"""Spatial schemes built from the element assembly and the limiters.

Four operators share one assembly pass:

* ``low``: element-based Rusanov method (forward set of bar states),
* ``none``: stabilized Galerkin (lumped derivative variant, unlimited),
* ``mcl.*``: monolithic convex limiting inserted into the semi-discrete RHS,
* ``fct.*``: two-stage predictor/corrector, applied per forward-Euler stage.

Semi-discrete operators expose ``rhs``; FCT exposes the full stage map
``step``. ``dt_bound`` yields the largest IDP-safe forward-Euler step; the
assembly it makes, and the bound itself, are reused by the next
``rhs``/``step`` call at the same ``(u, t)``, so the first stage of an SSP
step assembles nothing new and FCT's CFL check recomputes nothing. On a
model with state-free wave speeds (``state_free_speeds``, linear
advection) the scheme keeps a read-only copy of the viscosity d^e of its
first assembly, which every later assembly takes instead of computing the
wave speeds, and the bound of its first CFL computation: ``dt_bound`` then
returns it without assembling, and FCT's CFL check compares against it.
On a model with a linear flux (``flux_coefficients``, linear advection)
the scheme also keeps the read-only coefficients k (E, 3) of the
coefficient-form assembly, formed in its first assembly.
The driver fixes the bounds: ``mcl.*`` takes them from u and the element bar
states, which only its assemblies form, and ``fct.*`` from the low-order
predictor over each DOF's nodal stencil.

Each scheme owns a ``Workspace`` ``ws`` of element-sized buffers and their
views, made on first use and reused by every later stage (see
``mesh.scratch``): the assembly, the bounds and the limiters write their
element blocks there, so the time loop allocates only per-DOF arrays
and the IDP fix's boolean admissibility masks (see README, Performance).
``rhs`` and ``step`` return fresh arrays; ``last_alpha`` and
``last_bounds`` hold until the scheme's next stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import assemble, flux_coefficients
from .limiting import (limit_scalar_contributions,
                       limit_system_contributions, local_bounds)
from .mesh import MeshSystem, Workspace, scratch
from .models import TINY


class CFLError(Exception):
    """Raised when a step size violates the low-order CFL condition."""


SCHEME_KEYS = ("none", "low", "fct.scale", "fct.cs", "mcl.scale", "mcl.cs")
SYSTEM_MODES = ("sequential", "synchronized")


def parse_limiter_key(key: str):
    """Split a config limiter key into (driver, scalar limiter kind)."""
    if key in ("none", "low"):
        return key, None
    driver, _, kind = key.partition(".")
    if driver not in ("fct", "mcl") or kind not in ("scale", "cs"):
        raise ValueError(f"unknown limiter {key!r}; valid: {', '.join(SCHEME_KEYS)}")
    return driver, kind


def _scatter(ms: MeshSystem, contrib, bwork, shape, ws=None):
    rhs = ms.scatter_add(contrib, ws).reshape(shape)
    if bwork is not None:
        rhs[bwork.dofs] += bwork.flux_term
    return rhs


def _component_bounds(ms: MeshSystem, field_dof, work, bwork, mode, ws):
    """Per-DOF (lo, hi) of every conserved component, each (n_dofs, m), from
    one ``local_bounds`` pass over all components; element blocks go to the
    workspace ``ws``."""
    extra_dofs = bwork.dofs if bwork is not None else None
    extra_vals = bwork.bar_states if bwork is not None else None
    return local_bounds(ms, field_dof, work.bar_states, mode, extra_dofs,
                        extra_vals, ws)


def _zero_inactive(a, d):
    """Zero the block ``a`` (E, 3, m) in place where the viscosity ``d``
    (E,) is not positive. ``d`` is rarely zero anywhere, so the mask is
    made only when needed."""
    if not d.min() > 0:
        np.copyto(a, 0.0, where=~(d > 0)[:, None, None])
    return a


@dataclass
class SpatialScheme:
    """One configured spatial operator over a fixed mesh system."""

    ms: MeshSystem
    model: object
    limiter: str = "mcl.cs"
    system: str = "sequential"    # system models: one of SYSTEM_MODES
    bc: object = None             # callable or None (periodic / closed)
    last_alpha: np.ndarray | None = None
    last_bounds: tuple | None = None  # per-DOF (lo, hi), each (n_dofs, m)
    # (u copy, t, work, bwork, dt bound) of the last dt_bound, for one use
    # only
    _memo: tuple | None = field(default=None, init=False, repr=False)
    # on a model with state-free wave speeds: the read-only d^e of the
    # first assembly and the first CFL bound, kept for the scheme's life
    _d: np.ndarray | None = field(default=None, init=False, repr=False)
    _dt: float | None = field(default=None, init=False, repr=False)
    # on a model with a linear flux: the read-only flux coefficients k
    # (E, 3), formed in the first assembly and kept for the scheme's life
    _k: np.ndarray | None = field(default=None, init=False, repr=False)
    # element-sized buffers and their views, reused by every stage (see
    # mesh.scratch)
    ws: Workspace = field(default_factory=Workspace, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        self.driver, self.kind = parse_limiter_key(self.limiter)
        if self.system not in SYSTEM_MODES:
            raise ValueError(f"unknown system limiter {self.system!r}; "
                             f"valid: {', '.join(SYSTEM_MODES)}")

    def dt_bound(self, u: np.ndarray, t: float = 0.0) -> float:
        """max dt with 2 dt/m_i * sum_e d^e (+ boundary viscosity) <= 1.

        The assembly and the bound are kept for the next ``rhs`` or ``step``
        call only. Once the scheme keeps its bound (state-free wave
        speeds), that is returned and nothing is assembled or kept.
        """
        if self._dt is not None:
            return self._dt
        work, bwork = self._fresh_assembly(u, t)
        dt = self._dt_from_work(work, bwork)
        self._memo = (u.copy(), t, work, bwork, dt)
        return dt

    def _fresh_assembly(self, u, t):
        if self._k is None:
            self._k = flux_coefficients(self.ms, self.model)
            if self._k is not None:
                self._k.flags.writeable = False
        work, bwork = assemble(self.ms, self.model, u, t, self.bc,
                               with_antidiffusion=self.driver != "low",
                               ws=self.ws, d=self._d, k=self._k,
                               with_bar_states=self.driver == "mcl")
        if self._d is None and getattr(self.model, "state_free_speeds", False):
            self._d = work.d.copy()
            self._d.flags.writeable = False
        return work, bwork

    def _assemble(self, u, t):
        """``(work, bwork, dt bound)`` at ``(u, t)``: what ``dt_bound`` left
        if it was made at equal ``t`` and ``u``, else a fresh assembly and
        the kept bound (None if there is none). Either way the memo is
        dropped."""
        memo, self._memo = self._memo, None
        if memo is not None and memo[1] == t and np.array_equal(memo[0], u):
            return memo[2:]
        return self._fresh_assembly(u, t) + (self._dt,)

    def _gamma_buffer(self):
        """The (E, 1) buffer of gamma: that of dt's 2 d^e, used up by then."""
        return scratch(self.ws, "scheme.d2", (self.ms.n_elements, 1))

    def _dt_from_work(self, work, bwork) -> float:
        d2 = np.multiply(2.0, work.d[:, None], out=scratch(
            self.ws, "scheme.d2", self.ms.elem_dofs.shape))
        denom = self.ms.scatter_add(d2, self.ws)
        if bwork is not None:
            denom[bwork.dofs] += bwork.visc
        if denom.max() <= 0.0:
            dt = np.inf
        else:
            mask = denom > 0
            dt = float((self.ms.lumped_mass[mask] / denom[mask]).min())
        if self._d is not None:
            # state-free speeds (the boundary lambda |n_i| too): the bound
            # holds for every state
            self._dt = dt
        return dt

    def _limit(self, f, base, gamma, bounds):
        """Limit the antidiffusive contributions ``f`` (E, 3, m) so that every
        ``base + f / gamma`` stays within the per-DOF ``bounds`` (lo, hi),
        each (n_dofs, m)."""
        lo, hi = self.last_bounds = bounds
        if self.model.m == 1:
            res = limit_scalar_contributions(self.ms, f[..., 0], base[..., 0],
                                             gamma, lo[:, 0], hi[:, 0],
                                             self.kind, self.ws)
            f_star = res.f_star[..., None]
        else:
            res = limit_system_contributions(self.ms, self.model, f, base,
                                             gamma, bounds, self.kind,
                                             self.system, self.ws)
            f_star = res.f_star
        self.last_alpha = res.alpha
        return f_star

    # --- semi-discrete operators -----------------------------------------

    def rhs(self, u: np.ndarray, t: float = 0.0) -> np.ndarray:
        if self.driver not in ("low", "none", "mcl"):
            raise ValueError(f"{self.limiter!r} is not a semi-discrete scheme")
        ms = self.ms
        work, bwork, _ = self._assemble(u, t)
        if self.driver == "low":
            return work.udot
        # The stage is the only reader of its assembly (``_assemble`` drops
        # the memo), so f_anti's buffer takes the contributions.
        if self.driver == "none":
            contrib = np.add(work.r_rusanov, work.f_anti, out=work.f_anti)
        elif self.driver == "mcl":
            # MCL: bar states as base, gamma = 2 d^e.
            gamma = np.maximum(work.d[:, None], TINY,
                               out=self._gamma_buffer())
            gamma *= 2.0                                          # (E, 1)
            bounds = _component_bounds(ms, u, work, bwork, "barstate",
                                       self.ws)
            f = _zero_inactive(work.f_anti, work.d)
            f_star = self._limit(f, work.bar_states, gamma, bounds)
            contrib = np.add(work.r_rusanov, _zero_inactive(f_star, work.d),
                             out=f)
        total = _scatter(ms, contrib, bwork, u.shape, self.ws)
        return total / ms.lumped_mass[:, None]

    # --- FCT stage map ----------------------------------------------------

    def step(self, u: np.ndarray, t: float, dt: float) -> np.ndarray:
        """One full forward-Euler stage of the FCT scheme."""
        if self.driver != "fct":
            raise ValueError(f"{self.limiter!r} has no two-stage step map")
        ms = self.ms
        work, bwork, dt_max = self._assemble(u, t)
        if dt_max is None:
            dt_max = self._dt_from_work(work, bwork)
        if dt > dt_max * (1.0 + 1e-9):
            raise CFLError(f"dt = {dt:g} violates the low-order CFL condition")

        u_low = u + dt * work.residual / ms.lumped_mass[:, None]

        # FCT: the low-order predictor as base, gamma = m^e / dt.
        gamma = np.divide(ms.geometry.m_elem[:, None], dt,
                          out=self._gamma_buffer())             # (E, 1)
        bounds = _component_bounds(ms, u_low, work, bwork, "stencil", self.ws)
        # u_loc is not read again in this stage
        base = ms.gather(u_low, out=work.u_loc)
        f_star = self._limit(work.f_anti, base, gamma, bounds)
        corr = _scatter(ms, f_star, None, u.shape, self.ws)
        return u_low + dt * corr / ms.lumped_mass[:, None]

    def stage_map(self):
        """Forward-Euler stage map usable by the SSP integrators."""
        if self.driver == "fct":
            return self.step

        def fe(u, t, dt):
            return u + dt * self.rhs(u, t)

        return fe
