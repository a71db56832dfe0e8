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
model with a linear flux (``flux_coefficients``, linear advection) the
scheme builds at construction the read-only ``assembly.LinearFlux``: the
coefficients k (E, 3) and the viscosity d^e = max_i |k_i|, and on first
read the bar-state weights w (E, 3). Every assembly takes it, so an MCL
stage forms its bar states as u_i + w_i (ubar - u_i); no other driver
forms w. The scheme also keeps the bound of its first CFL computation,
which holds for every state: ``dt_bound`` then returns it without
assembling, and FCT's CFL check compares against it.
The driver fixes the bounds: ``mcl.*`` takes them from u and the element bar
states, which only its assemblies form, and ``fct.*`` from the low-order
predictor over each DOF's nodal stencil.

Each scheme owns a ``Workspace`` ``ws`` of element-sized buffers and their
views, made on first use and reused by every later stage (see
``mesh.scratch``): the assembly, the bounds and the limiters write their
element blocks there, so the time loop allocates only per-DOF arrays
and the IDP fix's boolean admissibility masks (see README, Performance).
``rhs`` and ``step`` return fresh arrays; the views in a limited stage's
``StageRecord`` (``record``) hold until the next stage or ``dt_bound``.

Once the assembly has formed ``f_anti``, only its ``bars``, ``d`` and
``f_anti`` hold what the stage reads again: ``bars`` is the base (the MCL
bar states, or the FCT predictor gathered there for a system model; a
scalar FCT stage forms its bound gaps from the predictor per DOF and
gathers no base), and the system limiter limits ``f_anti`` in place. On
the flux path (every model without a linear flux) ``f_anti`` lives in the
second half of ``asm.flux_loc``, whose first half holds the mass term; the
limiters borrow views of at most (E, 3, m), the first half, so they never
reach it. The CFL bound, the bound gaps, the limiters and the IDP fix keep
their element temporaries in the other assembly buffers; gamma has one of
its own. What each shared buffer holds, in stage order:

============  ======================  ======================  ===============
buffer        assembly                dt, gaps, limiters      IDP fix
============  ======================  ======================  ===============
asm.r_rus     Euler aux of ubar,      lower gaps, then the    admissibility
              f(ubar) . c_i, r_rus    node factors'           intermediates
                                      intermediates; a scalar
                                      f_star
asm.tmp       Euler aux of u_i; _dot  2 d^e, then upper gaps, candidate
              and bar-state           then the scaling        states
              intermediates, visc     limiter's node factors
asm.flux_loc  wave-speed              half 0: clip-and-scale  -
              intermediates, f(u_i);  parts; R_S node
              mass term in half 0,    factors, then phi_eL
              f_anti in half 1
asm.flux_bar  f(ubar), sum of f(u_j)  product-rule density    -
              / 3, sum of udot        sums, then rs
asm.ubar      ubar                    rho_bar_star            -
asm.u_loc     u_i                     clip-and-scale sums     -
                                      (one (E, 1, k, 4)
                                      view), phibar, gamma
                                      rho_bar_star
asm.bars      Euler aux               the base: MCL bar       base
              intermediates, wave     states, FCT gathered
              speeds, f(u_i) . c_i,   predictor
              then the bar states
============  ======================  ======================  ===============
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import LinearFlux, assemble, linear_flux
from .limiting import (LimitResult, limit_scalar_contributions,
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


def _zero_inactive(a, d):
    """Zero the block ``a`` (E, 3, m) in place where the viscosity ``d``
    (E,) is not positive. ``d`` is rarely zero anywhere, so the mask is
    made only when needed."""
    if not d.min() > 0:
        np.copyto(a, 0.0, where=~(d > 0)[:, None, None])
    return a


@dataclass(kw_only=True)
class StageRecord(LimitResult):
    """The limiter's result of one stage, its ``f_star`` (E, 3, m) after
    the IDP fix, and what bounds its candidates ``base + f_star / gamma``."""

    ms: MeshSystem
    base: np.ndarray              # (E, 3, m), or (n_dofs, 1) for scalar FCT
    gamma: np.ndarray             # (E, 1)
    bounds: tuple                 # per-DOF (lo, hi), each (n_dofs, m)


@dataclass
class SpatialScheme:
    """One configured spatial operator over a fixed mesh system."""

    ms: MeshSystem
    model: object
    limiter: str = "mcl.cs"
    system: str = "sequential"    # system models: one of SYSTEM_MODES
    bc: object = None             # callable or None (periodic / closed)
    record: StageRecord | None = field(default=None, init=False, repr=False)
    # (u copy, t, work, bwork, dt bound) of the last dt_bound, for one use
    # only
    _memo: tuple | None = field(default=None, init=False, repr=False)
    # on a model with a linear flux: its read-only LinearFlux, built at
    # construction, and the first CFL bound, both kept for the scheme's life
    _lin: LinearFlux | None = field(default=None, init=False, repr=False)
    _dt: float | None = field(default=None, init=False, repr=False)
    # element-sized buffers and their views, reused by every stage (see
    # mesh.scratch)
    ws: Workspace = field(default_factory=Workspace, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        self.driver, self.kind = parse_limiter_key(self.limiter)
        if self.system not in SYSTEM_MODES:
            raise ValueError(f"unknown system limiter {self.system!r}; "
                             f"valid: {', '.join(SYSTEM_MODES)}")
        self._lin = linear_flux(self.ms, self.model)

    def dt_bound(self, u: np.ndarray, t: float = 0.0) -> float:
        """max dt with 2 dt/m_i * sum_e d^e (+ boundary viscosity) <= 1.

        The assembly and the bound are kept for the next ``rhs`` or ``step``
        call only. Once the scheme keeps its bound (a linear flux), that is
        returned and nothing is assembled or kept.
        """
        if self._dt is not None:
            return self._dt
        work, bwork = self._fresh_assembly(u, t)
        dt = self._dt_from_work(work, bwork)
        self._memo = (u.copy(order="K"), t, work, bwork, dt)
        return dt

    def _fresh_assembly(self, u, t):
        return assemble(self.ms, self.model, u, t, self.bc,
                        with_antidiffusion=self.driver != "low", ws=self.ws,
                        lin=self._lin,
                        with_bar_states=self.driver == "mcl")

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
        """The (E, 1) buffer of gamma, the scheme's own: the limiters and
        the IDP fix read gamma to the end of the stage, while their
        temporaries take the spent assembly buffers."""
        return scratch(self.ws, "scheme.gamma", (self.ms.n_elements, 1))

    def _dt_from_work(self, work, bwork) -> float:
        # 2 d^e at the element nodes, in the buffer of the viscous term,
        # read last by f_anti
        shape = self.ms.elem_dofs.shape
        d2 = scratch(self.ws, "asm.tmp", shape)
        if d2 is None:
            d2 = np.empty(shape, order="F")
        np.multiply(2.0, work.d[:, None], out=d2)
        denom = self.ms.scatter_add(d2, self.ws)
        if bwork is not None:
            denom[bwork.dofs] += bwork.visc
        if denom.max() <= 0.0:
            dt = np.inf
        else:
            mask = denom > 0
            dt = float((self.ms.lumped_mass[mask] / denom[mask]).min())
        if self._lin is not None:
            # a linear flux: d^e and the boundary lambda |n_i| read no
            # state, so the bound holds for every state
            self._dt = dt
        return dt

    def _limit(self, f, base, gamma, bounds):
        """Limit the antidiffusive contributions ``f`` (E, 3, m) so that every
        ``base + f / gamma`` stays within the per-DOF ``bounds`` (lo, hi),
        each (n_dofs, m). ``base`` is (E, 3, m) at the element nodes, or
        for a scalar model (n_dofs, 1) per DOF. ``f`` is used up: a system
        model limits it in place. Keeps the stage's ``record``."""
        lo, hi = bounds
        if self.model.m == 1:
            res = limit_scalar_contributions(self.ms, f[..., 0], base[..., 0],
                                             gamma, lo[:, 0], hi[:, 0],
                                             self.kind, self.ws)
            res.f_star = res.f_star[..., None]
        else:
            res = limit_system_contributions(self.ms, self.model, f, base,
                                             gamma, bounds, self.kind,
                                             self.system, self.ws)
        self.record = StageRecord(**vars(res), ms=self.ms, base=base,
                                  gamma=gamma, bounds=bounds)
        return res.f_star

    # --- semi-discrete operators -----------------------------------------

    def rhs(self, u: np.ndarray, t: float = 0.0) -> np.ndarray:
        if self.driver not in ("low", "none", "mcl"):
            raise ValueError(f"{self.limiter!r} is not a semi-discrete scheme")
        ms = self.ms
        work, bwork, _ = self._assemble(u, t)
        if self.driver == "low":
            return work.udot
        # Every driver adds its scattered correction to the residual, which
        # holds the scattered Rusanov residual and the boundary terms already.
        if self.driver == "none":
            corr = work.f_anti
        elif self.driver == "mcl":
            # MCL: bar states as base, gamma = 2 d^e. The stage is the only
            # reader of its assembly (``_assemble`` drops the memo), so
            # f_anti is zeroed in place where d^e = 0; the limiters and the
            # IDP fix keep it at +-0 there.
            gamma = np.maximum(work.d[:, None], TINY,
                               out=self._gamma_buffer())
            gamma *= 2.0                                          # (E, 1)
            bounds = local_bounds(ms, u, work.bar_states, bwork, self.ws)
            f = _zero_inactive(work.f_anti, work.d)
            corr = self._limit(f, work.bar_states, gamma, bounds)
        total = ms.scatter_add(corr, self.ws)
        total += work.residual
        total /= ms.lumped_mass[:, None]
        return total

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
        bounds = local_bounds(ms, u_low, None, bwork, self.ws)
        # A scalar limiter forms its bound gaps from the predictor per DOF,
        # without gathering it; the system limiter reads the base at the
        # element nodes, gathered where an MCL stage keeps its bar states
        # (FCT forms none), so that u_loc is free for the limiter's sums.
        base = u_low if self.model.m == 1 else ms.gather(
            u_low, out=scratch(self.ws, "asm.bars", work.u_loc.shape))
        f_star = self._limit(work.f_anti, base, gamma, bounds)
        corr = ms.scatter_add(f_star, self.ws)
        return u_low + dt * corr / ms.lumped_mass[:, None]

    def stage_map(self):
        """Forward-Euler stage map usable by the SSP integrators."""
        if self.driver == "fct":
            return self.step

        def fe(u, t, dt):
            return u + dt * self.rhs(u, t)

        return fe
