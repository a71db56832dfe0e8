"""Flux models: linear advection, 2D Burgers and the compressible Euler system.

Each model provides the flux tensor f(u), a guaranteed directional wave-speed
bound for Riemann data, and admissibility checks against its convex invariant
set. All functions are vectorized over leading axes and pure. Results keep
the memory order of the inputs; flux tensors (..., m, 2) are allocated in
Fortran order, so that for element blocks stored with the element index
fastest each (component, direction) column is contiguous. ``flux`` and
``max_wave_speed`` write into ``out`` when it is given (numpy's ``out=``
idiom) and return a fresh array otherwise.

``normal_flux(u, n, x, aux)`` is f(u) . n (..., m), one value per state and
component, without the flux tensor: the boundary terms take it.

``aux(u)`` is the per-state quantity that ``flux`` and ``max_wave_speed``
both need (the Euler pressure; None for the scalar models). A caller that
evaluates both at the same states computes it once and passes it as
``aux`` (``aux_l``/``aux_r``); without it each method computes its own.
``max_wave_speed`` (and ``Euler.admissible``) also take ``tmp``, the
shape of their result with a trailing axis of length 2, for their
intermediates.

A model whose flux is linear in the state, f(u) = u v(x), also has
``flux_coefficients(c, x)``, k = v(x) . c, and promises f(u) . c = u k at x
for every state u and time t. Its wave speed across c is then |k| / |c|,
which reads neither the states nor t: the element assembly forms no flux
tensor and no wave speed, and a scheme takes the viscosity d^e = max_i
|k_i|, the bar-state weights 1/2 - k_i / (2 d^e) and the CFL bound that
follows from d^e once and keeps them. Models
without the method are assembled through ``flux`` and ``max_wave_speed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class AdmissibilityError(Exception):
    """Raised when a state required to be admissible is not."""


# Division guard: magnitudes below this are treated as exactly zero.
TINY = 1e-300


def _halves(tmp):
    """The two intermediates of a ``tmp`` buffer (..., 2), or two Nones."""
    return (None, None) if tmp is None else (tmp[..., 0], tmp[..., 1])


@dataclass
class ScalarModel:
    """What the scalar models share: one component, no ``aux``, and the
    invariant set of the global interval [u_min, u_max], normally set from
    the initial condition."""

    u_min: float = -np.inf
    u_max: float = np.inf
    m: int = 1

    def aux(self, u: np.ndarray, out=None, tmp=None):
        return None

    def phi_values(self, u: np.ndarray) -> np.ndarray:
        """Quasi-concave constraint values; nonnegative iff admissible."""
        return np.stack([u[..., 0] - self.u_min, self.u_max - u[..., 0]], axis=-1)

    def admissible(self, u: np.ndarray, slack: float = 0.0) -> np.ndarray:
        phi = self.phi_values(u)
        return (phi[..., 0] >= -slack) & (phi[..., 1] >= -slack)

    def set_global_bounds(self, u0: np.ndarray) -> None:
        self.u_min = float(u0.min())
        self.u_max = float(u0.max())


@dataclass
class LinearAdvection(ScalarModel):
    """Scalar transport with a (possibly position-dependent) velocity field.

    ``velocity(x)`` maps (..., 2) positions to velocities broadcastable to
    ``x.shape``; the default is uniform translation.
    """

    velocity: Callable[[np.ndarray], np.ndarray] = None

    def __post_init__(self):
        if self.velocity is None:
            self.velocity = translation_velocity(1.0, 0.0)

    def flux(self, u: np.ndarray, x: np.ndarray, out=None,
             aux=None) -> np.ndarray:
        """f(u) = v(x) u, returned as (..., m, 2)."""
        v = self.velocity(np.asarray(x, dtype=float))
        f = np.empty(u.shape + (2,), order="F") if out is None else out
        return np.multiply(u[..., :, None], v[..., None, :], out=f)

    def normal_flux(self, u: np.ndarray, n: np.ndarray, x: np.ndarray,
                    aux=None) -> np.ndarray:
        """f(u) . n = u k with k = v(x) . n."""
        return u * self.flux_coefficients(n, x)[..., None]

    def flux_coefficients(self, c: np.ndarray, x: np.ndarray) -> np.ndarray:
        """k = v(x) . c (the shape of ``c[..., 0]`` broadcast against that
        of ``x[..., 0]``), so that f(u) . c = u k; the velocity is
        evaluated once, at ``x``."""
        v = self.velocity(np.asarray(x, dtype=float))
        k = np.multiply(v[..., 0], c[..., 0])
        k += v[..., 1] * c[..., 1]
        return k

    def max_wave_speed(self, ul, ur, n, x, out=None, aux_l=None,
                       aux_r=None, tmp=None) -> np.ndarray:
        v = self.velocity(np.asarray(x, dtype=float))
        if out is None:
            out = np.empty(np.broadcast(ul[..., 0], ur[..., 0], n[..., 0],
                                        v[..., 0]).shape)
        lam = np.multiply(v[..., 0], n[..., 0], out=out)
        lam += np.multiply(v[..., 1], n[..., 1], out=_halves(tmp)[0])
        return np.abs(lam, out=lam)

    # in this class's own namespace, where perfbench/spans.py wraps it
    admissible = ScalarModel.admissible


@dataclass
class Burgers2D(ScalarModel):
    """Scalar conservation law with convex flux f(u) = (u^2/2, u^2/2)."""

    def flux(self, u: np.ndarray, x: np.ndarray = None, out=None,
             aux=None) -> np.ndarray:
        f = np.empty(u.shape + (2,), order="F") if out is None else out
        f0 = np.square(u, out=f[..., 0])
        f0 *= 0.5
        f[..., 1] = f0
        return f

    def normal_flux(self, u: np.ndarray, n: np.ndarray, x=None,
                    aux=None) -> np.ndarray:
        """f(u) . n = u^2 (n_1 + n_2) / 2."""
        f = np.square(u)
        f *= 0.5 * (n[..., 0] + n[..., 1])[..., None]
        return f

    def max_wave_speed(self, ul, ur, n, x=None, out=None, aux_l=None,
                       aux_r=None, tmp=None) -> np.ndarray:
        # Directional speed is u (n1 + n2); for convex flux the maximum over
        # the Riemann fan is attained at an endpoint of [min, max](ul, ur).
        t, sl = _halves(tmp)
        s = np.abs(np.add(n[..., 0], n[..., 1], out=t), out=t)
        speed = np.maximum(np.abs(ul[..., 0], out=sl),
                           np.abs(ur[..., 0], out=out), out=out)
        return np.multiply(s, speed, out=out)


@dataclass
class Euler:
    """Compressible Euler equations in 2D, conserved variables (rho, mx, my, E).

    The invariant set is {rho > 0, p > 0}, expressed through the quasi-concave
    functions rho and rho * e_int (internal energy density).
    """

    gamma: float = 1.4
    m: int = 4

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError("Euler model requires gamma > 1")

    def primitives(self, u: np.ndarray):
        """Return (rho, v, p, c) with v of shape (..., 2)."""
        rho = u[..., 0]
        v = u[..., 1:3] / rho[..., None]
        p = self.pressure(u)
        c = np.sqrt(self.gamma * p / rho)
        return rho, v, p, c

    def pressure(self, u: np.ndarray, out=None, tmp=None) -> np.ndarray:
        """(gamma - 1) rho e; ``out`` and ``tmp`` (the shape of ``u[..., 0]``)
        take the result and an intermediate when given."""
        p = self.internal_energy_density(u, out, tmp)
        p *= self.gamma - 1.0
        return p

    def internal_energy_density(self, u: np.ndarray, out=None,
                                tmp=None) -> np.ndarray:
        """rho e = E - |m|^2 / (2 rho), in ``out`` with ``tmp`` as scratch
        when given."""
        kinetic = np.square(u[..., 1], out=tmp)
        kinetic += np.square(u[..., 2], out=out)
        kinetic *= 0.5
        kinetic /= u[..., 0]
        return np.subtract(u[..., 3], kinetic, out=out)

    def conserved(self, rho, v, p) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        v = np.asarray(v, dtype=float)
        p = np.asarray(p, dtype=float)
        E = p / (self.gamma - 1.0) + 0.5 * rho * np.sum(v ** 2, axis=-1)
        return np.stack([rho, rho * v[..., 0], rho * v[..., 1], E], axis=-1)

    def aux(self, u: np.ndarray, out=None, tmp=None) -> np.ndarray:
        """The pressure, shared by ``flux`` and ``max_wave_speed``."""
        return self.pressure(u, out, tmp)

    def flux(self, u: np.ndarray, x: np.ndarray = None, out=None,
             aux=None) -> np.ndarray:
        rho = u[..., 0]
        if np.fmin.reduce(rho, axis=None, initial=np.inf) <= 0:  # skips NaN
            raise AdmissibilityError("Euler flux evaluated at rho <= 0")
        f = np.empty(u.shape + (2,), order="F") if out is None else out
        # The velocity goes into the energy row and the pressure (unless
        # given) and then p + E into the mass row (an intermediate beside
        # it) until they are needed, so no temporary is allocated.
        v = np.divide(u[..., 1:3], rho[..., None], out=f[..., 3, :])
        p = aux if aux is not None else self.pressure(u, f[..., 0, 0],
                                                       f[..., 0, 1])
        np.multiply(u[..., 1, None], v, out=f[..., 1, :])
        f[..., 1, 0] += p
        np.multiply(u[..., 2, None], v, out=f[..., 2, :])
        f[..., 2, 1] += p
        v *= np.add(p, u[..., 3], out=f[..., 0, 0])[..., None]
        f[..., 0, :] = u[..., 1:3]
        return f

    def normal_flux(self, u: np.ndarray, n: np.ndarray, x=None,
                    aux=None) -> np.ndarray:
        """f(u) . n = (v . n) u + p (0, n, v . n), from the pressure ``aux``
        when given."""
        p = self.pressure(u) if aux is None else aux
        vn = np.multiply(u[..., 1], n[..., 0])
        vn += u[..., 2] * n[..., 1]
        vn /= u[..., 0]
        f = np.multiply(u, vn[..., None])
        f[..., 1:3] += p[..., None] * n
        f[..., 3] += p * vn
        return f

    def _speed(self, u, n, out=None, p=None, tmp=None, w=None):
        """|v . n| + c at the states u, whose pressure ``p`` is computed
        unless given. When given, ``tmp`` (the shape of the result) and
        ``w`` (that of the states; may be ``tmp``) take the intermediates."""
        rho = u[..., 0]
        s = np.multiply(np.divide(u[..., 1], rho, out=w), n[..., 0], out=out)
        s += np.multiply(np.divide(u[..., 2], rho, out=w), n[..., 1], out=tmp)
        np.abs(s, out=s)
        c = np.multiply(self.gamma, self.pressure(u) if p is None else p,
                        out=w)
        c /= rho
        s += np.sqrt(c, out=c)
        return s

    def max_wave_speed(self, ul, ur, n, x=None, out=None, aux_l=None,
                       aux_r=None, tmp=None) -> np.ndarray:
        # Simple Rusanov-type bound max(|v.n| + c) over the two states; the
        # estimator is deliberately swappable behind this method.
        t, t2 = _halves(tmp)
        # ul's intermediates take the leading part of t, one value per state
        w = None if t is None else t[tuple(map(slice, ul.shape[:-1]))]
        sl = self._speed(ul, n, out, aux_l, t2, w)
        sr = self._speed(ur, n, t2, aux_r, t, t)
        return np.maximum(sl, sr, out=out)

    def phi_values(self, u: np.ndarray) -> np.ndarray:
        return np.stack([u[..., 0], self.internal_energy_density(u)], axis=-1)

    def admissible(self, u: np.ndarray, slack: float = 0.0,
                   tmp=None) -> np.ndarray:
        # The same test as on phi_values, without stacking the two
        # constraints into one (..., 2) array.
        rho_e = self.internal_energy_density(u, *_halves(tmp))
        return (u[..., 0] >= -slack) & (rho_e >= -slack)

    def set_global_bounds(self, u0: np.ndarray) -> None:
        # Systems are constrained through phi_values, not a global interval.
        pass


# --- named velocity fields for advection benchmarks ----------------------

def translation_velocity(vx: float = 1.0, vy: float = 1.0):
    """Uniform velocity; the field returns one read-only (2,) vector for any
    positions, which broadcasts against them."""
    v = np.array([vx, vy])
    v.flags.writeable = False

    def field_fn(x):
        return v

    return field_fn


ROTATION_CENTRE = (0.5, 0.5)
ROTATION_OMEGA = 2.0 * np.pi                # one turn per unit time


def rotation_velocity():
    """Rigid rotation about ``ROTATION_CENTRE`` at ``ROTATION_OMEGA``."""

    def field_fn(x):
        out = np.empty(x.shape, order="F")
        out[..., 0] = -ROTATION_OMEGA * (x[..., 1] - ROTATION_CENTRE[1])
        out[..., 1] = ROTATION_OMEGA * (x[..., 0] - ROTATION_CENTRE[0])
        return out

    return field_fn


VELOCITY_FIELDS = {
    "translation": translation_velocity,
    "rotation": rotation_velocity,
}
MODEL_NAMES = ("advection", "burgers", "euler")


def make_model(name: str, gamma: float = 1.4,
               velocity: Optional[str] = None, **vparams):
    """Build a model from configuration keys."""
    if name == "advection":
        factory = VELOCITY_FIELDS.get(velocity or "translation")
        if factory is None:
            raise ValueError(
                f"unknown velocity field {velocity!r}; "
                f"valid: {', '.join(VELOCITY_FIELDS)}")
        return LinearAdvection(velocity=factory(**vparams))
    if name == "burgers":
        return Burgers2D()
    if name == "euler":
        return Euler(gamma=gamma)
    raise ValueError(f"unknown model {name!r}; valid: {', '.join(MODEL_NAMES)}")
