"""Exact Riemann solution of the Euler equations, for verification only
(Toro, Riemann Solvers and Numerical Methods for Fluid Dynamics, Ch. 4):

* ``star_pressure``: the pressure p* between the two nonlinear waves;
* ``exact_fan_speed``: the speed of the fastest of those waves.

Every function takes conserved states ``ul`` (left) and ``ur`` (right) of
any matching shape (..., 4) and unit normals ``n`` (..., 2), and works
pair by pair.
"""

from __future__ import annotations

import numpy as np


def star_pressure(model, ul, ur, n):
    """p*, which solves f_L(p) + f_R(p) + u_R - u_L = 0 for the normal
    velocities u_L, u_R (Toro, Sec. 4.2), by bisection: the upper end of a
    bracket halved 200 times."""
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
    return hi


def exact_fan_speed(model, ul, ur, n):
    """max(-S_L, S_R, 0) of the exact Riemann fan along n. S_L is the left
    shock speed where p* > p_L, else the rarefaction head u_L - c_L, and
    S_R likewise."""
    g = model.gamma
    (_, vl, pl, cl), (_, vr, pr, cr) = (model.primitives(u)
                                        for u in (ul, ur))
    unl, unr = (vl * n).sum(axis=-1), (vr * n).sum(axis=-1)
    p_star = star_pressure(model, ul, ur, n)

    def speed(c, pk):
        return c * np.sqrt(1.0 + (g + 1.0) / (2.0 * g)
                           * np.maximum(p_star / pk - 1.0, 0.0))

    return np.maximum(np.maximum(speed(cl, pl) - unl, unr + speed(cr, pr)),
                      0.0)
