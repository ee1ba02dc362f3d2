"""Deterministic density dynamics and their immigration-extended equilibria.

The mean-field counterpart of the chain: a scalar ODE for the population
density on [0, 1] with bistable structure (extinction below x-*, carrying
capacity x+* above), plus the immigration-extended ODE whose equilibria
solve a cubic. Basin classification integrates trajectories until they
enter a small neighbourhood of an attractor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from . import _csv, _cubic
from .errors import AssumptionError
from .model import ModelParams, equilibria, per_capita_factors

TO_ZERO = "to_zero"
TO_X_PLUS = "to_x_plus"
UNDECIDED = "undecided"

#: Distance to an attractor at which a trajectory counts as classified.
PROXIMITY = 1e-6

#: Relative and absolute tolerances of the Runge-Kutta integration.
_RTOL = 1e-10
_ATOL = 1e-13

#: Step used for the central-difference stability tags.
_STABILITY_STEP = 1e-7


@dataclass(frozen=True, eq=False)
class OdeTrajectory:
    """Sampled trajectory with its terminal classification."""

    times: np.ndarray
    densities: np.ndarray
    classification: str
    x_plus: float | None

    def to_csv(self, stream) -> None:
        _csv.write_rows(stream, "t,density", self.times, self.densities)


@dataclass(frozen=True)
class ImmigrationEquilibria:
    """Real equilibria of the immigration ODE with numerical stability tags.

    roots are sorted ascending; stability[k] is "stable", "unstable" or
    "degenerate" from the sign of the central-difference derivative of the
    right-hand side at roots[k]. The tags report what the numbers say, with
    no prior assumption about how many roots are positive or stable.
    """

    alpha: float
    roots: tuple[float, ...]
    stability: tuple[str, ...]


def _net_growth(params: ModelParams, x: float) -> float:
    fb, fd = per_capita_factors(params, x)
    return params.lam * x * fb - params.mu * x * fd


def ode_rhs(params: ModelParams, x: float) -> float:
    """dx/dt = lam x (1 - delta1 x) - mu x (1 + delta2 x + delta3 theta/(theta + x))."""
    if x < 0:
        raise ValueError("density must be >= 0")
    return _net_growth(params, x)


def immigration_ode_rhs(params: ModelParams, alpha: float, x: float) -> float:
    """The density ODE with a constant immigration stream alpha (1 - x).

    Accepts the negative densities the stability probe samples around a
    negative equilibrium; theta > 0 keeps the expression finite there.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    return _net_growth(params, x) + alpha * (1.0 - x)


def integrate(params: ModelParams, x0: float, t_end: float = 1000.0) -> OdeTrajectory:
    """Integrate from x0 until the trajectory settles near 0 or x_plus.

    Adaptive embedded Runge-Kutta with terminal events at PROXIMITY from
    each attractor; classification is read off which event fired. If the
    parameters admit no persistence equilibrium, only the extinction event
    is armed. Reaching t_end without an event yields "undecided".
    """
    if not 0.0 <= x0 <= 1.0:
        raise ValueError(f"x0 = {x0} outside [0, 1]")
    try:
        x_plus = equilibria(params).x_plus
    except AssumptionError:
        x_plus = None

    if x0 <= PROXIMITY:
        return OdeTrajectory(np.zeros(1), np.full(1, x0), TO_ZERO, x_plus)
    if x_plus is not None and abs(x0 - x_plus) <= PROXIMITY:
        return OdeTrajectory(np.zeros(1), np.full(1, x0), TO_X_PLUS, x_plus)

    def rhs(_t, y):
        return [ode_rhs(params, max(y[0], 0.0))]

    def near_zero(_t, y):
        return y[0] - PROXIMITY

    near_zero.terminal = True
    near_zero.direction = -1
    events = [near_zero]
    if x_plus is not None:

        def near_plus(_t, y):
            return abs(y[0] - x_plus) - PROXIMITY

        near_plus.terminal = True
        near_plus.direction = -1
        events.append(near_plus)

    sol = solve_ivp(rhs, (0.0, float(t_end)), [float(x0)], method="RK45",
                    rtol=_RTOL, atol=_ATOL, events=events)
    if sol.t_events[0].size:
        classification = TO_ZERO
    elif x_plus is not None and sol.t_events[1].size:
        classification = TO_X_PLUS
    else:
        classification = UNDECIDED
    return OdeTrajectory(sol.t, sol.y[0], classification, x_plus)


def immigration_equilibria(params: ModelParams, alpha: float) -> ImmigrationEquilibria:
    """Real roots of the immigration equilibrium cubic, with stability tags.

    Clearing the mate-limitation denominator from the equilibrium condition
    gives

        (lam d1 + mu d2) x^3 + [theta (lam d1 + mu d2) + alpha + mu - lam] x^2
        + [theta (mu d3 + alpha + mu - lam) - alpha] x - alpha theta = 0.

    At alpha = 0 the roots are exactly {0, x-*, x+*}. The leading
    coefficient vanishes only without density dependence, in which case the
    remaining quadratic (or linear) equation is solved instead.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    lam, mu = params.lam, params.mu
    c3 = lam * params.delta1 + mu * params.delta2
    c2 = params.theta * c3 + alpha + mu - lam
    c1 = params.theta * (mu * params.delta3 + alpha + mu - lam) - alpha
    c0 = -alpha * params.theta
    roots = _cubic.real_roots(c3, c2, c1, c0)
    stability = []
    for r in roots:
        lo = r - _STABILITY_STEP
        hi = r + _STABILITY_STEP
        slope = (immigration_ode_rhs(params, alpha, hi)
                 - immigration_ode_rhs(params, alpha, lo)) / (hi - lo)
        if slope < -1e-10:
            stability.append("stable")
        elif slope > 1e-10:
            stability.append("unstable")
        else:
            stability.append("degenerate")
    return ImmigrationEquilibria(float(alpha), tuple(roots), tuple(stability))
