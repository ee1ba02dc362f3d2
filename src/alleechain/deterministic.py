"""Deterministic density dynamics and their immigration-extended equilibria.

The mean-field counterpart of the chain: a scalar ODE for the population
density on [0, 1] with bistable structure (extinction below x-*, carrying
capacity x+* above), plus the immigration-extended ODE whose equilibria
solve a cubic. A start counts as classified once its trajectory enters a
small neighbourhood of an attractor. `integrate` follows one trajectory with
adaptive Runge-Kutta (the single-trajectory mode of `alleechain ode`, and
the witness for the grid). The basin grid follows no trajectory: the flow is
scalar, so the sign of f(x0) and the zeros of f name the attractor, and
separation of variables gives the time to reach its neighbourhood,
T(x0) = integral of dx / f(x), which adaptive quadrature evaluates. A grid
point reads "undecided" when T exceeds the horizon or when the flow stops at
a zero of f that is no armed attractor. With an inflow alpha (1 - x) the
right-hand side g has (theta + x) g(x) = -P(x) for a cubic P in the balance
coefficients; its roots are the equilibria, and g'(r) = -P'(r) / (theta + r)
at a root r decides their stability (`immigration_equilibria`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp

from . import _csv, _cubic
from .errors import QuadratureError
from .model import (
    ModelParams,
    _armed_x_plus,
    _balance_roots,
    _check_finite,
    balance_coefficients,
    per_capita_factors,
)

TO_ZERO = "to_zero"
TO_X_PLUS = "to_x_plus"
UNDECIDED = "undecided"

#: Distance to an attractor at which a trajectory counts as classified.
PROXIMITY = 1e-6

#: Relative and absolute tolerances of the Runge-Kutta integration.
_RTOL = 1e-10
_ATOL = 1e-13

#: Absolute and relative tolerances the hitting-time quadrature aims for,
#: and the relative error estimate it must stay within. Next to an attractor
#: far above 1, rounding in f keeps QUADPACK from its aim (it reports
#: roundoff or its subdivision limit) at estimates that grow with x+*, about
#: 5e-10 at x+* = 27 and 2e-9 at x+* = 1066; the budget stays ten times
#: inside the 1e-5 at which RK45 event times agree.
_QUAD_ABS_TOL = 1e-13
_QUAD_REL_TOL = 1e-12
_QUAD_BUDGET = 1e-6


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
    "degenerate" from the sign of the derivative of the right-hand side at
    roots[k]. The tags report what the numbers say, with no prior assumption
    about how many roots are positive or stable.
    """

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

    Accepts negative densities, where the immigration cubic has a root; the
    expression has a pole at x = -theta.
    """
    _check_finite("alpha", alpha)
    return _net_growth(params, x) + alpha * (1.0 - x)


def _check_start(x0: float, t_end: float) -> None:
    _check_finite("t_end", t_end, positive=True)
    if not 0.0 <= x0 <= 1.0:
        raise ValueError(f"x0 = {x0} outside [0, 1]")


def _settled(x0: float, x_plus: float | None) -> str | None:
    """Classification of a start already inside an attractor's neighbourhood."""
    if x0 <= PROXIMITY:
        return TO_ZERO
    if x_plus is not None and abs(x0 - x_plus) <= PROXIMITY:
        return TO_X_PLUS
    return None


def integrate(params: ModelParams, x0: float, t_end: float = 1000.0) -> OdeTrajectory:
    """Integrate from x0 until the trajectory settles near 0 or x_plus.

    Adaptive embedded Runge-Kutta with terminal events at PROXIMITY from
    each attractor; classification is read off which event fired. If the
    parameters admit no persistence equilibrium, only the extinction event
    is armed. Reaching t_end without an event yields "undecided".

    A third terminal event, also "undecided", stops a trajectory that rises
    PROXIMITY past both 1 and the upper root of the balance quadratic. With
    density dependence (a > 0) no trajectory gets there, since f < 0 above
    that root. Without it (a = 0), f = mu x (b x - c) / (theta + x) changes
    sign at most once, from negative to positive, so a rising trajectory
    never stops and grows without bound; RK45 would follow it until the
    density overflows.
    """
    _check_start(x0, t_end)
    x_plus = _armed_x_plus(params)
    settled = _settled(x0, x_plus)
    if settled is not None:
        return OdeTrajectory(np.zeros(1), np.full(1, x0), settled, x_plus)

    def rhs(_t, y):
        return [ode_rhs(params, max(y[0], 0.0))]

    def near_zero(_t, y):
        return y[0] - PROXIMITY

    escape = max((1.0, *(_balance_roots(params)[1] or ()))) + PROXIMITY

    def escaped(_t, y):
        return y[0] - escape

    near_zero.terminal = True
    near_zero.direction = -1
    escaped.terminal = True
    escaped.direction = 1
    events = [near_zero, escaped]
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
    elif x_plus is not None and sol.t_events[2].size:
        classification = TO_X_PLUS
    else:
        classification = UNDECIDED
    return OdeTrajectory(sol.t, sol.y[0], classification, x_plus)


def _flow_target(params: ModelParams, x0: float, x_plus: float | None) -> tuple[str, float] | None:
    """The armed neighbourhood boundary the flow from x0 reaches, with its
    classification, or None when the flow stops at a zero of f first.

    For x > 0, f(x) = -mu x (a x^2 - b x + c) / (theta + x) with the balance
    coefficients (a, b, c), so the positive zeros of f are those of the
    balance quadratic. Downward flow (f(x0) < 0) comes to rest on the upper
    zero when x0 lies above the vertex b / 2a, and otherwise runs out to 0;
    upward flow can only end at x+* from below. A start on a zero, the
    unstable x-* included, does not move.
    """
    rate = ode_rhs(params, x0)
    a, b, _ = balance_coefficients(params)
    _, zeros = _balance_roots(params)
    if rate == 0.0 or (zeros is not None and x0 in zeros):
        return None
    if rate > 0.0:
        if x_plus is not None and x0 < x_plus:
            return TO_X_PLUS, x_plus - PROXIMITY
        return None
    if zeros is not None and zeros[1] > 0.0 and x0 >= b / (2.0 * a):
        if x_plus is not None:
            return TO_X_PLUS, x_plus + PROXIMITY
        return None
    return TO_ZERO, PROXIMITY


def _basin_point(params: ModelParams, x0: float, t_end: float) -> tuple[str, float]:
    """Classification and time of reaching it for one grid start.

    The same outcome `integrate` reaches, from the hitting time of the
    scalar flow, T = integral of dx / f(x) from x0 to the neighbourhood
    boundary, by adaptive quadrature instead of a trajectory. A start inside
    a neighbourhood gives time 0; a flow that stops at an unarmed zero of f,
    or takes longer than t_end, gives "undecided" at t_end.

    Raises:
        ValueError: t_end is not finite and positive, or x0 is outside [0, 1].
        QuadratureError: f rounds to 0 at a quadrature node, or the
            quadrature's error estimate exceeds 1e-6 of the hitting time. Both
            happen where rounding in f decides that time: for starts within
            about 1e-9 (relative) of x-*, next to an x+* above a few thousand,
            and for parameters within rounding of a double root x-* = x+*.
    """
    _check_start(x0, t_end)
    x_plus = _armed_x_plus(params)
    settled = _settled(x0, x_plus)
    if settled is not None:
        return settled, 0.0
    target = _flow_target(params, x0, x_plus)
    if target is None:
        return UNDECIDED, float(t_end)
    classification, boundary = target

    def inverse_rate(x):
        rate = ode_rhs(params, x)
        if rate == 0.0:
            raise QuadratureError(f"f vanishes at {x!r} on the way from x0 = {x0} to {boundary}")
        return 1.0 / rate

    result = quad(inverse_rate, x0, boundary, epsabs=_QUAD_ABS_TOL, epsrel=_QUAD_REL_TOL,
                  full_output=1)
    hitting_time, abserr = float(result[0]), float(result[1])
    if hitting_time - abserr > t_end:  # past the horizon even at the error estimate
        return UNDECIDED, float(t_end)
    if not abserr <= _QUAD_BUDGET * hitting_time:
        reason = result[3].strip().splitlines()[0] if len(result) > 3 else "no message"
        raise QuadratureError(
            f"hitting-time quadrature from x0 = {x0} did not converge: error estimate "
            f"{abserr:.3e} for {hitting_time!r} ({reason})"
        )
    if hitting_time > t_end:
        return UNDECIDED, float(t_end)
    return classification, hitting_time


def immigration_equilibria(params: ModelParams, alpha: float) -> ImmigrationEquilibria:
    """Real roots of the immigration equilibrium cubic, with stability tags.

    Clearing the mate-limitation denominator from the right-hand side g gives
    (theta + x) g(x) = -P(x), with the balance coefficients (a, b, c) in

        P(x) = mu x (a x^2 - b x + c) + alpha (x - 1)(x + theta).

    At alpha = 0 the roots are exactly {0, x-*, x+*}. The leading
    coefficient vanishes only without density dependence, in which case the
    remaining quadratic (or linear) equation is solved instead.

    At a root r, g'(r) = -P'(r) / (theta + r): negative is "stable",
    positive "unstable". A repeated root, or one with P'(r) = 0, is
    "degenerate".

    Raises:
        ValueError: alpha is negative or not finite.
    """
    _check_finite("alpha", alpha)
    a, b, c = balance_coefficients(params)
    mu, theta = params.mu, params.theta
    c3, c2, c1 = mu * a, alpha - mu * b, mu * c + alpha * (theta - 1.0)
    roots = _cubic.real_roots(c3, c2, c1, -alpha * theta)
    stability = []
    for r in roots:
        p_slope = (3.0 * c3 * r + 2.0 * c2) * r + c1
        if roots.count(r) > 1 or p_slope == 0.0:
            stability.append("degenerate")
        elif (p_slope > 0.0) == (r > -theta):  # g'(r) < 0
            stability.append("stable")
        else:
            stability.append("unstable")
    return ImmigrationEquilibria(tuple(roots), tuple(stability))
