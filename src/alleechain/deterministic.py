"""Deterministic density dynamics and their immigration-extended equilibria.

The mean-field counterpart of the chain: a scalar ODE for the population
density on [0, 1] with bistable structure (extinction below x-*, carrying
capacity x+* above), plus the immigration-extended ODE whose equilibria
solve a cubic. A start counts as classified once its trajectory enters a
small neighbourhood of an attractor. `integrate` follows one trajectory with
adaptive Runge-Kutta (the single-trajectory mode of `alleechain ode`, and
the witness for the grid); it alone imports scipy.integrate, when it runs.
The basin grid follows no trajectory: the flow is scalar, so the sign of
f(x0) and the zeros of f name the attractor, and separation of variables
gives the time to reach its neighbourhood, T(x0) = integral of dx / f(x).
1 / f is rational, so T is the real part of a closed form in logarithms
over the real or complex zeros of f (_hitting_time), with a bound on its
rounding error; a grid point fails with QuadratureError where that bound
exceeds 1e-6 of T, which is where rounding in f decides the time. A grid
point reads "undecided" when T exceeds the horizon or when the flow stops
at a zero of f that is no armed attractor. With an inflow alpha (1 - x)
the right-hand side g has (theta + x) g(x) = -P(x) for a cubic P in the
balance coefficients; its roots are the equilibria, and g'(r) = -P'(r) /
(theta + r) at a root r decides their stability (`immigration_equilibria`).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _csv, _cubic
from .errors import QuadratureError
from .model import (
    ModelParams,
    _armed_x_plus,
    _balance_roots,
    _check_finite,
    balance_coefficients,
    basic_reproduction_ratio,
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

#: Largest rounding bound, relative to the hitting time, a grid point may
#: carry; ten times inside the 1e-5 at which RK45 event times agree. Next
#: to x+* the bound grows with it: 2e-9 at x+* = 37, 3.5e-7 at 8.5e3.
_ROUNDING_BUDGET = 1e-6

_EPS = sys.float_info.epsilon


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
    from scipy.integrate import solve_ivp  # imported here: only this mode pays for scipy.integrate

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


def _log1p(u: complex) -> complex:
    """log(1 + u) for a real or complex u = ur + i ui off (-inf, -1]:
    math.log1p where ui is 0, and otherwise the principal value
    0.5 log1p(ur (2 + ur) + ui^2) + i atan2(ui, 1 + ur), whose real part
    takes |1 + u|^2 - 1 without forming 1 + u, so that a small u cancels
    nothing."""
    if not u.imag:
        return math.log1p(u.real)
    ur, ui = u.real, u.imag
    return complex(0.5 * math.log1p(ur * (2.0 + ur) + ui * ui), math.atan2(ui, 1.0 + ur))


def _log_ratio(x0: float, x1: float, r: complex) -> tuple[complex, float]:
    """Integral of 1 / (x - r) from x0 to x1, log((x1 - r) / (x0 - r)), for
    a real or complex r off [x0, x1], with the size of what it sums.

    A ratio near 1 goes through _log1p((x1 - x0) / (x0 - r)); any other
    through the quotient itself, whose factors come out exact or correctly
    rounded, as x1 - r does at the PROXIMITY offset from an attractor. The
    principal logarithm is the integral, since a segment subtends less than
    pi from any point off it.
    """
    u = (x1 - x0) / (x0 - r)
    if abs(u) < 0.5:
        value = _log1p(u)
    else:
        ratio = (x1 - r) / (x0 - r)
        value = cmath.log(ratio) if ratio.imag else math.log(ratio.real)
    return value, abs(value)


def _pair_integral(x0: float, x1: float, p: complex, s: complex) -> tuple[complex, float]:
    """Integral of 1 / ((x - p)(x - s)) from x0 to x1 for real or complex
    p, s off [x0, x1], equal or not, with the size of what it sums.

    The divided difference (L(p) - L(s)) / (p - s) of the log ratios is
    log1p(u) / (p - s) with u = (x1 - x0)(p - s) / ((x0 - p)(x1 - s)); for
    small u it is taken as log1p(u) / u times u / (p - s), so nearby and
    equal zeros cancel nothing. For a conjugate pair log1p(u) equals
    L(p) - L(s) only modulo 2 pi i (a path past the vertex of a narrow pair
    turns each log ratio by almost pi), so such a pair takes the two log
    ratios, whose real parts cancel exactly.
    """
    scale = (x1 - x0) / ((x0 - p) * (x1 - s))
    u = scale * (p - s)
    if abs(u) < 0.5 and p.imag * s.imag >= 0.0:
        value = scale * _log1p(u) / u if u else scale
        return value, abs(value)
    (lp, size_p), (ls, size_s) = _log_ratio(x0, x1, p), _log_ratio(x0, x1, s)
    return (lp - ls) / (p - s), (size_p + size_s) / abs(p - s)


def _reciprocal_integral(x0: float, x1: float, nodes: tuple[complex, ...]) -> tuple[complex, float]:
    """Integral of 1 / prod(x - n) over up to three real or complex nodes n
    off [x0, x1], from x0 to x1, with the size of what it sums.

    Three nodes, ordered by real and then imaginary part, take the divided
    difference of the two outer pairs over the widest gap, so two close
    nodes cancel nothing; three equal ones take the integral of (x - n)^-3.
    """
    if not nodes:
        return x1 - x0, abs(x1 - x0)
    if len(nodes) == 1:
        return _log_ratio(x0, x1, nodes[0])
    if len(nodes) == 2:
        return _pair_integral(x0, x1, *nodes)
    n1, n2, n3 = sorted(nodes, key=lambda n: (n.real, n.imag))
    if n1 == n3:
        value = 0.5 * (1.0 / (x0 - n1) ** 2 - 1.0 / (x1 - n1) ** 2)
        return value, abs(value)
    (upper, size_u), (lower, size_l) = _pair_integral(x0, x1, n2, n3), _pair_integral(x0, x1, n1, n2)
    return (upper - lower) / (n3 - n1), (size_u + size_l) / abs(n3 - n1)


def _hitting_time(params: ModelParams, x0: float, x1: float) -> tuple[float, float]:
    """T = integral of dx / f(x) from x0 to x1 > 0 in closed form, and a
    bound on its rounding error.

    For x > 0, f(x) = -mu x q(x) / (theta + x) with q(x) = a x^2 - b x + c
    from the balance coefficients, so T = -(1 / mu) times the integral of
    theta / (x q) + 1 / q. With q = lead * prod(x - n) over its zeros n
    (two for a > 0: the real ones as _balance_roots forms them, or the
    complex pair m +- i beta where the discriminant is negative; c / b for
    a = 0, or where a zero overflows; none for a = b = 0, or where
    a x^2 - b x stays below the rounding of c on the path) both parts are
    divided differences of log ratios (_reciprocal_integral), and T is the
    real part of their sum.

    The bound adds two things, each eps times a sum of magnitudes:
    - the evaluation: the sizes of the terms that are summed;
    - the coefficients: rounding moves q(x) by up to eps W(x), with
      W = a x^2 + (R0 + 1 + theta a) x + theta (1 + delta3 + R0), a
      relative error W / |q| in 1 / f. At each end of the path, and at the
      vertex m of a complex pair where the path passes it, it counts over
      the distance to the nearest zero of q, or over the logarithmic reach
      of the pole of 1 / f at 0, whichever is shorter. In 40-digit checks
      the error stayed below this bound (tests/test_deterministic.py).

    Raises:
        QuadratureError: a zero of q lies on the path, where rounding in f
            sent the flow across it.
    """
    a, b, c = balance_coefficients(params)
    disc, zeros = _balance_roots(params)
    r0, theta, mu = basic_reproduction_ratio(params), params.theta, params.mu
    w2, w1, w0 = a, r0 + 1.0 + theta * a, theta * (1.0 + params.delta3 + r0)
    low, high = min(x0, x1), max(x0, x1)
    # a x^2 - b x below the rounding of c all along the path: q = c there,
    # where a subnormal a would overflow the zeros or the pair's beta^2
    flat = (a * high + abs(b)) * high <= _EPS * abs(c)
    if a > 0.0 and disc < 0.0 and not flat:
        m, beta = b / (2.0 * a), math.sqrt(-disc) / (2.0 * a)
        nodes, lead = (complex(m, -beta), complex(m, beta)), a
    elif zeros is not None and not flat and all(map(math.isfinite, zeros)):
        nodes, lead = zeros, a
    elif b != 0.0 and not flat:  # a = 0, or a x^2 below the float range wherever b x is not
        nodes, lead = (c / b,), -b
    else:
        nodes, lead = (), c
    if any(not n.imag and low <= n.real <= high for n in nodes):
        raise QuadratureError(
            f"a zero of f lies on the path from x0 = {x0} to {x1}: rounding in f decides "
            "the direction of the flow"
        )
    (with_pole, size_p), (plain, size_q) = (
        _reciprocal_integral(x0, x1, (0.0, *nodes)), _reciprocal_integral(x0, x1, nodes)
    )
    hitting_time = -(theta * with_pole + plain).real / (mu * lead)
    coefficients = 0.0
    for x in (x0, x1, *(n.real for n in nodes if n.imag > 0.0 and low < n.real < high)):
        q_x = abs(lead * math.prod(x - n for n in nodes))
        zero_distance = min((abs(x - n) for n in nodes), default=math.inf)
        reach = min(zero_distance, x * (1.0 + math.log1p((high - low) / x)))
        coefficients += ((w2 * x + w1) * x + w0) / q_x * (theta + x) / (x * q_x) * reach
    return hitting_time, _EPS * ((theta * size_p + size_q) / abs(lead) + coefficients) / mu


def _basin_point(params: ModelParams, x0: float, t_end: float) -> tuple[str, float]:
    """Classification and time of reaching it for one grid start.

    The same outcome `integrate` reaches, from the hitting time of the
    scalar flow, T = integral of dx / f(x) from x0 to the neighbourhood
    boundary, in closed form (_hitting_time) instead of a trajectory. A
    start inside a neighbourhood gives time 0; a flow that stops at an
    unarmed zero of f, or takes longer than t_end, gives "undecided" at
    t_end, as does a time past t_end even less its rounding bound.

    Raises:
        ValueError: t_end is not finite and positive, or x0 is outside [0, 1].
        QuadratureError: the rounding bound of the hitting time exceeds 1e-6
            of it, or a zero of f lies on the path. Both happen where
            rounding in f decides that time: for starts within about 1e-10
            (relative) of x-*, next to an x+* above about 3e4, and for
            parameters within rounding of a double root x-* = x+*.
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
    hitting_time, rounding = _hitting_time(params, x0, boundary)
    if hitting_time - rounding > t_end:  # past the horizon even at the rounding bound
        return UNDECIDED, float(t_end)
    if not rounding <= _ROUNDING_BUDGET * hitting_time:
        raise QuadratureError(
            f"hitting time from x0 = {x0} to {boundary} is {hitting_time!r} with a rounding "
            f"bound of {rounding:.3e}, above {_ROUNDING_BUDGET:g} of it"
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
