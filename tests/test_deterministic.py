"""Density-limit ODE: basins, classification, immigration equilibria."""

from __future__ import annotations

import io
import math
import sys
import time

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from alleechain import (
    TO_X_PLUS,
    TO_ZERO,
    UNDECIDED,
    ModelParams,
    check_assumptions,
    equilibria,
    immigration_equilibria,
    immigration_ode_rhs,
    integrate,
    ode_rhs,
)
from alleechain.deterministic import (
    _ROUNDING_BUDGET,
    PROXIMITY,
    _basin_point,
    _flow_target,
    _hitting_time,
)
from alleechain.errors import QuadratureError
from alleechain.model import (
    _armed_x_plus,
    _balance_roots,
    balance_coefficients,
    basic_reproduction_ratio,
)

from conftest import FIG_A, FIG_B, boundary_params, make_params


def test_rhs_vanishes_at_equilibria():
    for base in (FIG_A, FIG_B):
        p = make_params(base, 100)
        eq = equilibria(p)
        assert abs(ode_rhs(p, 0.0)) == 0.0
        assert abs(ode_rhs(p, eq.x_minus)) <= 1e-12
        assert abs(ode_rhs(p, eq.x_plus)) <= 1e-12


def test_rhs_sign_pattern(fig1a):
    eq = equilibria(fig1a)
    assert ode_rhs(fig1a, eq.x_minus / 2) < 0.0
    assert ode_rhs(fig1a, (eq.x_minus + eq.x_plus) / 2) > 0.0
    assert ode_rhs(fig1a, (eq.x_plus + 1.0) / 2) < 0.0


def test_rhs_rejects_negative_density(fig1a):
    with pytest.raises(ValueError):
        ode_rhs(fig1a, -0.01)


def test_integrate_below_threshold_dies_out(fig1a):
    traj = integrate(fig1a, 0.05, 1000.0)
    assert traj.classification == TO_ZERO
    assert traj.densities[-1] <= 2e-6
    assert traj.x_plus == pytest.approx(equilibria(fig1a).x_plus)


def test_integrate_above_threshold_persists(fig1a):
    traj = integrate(fig1a, 0.3, 1000.0)
    assert traj.classification == TO_X_PLUS
    assert traj.densities[-1] == pytest.approx(equilibria(fig1a).x_plus, abs=2e-6)


def test_integrate_from_equilibrium_returns_immediately(fig1b):
    eq = equilibria(fig1b)
    traj = integrate(fig1b, eq.x_plus, 1000.0)
    assert traj.classification == TO_X_PLUS
    assert integrate(fig1b, 0.0, 1000.0).classification == TO_ZERO


def test_integrate_short_horizon_is_undecided(fig1a):
    traj = integrate(fig1a, 0.3, 1.0)
    assert traj.classification == UNDECIDED


def test_trajectory_stays_in_unit_box(fig1b):
    traj = integrate(fig1b, 1.0, 1000.0)
    assert traj.densities.min() >= -1e-12
    assert traj.densities.max() <= 1.0 + 1e-12
    assert traj.classification == TO_X_PLUS


def test_integrate_monotone_run_to_capacity(fig1a):
    traj = integrate(fig1a, 0.2, 1000.0)
    # between the two equilibria the flow is strictly upward
    assert np.all(np.diff(traj.densities) >= -1e-12)


def test_integrate_without_positive_equilibria():
    p = ModelParams.from_constants(
        lam=0.9, mu=1.0, delta1=0.2, delta2=0.0, delta3=1.5,
        theta=0.03, capacity_n=20, r1=0.5,
    )
    traj = integrate(p, 0.4, 1000.0)
    assert traj.x_plus is None
    assert traj.classification == TO_ZERO


def test_basin_grid_respects_threshold(fig1a):
    eq = equilibria(fig1a)
    for x0 in np.linspace(0.0, 1.0, 21):
        if abs(x0 - eq.x_minus) <= 1e-4:
            continue
        expected = TO_ZERO if x0 < eq.x_minus else TO_X_PLUS
        assert integrate(fig1a, float(x0), 1000.0).classification == expected


def test_trajectory_csv(fig1a):
    traj = integrate(fig1a, 0.3, 50.0)
    buf = io.StringIO()
    traj.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,density"
    assert len(lines) == len(traj.times) + 1
    t, x = lines[-1].split(",")
    assert float(t) == traj.times[-1]
    assert float(x) == traj.densities[-1]


def test_immigration_rhs_reduces_at_alpha_zero(fig1a):
    for x in (0.0, 0.1, 0.5, 1.0):
        assert immigration_ode_rhs(fig1a, 0.0, x) == ode_rhs(fig1a, x)
    with pytest.raises(ValueError):
        immigration_ode_rhs(fig1a, -0.1, 0.5)
    # only the plain density ODE rejects negative densities
    assert math.isfinite(immigration_ode_rhs(fig1a, 0.01, -1e-7))


def test_immigration_equilibria_alpha_zero_matches_base(fig1b):
    eq = equilibria(fig1b)
    result = immigration_equilibria(fig1b, 0.0)
    assert len(result.roots) == 3
    assert result.roots[0] == pytest.approx(0.0, abs=1e-12)
    assert result.roots[1] == pytest.approx(eq.x_minus, abs=1e-12)
    assert result.roots[2] == pytest.approx(eq.x_plus, abs=1e-12)
    assert result.stability == ("stable", "unstable", "stable")


def test_immigration_equilibria_small_alpha(fig1b):
    """A small inflow lifts the extinction state to a positive equilibrium
    and narrows the gap to the unstable threshold."""
    result = immigration_equilibria(fig1b, 0.001)
    assert result.roots[0] == pytest.approx(0.00105856, abs=1e-7)
    assert result.roots[1] == pytest.approx(0.04918226, abs=1e-7)
    assert result.roots[2] == pytest.approx(0.37662193, abs=1e-7)
    assert result.stability == ("stable", "unstable", "stable")
    # every root really is an equilibrium of the flow with inflow
    for r in result.roots:
        assert abs(immigration_ode_rhs(fig1b, 0.001, r)) <= 1e-10


@pytest.mark.parametrize("alpha", [1e20, 1e100, 1e300])
def test_immigration_equilibria_at_huge_inflow(fig1b, alpha):
    # P(x) / alpha -> (x - 1)(x + theta), plus a root near -alpha / (mu a)
    a = fig1b.mu * (fig1b.lam / fig1b.mu * fig1b.delta1 + fig1b.delta2)
    result = immigration_equilibria(fig1b, alpha)
    assert result.roots == pytest.approx([-alpha / a, -fig1b.theta, 1.0], rel=1e-9, abs=1e-9)
    # the middle root sits closer to the pole at -theta than its rounding,
    # so only the outer two have a tag that the arithmetic can decide
    assert (result.stability[0], result.stability[2]) == ("unstable", "stable")


def test_immigration_equilibria_rejects_negative_alpha(fig1b):
    with pytest.raises(ValueError):
        immigration_equilibria(fig1b, -0.5)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_immigration_rejects_non_finite_alpha(fig1b, alpha):
    message = rf"^alpha must be finite and >= 0, got {alpha!r}$"
    with pytest.raises(ValueError, match=message):
        immigration_equilibria(fig1b, alpha)
    with pytest.raises(ValueError, match=message):
        immigration_ode_rhs(fig1b, alpha, 0.5)


def _params(base: dict, **changes) -> ModelParams:
    return make_params({**base, **changes}, 20)


#: R0 below the bistability chain: no positive zero of f, so no x+*.
_NO_EQUILIBRIA = _params(FIG_A, lam=0.9)
#: R0 above 1 + delta3: x = 0 repels and f has one positive zero, which is
#: not armed because the bistability conditions fail (no x-*).
_NO_X_MINUS = _params(FIG_A, lam=2.6)
#: Fifty-fold weaker density dependence puts x+* above 1.
_X_PLUS_ABOVE_ONE = _params(FIG_A, delta1=0.009, delta2=0.002)
#: Dyadic constants with a zero balance discriminant: x-* = x+* = 0.375.
_DOUBLE_ROOT = ModelParams.from_constants(
    lam=2.0, mu=1.0, delta1=0.5, delta2=0.0, delta3=1.5625, theta=0.25, capacity_n=20, r1=0.5,
)
#: No density dependence: f is positive above the single zero c / b.
_NO_DENSITY_DEPENDENCE = _params(FIG_A, delta1=0.0, delta2=0.0)
#: A subnormal delta1 with R0 = 1: a and b are subnormal, the discriminant is
#: negative, and its complex pair's beta^2 ~ c / a overflows; q is c to
#: rounding on [0, 1].
_SUBNORMAL_DELTA1 = ModelParams.from_constants(
    lam=1.0, mu=1.0, delta1=4.450147715e-315, delta2=0.0, delta3=1.0, theta=0.25,
    capacity_n=2, r1=1.0,
)
#: A narrow complex pair of zeros of q, m +- i beta with m = 0.21875 and
#: beta = 0.03515625: the flow from 1 to the PROXIMITY boundary passes the
#: vertex, so each log ratio of the pair turns by almost pi and log1p of
#: their combined quotient is 2 pi i off. The flow reaches the boundary
#: (to_zero) at t = 61.4018487739029; through that log1p it read 57.1 less.
_NARROW_PAIR = ModelParams.from_constants(
    lam=2.0, mu=1.0, delta1=1.0, delta2=0.0, delta3=2.57080078125, theta=0.0625,
    capacity_n=20, r1=0.5,
)
#: With inflow _NEAR_POLE_ALPHA the middle immigration equilibrium lies
#: 4.6e-8 below the pole at -theta, closer than a 1e-7 difference step.
_NEAR_POLE = ModelParams.from_constants(
    lam=2.390927921963878, mu=0.5440708728877259, delta1=0.9511226121689359,
    delta2=0.7926683289662201, delta3=0.01040142064467407, theta=0.002675142332468703,
    capacity_n=20, r1=0.5,
)
_NEAR_POLE_ALPHA = 0.8792942777511609
#: A subnormal delta1 puts the largest immigration equilibrium near -6e306,
#: where c1 / c3 of the cubic alone would overflow.
_SUBNORMAL_DENSITY = ModelParams.from_constants(
    lam=1.0, mu=1.0, delta1=4.4501477170144e-311, delta2=0.0, delta3=1.0, theta=0.25,
    capacity_n=2, r1=1.0,
)


def _mp_slope(params: ModelParams, alpha: float, x: float) -> float:
    """50-digit numerical derivative of the immigration right-hand side at x."""
    with mpmath.workdps(50):
        lam, mu, d1, d2, d3, theta, inflow = (mpmath.mpf(v) for v in (
            params.lam, params.mu, params.delta1, params.delta2, params.delta3,
            params.theta, alpha,
        ))

        def rhs(y):
            return (lam * y * (1 - d1 * y) - mu * y * (1 + d2 * y + d3 * theta / (theta + y))
                    + inflow * (1 - y))

        return float(mpmath.diff(rhs, mpmath.mpf(x)))


def test_root_next_to_the_pole_is_stable():
    result = immigration_equilibria(_NEAR_POLE, _NEAR_POLE_ALPHA)
    assert result.stability == ("unstable", "stable", "stable")
    middle = result.roots[1]
    assert -_NEAR_POLE.theta - 1e-7 < middle < -_NEAR_POLE.theta
    assert _mp_slope(_NEAR_POLE, _NEAR_POLE_ALPHA, middle) < -1e7


@settings(max_examples=200, deadline=None)
@given(params=boundary_params(max_capacity=4),
       alpha=st.one_of(st.just(0.0), st.floats(0.0, 1e-3), st.floats(0.0, 5.0)))
@example(params=_NEAR_POLE, alpha=_NEAR_POLE_ALPHA)
@example(params=_DOUBLE_ROOT, alpha=0.0)
@example(params=_NO_DENSITY_DEPENDENCE, alpha=0.1)
@example(params=_X_PLUS_ABOVE_ONE, alpha=0.01)
@example(params=_SUBNORMAL_DENSITY, alpha=0.00028232407062447147)
def test_stability_tags_follow_the_exact_derivative(params, alpha):
    result = immigration_equilibria(params, alpha)
    for root, tag in zip(result.roots, result.stability):
        slope = _mp_slope(params, alpha, root)
        if abs(slope) >= 1e-6:
            assert tag == ("stable" if slope < 0 else "unstable"), (root, slope)


def test_double_root_tags_degenerate():
    result = immigration_equilibria(_DOUBLE_ROOT, 0.0)
    assert result.roots == (0.0, 0.375, 0.375)
    assert result.stability == ("stable", "degenerate", "degenerate")


def test_double_root_is_a_zero_but_fails_bistability():
    # a zero discriminant gives the double root b / 2a twice; the assumption
    # report still reads it as no positive discriminant and no x+*
    assert _balance_roots(_DOUBLE_ROOT) == (0.0, (0.375, 0.375))
    report = check_assumptions(_DOUBLE_ROOT)
    assert not report.discriminant_positive and not report.capacity_interior
    assert report.messages == (
        "bistability needs a positive balance discriminant, got 0",
        "interior capacity not evaluable: the positive equilibria do not exist",
    )


@st.composite
def basin_cases(draw):
    """Parameters across the assumption boundaries, a start that is either any
    density or exactly a zero of the balance quadratic, and a horizon."""
    params = draw(boundary_params(max_capacity=4))
    _, zeros = _balance_roots(params)
    x0 = draw(st.floats(0.0, 1.0))
    on_zero = [z for z in zeros or () if 0.0 <= z <= 1.0]
    if on_zero and draw(st.booleans()):
        x0 = draw(st.sampled_from(on_zero))
    return params, x0, draw(st.sampled_from([5.0, 60.0, 1000.0]))


@settings(max_examples=150, deadline=None)
@given(case=basin_cases())
@example(case=(_NO_EQUILIBRIA, 0.4, 1000.0))
@example(case=(_NO_X_MINUS, 0.05, 1000.0))
@example(case=(_NO_X_MINUS, 0.9, 1000.0))
@example(case=(_X_PLUS_ABOVE_ONE, 0.5, 1000.0))
@example(case=(_X_PLUS_ABOVE_ONE, 1.0, 1000.0))
@example(case=(_X_PLUS_ABOVE_ONE, 0.05, 1000.0))
@example(case=(_params(FIG_A), equilibria(_params(FIG_A)).x_plus, 1000.0))
@example(case=(_params(FIG_B), equilibria(_params(FIG_B)).x_minus, 1000.0))
@example(case=(_DOUBLE_ROOT, 0.2, 1000.0))
@example(case=(_DOUBLE_ROOT, 0.375, 1000.0))
@example(case=(_DOUBLE_ROOT, 0.5, 1000.0))
@example(case=(_NO_DENSITY_DEPENDENCE, 0.05, 1000.0))
@example(case=(_NO_DENSITY_DEPENDENCE, 0.5, 60.0))
@example(case=(_SUBNORMAL_DELTA1, 1.0, 60.0))
@example(case=(_NARROW_PAIR, 1.0, 1000.0))
def test_basin_point_matches_rk45(case):
    params, x0, t_end = case
    _, zeros = _balance_roots(params)
    if zeros is not None and abs(x0 - zeros[0]) <= 1e-6 * zeros[0]:
        if x0 == zeros[0] > PROXIMITY:
            # the exact flow from a zero of f does not move
            assert _basin_point(params, x0, t_end) == (UNDECIDED, t_end)
            if zeros[0] == zeros[1]:
                # f is 0 at the double root, so RK45 does not move either
                traj = integrate(params, x0, t_end)
                assert traj.classification == UNDECIDED and traj.times[-1] == t_end
        # At and next to the unstable zero x-*, rounding in f decides where
        # the RK45 trajectory goes (one ulp apart its starts reach either
        # attractor), and its event time is off by more than the bound;
        # test_basin_point_on_or_next_to_unstable_zero covers these starts.
        return
    if zeros is not None and zeros[1] > 1e3:
        # Far above 1 the fixed neighbourhood width PROXIMITY nears the
        # rounding of f and the local error of RK45 (rtol times x+*), so
        # neither method resolves the hitting time there;
        # test_basin_point_fails_typed_where_rounding_decides covers it.
        return
    if zeros is None and x0 > PROXIMITY and ode_rhs(params, x0) > 0.0:
        # No zero of f above x0: the exact flow grows without bound and
        # never classifies. The grid reads "undecided" at t_end, and RK45
        # stops at its escape event above the density range (or at t_end).
        assert _basin_point(params, x0, t_end) == (UNDECIDED, t_end)
        traj = integrate(params, x0, t_end)
        assert traj.classification == UNDECIDED
        assert traj.densities[-1] > 1.0 or traj.times[-1] == t_end
        return
    classification, t_final = _basin_point(params, x0, t_end)
    traj = integrate(params, x0, t_end)
    rk_time = float(traj.times[-1])
    if UNDECIDED in (classification, traj.classification) and (
        max(t_final, rk_time) >= t_end * (1.0 - 1e-5)
    ):
        # A hitting time within the tolerance of the horizon may land on
        # either side of it, so one method may read "undecided" at t_end
        # where the other classifies just before.
        return
    assert classification == traj.classification
    if t_final != pytest.approx(rk_time, rel=1e-5):
        # RK45 locates its event on a dense output whose error is relative to
        # the density, so next to an attractor far above 1 its event time can
        # miss by more than the bound. The 40-digit value decides then, held
        # to the 1e-6 error budget of the quadrature (rounding in f near such
        # an attractor keeps the quadrature itself from 1e-9).
        exact = _mp_hitting_time(params, x0, _boundary(params, x0, classification))
        assert abs(rk_time - exact) > 1e-5 * exact
        assert abs(t_final - exact) <= 1e-6 * exact


#: No density dependence and R0 = 4: f > 0 on every x > 0, so the density
#: grows without bound and e^(3 t) overflows long before t = 1000.
_RUNAWAY = ModelParams.from_constants(
    lam=4.0, mu=1.0, delta1=0.0, delta2=0.0, delta3=1.45, theta=0.03, capacity_n=100, r1=0.99,
)


def test_integrate_stops_an_unbounded_flow():
    start = time.perf_counter()
    traj = integrate(_RUNAWAY, 0.5, 1000.0)
    assert time.perf_counter() - start < 1.0
    assert traj.classification == UNDECIDED
    assert 1.0 < traj.densities[-1] < 1.0 + 1e-5 and 0.0 < traj.times[-1] < 1.0
    assert np.all(np.diff(traj.densities) > 0.0)
    # An unarmed zero of f above 1 (no x-*, so bistability fails) stops the
    # flow below the escape density: RK45 runs to t_end instead.
    capped = _params(FIG_A, lam=2.6, delta1=0.009, delta2=0.002)
    top = _balance_roots(capped)[1][1]
    assert top > 1.0
    traj = integrate(capped, 0.5, 200.0)
    assert traj.classification == UNDECIDED and traj.times[-1] == 200.0
    assert traj.densities[-1] == pytest.approx(top, rel=1e-8)


def test_basin_point_on_or_next_to_unstable_zero():
    for base in (FIG_A, FIG_B):
        p = make_params(base, 100)
        x_minus = equilibria(p).x_minus
        # the exact flow from a zero of f does not move
        assert _basin_point(p, x_minus, 1000.0) == (UNDECIDED, 1000.0)
        # within ~1e-10 (relative) the hitting time depends on rounding in f;
        # the rounding bound then exceeds its budget, or the start classifies
        # by the side of x-* it is on
        for rel in (1e-6, -1e-6, 1e-9, -1e-9, 1e-12, -1e-12):
            side = TO_X_PLUS if rel > 0 else TO_ZERO
            try:
                classification, t_final = _basin_point(p, x_minus * (1.0 + rel), 1000.0)
            except QuadratureError as exc:
                assert abs(rel) < 1e-6 and "rounding bound" in str(exc)
            else:
                assert classification == side and 0.0 < t_final < 1000.0


def test_basin_point_fails_typed_where_rounding_decides():
    # Next to an x+* of 8.5e3 the rounding bound is 3.5e-7 of the time,
    # inside the budget: the 40-digit witness confirms the value within 1.4e-9.
    p = _params(FIG_A, lam=1.5, delta1=3.90625e-05, delta2=0.0, delta3=1.0, theta=0.25)
    x_plus = equilibria(p).x_plus
    assert x_plus > 8e3
    classification, t_final = _basin_point(p, 1.0, 1000.0)
    assert classification == TO_X_PLUS
    assert abs(t_final - _mp_hitting_time(p, 1.0, x_plus - PROXIMITY)) <= 1e-8 * t_final
    # next to an x+* of 4.3e4 it is 1.6e-6 of the time, over the budget
    p = _params(FIG_A, lam=1.5, delta1=7.8125e-06, delta2=0.0, delta3=1.0, theta=0.25)
    assert equilibria(p).x_plus > 4e4
    with pytest.raises(QuadratureError, match="rounding bound of .* above 1e-06 of it"):
        _basin_point(p, 1.0, 1000.0)
    # a hitting time beyond the horizon even with its rounding bound added
    # still classifies the start
    assert _basin_point(p, 1.0, 5.0) == (UNDECIDED, 5.0)
    # One ulp of delta3 past the double root the balance discriminant is
    # -2.2e-16: f is below 0 everywhere in exact arithmetic, but rounds to 0
    # on ~1e-8 around 0.375, where the flow takes ~7e8 time units to pass.
    p = ModelParams.from_constants(
        lam=2.0, mu=1.0, delta1=0.5, delta2=0.0, delta3=np.nextafter(1.5625, 2.0), theta=0.25,
        capacity_n=20, r1=0.5,
    )
    assert -3e-16 < _balance_roots(p)[0] < 0.0
    for x0 in (0.4, 0.6):
        with pytest.raises(QuadratureError, match=f"from x0 = {x0} to 1e-06 .* rounding bound"):
            _basin_point(p, x0, 1000.0)


def test_basin_point_checks_inputs_first(fig1a):
    for t_end in (math.nan, math.inf, 0.0, -5.0):
        with pytest.raises(ValueError, match=f"t_end must be finite and > 0, got {t_end!r}"):
            _basin_point(fig1a, 0.5, t_end)
    with pytest.raises(ValueError, match="outside"):
        _basin_point(fig1a, 1.5, 1000.0)


def _mp_hitting_time(params: ModelParams, x0: float, boundary: float, interior=()) -> float:
    """Integral of 1/f from x0 to boundary in 40-digit arithmetic, with f
    written out from the model constants, breakpoints that halve the
    distance to either end (24 times to the boundary, next to which 1/f has
    its pole, and 12 to the start), and the given interior breakpoints."""
    lam, mu, d1, d2, d3, theta = (
        mpmath.mpf(v) for v in (
            params.lam, params.mu, params.delta1, params.delta2, params.delta3, params.theta
        )
    )

    def inverse_rate(x):
        return 1 / (lam * x * (1 - d1 * x) - mu * x * (1 + d2 * x + d3 * theta / (theta + x)))

    with mpmath.workdps(40):
        a, b = mpmath.mpf(x0), mpmath.mpf(boundary)
        halves = [mpmath.mpf(2) ** -k for k in range(1, 25)]
        points = {a + (b - a) * h for h in halves[:12]} | {b - (b - a) * h for h in halves}
        points |= {a, b} | {mpmath.mpf(x) for x in interior if min(a, b) < x < max(a, b)}
        return float(mpmath.quad(inverse_rate, sorted(points, reverse=b < a)))


def _boundary(params: ModelParams, x0: float, classification: str) -> float:
    """The neighbourhood boundary a classified start reaches."""
    if classification == TO_ZERO:
        return PROXIMITY
    x_plus = equilibria(params).x_plus
    return x_plus - PROXIMITY if x0 < x_plus else x_plus + PROXIMITY


@pytest.mark.parametrize("base", [FIG_A, FIG_B], ids=["fig1a", "fig1b"])
def test_basin_point_matches_40_digit_quadrature(base):
    p = make_params(base, 100)
    for x0 in np.linspace(0.0, 1.0, 100)[1::9].tolist():
        classification, t_final = _basin_point(p, x0, 1000.0)
        exact = _mp_hitting_time(p, x0, _boundary(p, x0, classification))
        assert abs(t_final - exact) <= 1e-9 * exact


def _powers_of_ten(low: float, high: float):
    """10^-k for k drawn from [low, high]."""
    return st.floats(low, high).map(lambda k: 10.0 ** -k)


@st.composite
def near_double_root(draw, offset):
    """Constants with delta3 a relative offset (drawn from the strategy
    offset) beyond the double root of the balance quadratic: below it two
    close real zeros, above it a complex pair."""
    mu, theta = draw(st.floats(0.5, 2.0)), draw(st.floats(0.01, 0.3))
    delta1, delta2, r0 = draw(st.floats(0.05, 1.0)), draw(st.floats(0.0, 0.5)), draw(st.floats(1.05, 3.0))
    a = r0 * delta1 + delta2
    assume(r0 - 1.0 - theta * a > 0.01)  # the vertex b / 2a lies above 0
    double = (1.0 - r0 - theta * a) ** 2 / (4.0 * theta * a)
    return ModelParams.from_constants(
        lam=r0 * mu, mu=mu, delta1=delta1, delta2=delta2, delta3=double * (1.0 + draw(offset)),
        theta=theta, capacity_n=4, r1=0.5,
    )


@st.composite
def hitting_cases(draw):
    """A start and the boundary its flow reaches, on constants of one of
    five shapes: across the assumption boundaries, without density
    dependence (a = 0), with delta2 = 0, and with delta3 within a relative
    1e-12..1e-4 of a double root or beyond it into a complex pair."""
    shape = draw(st.sampled_from(
        ["boundary", "no density dependence", "delta2 = 0", "near double root", "complex pair"]
    ))
    if shape == "boundary":
        params = draw(boundary_params(max_capacity=4))
    elif shape == "near double root":
        offset = _powers_of_ten(4.0, 12.0)
        params = draw(near_double_root(offset | offset.map(lambda d: -d)))
    elif shape == "complex pair":
        params = draw(near_double_root(st.floats(0.01, 1.0)))
    else:
        mu, theta = draw(st.floats(0.5, 2.0)), draw(st.floats(0.01, 0.3))
        delta1 = 0.0 if shape == "no density dependence" else draw(st.floats(0.05, 1.0))
        r0 = draw(st.floats(1.05, 3.0))
        params = ModelParams.from_constants(
            lam=r0 * mu, mu=mu, delta1=delta1, delta2=0.0, delta3=draw(st.floats(0.1, 3.0)),
            theta=theta, capacity_n=4, r1=0.5,
        )
    x0 = draw(st.floats(0.0, 1.0))
    x_plus = _armed_x_plus(params)
    assume(x0 > PROXIMITY and not (x_plus is not None and abs(x0 - x_plus) <= PROXIMITY))
    target = _flow_target(params, x0, x_plus)
    assume(target is not None)
    return params, x0, target[1]


@settings(max_examples=40, deadline=None)
@given(case=hitting_cases())
@example(case=(_DOUBLE_ROOT, 0.2, PROXIMITY))
@example(case=(_NO_DENSITY_DEPENDENCE, 0.05, PROXIMITY))
@example(case=(_SUBNORMAL_DELTA1, 1.0, PROXIMITY))
@example(case=(_NARROW_PAIR, 1.0, PROXIMITY))
def test_hitting_time_matches_40_digit_quadrature(case):
    params, x0, boundary = case
    try:
        hitting_time, rounding = _hitting_time(params, x0, boundary)
    except QuadratureError as exc:
        # rounding in f sent the flow across a zero of q
        assert "lies on the path" in str(exc)
        return
    a, b, _ = balance_coefficients(params)
    disc, _ = _balance_roots(params)
    interior = []
    if a > 0.0 and disc < 0.0:  # the flow may pass the vertex of a complex pair
        m, beta = b / (2.0 * a), math.sqrt(-disc) / (2.0 * a)
        interior = [m + sign * beta * 8.0 ** k for sign in (-1.0, 0.0, 1.0) for k in range(8)]
    exact = _mp_hitting_time(params, x0, boundary, interior)
    assert abs(hitting_time - exact) <= 1e-9 * abs(exact) + rounding


def _arctan_hitting_time(params: ModelParams, x0: float, x1: float) -> tuple[float, float]:
    """_hitting_time and its rounding bound in the former form for a
    complex pair of zeros m +- i beta of q (a > 0, negative discriminant):
    q = a Q with Q = (x - m)^2 + beta^2, the arctan integral V of 1 / Q, and
    1 / (x Q) = (1 / x - (x - 2m) / Q) / Q(0)."""
    a, b, _ = balance_coefficients(params)
    disc, _ = _balance_roots(params)
    r0, theta, mu = basic_reproduction_ratio(params), params.theta, params.mu
    w2, w1, w0 = a, r0 + 1.0 + theta * a, theta * (1.0 + params.delta3 + r0)
    low, high = min(x0, x1), max(x0, x1)
    m, beta = b / (2.0 * a), math.sqrt(-disc) / (2.0 * a)
    u = (x1 - x0) / x0
    log_x = math.log1p(u) if abs(u) < 0.5 else math.log(x1 / x0)
    q0 = (x0 - m) ** 2 + beta * beta
    v = (x1 - x0) * (x1 + x0 - 2.0 * m) / q0  # Q(x1) / Q(x0) - 1
    log_q = math.log1p(v) if abs(v) < 0.5 else math.log(((x1 - m) ** 2 + beta * beta) / q0)
    arc = math.atan2(beta * (x1 - x0), beta * beta + (x0 - m) * (x1 - m)) / beta
    vertex = m * m + beta * beta
    integral = theta * (log_x - 0.5 * log_q + m * arc) / vertex + arc
    size = theta * (abs(log_x) + 0.5 * abs(log_q) + abs(m * arc)) / vertex + abs(arc)
    coefficients = 0.0
    for x in [x0, x1, m] if low < m < high else [x0, x1]:
        q_x = a * ((x - m) ** 2 + beta * beta)
        reach = min(math.hypot(x - m, beta), x * (1.0 + math.log1p((high - low) / x)))
        coefficients += ((w2 * x + w1) * x + w0) / q_x * (theta + x) / (x * q_x) * reach
    return -integral / (mu * a), sys.float_info.epsilon * (size / a + coefficients) / mu


@st.composite
def complex_pair_cases(draw):
    """Constants with a complex pair of zeros of q, delta3 a relative
    1e-18..1 beyond the double root, and a start anywhere on (PROXIMITY, 1]
    or within a relative 1e-10..1 of the vertex m, on either side."""
    params = draw(near_double_root(_powers_of_ten(0.0, 18.0)))
    a, b, _ = balance_coefficients(params)
    assume(_balance_roots(params)[0] < 0.0)
    if draw(st.booleans()):
        x0 = draw(st.floats(0.0, 1.0))
    else:
        side = draw(st.sampled_from([-1.0, 1.0]))
        x0 = b / (2.0 * a) * (1.0 + side * draw(_powers_of_ten(0.0, 10.0)))
    assume(PROXIMITY < x0 <= 1.0)
    return params, x0


@settings(max_examples=300, deadline=None)
@given(case=complex_pair_cases())
@example(case=(_NARROW_PAIR, 1.0))
def test_complex_pair_matches_the_former_arctan_form(case):
    params, x0 = case
    hitting_time, rounding = _hitting_time(params, x0, PROXIMITY)
    former_time, former_rounding = _arctan_hitting_time(params, x0, PROXIMITY)
    assert abs(hitting_time - former_time) <= 2e-15 * former_time
    assert rounding >= former_rounding
    # the same draws exceed the rounding budget, where _basin_point raises QuadratureError
    assert (rounding <= _ROUNDING_BUDGET * hitting_time) == (
        former_rounding <= _ROUNDING_BUDGET * former_time
    )
