"""Density-limit ODE: basins, classification, immigration equilibria."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from alleechain import (
    TO_X_PLUS,
    TO_ZERO,
    UNDECIDED,
    ModelParams,
    equilibria,
    immigration_equilibria,
    immigration_ode_rhs,
    integrate,
    ode_rhs,
)

from conftest import FIG_A, FIG_B, make_params


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


def test_immigration_equilibria_rejects_negative_alpha(fig1b):
    with pytest.raises(ValueError):
        immigration_equilibria(fig1b, -0.5)
