"""Exact trajectory sampling and ensemble occupation statistics."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alleechain import (
    ModelParams,
    ensemble,
    occupation_distribution,
    psd_product,
    simulate,
    total_variation,
)
from alleechain.model import rate_arrays

from conftest import FIG_A, FIG_B, boundary_params, make_params


@settings(max_examples=30, deadline=None)
@given(
    params=boundary_params(max_capacity=60),
    start=st.floats(0.0, 1.0),
    t_end=st.floats(0.1, 3.0),
    seed=st.integers(0, 2**63 - 1),
)
@example(params=make_params(FIG_A, 100), start=0.5, t_end=25.0, seed=42)
def test_same_seed_same_path(params, start, t_end, seed):
    x0 = round(start * params.capacity_n)
    a = simulate(params, x0, t_end, seed)
    b = simulate(params, x0, t_end, seed)
    assert a.times.tobytes() == b.times.tobytes()
    assert a.states.tobytes() == b.states.tobytes()
    assert a.absorbed == b.absorbed
    first = ensemble(params, 2, x0, t_end, seed).first_trajectory
    assert first.times.tobytes() == a.times.tobytes()
    assert first.states.tobytes() == a.states.tobytes()


def test_different_seeds_diverge(fig1a):
    a = simulate(fig1a, 50, 25.0, 1)
    b = simulate(fig1a, 50, 25.0, 2)
    assert not (len(a.states) == len(b.states) and np.array_equal(a.states, b.states))


def test_path_structure(fig1b):
    traj = simulate(fig1b, 30, 10.0, 5)
    assert traj.times[0] == 0.0
    assert traj.states[0] == 30
    assert np.all(np.diff(traj.times) > 0.0)
    assert set(np.abs(np.diff(traj.states))) <= {1}
    assert traj.states.min() >= 0
    assert traj.states.max() <= fig1b.capacity_n
    assert traj.times[-1] < traj.t_end


def test_input_validation(fig1a):
    with pytest.raises(ValueError):
        simulate(fig1a, 101, 10.0, 0)
    with pytest.raises(ValueError):
        simulate(fig1a, -1, 10.0, 0)
    for t_end in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            simulate(fig1a, 10, t_end, 0)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -2$"):
        simulate(fig1a, 10, 10.0, -2)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        ensemble(fig1a, 3, 10, 10.0, -1)


def test_absorption_without_immigration():
    """With R1 = 0 the empty state is absorbing and a subcritical chain
    reaches it quickly."""
    p = ModelParams.from_constants(
        lam=0.5, mu=1.0, delta1=0.2, delta2=0.1, delta3=0.5,
        theta=0.05, capacity_n=20, r1=0.0,
    )
    traj = simulate(p, 3, 500.0, 11)
    assert traj.absorbed
    assert traj.states[-1] == 0
    occ = occupation_distribution(traj)
    # almost the whole window sits on the absorbing state
    assert occ[0] > 0.9
    assert occ.sum() == pytest.approx(1.0, abs=1e-12)


def test_occupation_weights_account_for_burn_in(fig1a):
    traj = simulate(fig1a, 50, 40.0, 3)
    occ = occupation_distribution(traj, burn_in=10.0)
    assert occ.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        occupation_distribution(traj, burn_in=40.0)
    with pytest.raises(ValueError):
        occupation_distribution(traj, burn_in=-1.0)
    with pytest.raises(ValueError):
        occupation_distribution(traj, burn_in=math.nan)


def test_occupation_matches_manual_integration(fig1a):
    traj = simulate(fig1a, 50, 15.0, 8)
    occ = occupation_distribution(traj)
    bounds = np.append(traj.times, traj.t_end)
    manual = np.zeros(fig1a.capacity_n + 1)
    for state, lo, hi in zip(traj.states, bounds[:-1], bounds[1:]):
        manual[state] += hi - lo
    assert np.allclose(occ, manual / traj.t_end, atol=1e-15)


def test_up_move_odds_match_rates():
    """Transition counts out of one state follow b/(b+d) binomially."""
    p = make_params(FIG_A, 15)
    b, d = rate_arrays(p)
    traj = simulate(p, 7, 3000.0, 123)
    ups = downs = 0
    for j in range(len(traj.states) - 1):
        if traj.states[j] == 7:
            if traj.states[j + 1] == 8:
                ups += 1
            else:
                downs += 1
    total = ups + downs
    assert total > 200
    expected = b[7] / (b[7] + d[7])
    se = math.sqrt(expected * (1.0 - expected) / total)
    assert abs(ups / total - expected) <= 4.0 * se


def test_trajectory_csv(fig1a):
    traj = simulate(fig1a, 50, 5.0, 2)
    buf = io.StringIO()
    traj.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,state"
    assert len(lines) == len(traj.times) + 1
    t0, s0 = lines[1].split(",")
    assert float(t0) == 0.0 and int(s0) == 50


def test_ensemble_seed_layout(fig1a):
    summary = ensemble(fig1a, 4, 50, 30.0, 100, burn_in=5.0)
    assert summary.run_frequencies.shape == (4, 101)
    assert np.allclose(summary.mean_occupation, summary.run_frequencies.mean(axis=0))
    # each run is reproducible on its own
    solo = occupation_distribution(simulate(fig1a, 50, 30.0, 102), 5.0)
    assert np.allclose(summary.run_frequencies[2], solo, atol=1e-15)


def test_ensemble_keeps_first_run_path(fig1a):
    summary = ensemble(fig1a, 3, 50, 30.0, 100, burn_in=5.0)
    solo = simulate(fig1a, 50, 30.0, 100)
    assert np.array_equal(summary.first_trajectory.times, solo.times)
    assert np.array_equal(summary.first_trajectory.states, solo.states)


def test_ensemble_masses(fig1a):
    summary = ensemble(fig1a, 6, 50, 200.0, 0, burn_in=20.0, epsilon=0.05)
    assert 0.0 <= summary.extinction_mass <= 1.0
    assert 0.0 <= summary.persistence_mass <= 1.0
    for epsilon in (math.nan, math.inf, -0.1):
        with pytest.raises(ValueError):
            ensemble(fig1a, 1, 50, 10.0, 0, epsilon=epsilon)


def test_ensemble_persistence_mass_none_without_equilibria():
    p = ModelParams.from_constants(
        lam=0.9, mu=1.0, delta1=0.2, delta2=0.0, delta3=1.5,
        theta=0.03, capacity_n=20, r1=0.5,
    )
    summary = ensemble(p, 2, 10, 50.0, 0, burn_in=5.0)
    assert summary.persistence_mass is None
    assert 0.0 <= summary.extinction_mass <= 1.0


def test_ensemble_single_run(fig1b):
    summary = ensemble(fig1b, 1, 30, 40.0, 9, burn_in=4.0)
    solo = occupation_distribution(simulate(fig1b, 30, 40.0, 9), 4.0)
    assert np.allclose(summary.mean_occupation, solo, atol=1e-15)


def test_long_runs_approach_stationary_law():
    """Occupation TV to the exact PSD shrinks as the horizon grows."""
    p = make_params(FIG_B, 30)
    psd = psd_product(p).probs
    short = ensemble(p, 8, 15, 300.0, 7, burn_in=50.0)
    long = ensemble(p, 8, 15, 3000.0, 7, burn_in=50.0)
    tv_short = total_variation(short.mean_occupation, psd)
    tv_long = total_variation(long.mean_occupation, psd)
    # allow sampling slack; the trend is what matters
    assert tv_long <= tv_short + 0.01
    assert tv_long < 0.05
