"""Exact stochastic simulation of the birth-death chain.

Gillespie sampling of individual trajectories, time-weighted occupation
frequency arrays, and reproducible ensembles whose run j uses the seed
base_seed + j, so results never depend on execution order. The ensemble
summary does not echo its inputs (seeds, horizon, burn-in, epsilon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _csv
from .errors import AssumptionError
from .model import ModelParams, equilibria, rate_arrays


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One sample path. states[k] is occupied on [times[k], times[k+1]).

    times[0] is 0 with the initial state; the final state runs to t_end.
    absorbed is set when the path hit a state with zero total rate (only
    state 0 without immigration) and stopped jumping early.
    """

    times: np.ndarray
    states: np.ndarray
    capacity_n: int
    t_end: float
    absorbed: bool

    def to_csv(self, stream) -> None:
        _csv.write_rows(stream, "t,state", self.times, self.states)


@dataclass(frozen=True, eq=False)
class EnsembleSummary:
    """Pooled occupation statistics over independent runs.

    run_frequencies holds the per-run occupation rows (n_runs x (N+1)) so
    callers can form Monte Carlo standard errors across runs.
    extinction_mass is the pooled mass at densities <= epsilon;
    persistence_mass the pooled mass within epsilon of x_plus, or None when
    the parameters admit no persistence equilibrium (as in OdeTrajectory).
    first_trajectory is the path of the first run (seed base_seed).
    """

    mean_occupation: np.ndarray
    run_frequencies: np.ndarray
    extinction_mass: float
    persistence_mass: float | None
    first_trajectory: Trajectory


def simulate(params: ModelParams, x0: int, t_end: float, seed: int) -> Trajectory:
    """Exact simulation: exponential holding times, up-move odds b/(b+d).

    Deterministic given (params, x0, t_end, seed). Two random draws per
    jump in fixed order keep the stream layout stable across runs.
    """
    n = params.capacity_n
    if not 0 <= x0 <= n:
        raise ValueError(f"initial state {x0} outside 0..{n}")
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be finite and > 0, got {t_end!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    b, d = rate_arrays(params)
    rng = np.random.default_rng(seed)
    times = [0.0]
    states = [int(x0)]
    t = 0.0
    i = int(x0)
    absorbed = False
    while True:
        total = b[i] + d[i]
        if total == 0.0:
            absorbed = True
            break
        t += rng.exponential(1.0 / total)
        if t >= t_end:
            break
        i += 1 if rng.random() < b[i] / total else -1
        times.append(t)
        states.append(i)
    return Trajectory(
        np.asarray(times), np.asarray(states, dtype=np.int64), n, float(t_end), absorbed
    )


def occupation_distribution(traj: Trajectory, burn_in: float = 0.0) -> np.ndarray:
    """Time-weighted state frequencies of the post-burn-in path, over 0..N."""
    if not burn_in >= 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in!r}")
    if burn_in >= traj.t_end:
        raise ValueError(f"burn-in {burn_in} leaves no observation window before {traj.t_end}")
    bounds = np.append(traj.times, traj.t_end)
    weights = np.clip(bounds[1:], burn_in, None) - np.clip(bounds[:-1], burn_in, None)
    freq = np.bincount(traj.states, weights=weights, minlength=traj.capacity_n + 1)
    return freq / (traj.t_end - burn_in)


def ensemble(
    params: ModelParams,
    n_runs: int,
    x0: int,
    t_end: float,
    base_seed: int,
    *,
    burn_in: float = 0.0,
    epsilon: float = 0.05,
) -> EnsembleSummary:
    """Independent runs with seeds base_seed .. base_seed + n_runs - 1.

    Aggregation order is fixed by run index, so the summary is identical no
    matter how the runs are scheduled.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    rows = np.empty((n_runs, params.capacity_n + 1))
    for j in range(n_runs):
        traj = simulate(params, x0, t_end, int(base_seed) + j)
        rows[j] = occupation_distribution(traj, burn_in)
        if j == 0:
            first = traj
    mean = rows.mean(axis=0)
    density = np.arange(params.capacity_n + 1) / params.capacity_n
    extinction = float(mean[density <= epsilon].sum())
    try:
        x_plus = equilibria(params).x_plus
        persistence = float(mean[np.abs(density - x_plus) <= epsilon].sum())
    except AssumptionError:
        persistence = None
    return EnsembleSummary(
        mean_occupation=mean,
        run_frequencies=rows,
        extinction_mass=extinction,
        persistence_mass=persistence,
        first_trajectory=first,
    )
