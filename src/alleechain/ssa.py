"""Exact stochastic simulation of the birth-death chain.

Gillespie sampling of individual trajectories, time-weighted occupation
frequency arrays, and reproducible ensembles whose run j uses the seed
base_seed + j, so results never depend on execution order. The ensemble
summary does not echo its inputs (seeds, horizon, burn-in, epsilon).

The sampler splits each block of draws. First the states are walked, the
only part where each move depends on the one before; numpy then forms the
clock, the horizon cut and the absorption from the walk. The clock is an
in-order cumsum of the same products, so a path has the bits of a loop that
takes one draw at a time (tests/test_ssa.py keeps that loop as the
reference).

The walk has two routes with the same result. The fixed-point walk guesses
the whole block's path and corrects it with vectorized sweeps, each of
which certifies a longer prefix; it finishes in a few sweeps where the
up-move odds change slowly from state to state, as on a large chain. Where
it does not finish within _MAX_SWEEPS sweeps, the list walk takes that
whole block from its start, one draw at a time, and every later block of
the run. A path that needs more than _MAX_JUMPS jumps is refused with
JumpBudgetError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _csv
from .errors import JumpBudgetError
from .model import (
    ModelParams, _armed_x_plus, _check_finite, _check_integer, _is_integer, _within, rate_arrays,
)

#: Draws of each random stream simulate takes from the generator at a time.
_BLOCK = 4096
#: Sweeps of the fixed-point walk per block before a run turns to the list walk.
_MAX_SWEEPS = 8
#: Jumps one path may hold (16 bytes each), about 3.5 times those of a
#: fig2a path to the preset's t_end = 1000.
_MAX_JUMPS = 2**24


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
    extinction_mass and persistence_mass are the pooled masses in the
    epsilon-windows (model._within) around 0 and x_plus, the latter None when
    the parameters admit no persistence equilibrium (as in OdeTrajectory).
    first_trajectory is the path of the first run (seed base_seed).
    """

    mean_occupation: np.ndarray
    run_frequencies: np.ndarray
    extinction_mass: float
    persistence_mass: float | None
    first_trajectory: Trajectory


def _list_walk(i: int, uniforms: np.ndarray, up: list) -> np.ndarray:
    """The walk from state i, one draw at a time: the state before each draw,
    then the state after the last. It moves up where the draw is below
    up[state]."""
    path = [i]
    path += [i := i + 1 if u < up[i] else i - 1 for u in uniforms.tolist()]
    return np.array(path, dtype=np.int64)


def _fixed_point_walk(i: int, uniforms: np.ndarray, up: np.ndarray) -> np.ndarray | None:
    """The walk of _list_walk as the fixed point of vectorized sweeps, or
    None when it is not found within _MAX_SWEEPS sweeps.

    The first guess is the constant path i. A sweep reads each move at the
    guessed state and sums the moves from the last certified state:
    path[k + 1] = path[lo] + the sum of +-1 over draws lo..k. Let f be the
    first index where the sweep changes the guess. Before f the guess was
    the new path, so each move up to f was read at the state the new path
    is in; the new path is therefore the walk up to and including f, at
    least one state more than before. A sweep that changes nothing is the
    walk, bit for bit. Guessed states past the certified prefix may leave
    0..N, so the lookup clips them; what they read is never kept.
    """
    size = uniforms.size
    ramp = np.arange(1, size + 1)
    path = np.full(size + 1, i, dtype=np.int64)
    lo = 0
    for _ in range(_MAX_SWEEPS):
        rest = np.cumsum(uniforms[lo:] < up.take(path[lo:-1], mode="clip"), dtype=np.int64)
        rest *= 2  # ups - downs = 2 ups - draws
        rest -= ramp[: size - lo]
        rest += path[lo]
        moved = rest[:-1] != path[lo + 1 : -1]
        path[lo + 1 :] = rest
        if not moved.any():
            return path
        lo += int(moved.argmax()) + 1
    return None


def simulate(params: ModelParams, x0: int, t_end: float, seed: int) -> Trajectory:
    """Exact simulation: exponential holding times, up-move odds b/(b+d).

    Deterministic given (params, x0, t_end, seed). Random numbers come in
    blocks of _BLOCK: one block of standard exponentials, then one block of
    uniforms, both from default_rng(seed). Jump k reads the k-th draw of each
    stream: its holding time is e * (1/(b+d)) in the current state and it
    moves up when u < b/(b+d). A path that needs more jumps draws the next
    pair of blocks.

    Per block, the states are walked first, by one of two routes with the
    same result. The fixed-point walk (_fixed_point_walk) starts from the
    constant path and sweeps the block with numpy until a sweep changes
    nothing. Each sweep certifies the path up to its first change, so the
    result is the walk itself. A block that is not done after _MAX_SWEEPS
    sweeps is walked whole, from its start, one draw at a time on plain
    lists (_list_walk), and so is every later block of the run. That walk
    repeats the prefix the sweeps certified, bit for bit.
    On the fig2a and fig2b presets (N = 5000) a block takes 2 to 7 sweeps;
    on fig1a and fig1b (N = 100) it would take about 50 to 100, so their
    runs turn to the list walk in their first block.

    numpy then does the rest of the block at once: the holding times
    e * inv[state before the jump], the clock as a cumsum seeded with the
    carried time, the cut at the first time >= t_end (searchsorted) and the
    first entry into an absorbing state. The block keeps its jumps up to
    the earlier of the cut and the absorption. The products are the same
    IEEE multiplications, and add.accumulate adds in order, so every time
    has the bits of the loop t += e * inv[i] that takes one draw at a time.

    Raises JumpBudgetError, once the block that holds it is drawn, for a
    path that needs more than _MAX_JUMPS jumps before t_end.
    """
    n = params.capacity_n
    if not (_is_integer(x0) and 0 <= x0 <= n):
        raise ValueError(f"x0 must be an integer state in 0..{n}, got {x0!r}")
    _check_finite("t_end", t_end, positive=True)
    _check_integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    b, d = rate_arrays(params)
    total = b + d
    dead = total == 0.0
    total[dead] = 1.0  # placeholder: draws past an absorption are dropped
    inv = 1.0 / total
    up = b / total
    # d > 0 above state 0, so only state 0 can be absorbing. Stepping up from
    # it keeps the walk past an absorption inside 0..N; that part is dropped.
    up[dead] = 1.0
    up_list = None  # set once a block's fixed-point walk hits its sweep cap
    rng = np.random.default_rng(seed)
    i = int(x0)
    t = 0.0
    jumps = 0
    times = [np.zeros(1)]
    states = [np.full(1, i, dtype=np.int64)]
    absorbed = bool(dead[i])
    while not absorbed:
        exps = rng.standard_exponential(_BLOCK)
        uniforms = rng.random(_BLOCK)
        path = None if up_list else _fixed_point_walk(i, uniforms, up)
        if path is None:
            up_list = up_list or up.tolist()
            path = _list_walk(i, uniforms, up_list)
        i = int(path[-1])
        clock = exps * inv[path[:-1]]
        clock[0] += t
        np.cumsum(clock, out=clock)
        walk = path[1:]
        stop = int(np.searchsorted(clock, t_end))  # first time >= t_end
        hits = np.flatnonzero(dead[walk[:stop]])
        if hits.size:
            stop = int(hits[0]) + 1
            absorbed = True
        if jumps + stop > _MAX_JUMPS:
            raise JumpBudgetError(
                f"the path from x0 = {x0} with seed {seed} needs more than {_MAX_JUMPS} jumps: "
                f"jump {_MAX_JUMPS} comes at t = {float(clock[_MAX_JUMPS - jumps - 1])!r} "
                f"of t_end = {t_end!r}"
            )
        jumps += stop
        times.append(clock[:stop])
        states.append(walk[:stop])
        if stop < _BLOCK:
            break
        t = clock[-1]
    return Trajectory(np.concatenate(times), np.concatenate(states), n, float(t_end), absorbed)


def _check_burn_in(burn_in: float, t_end: float) -> None:
    """Raise ValueError unless 0 <= burn_in < t_end (so burn_in is finite)."""
    if not burn_in >= 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in!r}")
    if burn_in >= t_end:
        raise ValueError(f"burn-in {burn_in} leaves no observation window before {t_end}")


def occupation_distribution(traj: Trajectory, burn_in: float = 0.0) -> np.ndarray:
    """Time-weighted state frequencies of the post-burn-in path, over 0..N."""
    _check_burn_in(burn_in, traj.t_end)
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
    matter how the runs are scheduled. n_runs, base_seed, epsilon and
    burn_in are checked, and x+* is evaluated, before any run.
    """
    _check_integer("n_runs", n_runs)
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    _check_integer("base_seed", base_seed)
    _check_finite("epsilon", epsilon)
    _check_burn_in(burn_in, t_end)
    x_plus = _armed_x_plus(params)
    rows = np.empty((n_runs, params.capacity_n + 1))
    for j in range(n_runs):
        traj = simulate(params, x0, t_end, int(base_seed) + j)
        rows[j] = occupation_distribution(traj, burn_in)
        if j == 0:
            first = traj
    mean = rows.mean(axis=0)
    extinction = float(mean[_within(params.capacity_n, 0.0, epsilon)].sum())
    persistence = None
    if x_plus is not None:
        persistence = float(mean[_within(params.capacity_n, x_plus, epsilon)].sum())
    return EnsembleSummary(
        mean_occupation=mean,
        run_frequencies=rows,
        extinction_mass=extinction,
        persistence_mass=persistence,
        first_trajectory=first,
    )
