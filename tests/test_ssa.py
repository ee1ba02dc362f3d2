"""Exact trajectory sampling and ensemble occupation statistics."""

from __future__ import annotations

import contextlib
import io
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from alleechain import (
    JumpBudgetError,
    ModelParams,
    build_generator,
    ensemble,
    evolve,
    occupation_distribution,
    psd_product,
    simulate,
    total_variation,
)
from alleechain import ssa
from alleechain.cli import main
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


def _per_draw_reference(params, x0, t_end, seed, block):
    """The Gillespie loop read one draw at a time from simulate's stream.

    The stream is blocks of `block` standard exponentials then `block`
    uniforms from default_rng(seed); the rates come from numpy on every jump.
    Returns (times, states, absorbed).
    """
    b, d = rate_arrays(params)
    rng = np.random.default_rng(seed)
    exps = uniforms = np.empty(0)
    k = 0
    times, states = [0.0], [x0]
    t, i = 0.0, x0
    while b[i] + d[i] > 0.0:
        if k == exps.size:
            exps = rng.standard_exponential(block)
            uniforms = rng.random(block)
            k = 0
        total = b[i] + d[i]
        t += exps[k] * (1.0 / total)
        if t >= t_end:
            return np.asarray(times), np.asarray(states), False
        i += 1 if uniforms[k] < b[i] / total else -1
        k += 1
        times.append(t)
        states.append(i)
    return np.asarray(times), np.asarray(states), True


#: _MAX_SWEEPS values that choose the walk route: "list" sends every block
#: to the list walk, "capped" is the module's own cap, and "fixed-point"
#: lets every block finish on the fixed-point walk, which certifies at
#: least one more state per sweep.
ROUTES = {"list": 0, "capped": ssa._MAX_SWEEPS, "fixed-point": ssa._BLOCK}


@contextlib.contextmanager
def _walk_routes():
    """Record the draws of each fixed-point walk ("fixed"; None where it hit
    the sweep cap) and of each list walk ("list") that simulate runs."""
    record = {"fixed": [], "list": []}
    fixed_point_walk, list_walk = ssa._fixed_point_walk, ssa._list_walk

    def fixed_spy(*args):
        path = fixed_point_walk(*args)
        record["fixed"].append(None if path is None else path.size - 1)
        return path

    def list_spy(i, uniforms, up):
        record["list"].append(uniforms.size)
        return list_walk(i, uniforms, up)

    with mock.patch.object(ssa, "_fixed_point_walk", fixed_spy), \
            mock.patch.object(ssa, "_list_walk", list_spy):
        yield record


def _assert_matches_reference(params, x0, t_end, seed, block=ssa._BLOCK, sweeps=ssa._MAX_SWEEPS):
    with mock.patch.object(ssa, "_BLOCK", block), mock.patch.object(ssa, "_MAX_SWEEPS", sweeps):
        traj = simulate(params, x0, t_end, seed)
    times, states, absorbed = _per_draw_reference(params, x0, t_end, seed, block)
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.tobytes() == states.astype(np.int64).tobytes()
    assert traj.absorbed == absorbed
    return traj


def _no_immigration(capacity_n=20):
    """A subcritical chain with R1 = 0, so state 0 is absorbing."""
    return ModelParams.from_constants(
        lam=0.5, mu=1.0, delta1=0.2, delta2=0.1, delta3=0.5,
        theta=0.05, capacity_n=capacity_n, r1=0.0,
    )


@settings(max_examples=40, deadline=None)
@given(
    params=boundary_params(max_capacity=40),
    start=st.floats(0.0, 1.0),
    t_end=st.floats(0.1, 20.0),
    seed=st.integers(0, 2**63 - 1),
    block=st.sampled_from([1, 2, 3, 7, 16, ssa._BLOCK]),
    sweeps=st.sampled_from([0, 1, 2, ssa._MAX_SWEEPS]),
)
def test_blocks_match_per_draw_reference(params, start, t_end, seed, block, sweeps):
    """Blocks of up to sweeps draws always finish on the fixed-point walk;
    longer ones may hit the cap at any block and go on with the list walk."""
    _assert_matches_reference(params, round(start * params.capacity_n), t_end, seed, block, sweeps)


@settings(max_examples=20, deadline=None)
@given(x0=st.integers(1, 20), seed=st.integers(0, 2**32 - 1), block=st.integers(1, 8))
def test_absorption_mid_block_matches_reference(x0, seed, block):
    _assert_matches_reference(_no_immigration(), x0, 1e6, seed, block)


def test_path_spans_several_blocks(fig1a):
    traj = _assert_matches_reference(fig1a, 50, 250.0, 4)
    assert traj.times.size > 3 * ssa._BLOCK


def test_absorption_from_one_mid_block():
    traj = _assert_matches_reference(_no_immigration(), 1, 1e6, 3)
    assert traj.absorbed and traj.states[-1] == 0
    assert 1 < traj.times.size < ssa._BLOCK  # inside block 0, before its last draw


@pytest.mark.parametrize("x0", [0, 100])
def test_edge_starts_match_reference(fig1b, x0):
    traj = _assert_matches_reference(fig1b, x0, 5.0, 6)
    assert traj.states[1] == (1 if x0 == 0 else 99)


def test_absorbing_start_draws_nothing():
    traj = _assert_matches_reference(_no_immigration(), 0, 10.0, 0)
    assert traj.absorbed and traj.times.tolist() == [0.0] and traj.states.tolist() == [0]


def test_horizon_at_and_past_a_block_end(fig1a):
    """t_end ends the path on the last draw of block 0, or on the first of block 1."""
    full = simulate(fig1a, 50, 150.0, 9)
    crossing = float(full.times[ssa._BLOCK])  # the time draw _BLOCK - 1 reaches
    at_end = _assert_matches_reference(fig1a, 50, crossing, 9)
    assert at_end.times.size == ssa._BLOCK
    past_end = _assert_matches_reference(fig1a, 50, math.nextafter(crossing, math.inf), 9)
    assert past_end.times.size == ssa._BLOCK + 1
    mid = _assert_matches_reference(fig1a, 50, float(full.times[1000]) + 1e-9, 9)
    assert mid.times.size == 1001


def test_cut_before_a_mid_block_absorption():
    """t_end cuts the path inside block 0, just before the walk reaches state 0."""
    full = simulate(_no_immigration(), 6, 1e6, 5)
    assert full.absorbed and 3 < full.times.size < ssa._BLOCK
    hit = float(full.times[-1])  # the time of the jump into state 0
    for t_end in (hit, (float(full.times[-2]) + hit) / 2.0):
        traj = _assert_matches_reference(_no_immigration(), 6, t_end, 5)
        assert not traj.absorbed
        assert traj.times.size == full.times.size - 1 and traj.states[-1] == 1


@pytest.mark.parametrize("capacity_n", [2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_small_absorbing_chain_keeps_the_walk_in_range(capacity_n, seed):
    """The draws left in the block after state 0 is reached step nowhere
    outside 0..N: no IndexError, and no wrap to state N. On the fixed-point
    route the guesses past the certified prefix do leave 0..N; their
    lookups are clipped. Checked on each route."""
    params = _no_immigration(capacity_n)
    for route, sweeps in ROUTES.items():
        with _walk_routes() as record:
            traj = _assert_matches_reference(params, capacity_n - 1, 1e6, seed, sweeps=sweeps)
        assert bool(record["list"]) == (route != "fixed-point")
        assert traj.absorbed and traj.states[-1] == 0
        assert traj.times.size < ssa._BLOCK // 2
        assert 0 <= traj.states.min() and traj.states.max() <= capacity_n


def _assert_every_block_walked_by_fixed_point(params):
    """On N = 5000 the odds change slowly, so each block's walk is found in
    a few sweeps, and the list walk never runs."""
    with _walk_routes() as record:
        traj = _assert_matches_reference(params, 2500, 3.0, 12)
    assert traj.times.size > 3 * ssa._BLOCK
    assert record["fixed"] == [ssa._BLOCK] * len(record["fixed"]) and not record["list"]


def test_fig2a_path_over_several_blocks_matches_reference(fig2a):
    _assert_every_block_walked_by_fixed_point(fig2a)


def test_fig2b_path_over_several_blocks_matches_reference(fig2b):
    _assert_every_block_walked_by_fixed_point(fig2b)


def test_cap_mid_run_switches_to_the_list_walk(fig2a):
    """With a cap of 3 sweeps, blocks 0 and 1 finish on the fixed-point walk
    and block 2 does not: the list walk walks all of block 2, from its
    start, and every later block."""
    with _walk_routes() as record:
        traj = _assert_matches_reference(fig2a, 2500, 3.0, 7, sweeps=3)
    assert record["fixed"] == [ssa._BLOCK, ssa._BLOCK, None]
    later = (traj.times.size - 1) // ssa._BLOCK - 2
    assert later >= 1
    assert record["list"] == [ssa._BLOCK] * (1 + later)


def test_path_beyond_the_jump_budget_is_refused(fig2a):
    """The budget counts stored jumps: a path with exactly budget jumps is
    returned whole, and one more is refused in the block that holds it."""
    full = simulate(fig2a, 2500, 3.0, 12)
    jumps = full.times.size - 1
    assert jumps > 3 * ssa._BLOCK
    with mock.patch.object(ssa, "_MAX_JUMPS", jumps):
        traj = simulate(fig2a, 2500, 3.0, 12)
    assert traj.times.tobytes() == full.times.tobytes()
    budget = 3 * ssa._BLOCK + 5
    with mock.patch.object(ssa, "_MAX_JUMPS", budget):
        with pytest.raises(JumpBudgetError) as refusal:
            simulate(fig2a, 2500, 3.0, 12)
    assert str(refusal.value) == (
        f"the path from x0 = 2500 with seed 12 needs more than {budget} jumps: "
        f"jump {budget} comes at t = {float(full.times[budget])!r} of t_end = 3.0"
    )
    with mock.patch.object(ssa, "_MAX_JUMPS", budget), \
            mock.patch.object(ssa, "simulate", wraps=ssa.simulate) as runs:
        with pytest.raises(JumpBudgetError):
            ensemble(fig2a, 3, 2500, 3.0, 12, burn_in=1.0)
    assert runs.call_count == 1


def test_cli_refuses_a_path_beyond_the_jump_budget(tmp_path, capsys):
    """At N = 2 with mu = 1.09e20 a path to t_end = 5 needs about 1e21 jumps.
    The run stops at the budget, in 1.7 s on a 2-CPU host, exits 3 and
    publishes nothing; without the budget it grew its memory until killed."""
    config = tmp_path / "huge.cfg"
    config.write_text("N = 2\nmu = 1.09e20\nr1 = 0.99\nt_end = 5\nburn_in = 1\nruns = 2\n")
    out = tmp_path / "out"
    start = time.monotonic()
    code = main(["simulate", "--preset", "fig1a", "--config", str(config), "--out", str(out)])
    elapsed = time.monotonic() - start
    err = capsys.readouterr().err
    assert code == 3 and list(out.iterdir()) == []
    assert err.startswith(
        f"numerical failure: the path from x0 = 1 with seed 0 needs more than {ssa._MAX_JUMPS} jumps"
    )
    assert err.count("\n") == 1 and err.endswith(" of t_end = 5.0\n")
    assert elapsed < 30.0


def _chi_square(counts, expected):
    """Pearson's statistic and its degrees of freedom over the cells with an
    expected count of at least 5, the other states pooled into one cell (or,
    when that expects fewer than 5, into the smallest kept cell)."""
    keep = expected >= 5.0
    observed = np.append(counts[keep], counts[~keep].sum())
    expect = np.append(expected[keep], expected[~keep].sum())
    if expect[-1] < 5.0:
        smallest = expect[:-1].argmin()
        observed[smallest] += observed[-1]
        expect[smallest] += expect[-1]
        observed, expect = observed[:-1], expect[:-1]
    return float(((observed - expect) ** 2 / expect).sum()), observed.size - 1


#: Runs per witness case and the false-alarm level of each, fixed before
#: any result was seen; run j uses seed j.
WITNESS_RUNS = 2000
WITNESS_ALPHA = 1e-3


@pytest.mark.parametrize("case, x0, t, route", [
    ("fig1a N=30", 15, 5.0, "list"),
    ("fig2a", 2500, 0.1, "fixed-point"),
    ("absorbing N=20", 5, 1.0, "list"),
])
def test_state_at_t_follows_the_master_equation(case, x0, t, route):
    """The state at time t over fixed seeds against evolve(delta_x0, t) by
    Pearson's chi-square: an independent witness of the transient law, on
    each walk route and on a chain whose state 0 absorbs."""
    params = {
        "fig1a N=30": lambda: make_params(FIG_A, 30),
        "fig2a": lambda: make_params(FIG_A, 5000),
        "absorbing N=20": _no_immigration,
    }[case]()
    gen = build_generator(params)
    p0 = np.zeros(gen.dimension)
    p0[x0] = 1.0
    law = evolve(gen, p0, t)
    with _walk_routes() as record:
        finals = [simulate(params, x0, t, seed).states[-1] for seed in range(WITNESS_RUNS)]
    assert bool(record["list"]) == (route == "list")
    counts = np.bincount(finals, minlength=gen.dimension).astype(float)
    stat, dof = _chi_square(counts, WITNESS_RUNS * law)
    assert dof >= 5
    assert stat <= chi2.isf(WITNESS_ALPHA, dof), (stat, dof)


@settings(max_examples=15, deadline=None)
@given(
    params=boundary_params(max_capacity=40),
    n_runs=st.integers(1, 4),
    base_seed=st.integers(0, 2**32),
    t_end=st.floats(0.5, 20.0),
    burn_fraction=st.floats(0.0, 0.9),
)
def test_ensemble_rows_are_the_reference_occupations(
    params, n_runs, base_seed, t_end, burn_fraction
):
    x0 = params.capacity_n // 2
    burn_in = burn_fraction * t_end
    summary = ensemble(params, n_runs, x0, t_end, base_seed, burn_in=burn_in)
    rows = []
    for j in range(n_runs):
        times, states, absorbed = _per_draw_reference(
            params, x0, t_end, base_seed + j, ssa._BLOCK
        )
        path = ssa.Trajectory(
            times, states.astype(np.int64), params.capacity_n, float(t_end), absorbed
        )
        rows.append(occupation_distribution(path, burn_in))
    rows = np.asarray(rows)
    assert summary.run_frequencies.tobytes() == rows.tobytes()
    assert summary.mean_occupation.tobytes() == rows.mean(axis=0).tobytes()


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


@pytest.mark.parametrize("x0, seed, message", [
    (2.7, 0, r"^x0 must be an integer state in 0\.\.100, got 2\.7$"),
    (True, 0, r"^x0 must be an integer state in 0\.\.100, got True$"),
    (10, 2.5, r"^seed must be an integer, got 2\.5$"),
    (10, True, r"^seed must be an integer, got True$"),
])
def test_simulate_rejects_a_non_integer_start_or_seed(fig1a, x0, seed, message):
    with pytest.raises(ValueError, match=message):
        simulate(fig1a, x0, 10.0, seed)


@pytest.mark.parametrize("value", [2.5, True])
def test_ensemble_rejects_a_non_integer_base_seed(fig1a, value):
    # and a non-integer run count, which np.empty refused with a TypeError
    with mock.patch.object(ssa, "simulate", side_effect=AssertionError("a run started")):
        with pytest.raises(ValueError, match=rf"^base_seed must be an integer, got {value}$"):
            ensemble(fig1a, 3, 10, 10.0, value)
        with pytest.raises(ValueError, match=rf"^n_runs must be an integer, got {value}$"):
            ensemble(fig1a, value, 10, 10.0, 0)


def test_numpy_integer_start_and_seeds_are_accepted(fig1a):
    traj = simulate(fig1a, np.int64(10), 10.0, np.int64(3))
    plain = simulate(fig1a, 10, 10.0, 3)
    assert np.array_equal(traj.times, plain.times)
    assert np.array_equal(traj.states, plain.states)
    # the seed after a uint8 255 is 256, not a wrapped 0
    summary = ensemble(fig1a, 2, np.int32(10), 10.0, np.uint8(255))
    assert np.array_equal(summary.run_frequencies, ensemble(fig1a, 2, 10, 10.0, 255).run_frequencies)


@pytest.mark.parametrize("burn_in, message", [
    (math.nan, r"^burn_in must be >= 0, got nan$"),
    (-1.0, r"^burn_in must be >= 0, got -1.0$"),
    (math.inf, r"^burn-in inf leaves no observation window before 10.0$"),
    (10.0, r"^burn-in 10.0 leaves no observation window before 10.0$"),
])
def test_ensemble_checks_burn_in_before_any_run(fig1a, burn_in, message):
    with mock.patch.object(ssa, "simulate", side_effect=AssertionError("a run started")):
        with pytest.raises(ValueError, match=message):
            ensemble(fig1a, 3, 10, 10.0, 0, burn_in=burn_in)


def test_ensemble_evaluates_x_plus_before_any_run():
    # the OverflowError of the discriminant came after the last run
    params = make_params({**FIG_A, "mu": 1e-300}, 100)
    with mock.patch.object(ssa, "simulate", side_effect=AssertionError("a run started")):
        with pytest.raises(ValueError, match=r"^the balance discriminant is not finite"):
            ensemble(params, 3, 10, 10.0, 0)


def test_absorption_without_immigration():
    """With R1 = 0 the empty state is absorbing and a subcritical chain
    reaches it quickly."""
    traj = simulate(_no_immigration(), 3, 500.0, 11)
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
