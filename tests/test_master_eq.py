"""Generator assembly and uniformized master-equation evolution."""

from __future__ import annotations

import contextlib
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from alleechain import (
    ConvergenceBudgetError,
    GeneratorMatrix,
    ModelParams,
    build_generator,
    converge_to_stationary,
    evolve,
    psd_product,
    stationary_from_rates,
    total_variation,
)

from alleechain import master_eq
from alleechain.cli import _start_vector
from alleechain.master_eq import (
    _DENSE_MAX_STATES,
    _TRIM_TOL,
    _WINDOW_TOL,
    _checkpoints,
    _dense_propagator,
    _poisson_window,
    _series_weights,
    _windowed_leg,
)

from conftest import FIG_A, FIG_B, boundary_params, log_space_weights, make_params


def _dense(gen):
    """Q as a full matrix, column j being Q applied to the unit vector e_j."""
    return np.column_stack([gen.apply(e) for e in np.eye(gen.dimension)])


def test_two_state_generator_by_hand():
    gen = GeneratorMatrix([1.0, 2.0, 0.0], [0.0, 1.0, 4.0])
    expected = np.array([
        [-1.0, 1.0, 0.0],
        [1.0, -3.0, 4.0],
        [0.0, 2.0, -4.0],
    ])
    assert np.array_equal(_dense(gen), expected)
    assert gen.dimension == 3


def test_columns_sum_to_zero(corpus):
    for entry in corpus[:5]:
        gen = build_generator(ModelParams.from_constants(capacity_n=40, **entry))
        assert np.abs(_dense(gen).sum(axis=0)).max() <= 1e-10


def test_apply_matches_dense(fig1a):
    gen = build_generator(fig1a)
    idx = np.arange(gen.dimension)
    q = np.zeros((gen.dimension, gen.dimension))
    q[idx, idx] = -(gen.birth + gen.death)
    q[idx[1:], idx[:-1]] = gen.birth[:-1]
    q[idx[:-1], idx[1:]] = gen.death[1:]
    rng = np.random.default_rng(7)
    v = rng.uniform(0.0, 1.0, size=gen.dimension)
    assert np.allclose(gen.apply(v), q @ v, rtol=1e-12, atol=1e-12)


def _reference_apply(gen, v):
    """Q v written out with fresh temporaries, as a plain reference."""
    out = -(gen.birth + gen.death) * v
    out[1:] += gen.birth[:-1] * v[:-1]
    out[:-1] += gen.death[1:] * v[1:]
    return out


def _isf(q, mu):
    """The truncation point of _poisson_window: the least k with
    P(Poisson(mu) > k) <= q."""
    return _poisson_window(q, mu)[2]


def _module_weights(lt):
    """The module's weights of the terms 0..last at the default tolerance,
    the powers below its window weighing 0."""
    lo, weights = _series_weights(lt, 1.0)
    return np.concatenate((np.zeros(lo), weights))


def _reference_evolve(gen, p0, t, weights):
    """The allocating uniformization loop, summing every term of the series
    with the given weights of the powers 0..len(weights) - 1."""
    rate = gen.uniformization_rate()
    v = np.array(p0, dtype=float)
    acc = weights[0] * v
    for j in range(1, len(weights)):
        v = v + _reference_apply(gen, v) / rate
        acc += weights[j] * v
    acc = np.clip(acc, 0.0, None)
    return acc / acc.sum()


def _sparse_generator(rng, dimension, scale):
    """Random rates up to scale, about one in ten of them exactly zero."""
    birth = rng.uniform(0.0, scale, dimension) * (rng.random(dimension) < 0.9)
    death = rng.uniform(0.0, scale, dimension) * (rng.random(dimension) < 0.9)
    birth[-1] = 0.0
    death[0] = 0.0
    return GeneratorMatrix(birth, death)


def _random_start(rng, dimension, point_mass):
    """A point mass at a random state, or a random law spread over all states."""
    if point_mass:
        return np.eye(dimension)[int(rng.integers(dimension))]
    return rng.dirichlet(np.ones(dimension))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dimension=st.integers(2, 300),
    scale=st.floats(0.01, 10.0),
    # rate * t: up to ~745 the first Poisson weight is positive, beyond it
    # the leading weights underflow to exactly 0.0
    rate_times_t=st.one_of(st.floats(1e-3, 50.0), st.floats(800.0, 3000.0)),
    point_mass=st.booleans(),
)
@example(seed=1, dimension=300, scale=10.0, rate_times_t=3000.0, point_mass=True)
@example(seed=2, dimension=2, scale=0.01, rate_times_t=1e-3, point_mass=False)
def test_evolve_bit_identical_to_reference_loop(seed, dimension, scale, rate_times_t, point_mass):
    rng = np.random.default_rng(seed)
    gen = _sparse_generator(rng, dimension, scale)
    rate = gen.uniformization_rate()
    assume(rate > 0.0)
    p0 = _random_start(rng, dimension, point_mass)
    before = p0.copy()
    t = rate_times_t / rate

    v = rng.uniform(0.0, 1.0, dimension)
    assert gen.apply(v).tobytes() == _reference_apply(gen, v).tobytes()

    out = evolve(gen, p0, t)
    weights = _module_weights(rate * t)
    expected = _reference_evolve(gen, p0, t, weights)
    assert np.array_equal(out, expected)
    assert out.tobytes() == expected.tobytes()  # the sign of zeros too
    if rate * t > 800.0:
        assert weights[0] == 0.0
    # the log-space weights of scipy, whose own l1 error reaches 1.9e-12 at
    # rate * t = 3000, move the result by less than 1e-11 in l1
    witness = _reference_evolve(gen, p0, t, log_space_weights(rate * t, weights.size - 1))
    assert np.abs(out - witness).sum() <= 1e-11
    # on the simplex, read-only, and the caller's array untouched
    assert np.all(out >= 0.0) and abs(out.sum() - 1.0) <= 1e-12
    assert not out.flags.writeable and not np.shares_memory(out, p0)
    assert np.array_equal(p0, before)
    assert p0.flags.writeable


def test_generator_rejects_bad_rates():
    with pytest.raises(ValueError):
        GeneratorMatrix([1.0, 1.0], [0.0, 1.0])  # b[N] != 0
    with pytest.raises(ValueError):
        GeneratorMatrix([1.0, 0.0], [0.5, 1.0])  # d[0] != 0
    with pytest.raises(ValueError):
        GeneratorMatrix([-1.0, 0.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        GeneratorMatrix([0.0], [0.0])


def test_generator_leaves_caller_arrays_alone():
    b = np.array([1.0, 2.0, 0.0])
    d = np.array([0.0, 1.0, 4.0])
    gen = GeneratorMatrix(b, d)
    assert b.flags.writeable and d.flags.writeable
    assert not gen.birth.flags.writeable and not gen.death.flags.writeable
    b[0] = 7.0
    d[1] = 7.0
    assert gen.birth[0] == 1.0 and gen.death[1] == 1.0
    listed = GeneratorMatrix([1.0, 2.0, 0.0], [0.0, 1.0, 4.0])
    assert listed.birth.dtype == float and not listed.birth.flags.writeable


def test_uniformization_rate_covers_all_states(fig1b):
    gen = build_generator(fig1b)
    assert gen.uniformization_rate() > float((gen.birth + gen.death).max())


def test_point_mass_and_uniform():
    p = _start_vector("state:3", 6)
    assert p[3] == 1.0 and p.sum() == 1.0
    assert np.array_equal(_start_vector("deltaN", 6), np.eye(6)[5])
    with pytest.raises(ValueError):
        _start_vector("state:6", 6)
    with pytest.raises(ValueError):
        _start_vector("state:-1", 6)
    assert np.allclose(_start_vector("uniform", 4), 0.25)


def test_evolve_zero_time_identity(fig1a):
    gen = build_generator(fig1a)
    p0 = np.eye(gen.dimension)[10]
    out = evolve(gen, p0, 0.0)
    assert np.array_equal(out, p0)
    assert not out.flags.writeable and not np.shares_memory(out, p0)
    assert p0.flags.writeable
    # any array-like start works
    assert np.array_equal(evolve(gen, p0.tolist(), 0.0), p0)


def test_evolve_rejects_bad_inputs(fig1a):
    gen = build_generator(fig1a)
    p0 = np.eye(gen.dimension)[0]
    for t in (-1.0, math.nan, math.inf, True, "1"):
        with pytest.raises(ValueError, match="evolution time"):
            evolve(gen, p0, t)
    with pytest.raises(ValueError):
        evolve(gen, np.eye(5)[0], 1.0)
    with pytest.raises(ValueError):
        evolve(gen, np.eye(gen.dimension)[:2], 1.0)
    for tol in (0.0, 1.0, -1e-12, 2.0, math.nan):
        with pytest.raises(ValueError, match=r"^truncation_tol must be in \(0, 1\)"):
            evolve(gen, p0, 1.0, truncation_tol=tol)


_ENTRIES = r"^distribution entries must be finite and >= 0$"


@pytest.mark.parametrize("capacity", [100, 5000])  # the dense and the windowed route
@pytest.mark.parametrize("head, message", [
    ([1.0, math.nan], _ENTRIES),
    ([-0.5, 1.5], _ENTRIES),
    ([], r"^distribution sum must be finite and > 0, got 0\.0$"),
], ids=["nan", "negative", "zero"])
def test_bad_starts_are_refused_before_any_leg(capacity, head, message):
    # evolve returned NaN from the NaN and the zero start and [-0.5, 1.5, ...]
    # at t = 0; converge_to_stationary from the NaN start on fig2a ran on
    gen = build_generator(make_params(FIG_A, capacity))
    p0 = np.zeros(gen.dimension)
    p0[:len(head)] = head
    before = p0.copy()
    leg = mock.Mock(side_effect=AssertionError("a leg ran"))
    with mock.patch.multiple(
        master_eq, _poisson_mixture=leg, _dense_propagator=leg, _windowed_leg=leg
    ):
        for t in (0.0, 1.0):
            with pytest.raises(ValueError, match=message):
                evolve(gen, p0, t)
        with pytest.raises(ValueError, match=message):
            next(_checkpoints(gen, p0, [0.0, 1.0]))
        with pytest.raises(ValueError, match=message):
            converge_to_stationary(gen, p0, 1e-8)
    assert np.array_equal(p0, before, equal_nan=True) and p0.flags.writeable


def _mp_tails(k, mu):
    """(P(X > k), P(X > k - 1)) for X ~ Poisson(mu), at 40 digits in mpmath:
    pmf(k + 1) times mpmath's own sum of the series 1F1(1; k + 2; mu), and
    that plus pmf(k)."""
    with mpmath.workdps(40):
        mu = mpmath.mpf(mu)
        def pmf(j):
            return mpmath.exp(j * mpmath.log(mu) - mu - mpmath.loggamma(j + 1))
        tail = pmf(k + 1) * mpmath.hyp1f1(1, k + 2, mu, maxterms=10**8)
        return tail, tail + pmf(k)


def _assert_least_within(k, q, mu):
    """k is the least integer whose Poisson(mu) tail is at most q, in mpmath."""
    tail, tail_below = _mp_tails(k, mu)
    assert tail <= q and (k == 0 or q < tail_below), (q, mu, k)


def test_poisson_isf_matches_scipy_on_a_dense_grid():
    # scipy.stats decides by pdtr(k, mu) >= 1 - q, which cannot resolve a
    # tail below ~1e-16 and misplaces k further from lt ~ 1e6 on (pdtrik);
    # where the two differ, mpmath decides, on every point up to lt = 1e5
    # and on every 40th of the points above it
    tols = np.logspace(-15, -6, 91)
    lts = np.logspace(-6, 8, 561)
    expected = stats.poisson.isf(tols[:, None], lts[None, :])
    got = np.array([[_isf(q, lt) for lt in lts.tolist()] for q in tols.tolist()])
    differ = np.argwhere(got != expected)
    low = lts[differ[:, 1]] <= 1e5
    for i, j in np.concatenate([differ[low], differ[~low][::40]]).tolist():
        _assert_least_within(int(got[i, j]), tols[i], lts[j])


@settings(max_examples=300, deadline=None)
@given(log_tol=st.floats(-15.0, -0.01), log_lt=st.floats(-8.0, 9.0))
@example(log_tol=-12.0, log_lt=math.log10(25.0))
@example(log_tol=-15.0, log_lt=5.0)  # 102522; scipy's 102521 leaves 1.0024 q
@example(log_tol=math.log10(5e-324), log_lt=-310.0)  # subnormal both: P(X > 0) ~ 1e-310 > q
@example(log_tol=-300.0, log_lt=4.0)
def test_poisson_isf_matches_scipy(log_tol, log_lt):
    tol, lt = 10.0**log_tol, 10.0**log_lt
    k = _isf(tol, lt)
    if k != stats.poisson.isf(tol, lt):  # NaN, which differs, where 1 - tol rounds to 1
        _assert_least_within(k, tol, lt)


def _mp_weights(lt, last):
    """The Poisson(lt) pmf of 0..last normalized over them, at 30 digits."""
    with mpmath.workdps(30):
        mu = mpmath.mpf(lt)
        log_mu = mpmath.log(mu)
        pmf = [mpmath.exp(k * log_mu - mu - mpmath.loggamma(k + 1)) for k in range(last + 1)]
        total = mpmath.fsum(pmf)
        return [x / total for x in pmf]


@pytest.mark.parametrize("lt", [0.7, 50.0, 3000.0, 4.9e4])  # 4.9e4: fig2a's longest leg
def test_series_weights_are_the_poisson_pmf_to_rounding(lt):
    # log-space weights lose up to 4.7e-11 here (at 4.9e4) to the
    # cancellation of k log(lt) - log k! - lt; the window's ratio products
    # stay within 6.2e-16
    weights = _module_weights(lt)
    exact = _mp_weights(lt, weights.size - 1)
    with mpmath.workdps(30):
        l1 = mpmath.fsum(abs(mpmath.mpf(float(w)) - x) for w, x in zip(weights, exact))
    assert l1 <= 1e-14


def test_evolve_preserves_stationary_distribution():
    p = make_params(FIG_A, 40)
    gen = build_generator(p)
    psd = psd_product(p).probs
    for t in (0.7, 13.0, 257.0):
        out = evolve(gen, psd, t)
        assert total_variation(out, psd) <= 1e-10


def test_evolve_simplex_and_time_stamps():
    p = make_params(FIG_B, 30)
    gen = build_generator(p)
    out = evolve(gen, np.eye(gen.dimension)[5], 3.5)
    assert np.all(out >= 0.0)
    assert abs(out.sum() - 1.0) <= 1e-12


def test_evolve_semigroup_property():
    p = make_params(FIG_A, 30)
    gen = build_generator(p)
    p0 = np.full(gen.dimension, 1.0 / gen.dimension)
    for s, t in ((0.3, 1.7), (2.5, 0.25), (5.0, 5.0)):
        two_leg = evolve(gen, evolve(gen, p0, s), t)
        one_leg = evolve(gen, p0, s + t)
        assert total_variation(two_leg, one_leg) <= 1e-10


def test_evolve_long_time_reaches_product_formula():
    """Point mass at 10, N = 20: the semigroup limit is the product PSD."""
    p = make_params(FIG_A, 20)
    gen = build_generator(p)
    out = evolve(gen, np.eye(gen.dimension)[10], 300.0)
    assert total_variation(out, psd_product(p).probs) <= 1e-8


def _expm_laws(gen, p0, times, step=0.5):
    """exp(Qt) p0 for each t of times (multiples of step) at 30 digits, from
    mpmath's expm of Q step, applied t / step times: exp(Qt) = exp(Q step)^k
    exactly, and the k products add under 1e-27 to the 30-digit error. The
    rates enter exactly, as the floats the generator holds."""
    n = gen.dimension
    with mpmath.workdps(30):
        q = mpmath.zeros(n, n)
        for j, (b, d) in enumerate(zip(gen.birth.tolist(), gen.death.tolist())):
            q[j, j] = -(mpmath.mpf(b) + mpmath.mpf(d))
            if j < n - 1:
                q[j + 1, j] = b
            if j > 0:
                q[j - 1, j] = d
        propagator = mpmath.expm(q * step)
        p = mpmath.matrix(np.asarray(p0, dtype=float).tolist())
        laws, steps = [], 0
        for t in times:
            while steps * step < t:
                p, steps = propagator * p, steps + 1
            laws.append(np.array([float(x) for x in p]))
    return laws


@pytest.mark.parametrize("base, start", [
    (FIG_A, 0), (FIG_B, 0),
    (dict(FIG_A, r1=0.0), 15),  # no immigration: state 0 absorbs
], ids=["fig1a", "fig1b", "no-immigration"])
def test_transient_law_matches_mpmath_expm(base, start):
    """Both routes of the transient law against an outside witness at N = 30:
    evolve, and the dense legs of _checkpoints over the same times in one
    call, as `alleechain evolve` runs them."""
    gen = build_generator(make_params(base, 30))
    if base["r1"] == 0.0:
        assert gen.birth[0] == 0.0
    p0 = np.eye(gen.dimension)[start]
    times = [0.5, 5.0, 50.0]
    exact = _expm_laws(gen, p0, times)
    eps = float(np.finfo(float).eps)
    for t, law, dense in zip(times, exact, _checkpoints(gen, p0, times)):
        # The series drops at most _TRUNCATION_TOL of Poisson mass. Rounding
        # is allowed 4 eps per state for each unit of rate * t. evolve sums
        # about rate * t terms, each rounding an entry a few times, and the
        # stochastic steps do not grow an earlier error. The dense route
        # squares its short step s times, 2^s < 2 rate * t, and each squaring
        # doubles the error before it and adds at most dimension * eps.
        lt = gen.uniformization_rate() * t
        bound = master_eq._TRUNCATION_TOL + 4.0 * gen.dimension * (lt + 1.0) * eps
        assert np.abs(evolve(gen, p0, t) - law).sum() <= bound, t
        assert np.abs(dense - law).sum() <= bound, t


def test_evolve_term_budget_error(fig1a):
    # t = 1e5 needs the 19,019,329 series terms 0..19019328: at rate * t =
    # 18988665.9 the Poisson tail past 19019326 is 1.0015e-12 and past
    # 19019327 is 0.9999e-12 (mpmath, 40 digits; scipy.stats.poisson.isf
    # gives one less). The budget check comes first.
    gen = build_generator(fig1a)
    p0 = np.eye(gen.dimension)[0]
    with pytest.raises(ConvergenceBudgetError, match="needs 19019329 series terms"):
        evolve(gen, p0, 1e5)
    # beyond _COUNTED_LT the count is rate * t to three digits
    with pytest.raises(ConvergenceBudgetError, match="needs about 1.9e\\+20 series terms"):
        evolve(gen, p0, 1e18)
    # which holds from rate * t = 1e8 on
    with pytest.raises(ConvergenceBudgetError, match="needs about 1.9e\\+08 series terms"):
        evolve(gen, p0, 1e6)


def test_converge_from_point_mass():
    p = make_params(FIG_A, 50)
    gen = build_generator(p)
    witness, horizon, achieved_tv = converge_to_stationary(gen, np.eye(gen.dimension)[0], 1e-8)
    assert total_variation(witness, psd_product(p).probs) <= 1e-8
    assert achieved_tv == total_variation(witness, psd_product(p).probs)
    assert horizon == pytest.approx(255.0)
    assert not witness.flags.writeable


def test_converge_vacuous_tolerance(fig1b):
    gen = build_generator(fig1b)
    p0 = np.full(gen.dimension, 1.0 / gen.dimension)
    witness, horizon, _ = converge_to_stationary(gen, p0, 1.0)
    assert horizon == 0.0
    assert np.array_equal(witness, p0)
    assert not witness.flags.writeable and not np.shares_memory(witness, p0)
    assert p0.flags.writeable


@pytest.mark.parametrize("tol, max_horizon", [
    (math.nan, 1e6), (math.inf, 1e6), (-1.0, 1e6),
    (1e-8, math.nan), (1e-8, math.inf), (1e-8, 0.0), (-1.0, math.inf),
])
def test_converge_rejects_non_finite_settings(fig1a, tol, max_horizon):
    gen = build_generator(fig1a)
    with pytest.raises(ValueError):
        converge_to_stationary(gen, np.eye(gen.dimension)[0], tol, max_horizon=max_horizon)


def test_converge_budget_reports_progress():
    p = make_params(FIG_B, 50)
    gen = build_generator(p)
    p0 = np.eye(gen.dimension)[0]
    with pytest.raises(ConvergenceBudgetError) as exc_info:
        converge_to_stationary(gen, p0, 1e-12, max_horizon=2.0)
    err = exc_info.value
    assert err.achieved_tv is not None and err.achieved_tv > 1e-12
    assert err.horizon >= 2.0
    assert err.witness.shape == (gen.dimension,) and not err.witness.flags.writeable


def _point_mass(dimension, state):
    p0 = np.zeros(dimension)
    p0[state] = 1.0
    return p0


def _passage_bound(gen, p0, tol):
    log_weights = stationary_from_rates(gen.birth, gen.death).log_weights
    return master_eq._escape_bound(gen, log_weights, p0, tol)


@pytest.mark.parametrize("base, capacity, state", [
    (FIG_A, 100, 0), (FIG_A, 100, -1), (FIG_B, 100, 0), (FIG_B, 100, -1), (FIG_A, 5000, 0),
], ids=["fig1a-delta0", "fig1a-deltaN", "fig1b-delta0", "fig1b-deltaN", "fig2a-delta0"])
def test_point_mass_bound_never_exceeds_the_reached_horizon(base, capacity, state):
    gen = build_generator(make_params(base, capacity))
    p0 = _point_mass(gen.dimension, state)
    _, horizon, _ = converge_to_stationary(gen, p0, 1e-8)
    assert 0.0 < _passage_bound(gen, p0, 1e-8) <= horizon


@settings(max_examples=40, deadline=None)
@given(params=boundary_params(max_capacity=60), state=st.sampled_from([0, -1]))
def test_point_mass_bound_holds_on_boundary_params(params, state):
    gen = build_generator(params)
    p0 = _point_mass(gen.dimension, state)
    bound = _passage_bound(gen, p0, 1e-8)
    try:
        _, horizon, _ = converge_to_stationary(gen, p0, 1e-8)
    except ConvergenceBudgetError as err:
        # refused at the start, or a leg or the last checkpoint missed tol
        assert (err.horizon == 0.0) == ("needs horizon >=" in str(err))
        return
    assert bound <= horizon


@pytest.mark.parametrize("base, capacity, start", [
    (FIG_A, 100, "uniform"), (FIG_B, 100, "uniform"), (FIG_A, 100, "state:10"),
    (FIG_B, 100, "state:50"), (FIG_A, 5000, "state:10"),
], ids=["fig1a-uniform", "fig1b-uniform", "fig1a-state10", "fig1b-state50", "fig2a-state10"])
def test_spread_bound_never_exceeds_the_reached_horizon(base, capacity, start):
    gen = build_generator(make_params(base, capacity))
    p0 = _start_vector(start, gen.dimension)
    _, horizon, _ = converge_to_stationary(gen, p0, 1e-8)
    bound = _passage_bound(gen, p0, 1e-8)
    assert bound <= horizon
    # a uniform start holds a share of pi on every set; a point mass inside
    # holds none on any set of more than one state
    assert (bound > 0.0) == (start == "uniform")


@st.composite
def _spread_starts(draw, dimension):
    kind = draw(st.sampled_from(["uniform", "state", "positive"]))
    if kind == "uniform":
        return np.full(dimension, 1.0 / dimension)
    if kind == "state":
        return _point_mass(dimension, draw(st.integers(0, dimension - 1)))
    weights = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=dimension, max_size=dimension)))
    return weights / weights.sum()


@settings(max_examples=40, deadline=None)
@given(params=boundary_params(max_capacity=60), data=st.data())
def test_spread_bound_holds_on_boundary_params(params, data):
    gen = build_generator(params)
    p0 = data.draw(_spread_starts(gen.dimension))
    bound = _passage_bound(gen, p0, 1e-8)
    try:
        _, horizon, _ = converge_to_stationary(gen, p0, 1e-8)
    except ConvergenceBudgetError as err:
        # refused at the start, or a leg or the last checkpoint missed tol
        assert (err.horizon == 0.0) == ("needs horizon >=" in str(err))
        return
    assert bound <= horizon


def test_unreachable_spread_start_is_refused_before_any_leg():
    gen = build_generator(make_params(FIG_A, 5000))
    p0 = np.full(gen.dimension, 1.0 / gen.dimension)
    leg = mock.Mock(side_effect=AssertionError("a leg ran"))
    with mock.patch.multiple(master_eq, _dense_propagator=leg, _windowed_leg=leg):
        with pytest.raises(ConvergenceBudgetError) as exc_info:
            converge_to_stationary(gen, p0, 1e-8)
    err = exc_info.value
    assert str(err).startswith("total variation 1.0e-08 needs horizon >= 1.69e+24 from this start")
    assert err.horizon == 0.0 and np.array_equal(err.witness, p0)


@pytest.mark.parametrize("base, state, bound", [
    (FIG_B, 0, "1.17e+19"), (FIG_A, -1, "2.01e+24"),
], ids=["fig2b-delta0", "fig2a-deltaN"])
def test_unreachable_point_mass_is_refused_before_any_leg(base, state, bound):
    gen = build_generator(make_params(base, 5000))
    p0 = _point_mass(gen.dimension, state)
    leg = mock.Mock(side_effect=AssertionError("a leg ran"))
    with mock.patch.multiple(master_eq, _dense_propagator=leg, _windowed_leg=leg):
        with pytest.raises(ConvergenceBudgetError) as exc_info:
            converge_to_stationary(gen, p0, 1e-8)
    err = exc_info.value
    assert str(err) == (
        f"total variation 1.0e-08 needs horizon >= {bound} from this start, "
        "beyond max_horizon 1e+06 (last leg ends at 1.04858e+06)"
    )
    target = stationary_from_rates(gen.birth, gen.death).probs
    assert err.horizon == 0.0 and err.achieved_tv == total_variation(p0, target)
    assert np.array_equal(err.witness, p0) and not err.witness.flags.writeable
    # a point mass off the two ends has no bound and runs its legs
    assert _passage_bound(gen, _point_mass(gen.dimension, 1), 1e-8) == 0.0


def _former_escape_bound(up, log_weights, tol, log_p=None):
    """The passage-time bound as it was formed for one family of sets
    {0..k}, kept as the witness of _escape_bound: c_k = 1 without log_p,
    else pi(B_k) min p_i / pi_i over B_k for the raw start."""
    below = np.logaddexp.accumulate(log_weights)
    log_c = 0.0
    if log_p is not None:
        lowest = np.minimum.accumulate(log_p - log_weights)
        log_c = np.minimum(below + lowest, 0.0)[:-1]
    with np.errstate(divide="ignore"):
        need = log_c - np.logaddexp(below[:-1] - below[-1], np.log(tol))
    log_flux = np.log(up[:-1]) + log_weights[:-1] - below[:-1]
    open_k = need > 0.0
    if not open_k.any():
        return 0.0
    with np.errstate(over="ignore"):
        return float(np.exp(np.log(need[open_k]) - log_flux[open_k]).max())


def _former_bound(gen, log_weights, p, tol):
    """The larger of the former point-mass horizon (a start on state 0 or
    N, c = 1 on every set) and spread horizon (any start, both families)."""
    point = 0.0
    support = np.flatnonzero(p)
    if support.size == 1 and support[0] == 0:
        point = _former_escape_bound(gen.birth, log_weights, tol)
    elif support.size == 1 and support[0] == gen.dimension - 1:
        point = _former_escape_bound(gen.death[::-1], log_weights[::-1], tol)
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
    spread = max(
        _former_escape_bound(gen.birth, log_weights, tol, log_p),
        _former_escape_bound(gen.death[::-1], log_weights[::-1], tol, log_p[::-1]),
    )
    return max(point, spread)


def _assert_bound_is_the_former_pair(gen, p, tol):
    log_weights = stationary_from_rates(gen.birth, gen.death).log_weights
    bound = master_eq._escape_bound(gen, log_weights, p, tol)
    assert bound == _former_bound(gen, log_weights, p, tol)


@pytest.mark.parametrize("base, capacity", [
    (FIG_A, 100), (FIG_B, 100), (FIG_A, 5000), (FIG_B, 5000),
], ids=["fig1a", "fig1b", "fig2a", "fig2b"])
def test_escape_bound_is_the_former_pair_on_points_and_uniform(base, capacity):
    gen = build_generator(make_params(base, capacity))
    starts = [_point_mass(gen.dimension, i) for i in (0, 1, capacity // 2, capacity - 1, capacity)]
    starts.append(np.full(gen.dimension, 1.0 / gen.dimension))
    for p in starts:
        for tol in (1e-12, 1e-8, 1e-3):
            _assert_bound_is_the_former_pair(gen, p, tol)


@st.composite
def _dyadic_starts(draw, dimension):
    """A start of multiples of 2^-m that sums to exactly 1.0, zero on some
    states, so that the raw and the normalized start are the same floats."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(0, 2**20, dimension) * (rng.random(dimension) < draw(st.floats(0.01, 1.0)))
    total = 1 << int(counts.sum()).bit_length()
    counts[draw(st.integers(0, dimension - 1))] += total - counts.sum()
    p = counts / total
    assert p.sum() == 1.0
    return p


@settings(max_examples=40, deadline=None)
@given(
    params=st.one_of(
        boundary_params(max_capacity=60),
        st.sampled_from([make_params(FIG_A, 5000), make_params(FIG_B, 5000)]),
    ),
    tol=st.sampled_from([1e-12, 1e-8, 1e-3]),
    data=st.data(),
)
def test_escape_bound_is_the_former_pair_on_spread_starts(params, tol, data):
    gen = build_generator(params)
    _assert_bound_is_the_former_pair(gen, data.draw(_dyadic_starts(gen.dimension)), tol)


@pytest.mark.parametrize("capacity", [300, 2000])
def test_a_start_is_bounded_as_normalized(capacity):
    # near the critical lambda every leg puts twice pi back on the simplex,
    # at pi itself; read raw, its shares of pi capped at 1 gave 16.3 at
    # N = 300 and refused N = 2000 with a bound of 1.17e+12
    gen = build_generator(make_params(dict(FIG_A, lam=1.42), capacity))
    p0 = 2.0 * stationary_from_rates(gen.birth, gen.death).probs
    _, horizon, tv = converge_to_stationary(gen, p0, 1e-8)
    assert horizon == 1.0 and tv <= 1e-8
    assert _passage_bound(gen, p0, 1e-8) <= horizon


@contextlib.contextmanager
def _evolve_outputs():
    """Keep every result of the evolve calls made inside master_eq, in order."""
    outputs = []

    def evolve_and_keep(*args):
        outputs.append(evolve(*args))
        return outputs[-1]

    with mock.patch.object(master_eq, "evolve", evolve_and_keep):
        yield outputs


@contextlib.contextmanager
def _recorded_legs():
    """Record every leg converge_to_stationary runs.

    Each record is (start, t, lo, hi, leak, cut, raw): raw is the last
    evolve output of the leg, that is the sub-generator's vector with the
    sinks before the interior is renormalized, or the full-space result.
    """
    legs = []

    def leg(gen, p, t):
        with _evolve_outputs() as outputs:
            probs, lo, hi, leak, cut = _windowed_leg(gen, p, t)
        legs.append((p, t, lo, hi, leak, cut, outputs[-1]))
        return probs, lo, hi, leak, cut

    # every chain takes the windowed route, however small
    with mock.patch.object(master_eq, "_windowed_leg", leg), \
            mock.patch.object(master_eq, "_DENSE_MAX_STATES", 0):
        yield legs


def _reference_converge(gen, p0, tol, max_horizon):
    """converge_to_stationary's doubling legs, each a full-space evolve."""
    target = stationary_from_rates(gen.birth, gen.death).probs
    current, elapsed, horizon = np.array(p0, dtype=float), 0.0, 1.0
    while total_variation(current, target) > tol and elapsed < max_horizon:
        current = evolve(gen, current, horizon)
        elapsed += horizon
        horizon *= 2.0
    return current, elapsed


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dimension=st.integers(2, 400),
    scale=st.floats(0.05, 50.0),
    # birth over death rate: mass drifts up (> 1) or down (< 1)
    bias=st.floats(0.2, 5.0),
    point_mass=st.booleans(),
    tol=st.sampled_from([1e-2, 1e-5, 1e-8]),
)
# strong drifts up and down: the first window of the first legs leaks more
# than _WINDOW_TOL, and those legs are re-run wider
@example(seed=3, dimension=400, scale=50.0, bias=5.0, point_mass=True, tol=1e-8)
@example(seed=4, dimension=300, scale=50.0, bias=0.2, point_mass=True, tol=1e-5)
# a slow chain from state 0, refused before its first leg
@example(seed=25, dimension=3, scale=0.05, bias=5.0, point_mass=True, tol=1e-8)
def test_converge_windows_match_full_space_legs(seed, dimension, scale, bias, point_mass, tol):
    rng = np.random.default_rng(seed)
    gen = _drifting_generator(rng, dimension, scale, bias)
    p0 = _bump_start(rng, dimension, point_mass)
    max_horizon = 64.0

    with _recorded_legs() as legs:
        try:
            probs, horizon, _ = converge_to_stationary(gen, p0, tol, max_horizon=max_horizon)
        except ConvergenceBudgetError as err:
            probs, horizon = err.witness, err.horizon
    expected, expected_horizon = _reference_converge(gen, p0, tol, max_horizon)
    if horizon == 0.0 and expected_horizon:  # refused by the passage-time bound
        target = stationary_from_rates(gen.birth, gen.death).probs
        assert not legs and total_variation(expected, target) > tol
        return

    assert horizon == expected_horizon
    # each leg is within 2 (cut + leak) in l1 of the full-space leg
    errors = sum(2.0 * (leak + cut) for *_, leak, cut, _ in legs)
    assert np.abs(probs - expected).max() <= errors + 2e-12 * len(legs)
    for start, t, lo, hi, leak, cut, raw in legs:
        assert 0.0 <= leak <= _WINDOW_TOL
        assert 0.0 <= cut <= _TRIM_TOL * start.sum()
        # finite state projection: the window's interior never exceeds the
        # exact leg from the same start, up to rounding slack
        interior = raw[int(lo > 0):][:hi - lo + 1]
        assert np.all(interior <= evolve(gen, start, t)[lo:hi + 1] + 2e-12)


def _bump_start(rng, dimension, point_mass):
    """A point mass at a random state, or a random law on up to five states
    from there, so that a projection window is narrower than the chain."""
    p0 = np.zeros(dimension)
    first = int(rng.integers(dimension))
    if point_mass:
        p0[first] = 1.0
    else:
        bump = slice(first, min(first + 5, dimension))
        p0[bump] = rng.dirichlet(np.ones(p0[bump].size))
    return p0


def _drifting_generator(rng, dimension, scale, bias):
    """Random birth-death rates whose ratio drifts up (bias > 1) or down."""
    birth = rng.uniform(0.1, 1.0, dimension) * scale * math.sqrt(bias)
    death = rng.uniform(0.1, 1.0, dimension) * scale / math.sqrt(bias)
    birth[-1] = 0.0
    death[0] = 0.0
    return GeneratorMatrix(birth, death)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dimension=st.integers(2, _DENSE_MAX_STATES),
    scale=st.floats(0.05, 10.0),
    bias=st.floats(0.2, 5.0),
    point_mass=st.booleans(),
    tol=st.sampled_from([1e-2, 1e-5, 1e-8]),
)
@example(seed=5, dimension=_DENSE_MAX_STATES, scale=10.0, bias=5.0, point_mass=True, tol=1e-8)
@example(seed=6, dimension=2, scale=0.05, bias=0.2, point_mass=False, tol=1e-8)
@example(seed=25, dimension=3, scale=0.05, bias=5.0, point_mass=True, tol=1e-8)  # refused
def test_dense_converge_matches_full_space_legs(seed, dimension, scale, bias, point_mass, tol):
    rng = np.random.default_rng(seed)
    gen = _drifting_generator(rng, dimension, scale, bias)
    p0 = _random_start(rng, dimension, point_mass)
    before = p0.copy()
    max_horizon = 64.0

    with mock.patch.object(master_eq, "_windowed_leg", side_effect=AssertionError("windowed")):
        try:
            probs, horizon, tv = converge_to_stationary(gen, p0, tol, max_horizon=max_horizon)
        except ConvergenceBudgetError as err:
            probs, horizon, tv = err.witness, err.horizon, err.achieved_tv
    expected, expected_horizon = _reference_converge(gen, p0, tol, max_horizon)
    target = stationary_from_rates(gen.birth, gen.death).probs

    # a distance within rounding of tol may fall on either side of it
    expected_tv = total_variation(expected, target)
    if horizon == 0.0 and expected_horizon:  # refused by the passage-time bound
        assert expected_tv > tol
        return
    if horizon != expected_horizon:
        assert abs(tv - tol) <= 1e-12 and abs(expected_tv - tol) <= 1e-12
        return
    legs = max(math.log2(horizon + 1.0), 1.0)
    assert np.abs(probs - expected).max() <= 2e-12 * legs
    assert tv == total_variation(probs, target)
    assert np.all(probs >= 0.0) and abs(probs.sum() - 1.0) <= 1e-12
    assert not probs.flags.writeable and not np.shares_memory(probs, p0)
    assert np.array_equal(p0, before) and p0.flags.writeable


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dimension=st.integers(2, _DENSE_MAX_STATES),
    scale=st.floats(0.01, 10.0),
    rate_times_t=st.one_of(st.floats(1e-3, 50.0), st.floats(50.0, 3000.0)),
    point_mass=st.booleans(),
)
@example(seed=1, dimension=_DENSE_MAX_STATES, scale=10.0, rate_times_t=3000.0, point_mass=True)
@example(seed=2, dimension=2, scale=0.01, rate_times_t=1e-3, point_mass=False)
def test_dense_leg_matches_evolve(seed, dimension, scale, rate_times_t, point_mass):
    rng = np.random.default_rng(seed)
    gen = _sparse_generator(rng, dimension, scale)
    rate = gen.uniformization_rate()
    assume(rate > 0.0)
    p0 = _random_start(rng, dimension, point_mass)
    before = p0.copy()
    t = rate_times_t / rate

    with mock.patch.object(master_eq, "evolve", side_effect=AssertionError("uniformization")):
        (out,) = _checkpoints(gen, p0, [t])
    assert np.abs(out - evolve(gen, p0, t)).max() <= 1e-12
    # on the simplex, read-only, and the caller's array untouched
    assert np.all(out >= 0.0) and abs(out.sum() - 1.0) <= 1e-12
    assert not out.flags.writeable and not np.shares_memory(out, p0)
    assert np.array_equal(p0, before)
    assert p0.flags.writeable


def test_leg_checks_like_evolve(fig1a):
    gen = build_generator(fig1a)
    assert gen.dimension <= _DENSE_MAX_STATES
    p0 = np.eye(gen.dimension)[10]
    # the dense route, then the window [0, 74] with its sink at 75
    # each count is two more than the least k whose Poisson tail is at most
    # 1e-12 in mpmath (40 digits): past 19019327 and 15329037 it is
    # 0.9999e-12 and 0.9990e-12, one state before 1.0015e-12 and 1.0008e-12
    for cutoff, terms in ((_DENSE_MAX_STATES, 19019329), (0, 15329039)):
        with mock.patch.object(master_eq, "_DENSE_MAX_STATES", cutoff):
            (same,) = _checkpoints(gen, p0, [0.0])
            assert np.array_equal(same, p0) and not same.flags.writeable
            assert not np.shares_memory(same, p0)
            for t in (math.nan, math.inf):
                for times in ([t], [1.0, t]):
                    with pytest.raises(ValueError, match="evolution time"):
                        list(_checkpoints(gen, p0, times))
            # a negative step needs negative or descending times, refused
            # before the first leg
            for times in ([-1.0], [2.0, 1.0]):
                with pytest.raises(ValueError, match="nonnegative and ascending"):
                    next(_checkpoints(gen, p0, times))
            with pytest.raises(ValueError, match="does not fit"):
                list(_checkpoints(gen, np.eye(5)[0], [1.0]))
            # both routes refuse the legs uniformization cannot sum on the
            # states they evolve: the dense one those of the whole chain
            with pytest.raises(ConvergenceBudgetError, match=f"needs {terms} series terms"):
                list(_checkpoints(gen, p0, [1e5]))
    with pytest.raises(ConvergenceBudgetError, match="needs 19019329 series terms"):
        evolve(gen, p0, 1e5)
    # above the cutoff each leg is _windowed_leg, bit for bit
    with mock.patch.object(master_eq, "_DENSE_MAX_STATES", 0):
        first, second, third = _checkpoints(gen, p0, [1.0, 3.0, 3.0])
    assert first.tobytes() == _windowed_leg(gen, p0, 1.0)[0].tobytes()
    assert second.tobytes() == _windowed_leg(gen, first, 2.0)[0].tobytes()
    assert third is second


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dimension=st.integers(2, 400),
    scale=st.floats(0.05, 50.0),
    bias=st.floats(0.2, 5.0),
    point_mass=st.booleans(),
    # steps between checkpoints, zero steps included
    steps=st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0, 4.0]), min_size=1, max_size=6),
)
@example(seed=3, dimension=400, scale=50.0, bias=5.0, point_mass=True, steps=[1.0, 0.0, 2.0])
def test_windowed_checkpoints_match_full_space_legs(seed, dimension, scale, bias, point_mass, steps):
    rng = np.random.default_rng(seed)
    gen = _drifting_generator(rng, dimension, scale, bias)
    p0 = _bump_start(rng, dimension, point_mass)
    times = np.cumsum(steps).tolist()

    with _recorded_legs() as legs:
        out = list(_checkpoints(gen, p0, times))
    assert len(out) == len(times) and len(legs) == sum(step > 0.0 for step in steps)

    expected, elapsed, done = master_eq._frozen_copy(gen, p0), 0.0, 0
    for t, got in zip(times, out, strict=True):
        if t > elapsed:
            expected = evolve(gen, expected, t - elapsed)
            done += 1
        elapsed = t
        errors = sum(2.0 * (leak + cut) for *_, leak, cut, _ in legs[:done])
        assert np.abs(got - expected).max() <= errors + 2e-12 * done
        assert not got.flags.writeable and abs(got.sum() - 1.0) <= 1e-12
    for start, _, _, _, leak, cut, _ in legs:
        assert 0.0 <= leak <= _WINDOW_TOL
        assert 0.0 <= cut <= _TRIM_TOL * start.sum()


def test_doubling_checkpoint_steps_build_one_propagator(fig1a):
    # steps 1, 2, 4, ..., 64: every leg after the first squares the last
    # propagator, since rate * 1 > 0.5 needs a halving
    gen = build_generator(fig1a)
    assert gen.uniformization_rate() > 0.5
    times = [2.0**k - 1.0 for k in range(1, 8)]
    with mock.patch.object(
        master_eq, "_poisson_mixture", wraps=master_eq._poisson_mixture
    ) as series:
        out = list(_checkpoints(gen, np.eye(gen.dimension)[-1], times))
    assert series.call_count == 1 and len(out) == 7


def test_checkpoint_legs_match_fresh_propagators(fig1a):
    # repeated, doubled and zero steps, both short of one halving
    # (rate * step <= 0.5) and past several: every leg is a fresh scaling
    # and squaring, the same bits as one _dense_propagator per step
    gen = build_generator(fig1a)
    p0 = np.eye(gen.dimension)[-1]
    short = 0.25 / gen.uniformization_rate()
    for unit in (short, 0.5):
        times = [unit * k for k in (1, 2, 4, 5, 6, 8, 8, 16)]
        out = list(_checkpoints(gen, p0, times))
        p, elapsed = master_eq._frozen_copy(gen, p0), 0.0
        for t, got in zip(times, out, strict=True):
            if t > elapsed:
                fresh = _dense_propagator(gen, t - elapsed)
                p = master_eq._on_simplex(master_eq._product(fresh, p))
            elapsed = t
            assert got.tobytes() == p.tobytes()


def test_a_doubled_step_past_a_power_of_two_squares_like_a_fresh_build(fig1a):
    # rate * step = 128 (1 + 2 eps): math.log2 rounds rate * 2 step to 8.0
    # and rate * step up past 7, so its ceiling would count 8 halvings for
    # both, and squaring the shorter leg's propagator would square a
    # different base than a fresh build
    gen = build_generator(fig1a)
    rate = gen.uniformization_rate()
    step = 128.0 / rate
    while math.ceil(math.log2(rate * (2.0 * step))) != math.ceil(math.log2(rate * step)):
        step = math.nextafter(step, math.inf)
    assert rate * step == 128.0 * (1.0 + 2.0 * np.finfo(float).eps)
    squared = _dense_propagator(gen, 2.0 * step, (step, _dense_propagator(gen, step)))
    assert squared.tobytes() == _dense_propagator(gen, 2.0 * step).tobytes()


def test_dense_leg_bits_do_not_depend_on_blas_threads():
    # BLAS matrix products round differently with the number of threads;
    # the dense route stays out of them, so a leg is the same bits either way
    script = (
        "import sys, numpy as np\n"
        "from alleechain import build_generator, params_from_config\n"
        "from alleechain.cli import PRESETS\n"
        "from alleechain.master_eq import _checkpoints\n"
        "gen = build_generator(params_from_config(PRESETS['fig1b']))\n"
        "(p,) = _checkpoints(gen, np.eye(gen.dimension)[-1], [500.0])\n"
        "sys.stdout.write(p.tobytes().hex())\n"
    )
    src = str(Path(master_eq.__file__).parents[1])
    runs = [
        subprocess.run(
            [sys.executable, "-c", script], check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                 "OMP_NUM_THREADS": threads},
        ).stdout
        for threads in ("1", "2")
    ]
    assert runs[0] and runs[0] == runs[1]


def test_fig2a_converge_stays_in_small_windows(fig2a):
    gen = build_generator(fig2a)
    with _recorded_legs() as legs:
        probs, horizon, achieved_tv = converge_to_stationary(
            gen, np.eye(gen.dimension)[0], 1e-8
        )
    assert horizon == 31.0 and achieved_tv <= 1e-8
    assert [t for _, t, *_ in legs] == [1.0, 2.0, 4.0, 8.0, 16.0]
    # the trimmed support stops following the mass once it has settled:
    # the last two legs share one window (dust would widen them to 256, 320)
    assert legs[-1][2:4] == legs[-2][2:4]
    for _, _, lo, hi, leak, _, raw in legs:
        assert lo == 0 and hi <= 200 and raw.size <= 202
        assert leak <= _WINDOW_TOL
    assert not probs.flags.writeable and probs.sum() == pytest.approx(1.0, abs=1e-15)


def test_windowed_leg_widens_until_the_leak_is_small():
    # births at rate 50, deaths at 0.5: over t = 2 the mass drifts ~100
    # states, beyond the first margin, and the leg is re-run wider
    dimension = 600
    birth = np.full(dimension, 50.0)
    death = np.full(dimension, 0.5)
    birth[-1] = death[0] = 0.0
    gen = GeneratorMatrix(birth, death)
    p = np.eye(dimension)[0]
    with _evolve_outputs() as attempts:
        probs, lo, hi, leak, cut = _windowed_leg(gen, p, 2.0)
    exact = evolve(gen, p, 2.0)
    assert lo == 0 and master_eq._WINDOW_MARGIN < hi < dimension - 1
    assert leak <= _WINDOW_TOL and cut == 0.0
    assert np.abs(probs - exact).max() <= leak + 2e-12

    # the rejected first window [0, 64] with its sink at 65: the interior is
    # a lower bound on the exact leg, and the sink holds at least the exact
    # mass beyond the window (mass that left may not come back)
    first = attempts[0]
    edge = master_eq._WINDOW_MARGIN
    assert first.size == edge + 2 and len(attempts) >= 2
    assert np.all(first[:edge + 1] <= exact[:edge + 1] + 2e-12)
    assert first[-1] >= exact[edge + 1:].sum() - 2e-12
    assert first[-1] > _WINDOW_TOL


def test_windowed_leg_on_the_whole_space_is_evolve(fig1a):
    gen = build_generator(fig1a)
    p = np.full(gen.dimension, 1.0 / gen.dimension)
    probs, lo, hi, leak, cut = _windowed_leg(gen, p, 3.0)
    assert (lo, hi, leak, cut) == (0, gen.dimension - 1, 0.0, 0.0)
    assert probs.tobytes() == evolve(gen, p, 3.0).tobytes()


def _untrimmed_leg(gen, p, t):
    """The window leg as it was before the trim, its support the nonzero
    entries of p, kept as the witness of _windowed_leg at _TRIM_TOL = 0:
    (probs, lo, hi, leak)."""
    last = gen.dimension - 1
    support = np.flatnonzero(p)
    margin = master_eq._WINDOW_MARGIN
    while True:
        lo, hi = max(int(support[0]) - margin, 0), min(int(support[-1]) + margin, last)
        if lo == 0 and hi == last:
            return evolve(gen, p, t), 0, last, 0.0
        start, stop = max(lo - 1, 0), min(hi + 2, last + 1)
        sinks = [0] * (lo > 0) + [stop - start - 1] * (hi < last)
        birth, death = gen.birth[start:stop].copy(), gen.death[start:stop].copy()
        birth[sinks] = death[sinks] = 0.0
        sub = evolve(GeneratorMatrix(birth, death), p[start:stop], t)
        leak = float(sub[sinks].sum())
        if leak <= _WINDOW_TOL:
            probs = np.zeros(gen.dimension)
            probs[lo:hi + 1] = sub[lo - start:hi + 1 - start]
            return master_eq._on_simplex(probs), lo, hi, leak
        margin *= 2


def _assert_untrimmed_legs(gen, p0, steps):
    """With _TRIM_TOL = 0 each leg from p0 over steps is the untrimmed leg:
    the same window, leak and bits, and no cut."""
    p = master_eq._frozen_copy(gen, p0)
    with mock.patch.object(master_eq, "_TRIM_TOL", 0.0):
        for t in steps:
            probs, lo, hi, leak, cut = _windowed_leg(gen, p, t)
            former, *window = _untrimmed_leg(gen, p, t)
            assert (lo, hi, leak, cut) == (*window, 0.0)
            assert probs.tobytes() == former.tobytes()
            p = probs


def test_untrimmed_fig2a_converge_legs_are_the_former_windows(fig2a):
    gen = build_generator(fig2a)
    _assert_untrimmed_legs(gen, np.eye(gen.dimension)[0], [1.0, 2.0, 4.0, 8.0, 16.0])


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dimension=st.integers(2, 400),
    scale=st.floats(0.05, 50.0),
    bias=st.floats(0.2, 5.0),
    point_mass=st.booleans(),
    steps=st.lists(st.sampled_from([0.1, 0.5, 1.0, 2.0, 4.0]), min_size=1, max_size=4),
)
def test_untrimmed_legs_are_the_former_windows(seed, dimension, scale, bias, point_mass, steps):
    rng = np.random.default_rng(seed)
    gen = _drifting_generator(rng, dimension, scale, bias)
    _assert_untrimmed_legs(gen, _bump_start(rng, dimension, point_mass), steps)


def test_dust_around_a_point_mass_is_trimmed_to_its_window(fig2a):
    # uniformization leaves dust down to ~1e-300 on every state it reached;
    # cut, it leaves the point mass's own window, start and bits
    gen = build_generator(fig2a)
    point = np.eye(gen.dimension)[2500]
    dusty = np.full(gen.dimension, 1e-300)
    dusty[2500] = 1.0
    got, clean = (_windowed_leg(gen, p, 0.01) for p in (dusty, point))
    assert clean[1:] == (2436, 2564, clean[3], 0.0) and got[1:4] == clean[1:4]
    assert got[0].tobytes() == clean[0].tobytes()
    assert got[4] == pytest.approx(5000e-300, rel=1e-12)


def test_mass_at_both_ends_keeps_the_whole_space(fig2a):
    gen = build_generator(fig2a)
    p = np.full(gen.dimension, 1e-300)
    p[[0, -1]] = 0.5
    probs, lo, hi, leak, cut = _windowed_leg(gen, p, 0.01)
    assert (lo, hi, leak, cut) == (0, gen.dimension - 1, 0.0, 0.0)
    assert probs.tobytes() == evolve(gen, p, 0.01).tobytes()


def test_an_unnormalized_start_is_cut_relative_to_its_sum(fig2a):
    # 1.2e-14 at each end is 4e-15 of a start of mass 3, under the 5e-15
    # each side may lose, but 1.2e-14 of a start of mass 1
    gen = build_generator(fig2a)
    p = np.zeros(gen.dimension)
    p[[0, -1]] = 1.2e-14
    p[2500] = 3.0
    probs, lo, hi, leak, cut = _windowed_leg(gen, p, 0.01)
    assert (lo, hi) == (2436, 2564) and cut == 2.4e-14 <= _TRIM_TOL * p.sum()
    exact = evolve(gen, p, 0.01)
    assert np.abs(probs - exact).sum() <= 2.0 * (cut / p.sum() + leak) + 1e-13
    p[2500] = 1.0
    assert _windowed_leg(gen, p, 0.01)[1:] == (0, gen.dimension - 1, 0.0, 0.0)


@pytest.mark.parametrize("dust", [1e-18, 1.0001e-18])
@pytest.mark.parametrize("dust_above", [False, True], ids=["below", "above"])
def test_dust_at_the_threshold_is_cut_within_half_the_tolerance(fig2a, dust_above, dust):
    # 5000 entries of dust on one side of a point mass: about 5e-15 in all,
    # the share each side may lose; the end on the dust's side comes from
    # the sums taken from that side, since 1 + 1e-18 rounds to 1. Over
    # t = 1e-3 the mass moves a few states, so the first window holds.
    gen = build_generator(fig2a)
    p = np.full(gen.dimension, dust)
    p[-1] = 1.0
    if dust_above:
        p = p[::-1].copy()
    share = 0.5 * _TRIM_TOL * p.sum()
    probs, lo, hi, leak, cut = _windowed_leg(gen, p, 1e-3)
    margin = master_eq._WINDOW_MARGIN
    # the support's end on the dust's side, and the states cut there
    if dust_above:
        assert lo == 0
        kept, dropped = p[hi - margin:], p[hi - margin + 1:]
    else:
        assert hi == gen.dimension - 1
        kept, dropped = p[:lo + margin + 1][::-1], p[:lo + margin][::-1]
    assert leak <= _WINDOW_TOL and cut <= share
    assert cut == pytest.approx(math.fsum(dropped), rel=1e-12, abs=0.0)
    # the support is the smallest: one more state would cut more than share
    assert math.fsum(kept) > share * (1.0 - 1e-12)
    assert (dropped.size == 5000) == (dust == 1e-18)


def test_total_variation_known_values():
    assert total_variation([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert total_variation([0.7, 0.3], [0.4, 0.6]) == pytest.approx(0.3)
