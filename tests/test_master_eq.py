"""Generator assembly and uniformized master-equation evolution."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammaln, logsumexp

from alleechain import (
    ConvergenceBudgetError,
    GeneratorMatrix,
    ModelParams,
    build_generator,
    converge_to_stationary,
    evolve,
    psd_product,
    total_variation,
)

from alleechain.cli import _start_vector

from conftest import FIG_A, FIG_B, make_params


def _dense(gen):
    """Q as a full matrix, column j being Q applied to the unit vector e_j."""
    return np.column_stack([gen.apply(e) for e in np.eye(gen.dimension)])


def test_two_state_generator_by_hand():
    gen = GeneratorMatrix.from_rates([1.0, 2.0, 0.0], [0.0, 1.0, 4.0])
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


def _reference_evolve(gen, p0, t, truncation_tol=1e-12):
    """The allocating uniformization loop, summing every Poisson term."""
    rate = gen.uniformization_rate()
    lt = rate * t
    last = int(stats.poisson.isf(truncation_tol, lt)) + 1
    k = np.arange(last + 1, dtype=float)
    log_w = k * math.log(lt) - gammaln(k + 1.0) - lt
    weights = np.exp(log_w - logsumexp(log_w))
    v = np.array(p0, dtype=float)
    acc = weights[0] * v
    for j in range(1, last + 1):
        v = v + _reference_apply(gen, v) / rate
        acc += weights[j] * v
    acc = np.clip(acc, 0.0, None)
    return acc / acc.sum(), weights


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
    birth = rng.uniform(0.0, scale, dimension) * (rng.random(dimension) < 0.9)
    death = rng.uniform(0.0, scale, dimension) * (rng.random(dimension) < 0.9)
    birth[-1] = 0.0
    death[0] = 0.0
    gen = GeneratorMatrix.from_rates(birth, death)
    rate = gen.uniformization_rate()
    assume(rate > 0.0)
    if point_mass:
        p0 = np.eye(dimension)[int(rng.integers(dimension))]
    else:
        p0 = rng.dirichlet(np.ones(dimension))
    before = p0.copy()
    t = rate_times_t / rate

    v = rng.uniform(0.0, 1.0, dimension)
    assert gen.apply(v).tobytes() == _reference_apply(gen, v).tobytes()

    out = evolve(gen, p0, t)
    expected, weights = _reference_evolve(gen, p0, t)
    assert np.array_equal(out, expected)
    assert out.tobytes() == expected.tobytes()  # the sign of zeros too
    if rate * t > 800.0:
        assert weights[0] == 0.0
    # on the simplex, read-only, and the caller's array untouched
    assert np.all(out >= 0.0) and abs(out.sum() - 1.0) <= 1e-12
    assert not out.flags.writeable and not np.shares_memory(out, p0)
    assert np.array_equal(p0, before)
    assert p0.flags.writeable


def test_generator_rejects_bad_rates():
    with pytest.raises(ValueError):
        GeneratorMatrix.from_rates([1.0, 1.0], [0.0, 1.0])  # b[N] != 0
    with pytest.raises(ValueError):
        GeneratorMatrix.from_rates([1.0, 0.0], [0.5, 1.0])  # d[0] != 0
    with pytest.raises(ValueError):
        GeneratorMatrix.from_rates([-1.0, 0.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        GeneratorMatrix.from_rates([0.0], [0.0])


def test_from_rates_leaves_caller_arrays_alone():
    b = np.array([1.0, 2.0, 0.0])
    d = np.array([0.0, 1.0, 4.0])
    gen = GeneratorMatrix.from_rates(b, d)
    assert b.flags.writeable and d.flags.writeable
    assert not gen.birth.flags.writeable and not gen.death.flags.writeable
    b[0] = 7.0
    d[1] = 7.0
    assert gen.birth[0] == 1.0 and gen.death[1] == 1.0


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
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="evolution time"):
            evolve(gen, p0, t)
    with pytest.raises(ValueError):
        evolve(gen, np.eye(5)[0], 1.0)
    with pytest.raises(ValueError):
        evolve(gen, np.eye(gen.dimension)[:2], 1.0)


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


def test_evolve_term_budget_error(fig1a):
    # t = 1e5 needs 19,019,328 series terms; the budget check comes first
    gen = build_generator(fig1a)
    p0 = np.eye(gen.dimension)[0]
    with pytest.raises(ConvergenceBudgetError, match="needs 19019328 series terms"):
        evolve(gen, p0, 1e5)


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


def test_total_variation_known_values():
    assert total_variation([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert total_variation([0.7, 0.3], [0.4, 0.6]) == pytest.approx(0.3)
