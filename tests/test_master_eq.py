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
    ProbabilityVector,
    build_generator,
    converge_to_stationary,
    evolve,
    psd_product,
    total_variation,
)

from conftest import FIG_A, FIG_B, make_params


def test_two_state_generator_by_hand():
    gen = GeneratorMatrix.from_rates([1.0, 2.0, 0.0], [0.0, 1.0, 4.0])
    expected = np.array([
        [-1.0, 1.0, 0.0],
        [1.0, -3.0, 4.0],
        [0.0, 2.0, -4.0],
    ])
    assert np.array_equal(gen.dense(), expected)
    assert gen.dimension == 3
    assert gen.capacity_n == 2


def test_columns_sum_to_zero(corpus):
    for entry in corpus[:5]:
        gen = build_generator(ModelParams.from_constants(capacity_n=40, **entry))
        assert np.abs(gen.dense().sum(axis=0)).max() <= 1e-10


def test_apply_matches_dense(fig1a):
    gen = build_generator(fig1a)
    rng = np.random.default_rng(7)
    v = rng.uniform(0.0, 1.0, size=gen.dimension)
    assert np.allclose(gen.apply(v), gen.dense() @ v, rtol=1e-12, atol=1e-12)


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
    v = p0.probs.copy()
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
        p0 = ProbabilityVector.point_mass(int(rng.integers(dimension)), dimension)
    else:
        p0 = ProbabilityVector.from_probs(rng.dirichlet(np.ones(dimension)))
    before = p0.probs.copy()
    t = rate_times_t / rate

    v = rng.uniform(0.0, 1.0, dimension)
    assert gen.apply(v).tobytes() == _reference_apply(gen, v).tobytes()

    out = evolve(gen, p0, t)
    expected, weights = _reference_evolve(gen, p0, t)
    assert np.array_equal(out.probs, expected)
    assert out.probs.tobytes() == expected.tobytes()  # the sign of zeros too
    if rate * t > 800.0:
        assert weights[0] == 0.0
    assert np.array_equal(p0.probs, before)
    assert not p0.probs.flags.writeable


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


def test_probability_vector_validation():
    with pytest.raises(ValueError):
        ProbabilityVector.from_probs([0.5, 0.6])
    with pytest.raises(ValueError):
        ProbabilityVector.from_probs([-0.2, 1.2])
    # a tiny negative rounding residue is clamped, not rejected
    p = ProbabilityVector.from_probs([1.0, -1e-15])
    assert p.probs[1] == 0.0
    assert p.probs.sum() == pytest.approx(1.0, abs=1e-15)


def test_point_mass_and_uniform():
    p = ProbabilityVector.point_mass(3, 6)
    assert p.probs[3] == 1.0 and p.probs.sum() == 1.0
    with pytest.raises(ValueError):
        ProbabilityVector.point_mass(6, 6)
    u = ProbabilityVector.uniform(4)
    assert np.allclose(u.probs, 0.25)


def test_evolve_zero_time_identity(fig1a):
    gen = build_generator(fig1a)
    p0 = ProbabilityVector.point_mass(10, gen.dimension)
    out = evolve(gen, p0, 0.0)
    assert out is p0


def test_evolve_rejects_bad_inputs(fig1a):
    gen = build_generator(fig1a)
    p0 = ProbabilityVector.point_mass(0, gen.dimension)
    with pytest.raises(ValueError):
        evolve(gen, p0, -1.0)
    with pytest.raises(ValueError):
        evolve(gen, ProbabilityVector.point_mass(0, 5), 1.0)


def test_evolve_preserves_stationary_distribution():
    p = make_params(FIG_A, 40)
    gen = build_generator(p)
    psd = ProbabilityVector.from_probs(psd_product(p).probs)
    for t in (0.7, 13.0, 257.0):
        out = evolve(gen, psd, t)
        assert total_variation(out.probs, psd.probs) <= 1e-10


def test_evolve_simplex_and_time_stamps():
    p = make_params(FIG_B, 30)
    gen = build_generator(p)
    out = evolve(gen, ProbabilityVector.point_mass(5, gen.dimension, time=2.0), 3.5)
    assert out.time == pytest.approx(5.5)
    assert np.all(out.probs >= 0.0)
    assert abs(out.probs.sum() - 1.0) <= 1e-12


def test_evolve_semigroup_property():
    p = make_params(FIG_A, 30)
    gen = build_generator(p)
    p0 = ProbabilityVector.uniform(gen.dimension)
    for s, t in ((0.3, 1.7), (2.5, 0.25), (5.0, 5.0)):
        two_leg = evolve(gen, evolve(gen, p0, s), t)
        one_leg = evolve(gen, p0, s + t)
        assert total_variation(two_leg.probs, one_leg.probs) <= 1e-10


def test_evolve_long_time_reaches_product_formula():
    """Point mass at 10, N = 20: the semigroup limit is the product PSD."""
    p = make_params(FIG_A, 20)
    gen = build_generator(p)
    out = evolve(gen, ProbabilityVector.point_mass(10, gen.dimension), 300.0)
    assert total_variation(out.probs, psd_product(p).probs) <= 1e-8


def test_evolve_term_budget_error(fig1a):
    gen = build_generator(fig1a)
    p0 = ProbabilityVector.point_mass(0, gen.dimension)
    with pytest.raises(ConvergenceBudgetError):
        evolve(gen, p0, 100.0, max_terms=10)


def test_converge_from_point_mass():
    p = make_params(FIG_A, 50)
    gen = build_generator(p)
    witness, horizon, achieved_tv = converge_to_stationary(
        gen, ProbabilityVector.point_mass(0, gen.dimension), 1e-8
    )
    assert total_variation(witness.probs, psd_product(p).probs) <= 1e-8
    assert achieved_tv == total_variation(witness.probs, psd_product(p).probs)
    assert horizon == pytest.approx(255.0)


def test_converge_vacuous_tolerance(fig1b):
    gen = build_generator(fig1b)
    p0 = ProbabilityVector.uniform(gen.dimension)
    witness, horizon, _ = converge_to_stationary(gen, p0, 1.0)
    assert horizon == 0.0
    assert witness is p0


def test_converge_budget_reports_progress():
    p = make_params(FIG_B, 50)
    gen = build_generator(p)
    p0 = ProbabilityVector.point_mass(0, gen.dimension)
    with pytest.raises(ConvergenceBudgetError) as exc_info:
        converge_to_stationary(gen, p0, 1e-12, max_horizon=2.0)
    err = exc_info.value
    assert err.achieved_tv is not None and err.achieved_tv > 1e-12
    assert err.horizon >= 2.0
    assert err.witness is not None


def test_total_variation_known_values():
    assert total_variation([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert total_variation([0.7, 0.3], [0.4, 0.6]) == pytest.approx(0.3)
