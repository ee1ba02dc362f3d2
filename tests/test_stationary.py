"""Stationary distribution: product formula, oracle, mode geometry."""

from __future__ import annotations

import io
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import alleechain
from alleechain import (
    ComplexRootError,
    DegenerateDistributionError,
    ModelParams,
    OracleSolveError,
    StationaryDistribution,
    check_assumptions,
    discrete_markov_exponent,
    equilibria,
    mode_cubic_coefficients,
    mode_profile,
    mode_scaling_check,
    psd_nullspace_oracle,
    psd_product,
    solve_mode_cubic,
    stationary_from_rates,
    stationary_nullspace_from_rates,
)
from alleechain.model import rate_arrays
from alleechain.stationary import ORACLE_MAX_CAPACITY, _logsumexp

from conftest import FIG_A, FIG_B, boundary_params, make_params


def tv(p, q) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def test_two_state_synthetic_chain():
    """b = (1, 2), d = (1, 4) gives weights (1, 1, 1/2) by hand."""
    dist = stationary_from_rates([1.0, 2.0, 0.0], [0.0, 1.0, 4.0])
    assert dist.capacity_n == 2
    assert np.allclose(np.exp(dist.log_weights), [1.0, 1.0, 0.5], atol=1e-15)
    assert np.allclose(dist.probs, [0.4, 0.4, 0.2], atol=1e-15)


def test_one_step_chain_splits_evenly():
    dist = stationary_from_rates([3.0, 0.0], [0.0, 3.0])
    assert np.allclose(dist.probs, [0.5, 0.5], atol=1e-15)


def test_absorbing_origin_is_degenerate():
    with pytest.raises(DegenerateDistributionError):
        stationary_from_rates([0.0, 2.0, 0.0], [0.0, 1.0, 4.0])


def test_oracle_refuses_an_absorbing_origin():
    with pytest.raises(DegenerateDistributionError, match="^state 0 is absorbing"):
        stationary_nullspace_from_rates([0.0, 2.0, 0.0], [0.0, 1.0, 4.0])


def test_interior_zero_rate_rejected():
    with pytest.raises(ValueError):
        stationary_from_rates([1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        stationary_from_rates([1.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_non_finite_or_negative_rates_rejected(bad):
    # a NaN birth rate gave NaN probabilities
    for birth, death in (([1.0, bad, 0.0], [0.0, 1.0, 1.0]), ([1.0, 1.0, 0.0], [0.0, bad, 1.0])):
        with pytest.raises(ValueError, match=r"^rates must be finite and >= 0$"):
            stationary_from_rates(birth, death)


def test_nonzero_final_birth_rejected():
    with pytest.raises(ValueError):
        stationary_from_rates([1.0, 1.0], [0.0, 1.0])


@pytest.mark.parametrize("solve", [stationary_from_rates, stationary_nullspace_from_rates])
@pytest.mark.parametrize("birth, death, message", [
    ([1.0, 1.0, 0.0], [0.5, 1.0, 1.0], r"death rate at state 0 must be exactly 0"),
    ([1.0, 1.0, 1.0], [0.0, 1.0, 1.0], r"birth rate at capacity must be exactly 0"),
    ([1.0, -1.0, 0.0], [0.0, 1.0, 1.0], r"rates must be finite and >= 0"),
    ([1.0, 1.0, 0.0], [0.0, math.nan, 1.0], r"rates must be finite and >= 0"),
    ([1.0, 0.0], [0.0, 1.0, 1.0], r"birth and death must be equal-length vectors over states 0\.\.N"),
], ids=["death-at-0", "birth-at-N", "negative", "nan", "shape"])
def test_both_solvers_refuse_the_same_rates(solve, birth, death, message):
    # the product formula ignored d[0]; the oracle answered the first three
    # with OracleSolveError and the NaN with scipy's own message
    with pytest.raises(ValueError, match=f"^{message}$") as exc_info:
        solve(birth, death)
    assert exc_info.type is ValueError


def test_normalization_and_log_consistency(corpus):
    for entry in corpus[:10]:
        p = ModelParams.from_constants(capacity_n=1000, **entry)
        dist = psd_product(p)
        assert abs(dist.probs.sum() - 1.0) <= 1e-12
        # positivity lives in the log representation; probs may underflow
        assert np.all(np.isfinite(dist.log_weights))
        normalized_log = dist.log_weights - logsumexp(dist.log_weights)
        assert np.all(dist.probs[normalized_log > -700.0] > 0.0)
        rebuilt = np.exp(normalized_log)
        assert np.allclose(dist.probs, rebuilt, rtol=1e-12, atol=0.0)


def test_large_capacity_underflow_path():
    """At N = 10^5 the raw weights underflow; log-domain carries through."""
    p = make_params(FIG_A, 100_000)
    dist = psd_product(p)
    assert abs(dist.probs.sum() - 1.0) <= 1e-12
    assert np.all(np.isfinite(dist.log_weights))
    # the far tail is genuinely below the float floor without logs
    assert dist.log_weights.min() < -800.0


def test_detailed_balance_from_log_weights(corpus):
    """b(i) p_i = d(i+1) p_{i+1} to 1e-10 relative, straight off the logs."""
    for entry in corpus[:5]:
        p = ModelParams.from_constants(capacity_n=100_000, **entry)
        b, d = rate_arrays(p)
        lw = psd_product(p).log_weights
        log_flux_gap = (np.log(b[:-1]) + lw[:-1]) - (np.log(d[1:]) + lw[1:])
        assert np.abs(np.expm1(log_flux_gap)).max() <= 1e-10


def test_product_matches_oracle_sampled(corpus):
    for entry in corpus[:10]:
        for n in (10, 50, 200):
            p = ModelParams.from_constants(capacity_n=n, **entry)
            assert tv(psd_product(p).probs, psd_nullspace_oracle(p).probs) <= 1e-9


def _bordered_system(b, d) -> np.ndarray:
    """Q with its last balance row replaced by ones: M p = e_N normalizes p."""
    n = b.size
    idx = np.arange(n)
    m = np.zeros((n, n))
    m[idx, idx] = -(b + d)
    m[idx[1:], idx[:-1]] = b[:-1]
    m[idx[:-1], idx[1:]] = d[1:]
    m[-1, :] = 1.0
    return m


@settings(max_examples=100, deadline=None)
@given(params=boundary_params())
@example(params=make_params(FIG_A, 300))
@example(params=ModelParams.from_constants(
    lam=1.5, mu=1.0, delta1=0.0, delta2=0.0, delta3=2.0, theta=0.125, capacity_n=212, r1=1.0,
))
def test_product_matches_oracle_across_assumption_bounds(params):
    """The product formula lies within the oracle's a-posteriori error bound.

    Off the admissible set the dense solve loses accuracy: on the second
    example its TV distance to a 50-digit product formula is 1.0e-9 (the
    float product's is 1e-15), and a targeted search over the strategy
    finds draws beyond 1e-7. So the tolerance is the oracle's own bound
    ||p - p_exact||_1 <= ||M^-1||_1 ||M p - e_N||_1 for the bordered system
    it solves, with the residual taken in long double.

    Where the exact p_0 is far below float resolution the dense solve may
    not resolve it, and the oracle raises instead: of 4000 draws (hypothesis
    seed 20261019) 421 did with BLAS on one thread and 418 on two, each
    with a product-formula p_0 of at most 8.3e-30. Others were resolved
    down to a p_0 of 2.7e-75.
    """
    report = check_assumptions(params)
    event(f"bistable={report.bistability_holds}, interior={report.capacity_interior}")
    try:
        oracle = psd_nullspace_oracle(params).probs
    except OracleSolveError as exc:
        assert "clipped p_0" in str(exc)
        assert psd_product(params).probs[0] < 1e-20
        return
    m = _bordered_system(*rate_arrays(params))
    residual = m.astype(np.longdouble) @ oracle.astype(np.longdouble)
    residual[-1] -= 1.0
    bound = 0.5 * np.linalg.norm(np.linalg.inv(m), 1) * float(np.abs(residual).sum())
    assert tv(psd_product(params).probs, oracle) <= bound + 1e-13


def test_oracle_rejects_clipped_p0():
    # The product formula's p_0 is 2.8e-57; the dense solve clips it to 0.
    p = ModelParams.from_constants(
        lam=1.81, mu=0.547, delta1=0.0, delta2=0.0, delta3=1.88, theta=0.267,
        capacity_n=212, r1=0.68,
    )
    with pytest.raises(OracleSolveError, match="clipped p_0"):
        psd_nullspace_oracle(p)


def test_oracle_rejects_clipped_p0_on_any_blas_thread_count():
    # the dense solve leaves p_0 at rounding noise that differs with the
    # number of BLAS threads (1.97e-34 on one, -1.28e-34 on two); either way
    # it is below what the solve resolves
    script = (
        "from alleechain import ModelParams, OracleSolveError, psd_nullspace_oracle\n"
        "p = ModelParams.from_constants(lam=1.81, mu=0.547, delta1=0.0, delta2=0.0,\n"
        "    delta3=1.88, theta=0.267, capacity_n=212, r1=0.68)\n"
        "try:\n"
        "    psd_nullspace_oracle(p)\n"
        "except OracleSolveError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(alleechain.__file__).parents[1])
    for threads in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", script], check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                 "OMP_NUM_THREADS": threads},
        ).stdout
        assert "clipped p_0" in out, (threads, out)


def test_oracle_factors_the_bordered_system_once(monkeypatch):
    # the solve, both refinement passes and the row of the inverse share
    # one LU factorization
    factor = mock.Mock(wraps=scipy.linalg.lu_factor)
    monkeypatch.setattr(scipy.linalg, "lu_factor", factor)
    for name in ("solve", "inv"):
        monkeypatch.setattr(np.linalg, name, mock.Mock(side_effect=AssertionError(name)))
    dist = psd_nullspace_oracle(make_params(FIG_A, 200))
    assert factor.call_count == 1
    assert tv(dist.probs, psd_product(make_params(FIG_A, 200)).probs) <= 1e-9


def test_oracle_refuses_a_singular_system_quietly():
    # two closed classes {0, 1} and {2, 3}: the bordered matrix has rank 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OracleSolveError, match="^bordered system is singular"):
            stationary_nullspace_from_rates([1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0])


def test_oracle_residual_is_tiny():
    p = make_params(FIG_A, 200)
    dist = psd_nullspace_oracle(p)
    b, d = rate_arrays(p)
    q = np.zeros((201, 201))
    idx = np.arange(201)
    q[idx, idx] = -(b + d)
    q[idx[1:], idx[:-1]] = b[:-1]
    q[idx[:-1], idx[1:]] = d[1:]
    assert np.abs(q @ dist.probs).max() <= 1e-10


def test_oracle_capacity_cap():
    p = make_params(FIG_A, ORACLE_MAX_CAPACITY + 1)
    with pytest.raises(ValueError):
        psd_nullspace_oracle(p)


def test_synthetic_rates_oracle_agreement():
    rng = np.random.default_rng(99)
    b = np.append(rng.uniform(0.5, 3.0, size=30), 0.0)
    d = np.concatenate([[0.0], rng.uniform(0.5, 3.0, size=30)])
    assert tv(
        stationary_from_rates(b, d).probs,
        stationary_nullspace_from_rates(b, d).probs,
    ) <= 1e-12


def test_mode_profile_reference_set_a(fig1a):
    prof = mode_profile(psd_product(fig1a))
    assert prof.bimodal
    assert prof.major_mode == 0
    assert prof.i_plus == 39
    assert prof.minor_mode == 39
    assert prof.i_minus == 12
    assert prof.segments == (
        (0, 12, "decreasing"),
        (12, 39, "increasing"),
        (39, 100, "decreasing"),
    )


def test_mode_profile_reference_set_b(fig1b):
    prof = mode_profile(psd_product(fig1b))
    assert prof.bimodal
    assert prof.major_mode == 37
    assert prof.minor_mode == 0
    assert prof.i_plus == 37
    assert prof.i_minus == 6


def test_bimodality_fades_with_capacity():
    """Minor-to-major mass ratio shrinks when N grows from 100 to 500."""
    for base in (FIG_A, FIG_B):
        ratios = []
        for n in (100, 500):
            dist = psd_product(make_params(base, n))
            prof = mode_profile(dist)
            assert prof.bimodal
            ratios.append(dist.probs[prof.minor_mode] / dist.probs[prof.major_mode])
        assert ratios[1] < ratios[0]


def test_monotone_distribution_has_no_interior_mode():
    dist = stationary_from_rates([1.0, 1.0, 1.0, 0.0], [0.0, 2.0, 2.0, 2.0])
    prof = mode_profile(dist)
    assert not prof.bimodal
    assert prof.major_mode == 0
    assert prof.i_plus is None
    assert prof.i_minus is None
    assert prof.minor_mode is None
    assert prof.segments == ((0, 3, "decreasing"),)


def _segments_by_loop(lw):
    """Reference decomposition: one step at a time, zero steps keep the last direction."""
    dirs = []
    for step in np.diff(lw):
        dirs.append(1 if step > 0 else -1 if step < 0 else (dirs[-1] if dirs else -1))
    segments, start = [], 0
    for k in range(1, len(dirs)):
        if dirs[k] != dirs[k - 1]:
            segments.append((start, k, "increasing" if dirs[k - 1] > 0 else "decreasing"))
            start = k
    segments.append((start, len(lw) - 1, "increasing" if dirs[-1] > 0 else "decreasing"))
    return tuple(segments)


def test_monotone_segments_match_loop_reference():
    rng = np.random.default_rng(3)
    cases = [np.zeros(4), np.array([0.0, 0.0, 1.0, 1.0, 0.0]), np.array([0.0, 1.0, 1.0, 1.0])]
    cases += [rng.integers(-2, 3, size=rng.integers(3, 20)).astype(float) for _ in range(500)]
    for lw in cases:
        dist = StationaryDistribution.from_log_weights(lw - lw[0])
        assert mode_profile(dist).segments == _segments_by_loop(dist.log_weights), lw


def test_small_capacity_is_unimodal():
    prof = mode_profile(psd_product(make_params(FIG_A, 10)))
    assert prof.i_plus is None
    assert not prof.bimodal


def test_synthetic_dip_is_bimodal():
    dist = StationaryDistribution.from_log_weights(np.array([0.0, -1.0, -0.2]))
    prof = mode_profile(dist)
    assert prof.bimodal
    assert prof.major_mode == 0
    assert prof.i_minus == 1
    assert prof.i_plus == 2


def test_from_log_weights_leaves_caller_array_alone():
    lw = np.array([0.0, -1.0, -0.2])
    dist = StationaryDistribution.from_log_weights(lw)
    assert lw.flags.writeable
    assert not dist.log_weights.flags.writeable
    lw[1] = 5.0
    assert dist.log_weights[1] == -1.0


def test_constructor_copies_and_checks_shapes():
    probs, lw = np.array([0.5, 0.5]), np.zeros(2)
    dist = StationaryDistribution(probs, lw)
    assert dist.capacity_n == 1
    assert probs.flags.writeable and lw.flags.writeable
    assert not dist.probs.flags.writeable and not dist.log_weights.flags.writeable
    probs[0] = 7.0
    assert dist.probs[0] == 0.5
    for bad_probs, bad_lw in (([0.5, 0.5], [0.0, 0.0, 0.0]), ([[1.0]], [[0.0]]), ([1.0], [0.0])):
        with pytest.raises(ValueError):
            StationaryDistribution(bad_probs, bad_lw)


def test_from_rates_leaves_caller_arrays_alone():
    b = np.array([1.0, 2.0, 0.0])
    d = np.array([0.0, 1.0, 4.0])
    stationary_from_rates(b, d)
    assert b.flags.writeable and d.flags.writeable
    assert np.array_equal(b, [1.0, 2.0, 0.0]) and np.array_equal(d, [0.0, 1.0, 4.0])


def test_flat_weights_are_unimodal():
    dist = StationaryDistribution.from_log_weights(np.zeros(5))
    prof = mode_profile(dist)
    assert not prof.bimodal
    assert prof.i_plus is None


def test_mode_cubic_matches_rate_differences():
    """The cubic encodes b(i) - d(i+1) exactly, not asymptotically."""
    for base in (FIG_A, FIG_B):
        p = make_params(base, 100)
        n = p.capacity_n
        b, d = rate_arrays(p)
        i = np.arange(n, dtype=float)
        lhs = b[:-1] - d[1:]
        cubic = np.polyval(mode_cubic_coefficients(p, 0.99), i / n)
        rhs = p.mu * n * cubic / (p.theta + (i + 1) / n)
        assert np.abs(lhs - rhs).max() <= 1e-11


def test_mode_cubic_roots_locate_modes():
    """floor(r) + 1 lands exactly on the profile's dip and peak."""
    for base, i_minus, i_plus in ((FIG_A, 12, 39), (FIG_B, 6, 37)):
        p = make_params(base, 100)
        roots = solve_mode_cubic(p, 0.99)
        assert roots.r0 < 0.0
        assert math.floor(roots.r_minus) + 1 == i_minus
        assert math.floor(roots.r_plus) + 1 == i_plus


def test_mode_cubic_roots_converge_to_equilibria():
    p = make_params(FIG_A, 100)
    eq = equilibria(p)
    for n in (100, 400, 1600):
        roots = solve_mode_cubic(p.with_capacity(n), 0.99)
        assert abs(roots.r_plus / n - eq.x_plus) * n <= 3.0
        assert abs(roots.r_minus / n - eq.x_minus) * n <= 1.5


def test_mode_cubic_complex_at_tiny_capacity():
    with pytest.raises(ComplexRootError):
        solve_mode_cubic(make_params(FIG_A, 2), 0.99)


def test_mode_scaling_rows():
    rows = mode_scaling_check(make_params(FIG_A, 100), [100, 200, 400, 800])
    assert [r[0] for r in rows] == [100, 200, 400, 800]
    assert [r[1] for r in rows] == [39, 81, 164, 329]
    assert [r[2] for r in rows] == [r[1] / r[0] for r in rows]
    assert max(r[3] for r in rows) <= 3.0
    exponents = [discrete_markov_exponent(make_params(FIG_A, r[0])) for r in rows]
    assert [r[4] for r in rows] == exponents


def test_mode_scaling_check_rejects_a_non_integer_capacity():
    with pytest.raises(ValueError, match=r"^capacity_n must be an integer, got 100\.5$"):
        mode_scaling_check(make_params(FIG_A, 100), [100.5])


def test_csv_roundtrip_is_bit_exact(fig1a):
    dist = psd_product(fig1a)
    buf = io.StringIO()
    dist.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "state,density,prob,log_weight"
    assert len(lines) == fig1a.capacity_n + 2
    probs = np.array([float(line.split(",")[2]) for line in lines[1:]])
    lw = np.array([float(line.split(",")[3]) for line in lines[1:]])
    assert np.array_equal(probs, dist.probs)
    assert np.array_equal(lw, dist.log_weights)


def test_log_weights_stay_exact_at_a_million_states():
    """At N = 1e6 almost every prob underflows, but no log weight does."""
    n = 1_000_000
    params = make_params(FIG_A, n)
    dist = psd_product(params)
    lw = dist.log_weights
    assert lw[0] == 0.0 and np.all(np.isfinite(lw))
    assert int(np.count_nonzero(dist.probs == 0.0)) > 0.99 * n
    profile = mode_profile(dist)
    assert (profile.i_minus, profile.i_plus) == (104326, 413619)
    # the cumulative sum drifts from an exactly rounded sum of the same
    # increments only by its rounding error
    b, d = rate_arrays(params)
    increments = np.log(b[:-1]) - np.log(d[1:])
    for k in (profile.i_minus, profile.i_plus, n):
        exact = math.fsum(increments[:k])
        assert abs(lw[k] - exact) <= 1e-12 * abs(exact)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 10_000),
    span=st.one_of(st.just(0.0), st.floats(1e-12, 1e5)),
    ties=st.integers(0, 20),
    shift=st.floats(-1e6, 1e6),
)
@example(seed=0, size=1, span=0.0, ties=0, shift=0.0)
@example(seed=1, size=10_000, span=1e5, ties=20, shift=-1e6)
def test_logsumexp_is_scipys_bit_for_bit(seed, size, span, ties, shift):
    # values spread over span nats below the maximum, some of them set
    # equal to it
    rng = np.random.default_rng(seed)
    a = shift - span * rng.random(size)
    a[rng.integers(size, size=ties)] = a.max()
    assert _logsumexp(a).tobytes() == np.float64(logsumexp(a)).tobytes()


def test_logsumexp_is_scipys_on_the_fig2a_law_at_a_million_states():
    lw = psd_product(make_params(FIG_A, 1_000_000)).log_weights
    assert _logsumexp(lw).tobytes() == np.float64(logsumexp(lw)).tobytes()
