"""Rate-ratio integral, regime classification, capacity-sweep diagnostics."""

from __future__ import annotations

import cmath
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from alleechain import (
    CRITICAL,
    EXTINCTION,
    PERSISTENCE,
    AssumptionError,
    ModelParams,
    discrete_markov_exponent,
    equilibria,
    limit_distribution_diagnostic,
    markov_exponent,
    psd_product,
    rate_ratio,
)
from alleechain.asymptotics import CRITICAL_TOL
from alleechain.errors import UnimodalProfileError
from alleechain.model import check_assumptions

from conftest import FIG_A, FIG_B, at_bistable_edges, bistable_case, bistable_domain, make_params


def test_rate_ratio_at_zero_density():
    # f(0) = R0 / (1 + delta3)
    assert rate_ratio(make_params(FIG_A, 10), 0.0) == pytest.approx(1.4 / 2.45, rel=1e-14)
    assert rate_ratio(make_params(FIG_B, 10), 0.0) == pytest.approx(1.7 / 2.7, rel=1e-14)


def test_rate_ratio_is_one_at_equilibria(fig2a, fig2b):
    for p in (fig2a, fig2b):
        eq = equilibria(p)
        assert rate_ratio(p, eq.x_minus) == pytest.approx(1.0, abs=1e-12)
        assert rate_ratio(p, eq.x_plus) == pytest.approx(1.0, abs=1e-12)


def test_rate_ratio_sign_pattern(fig2a):
    eq = equilibria(fig2a)
    xs = np.array([eq.x_minus / 2, (eq.x_minus + eq.x_plus) / 2, (eq.x_plus + 1.0) / 2])
    f = rate_ratio(fig2a, xs)
    assert f[0] < 1.0 < f[1]
    assert f[2] < 1.0


def test_rate_ratio_vector_matches_scalar(fig1a):
    xs = np.linspace(0.0, 1.0, 7)
    vec = rate_ratio(fig1a, xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert rate_ratio(fig1a, float(x)) == pytest.approx(v, rel=1e-15)


def test_rate_ratio_rejects_negative_density(fig1a):
    with pytest.raises(ValueError):
        rate_ratio(fig1a, -0.1)


def test_markov_exponent_reference_values(fig2a, fig2b):
    rep_a = markov_exponent(fig2a)
    assert rep_a.integral_value == pytest.approx(-0.00611319, abs=1e-6)
    assert rep_a.classification == EXTINCTION
    assert rep_a.x_plus == pytest.approx(0.413621, abs=1e-5)
    rep_b = markov_exponent(fig2b)
    assert rep_b.integral_value == pytest.approx(0.0207001, abs=1e-6)
    assert rep_b.classification == PERSISTENCE
    assert rep_b.to_summary()["classification"] == PERSISTENCE


def test_markov_exponent_clock_invariance(fig2a):
    """Rescaling both rates leaves f and hence the integral untouched."""
    scaled = ModelParams.from_constants(
        lam=fig2a.lam * 3.7, mu=fig2a.mu * 3.7, delta1=fig2a.delta1,
        delta2=fig2a.delta2, delta3=fig2a.delta3, theta=fig2a.theta,
        capacity_n=fig2a.capacity_n, r1=0.99,
    )
    base = markov_exponent(fig2a).integral_value
    assert markov_exponent(scaled).integral_value == pytest.approx(base, abs=1e-12)


def _near_critical(capacity_n: int) -> ModelParams:
    # fig2a constants with lam tuned until the integral is -1.1e-17
    return ModelParams.from_constants(
        lam=1.4200850477045612, mu=1.0, delta1=0.45, delta2=0.1, delta3=1.45,
        theta=0.03, capacity_n=capacity_n, r1=0.99,
    )


def test_markov_exponent_critical_classification():
    report = markov_exponent(_near_critical(5000))
    assert abs(report.integral_value) <= 1e-15
    assert report.classification == CRITICAL
    assert report.tolerance == CRITICAL_TOL == 1e-7


def _mp_exponent(params: ModelParams, x_plus: float) -> float:
    """Integral of log f over [0, x_plus] in 40-digit arithmetic, with f
    written out from the model constants."""
    with mpmath.workdps(40):
        lam, mu, d1, d2, d3, theta = (
            mpmath.mpf(v) for v in (
                params.lam, params.mu, params.delta1, params.delta2, params.delta3, params.theta
            )
        )

        def log_ratio(x):
            return mpmath.log(lam * (1 - d1 * x) / (mu * (1 + d2 * x + d3 * theta / (theta + x))))

        return float(mpmath.quad(log_ratio, [0, mpmath.mpf(x_plus)]))


#: delta1 = 0, delta2 = 0, and a denominator D(x) with a complex pair of zeros.
_NO_DELTA1 = bistable_case(0.1, 0.8, delta1=0.0, delta2=0.5)
_NO_DELTA2 = bistable_case(0.05, 0.4, delta1=0.9, delta2=0.0)
_COMPLEX_DENOMINATOR = bistable_case(0.3, 0.9, theta=0.72, delta1=0.2, delta2=0.5)


@settings(max_examples=60, deadline=None)
@given(case=bistable_domain())
@at_bistable_edges
@example(case=_NO_DELTA1)
@example(case=_NO_DELTA2)
@example(case=_COMPLEX_DENOMINATOR)
def test_markov_exponent_matches_40_digit_quadrature(case):
    params, _, _ = case
    value = markov_exponent(params).integral_value
    assert abs(value - _mp_exponent(params, equilibria(params).x_plus)) <= 1e-12


def test_markov_exponent_covers_a_complex_denominator_pair():
    # D(x) = delta2 x^2 + (1 + delta2 theta) x + theta (1 + delta3) has no
    # real zero, and the assumptions still hold
    params, _, _ = _COMPLEX_DENOMINATOR
    d2, theta, d3 = params.delta2, params.theta, params.delta3
    assert (1.0 + d2 * theta) ** 2 < 4.0 * d2 * theta * (1.0 + d3)
    report = check_assumptions(params)
    assert report.bistability_holds and report.capacity_interior
    x_plus = equilibria(params).x_plus
    assert abs(markov_exponent(params).integral_value - _mp_exponent(params, x_plus)) <= 1e-12


def _conjugate_pair_exponent(params: ModelParams) -> float:
    """markov_exponent's integral in the former form for a complex
    denominator pair s1 = conj(s2): twice the real part of the term of s1,
    through cmath.log(1 + z)."""
    def mean_log1p(z):
        if z == 0:
            return 0.0
        log_1pz = cmath.log(1.0 + z) if isinstance(z, complex) else math.log1p(z)
        return ((1.0 + z) * log_1pz - z) / z

    x_plus = equilibria(params).x_plus
    return x_plus * (
        math.log(rate_ratio(params, 0.0))
        + mean_log1p(-params.delta1 * x_plus)
        + mean_log1p(x_plus / params.theta)
        - 2.0 * mean_log1p(_conjugate_pair(params) * x_plus).real
    )


def _conjugate_pair(params: ModelParams) -> complex:
    """s1 of the former form, for a complex denominator pair."""
    theta, delta2 = params.theta, params.delta2
    d0 = theta * (1.0 + params.delta3)
    total, product = (1.0 + delta2 * theta) / d0, delta2 / d0
    return complex(0.5 * total, 0.5 * math.sqrt(4.0 * product - total * total))


#: A complex denominator pair with a small s1 (delta2 = 0.01, a large
#: delta3), where the former form is off by about 1.1e-14.
_SMALL_PAIR = bistable_case(0.1, 0.6, theta=1.0, delta1=0.99 / 1.7, delta2=0.01)


@settings(max_examples=300, deadline=None)
@given(case=bistable_domain())
@example(case=_COMPLEX_DENOMINATOR)
@example(case=_SMALL_PAIR)
def test_complex_denominator_pair_matches_the_former_form(case):
    params, _, _ = case
    d2, theta, d3 = params.delta2, params.theta, params.delta3
    assume((1.0 + d2 * theta) ** 2 < 4.0 * d2 * theta * (1.0 + d3))
    # The former form takes cmath.log(1 + z) at z = s1 x+*, so its rounding
    # of 1 + z costs it about eps / |s1| in the integral. Where twice that
    # exceeds the bound (a small s1), the closed form is held to the
    # 40-digit quadrature instead, at the same bound.
    if 2.0 * sys.float_info.epsilon / abs(_conjugate_pair(params)) <= 4e-15:
        reference = _conjugate_pair_exponent(params)
    else:
        reference = _mp_exponent(params, equilibria(params).x_plus)
    assert abs(markov_exponent(params).integral_value - reference) <= 4e-15


@pytest.mark.parametrize("base", [FIG_A, FIG_B], ids=["fig1a", "fig1b"])
def test_markov_exponent_on_presets_matches_40_digit_quadrature(base):
    params = make_params(base, 100)
    value = markov_exponent(params).integral_value
    assert abs(value - _mp_exponent(params, equilibria(params).x_plus)) <= 1e-12


def test_markov_exponent_requires_assumptions():
    p = ModelParams.from_constants(
        lam=0.9, mu=1.0, delta1=0.2, delta2=0.0, delta3=1.5,
        theta=0.03, capacity_n=20, r1=0.5,
    )
    with pytest.raises(AssumptionError):
        markov_exponent(p)


def test_discrete_exponent_reference_values():
    # frozen from the exact log-weight gap at the interior mode
    assert discrete_markov_exponent(make_params(FIG_A, 1000)) == pytest.approx(
        -0.00782115, abs=1e-6
    )
    assert discrete_markov_exponent(make_params(FIG_B, 1000)) == pytest.approx(
        0.01841348, abs=1e-6
    )


def test_discrete_exponent_capacity_override(fig1a):
    direct = discrete_markov_exponent(make_params(FIG_A, 400))
    resized = discrete_markov_exponent(fig1a.with_capacity(400))
    assert direct == resized


def test_discrete_exponent_approaches_integral():
    for base in (FIG_A, FIG_B):
        target = markov_exponent(make_params(base, 100)).integral_value
        gaps = [
            abs(discrete_markov_exponent(make_params(base, n)) - target)
            for n in (1000, 10_000, 100_000)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 5e-3


def test_discrete_exponent_needs_interior_mode():
    with pytest.raises(UnimodalProfileError):
        discrete_markov_exponent(make_params(FIG_A, 10))


def test_diagnostic_extinction_branch(fig2a):
    diag = limit_distribution_diagnostic(fig2a, [500, 1000], 0.05)
    assert diag.report.classification == EXTINCTION
    assert [r[0] for r in diag.rows] == [500, 1000]
    assert diag.rows[0][1] == pytest.approx(0.311977, abs=1e-5)
    assert diag.rows[1][1] == pytest.approx(0.024731, abs=1e-5)
    assert diag.rows[0][2] == pytest.approx(
        discrete_markov_exponent(fig2a.with_capacity(500)), abs=1e-14
    )


def test_diagnostic_persistence_branch(fig2b):
    diag = limit_distribution_diagnostic(fig2b, [500, 1000], 0.05)
    assert diag.report.classification == PERSISTENCE
    assert diag.rows[0][1] == pytest.approx(0.250, abs=5e-4)
    assert diag.rows[0][1] > diag.rows[1][1]


def test_diagnostic_epsilon_validation(fig2a, fig2b):
    # extinction branch: epsilon must stay below the basin boundary
    with pytest.raises(ValueError):
        limit_distribution_diagnostic(fig2a, [500], 0.2)
    with pytest.raises(ValueError):
        limit_distribution_diagnostic(fig2a, [500], 0.0)
    with pytest.raises(ValueError):
        limit_distribution_diagnostic(fig2b, [500], 1.0)


def test_diagnostic_rejects_a_non_integer_capacity(fig2a):
    with pytest.raises(ValueError, match=r"^capacity_n must be an integer, got 500\.5$"):
        limit_distribution_diagnostic(fig2a, [500.5], 0.05)


def test_diagnostic_critical_warns_and_falls_back():
    p = _near_critical(500)
    with pytest.warns(RuntimeWarning):
        diag = limit_distribution_diagnostic(p, [500], 0.05)
    assert diag.report.classification == CRITICAL
    density = np.arange(501) / 500
    assert diag.rows[0][1] == pytest.approx(psd_product(p).probs[density > 0.05].sum(), abs=1e-15)


def test_diagnostic_csv_format(fig2a):
    import io

    diag = limit_distribution_diagnostic(fig2a, [500], 0.05)
    buf = io.StringIO()
    diag.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "N,tail_mass,discrete_exponent"
    n, tail, exponent = lines[1].split(",")
    assert int(n) == 500
    assert float(tail) == diag.rows[0][1]
    assert float(exponent) == diag.rows[0][2]
