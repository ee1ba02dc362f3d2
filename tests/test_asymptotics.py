"""Rate-ratio integral, regime classification, capacity-sweep diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

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

from conftest import FIG_A, FIG_B, make_params


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
