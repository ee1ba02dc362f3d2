"""Threshold classification from the rate-ratio integral.

The per-capita birth to death rate ratio f(x) equals 1 exactly at the two
deterministic equilibria. The sign of the integral of log f over [0, x+*]
decides the large-capacity fate of the chain: negative means the stationary
law collapses onto extinction, positive onto the persistence density x+*.
This module computes that integral in closed form (log f is a sum of
logarithms of linear and quadratic factors, each with an elementary
antiderivative), its finite-capacity discrete counterpart (a log-weight
slope of the stationary distribution), and exact tail diagnostics along
capacity sweeps. |integral| <= CRITICAL_TOL is critical.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import _csv
from .deterministic import _log1p
from .errors import AssumptionError
from .model import (
    ModelParams,
    _within,
    basic_reproduction_ratio,
    check_assumptions,
    equilibria,
    per_capita_factors,
)
from .stationary import capacity_modes

EXTINCTION = "extinction"
PERSISTENCE = "persistence"
CRITICAL = "critical"

#: Band half-width around 0 inside which the integral counts as critical.
CRITICAL_TOL = 1e-7


@dataclass(frozen=True)
class ThresholdReport:
    """Classification of the limiting stationary behaviour."""

    integral_value: float
    classification: str
    tolerance: float
    x_plus: float

    def to_summary(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ConvergenceDiagnostic:
    """Capacity sweep rows (N, tail_mass, discrete_exponent) and the report
    whose classification chose the tail.

    tail_mass is P[|Y_N - centre| > epsilon] for the stationary density Y_N,
    outside the ensemble masses' epsilon-window (model._within) around 0 for
    an extinction (or critical) report and around x_plus for a persistence
    one: an exact sum of the stationary law, not a simulation estimate.
    """

    rows: tuple[tuple[int, float, float], ...]
    report: ThresholdReport

    def to_csv(self, stream) -> None:
        _csv.write_rows(stream, "N,tail_mass,discrete_exponent", *zip(*self.rows))


def rate_ratio(params: ModelParams, x):
    """f(x) = R0 (1 - delta1 x) / (1 + delta2 x + delta3 theta / (theta + x)).

    Accepts a scalar or an array of densities; x must be >= 0 (the
    denominator is then bounded away from zero).
    """
    if np.any(np.asarray(x) < 0):
        raise ValueError("density must be >= 0")
    fb, fd = per_capita_factors(params, x)
    return basic_reproduction_ratio(params) * fb / fd


def _mean_log1p(z: complex) -> complex:
    """Mean of log(1 + t z) over t in [0, 1], ((1 + z) log(1 + z) - z) / z,
    for a real or complex z off (-inf, -1], with the principal logarithm
    (_log1p); its absolute error is a few rounding units, the size of the
    terms it sums."""
    if z == 0:
        return 0.0
    return ((1.0 + z) * _log1p(z) - z) / z


def markov_exponent(params: ModelParams) -> ThresholdReport:
    """Integral of log f over [0, x_plus] with its sign classification.

    In closed form: with D(x) = delta2 x^2 + (1 + delta2 theta) x +
    theta (1 + delta3),

        f(x) = f(0) (1 - delta1 x) (1 + x / theta) / (D(x) / D(0)),

    and D(x) / D(0) = (1 + s1 x)(1 + s2 x), where s1 + s2 = (1 + delta2
    theta) / D(0) and s1 s2 = delta2 / D(0). Each factor 1 + s x
    contributes X times the mean of log(1 + t s X) over t in [0, 1] to the
    integral up to X = x_plus. s1 and s2 are real or a complex conjugate
    pair; either way s1 = (s1 + s2 + sqrt((s1 - s2)^2)) / 2 with the
    principal complex square root, s2 = s1 s2 / s1, and the denominator
    contributes the real part of the sum of their two terms; delta1 = 0
    and delta2 = 0 drop a factor.
    Every term is O(X) and computed to a few rounding units, so the value
    is within about 1e-15 of the exact integral, far inside CRITICAL_TOL.

    Raises:
        AssumptionError: bistability or interior capacity fails.
    """
    report = check_assumptions(params)
    if not (report.bistability_holds and report.capacity_interior):
        raise AssumptionError(
            "threshold classification needs both positive equilibria inside (0, 1]: "
            + "; ".join(report.messages),
            report,
        )
    x_plus = equilibria(params).x_plus
    theta, delta2 = params.theta, params.delta2
    d0 = theta * (1.0 + params.delta3)
    total, product = (1.0 + delta2 * theta) / d0, delta2 / d0
    s1 = 0.5 * (total + cmath.sqrt(total * total - 4.0 * product))
    denominator = (_mean_log1p(s1 * x_plus) + _mean_log1p(product / s1 * x_plus)).real
    value = x_plus * (
        math.log(rate_ratio(params, 0.0))
        + _mean_log1p(-params.delta1 * x_plus)
        + _mean_log1p(x_plus / theta)
        - denominator
    )

    if value < -CRITICAL_TOL:
        classification = EXTINCTION
    elif value > CRITICAL_TOL:
        classification = PERSISTENCE
    else:
        classification = CRITICAL
    return ThresholdReport(value, classification, CRITICAL_TOL, x_plus)


def discrete_markov_exponent(params: ModelParams) -> float:
    """(1/N) log(p_{i+} / p_0), the exponent at the capacity N of params.

    Converges to the markov_exponent integral as the capacity grows.

    Raises:
        UnimodalProfileError: the profile has no interior mode to anchor i+.
    """
    return capacity_modes(params)[2]


def limit_distribution_diagnostic(
    params: ModelParams, n_list, epsilon: float
) -> ConvergenceDiagnostic:
    """Exact stationary tail masses along a capacity sweep.

    The regime (which tail to sum) follows the sign classification of the
    integral, and the result carries that report. A critical classification
    cannot choose a branch; it warns and falls back to the extinction tail.

    Args:
        params: model constants; immigration must be a constant schedule so
            capacities can be resized.
        n_list: capacities to sweep, each >= 2.
        epsilon: tail threshold; the extinction branch requires
            0 < epsilon < x_minus so the tail excludes the extinction
            cluster itself, the persistence branch 0 < epsilon < 1.
    """
    report = markov_exponent(params)
    regime = report.classification
    if regime == CRITICAL:
        warnings.warn(
            "classification is critical; reporting extinction-branch tails",
            RuntimeWarning,
            stacklevel=2,
        )
        regime = EXTINCTION
    eq = equilibria(params)
    if regime == EXTINCTION and not 0.0 < epsilon < eq.x_minus:
        raise ValueError(
            f"extinction-branch epsilon must lie in (0, x_minus = {eq.x_minus:.6g})"
        )
    if regime == PERSISTENCE and not 0.0 < epsilon < 1.0:
        raise ValueError("persistence-branch epsilon must lie in (0, 1)")

    centre = 0.0 if regime == EXTINCTION else eq.x_plus
    rows = []
    for n in n_list:
        dist, _, exponent = capacity_modes(params.with_capacity(n))
        tail = float(dist.probs[~_within(dist.capacity_n, centre, epsilon)].sum())
        rows.append((dist.capacity_n, tail, exponent))
    return ConvergenceDiagnostic(tuple(rows), report)
