"""Threshold classification from the rate-ratio integral.

The per-capita birth to death rate ratio f(x) equals 1 exactly at the two
deterministic equilibria. The sign of the integral of log f over [0, x+*]
decides the large-capacity fate of the chain: negative means the stationary
law collapses onto extinction, positive onto the persistence density x+*.
This module computes that integral, its finite-capacity discrete
counterpart (a log-weight slope of the stationary distribution), and exact
tail diagnostics along capacity sweeps. |integral| <= CRITICAL_TOL is critical.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np
from scipy.integrate import quad

from . import _csv
from .errors import AssumptionError, QuadratureError
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

#: Absolute tolerance requested from the adaptive quadrature.
_QUAD_ABS_TOL = 1e-9


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


def markov_exponent(params: ModelParams) -> ThresholdReport:
    """Integral of log f over [0, x_plus] with its sign classification.

    The integrand is smooth and bounded on the interval (f(0) > 0 whenever
    delta3 is finite), so plain adaptive quadrature reaches the 1e-9
    absolute budget without endpoint treatment.

    Raises:
        AssumptionError: bistability or interior capacity fails.
        QuadratureError: the quadrature error estimate misses the budget.
    """
    report = check_assumptions(params)
    if not (report.bistability_holds and report.capacity_interior):
        raise AssumptionError(
            "threshold classification needs both positive equilibria inside (0, 1]: "
            + "; ".join(report.messages),
            report,
        )
    eq = equilibria(params)

    result = quad(
        lambda x: math.log(rate_ratio(params, x)),
        0.0,
        eq.x_plus,
        epsabs=_QUAD_ABS_TOL,
        epsrel=1e-10,
        limit=200,
        full_output=1,
    )
    if len(result) > 3:
        raise QuadratureError(f"quadrature did not converge: {result[3]}")
    value, abserr = float(result[0]), float(result[1])
    if abserr > 1e-8:
        raise QuadratureError(f"quadrature error estimate {abserr:.3e} above budget")

    if value < -CRITICAL_TOL:
        classification = EXTINCTION
    elif value > CRITICAL_TOL:
        classification = PERSISTENCE
    else:
        classification = CRITICAL
    return ThresholdReport(value, classification, CRITICAL_TOL, eq.x_plus)


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
