"""Parameter container, rate functions, assumptions, config round-trips."""

from __future__ import annotations

import re
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from alleechain import (
    AssumptionError,
    ImmigrationSpec,
    ModelParams,
    basic_reproduction_ratio,
    check_assumptions,
    equilibria,
    params_from_config,
    params_to_config,
    parse_config,
    rate_arrays,
)
from alleechain.model import _balance_roots, _within, balance_coefficients

from conftest import FIG_A, FIG_B, at_bistable_edges, bistable_domain, make_params


def test_from_constants_fields():
    p = make_params(FIG_A, 100)
    assert p.lam == 1.4
    assert p.mu == 1.0
    assert p.delta1 == 0.45
    assert p.delta2 == 0.1
    assert p.delta3 == 1.45
    assert p.theta == 0.03
    assert p.capacity_n == 100
    assert p.immigration.is_constant
    assert len(p.immigration) == 100
    assert p.immigration.r1[0] == 0.99


@pytest.mark.parametrize(
    "field, value",
    [
        ("lam", 0.0),
        ("lam", -1.0),
        ("mu", 0.0),
        ("delta1", -0.1),
        ("delta2", -0.1),
        ("delta3", -0.1),
        ("delta3", 0.0),
        ("theta", 0.0),
        ("theta", -1.0),
        ("lam", float("nan")),
        ("mu", float("inf")),
    ],
)
def test_invalid_scalar_parameters(field, value):
    kwargs = dict(FIG_A)
    kwargs[field] = value
    with pytest.raises(ValueError):
        ModelParams.from_constants(capacity_n=50, **kwargs)


@pytest.mark.parametrize("field", ["lam", "mu", "delta1", "delta2", "delta3", "theta"])
@pytest.mark.parametrize("value", [True, "1.4", -0.5], ids=["bool", "str", "negative"])
def test_each_constant_takes_the_one_number_rule(field, value):
    """A bool or a string is no number, and a negative constant fails the
    same rule, with the message of every other real input; lam, mu, delta3
    and theta must also be > 0."""
    sign = ">" if field in ("lam", "mu", "delta3", "theta") else ">="
    message = f"^{field} must be finite and {sign} 0, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        ModelParams.from_constants(capacity_n=50, **{**FIG_A, field: value})


@pytest.mark.parametrize("value", [np.float32(1.4), np.int64(2), Fraction(7, 5)])
def test_a_constant_may_be_any_real_number(value):
    """numpy scalars and fractions build, as does a numpy capacity, through
    from_constants and with_capacity; each is stored as a Python number."""
    p = make_params({**FIG_A, "lam": value}, np.int64(50))
    q = p.with_capacity(np.int64(80))
    for params, capacity in ((p, 50), (q, 80)):
        assert type(params.lam) is float and params.lam == float(value)
        assert type(params.capacity_n) is int and params.capacity_n == capacity
        assert params == make_params({**FIG_A, "lam": float(value)}, capacity)


def test_invalid_capacity():
    with pytest.raises(ValueError):
        make_params(FIG_A, 1)
    with pytest.raises(ValueError):
        ModelParams.from_constants(capacity_n=10.5, **FIG_A)


def test_hand_computed_rates():
    # set (a), N=100: b(50) = 1.4*50*(1 - 0.45/2) + (0.99/100)*50
    b, d = rate_arrays(make_params(FIG_A, 100))
    assert b[50] == pytest.approx(54.745, abs=1e-12)
    assert d[100] == pytest.approx(100.0 * (1.1 + 1.45 * 0.03 / 1.03), abs=1e-9)
    # set (b): no crowding in deaths, only the low-density penalty
    _, d = rate_arrays(make_params(FIG_B, 100))
    assert d[3] == pytest.approx(5.55, abs=1e-12)


def test_boundary_rates():
    p = make_params(FIG_A, 100)
    b, d = rate_arrays(p)
    assert b[100] == 0.0
    assert d[0] == 0.0
    # immigration alone feeds the empty state: b(0) = mu * R1 * (N - 0) / N
    assert b[0] == pytest.approx(0.99, abs=1e-15)


@pytest.mark.parametrize("field", ["lam", "mu"])
def test_rates_that_overflow_are_refused(field):
    # lam = 1e308 makes b(i) inf and mu = 1e308 d(i); the ValueError
    # reports it, with no RuntimeWarning on the way
    params = make_params({**FIG_A, field: 1e308}, 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^rates must be finite and >= 0$"):
            rate_arrays(params)


@pytest.mark.parametrize("constants, message", [
    ({"lam": 1e308}, r"^the balance discriminant is not finite at R0 = 1e\+308$"),
    ({"mu": 1e-300}, r"^the balance discriminant is not finite at R0 = 1\.4e\+300$"),
])
def test_an_overflowing_discriminant_is_refused(constants, message):
    # the ** 2 of the discriminant raised OverflowError
    params = make_params({**FIG_A, **constants}, 100)
    for evaluate in (check_assumptions, equilibria):
        with pytest.raises(ValueError, match=message):
            evaluate(params)


def test_reproduction_ratio_and_coefficients():
    p = make_params(FIG_A, 100)
    assert basic_reproduction_ratio(p) == pytest.approx(1.4)
    a, b, c = balance_coefficients(p)
    assert a == pytest.approx(1.4 * 0.45 + 0.1, abs=1e-15)
    assert b == pytest.approx(1.4 - 1.0 - 0.03 * a, abs=1e-15)
    assert c == pytest.approx(0.03 * (1.0 + 1.45 - 1.4), abs=1e-15)


def test_equilibria_are_quadratic_roots(corpus):
    for entry in corpus[:20]:
        p = ModelParams.from_constants(capacity_n=10, **entry)
        eq = equilibria(p)
        a, b, c = balance_coefficients(p)
        for x in (eq.x_minus, eq.x_plus):
            # a x^2 - b x + c vanishes at both equilibria
            residual = (a * x - b) * x + c
            assert abs(residual) <= 1e-12 * max(abs(a * x * x), abs(b * x), abs(c))
        assert 0.0 < eq.x_minus < eq.x_plus <= 1.0
        assert check_assumptions(p).discriminant_positive


def test_equilibria_golden_values():
    eq_a = equilibria(make_params(FIG_A, 5000))
    assert eq_a.x_plus == pytest.approx(0.413621, abs=1e-5)
    assert eq_a.x_minus == pytest.approx(0.104324, abs=1e-5)
    eq_b = equilibria(make_params(FIG_B, 5000))
    assert eq_b.x_plus == pytest.approx(0.375266, abs=1e-5)
    assert eq_b.x_minus == pytest.approx(0.0522505, abs=1e-5)


#: x-* << x+* = 8.5e3, where (b - sqrt(disc)) / 2a read x-* 4e-13 off.
_SPREAD_ROOTS = ModelParams.from_constants(
    lam=1.5, mu=1.0, delta1=3.90625e-05, delta2=0.0, delta3=1.0, theta=0.25, capacity_n=10, r1=0.5,
)
#: b < 0 with zeros at -7.1e99 and -0.25, where (b + sqrt(disc)) / 2a read 0.0.
_NEGATIVE_B = ModelParams.from_constants(
    lam=0.5, mu=1.0, delta1=1.4e-100, delta2=0.0, delta3=0.5, theta=0.125, capacity_n=10, r1=0.5,
)


def test_spread_zeros_do_not_cancel():
    assert equilibria(_SPREAD_ROOTS).x_minus == 0.2500146497250986
    assert balance_coefficients(_NEGATIVE_B)[1] < 0.0
    assert 0.0 > _balance_roots(_NEGATIVE_B)[1][1] > -0.26


def _exact_balance_roots(params):
    """Both zeros of a x^2 - b x + c at 40 digits, in ascending order, with
    R0 and the constants taken as exact: the larger in magnitude from the
    quadratic formula, the other from the product c / a."""
    with mpmath.workdps(40):
        r0, d1, d2, d3, theta = (mpmath.mpf(v) for v in (
            basic_reproduction_ratio(params), params.delta1, params.delta2, params.delta3,
            params.theta,
        ))
        a = r0 * d1 + d2
        b = r0 - 1 - theta * a
        c = theta * (1 + d3 - r0)
        large = (b + mpmath.sign(b) * mpmath.sqrt(b * b - 4 * a * c)) / (2 * a)
        return sorted([c / (a * large), large])


@st.composite
def _balance_draws(draw):
    """Constants with R0 on both sides of 1 + theta a, so b takes both signs,
    and density dependence scaled down by up to 1e-12, which spreads the
    zeros up to that far apart."""
    mu = draw(st.floats(0.5, 2.0))
    scale = 10.0 ** -draw(st.integers(0, 12))
    return ModelParams.from_constants(
        lam=draw(st.floats(0.05, 3.0)) * mu, mu=mu,
        delta1=draw(st.floats(0.0, 1.0)) * scale, delta2=draw(st.floats(0.0, 0.5)) * scale,
        delta3=draw(st.floats(0.1, 3.0)), theta=draw(st.floats(0.01, 1.0)), capacity_n=10, r1=0.5,
    )


@settings(max_examples=200, deadline=None)
@given(params=_balance_draws())
@example(params=_SPREAD_ROOTS)
@example(params=_NEGATIVE_B)
def test_balance_roots_match_40_digit_roots(params):
    disc, zeros = _balance_roots(params)
    assume(zeros is not None and disc > 0.0)
    r0, theta, delta3 = basic_reproduction_ratio(params), params.theta, params.delta3
    a, b, c = balance_coefficients(params)
    assume(b != 0.0 and c != 0.0)
    # rounding of b and the discriminant, each relative to the size of the
    # terms it is formed from, moves both zeros; that of c the smaller one,
    # and that of a, which may underflow, the larger one
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    spread = 2.0 + (r0 + 1.0 + theta * a) / abs(b) + (
        (1.0 + r0 + theta * a) ** 2 + 4.0 * theta * delta3 * a
    ) / disc
    tol_small = 16.0 * eps * (spread + theta * (1.0 + delta3 + r0) / abs(c))
    assume(tol_small <= 1e-10)
    tol_large = 16.0 * eps * spread + 4.0 * tiny / a
    exact = [float(x) for x in _exact_balance_roots(params)]
    larger = int(abs(exact[1]) > abs(exact[0]))
    for i, (got, want) in enumerate(zip(zeros, exact)):
        tol = tol_large if i == larger else tol_small
        assert got == want or abs(got - want) <= tol * abs(want)
    if b < 0.0 < c:
        assert zeros[1] < 0.0


@settings(max_examples=300, deadline=None)
@given(case=bistable_domain())
@at_bistable_edges
def test_bistable_domain_round_trips(case):
    # Every draw of the equilibria map is bistable with interior capacity,
    # and equilibria returns the drawn zeros. The zeros of a quadratic move
    # by its rounding over the gap between them, so the tolerance (absolute)
    # grows as 1 / (x+* - x-*): 1e-13 for zeros 1 apart, 1e-7 at MIN_GAP.
    params, x_minus, x_plus = case
    report = check_assumptions(params)
    assert report.bistability_holds and report.capacity_interior, report.messages
    pair = equilibria(params)
    tolerance = 1e-13 / (x_plus - x_minus)
    assert abs(pair.x_minus - x_minus) <= tolerance
    assert abs(pair.x_plus - x_plus) <= tolerance


def test_check_assumptions_all_hold():
    report = check_assumptions(make_params(FIG_A, 100))
    assert report.threshold_chain
    assert report.density_dependence
    assert report.discriminant_positive
    assert report.capacity_interior
    assert report.immigration_bounded
    assert report.bistability_holds
    assert report.messages == ()


def test_check_assumptions_no_density_dependence():
    p = ModelParams.from_constants(
        lam=1.4, mu=1.0, delta1=0.0, delta2=0.0, delta3=1.45,
        theta=0.03, capacity_n=20, r1=0.5,
    )
    report = check_assumptions(p)
    assert not report.density_dependence
    assert any("delta1" in m for m in report.messages)


def test_check_assumptions_chain_fails():
    # R0 = 0.9 sits below the lower threshold bound
    p = ModelParams.from_constants(
        lam=0.9, mu=1.0, delta1=0.2, delta2=0.0, delta3=1.5,
        theta=0.03, capacity_n=20, r1=0.5,
    )
    report = check_assumptions(p)
    assert not report.threshold_chain


def test_check_assumptions_interior_capacity_fails():
    # equilibria exist but x+* lands far above 1
    p = ModelParams.from_constants(
        lam=2.5, mu=1.0, delta1=0.05, delta2=0.0, delta3=2.0,
        theta=0.01, capacity_n=20, r1=0.5,
    )
    report = check_assumptions(p)
    assert report.threshold_chain and report.discriminant_positive
    assert not report.capacity_interior


def test_check_assumptions_flags_immigration_excess():
    spec = ImmigrationSpec.constant(1.5, 20)
    p = ModelParams.from_constants(
        lam=1.4, mu=1.0, delta1=0.45, delta2=0.1, delta3=1.45,
        theta=0.03, capacity_n=20, r1=0.99,
    )
    p = ModelParams(
        lam=p.lam, mu=p.mu, delta1=p.delta1, delta2=p.delta2,
        delta3=p.delta3, theta=p.theta, capacity_n=20, immigration=spec,
    )
    report = check_assumptions(p)
    assert not report.immigration_bounded


def test_equilibria_raises_with_report():
    p = ModelParams.from_constants(
        lam=0.9, mu=1.0, delta1=0.2, delta2=0.0, delta3=1.5,
        theta=0.03, capacity_n=20, r1=0.5,
    )
    with pytest.raises(AssumptionError) as exc_info:
        equilibria(p)
    assert not exc_info.value.report.threshold_chain


def test_immigration_spec_vector():
    values = np.linspace(0.1, 0.9, 30)
    spec = ImmigrationSpec(values)
    assert len(spec) == 30
    assert not spec.is_constant
    assert spec == ImmigrationSpec(values.copy())
    assert spec != ImmigrationSpec(values[::-1].copy())


def test_immigration_spec_validation():
    with pytest.raises(ValueError):
        ImmigrationSpec(np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        ImmigrationSpec(np.array([0.5, float("nan")]))
    with pytest.raises(ValueError):
        ImmigrationSpec(np.array([]))


def test_immigration_length_must_match_capacity():
    spec = ImmigrationSpec(np.full(5, 0.3))
    with pytest.raises(ValueError):
        ModelParams(
            lam=1.4, mu=1.0, delta1=0.45, delta2=0.1, delta3=1.45,
            theta=0.03, capacity_n=20, immigration=spec,
        )


def test_immigration_arrays_are_frozen():
    p = make_params(FIG_A, 10)
    with pytest.raises(ValueError):
        p.immigration.r1[0] = 0.5


def test_with_capacity_resizes_constant_schedule():
    p = make_params(FIG_A, 100)
    q = p.with_capacity(400)
    assert q.capacity_n == 400
    assert len(q.immigration) == 400
    assert q.lam == p.lam
    # a state-dependent schedule has no canonical resize
    varying = ModelParams(
        lam=1.4, mu=1.0, delta1=0.45, delta2=0.1, delta3=1.45,
        theta=0.03, capacity_n=5, immigration=ImmigrationSpec(np.linspace(0.1, 0.9, 5)),
    )
    with pytest.raises(ValueError):
        varying.with_capacity(10)


@pytest.mark.parametrize("capacity", [0, -5])
def test_a_capacity_below_two_is_refused_before_the_schedule_is_built(capacity):
    """Each constructor checks N before it builds the constant schedule,
    which would fail first with an empty-vector (N = 0) or numpy's
    negative-dimension message (N = -5)."""
    message = rf"^capacity_n must be an integer >= 2, got {capacity}$"
    with pytest.raises(ValueError, match=message):
        make_params(FIG_A, capacity)
    with pytest.raises(ValueError, match=message):
        make_params(FIG_A, 100).with_capacity(capacity)
    config = params_to_config(make_params(FIG_A, 100))
    with pytest.raises(ValueError, match=message):
        params_from_config({**config, "N": str(capacity)})


@pytest.mark.parametrize("capacity", [250.9, 250.0])
def test_with_capacity_rejects_a_non_integer_capacity(capacity):
    with pytest.raises(ValueError, match=rf"^capacity_n must be an integer, got {capacity!r}$"):
        make_params(FIG_A, 100).with_capacity(capacity)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 5000), epsilon=st.floats(0.0, 1.0), x_plus=st.floats(0.0, 2.0))
def test_within_is_the_density_window(n, epsilon, x_plus):
    # the masks and tails the ensemble and the diagnostic once built by hand
    density = np.arange(n + 1) / n
    around_zero = _within(n, 0.0, epsilon)
    around_x_plus = _within(n, x_plus, epsilon)
    assert np.array_equal(around_zero, density <= epsilon)
    assert np.array_equal(~around_zero, density > epsilon)
    assert np.array_equal(around_x_plus, np.abs(density - x_plus) <= epsilon)
    assert np.array_equal(~around_x_plus, np.abs(density - x_plus) > epsilon)


def test_parse_config_basics():
    text = """
    # reference parameters
    lambda = 1.4
    mu = 1.0    # unit clock
    delta1 = 0.45
    """
    cfg = parse_config(text)
    assert cfg == {"lambda": "1.4", "mu": "1.0", "delta1": "0.45"}


def test_parse_config_rejects_duplicates_and_garbage():
    with pytest.raises(ValueError):
        parse_config("a = 1\na = 2\n")
    with pytest.raises(ValueError):
        parse_config("just some words\n")


def test_params_from_config_missing_key():
    cfg = params_to_config(make_params(FIG_A, 100))
    del cfg["theta"]
    with pytest.raises(ValueError):
        params_from_config(cfg)


def test_params_from_config_bad_number():
    cfg = params_to_config(make_params(FIG_A, 100))
    cfg["mu"] = "fast"
    with pytest.raises(ValueError):
        params_from_config(cfg)


def test_config_roundtrip_is_exact():
    p = make_params(FIG_B, 250)
    q = params_from_config(params_to_config(p))
    assert q.lam == p.lam and q.mu == p.mu
    assert q.delta1 == p.delta1 and q.delta2 == p.delta2 and q.delta3 == p.delta3
    assert q.theta == p.theta and q.capacity_n == p.capacity_n
    assert q.immigration == p.immigration


def test_config_roundtrip_vector_schedule():
    spec = ImmigrationSpec(np.linspace(0.2, 0.8, 8))
    p = ModelParams(
        lam=1.3, mu=0.9, delta1=0.3, delta2=0.05, delta3=1.2,
        theta=0.04, capacity_n=8, immigration=spec,
    )
    q = params_from_config(params_to_config(p))
    assert q.immigration == spec
