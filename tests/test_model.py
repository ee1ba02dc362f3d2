"""Parameter container, rate functions, assumptions, config round-trips."""

from __future__ import annotations

import numpy as np
import pytest

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
from alleechain.model import balance_coefficients

from conftest import FIG_A, FIG_B, make_params


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
