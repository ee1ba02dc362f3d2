"""Shared fixtures: reference parameter sets and a randomized corpus.

The corpus is rejection-sampled so every draw satisfies the full
assumption set (threshold chain, density dependence, positive
discriminant, interior carrying capacity). Sampling is seeded, so test
runs are reproducible. The hypothesis strategy boundary_params draws
across those assumptions instead.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from alleechain import ModelParams

FIG_A = dict(lam=1.4, mu=1.0, delta1=0.45, delta2=0.1, delta3=1.45, theta=0.03, r1=0.99)
FIG_B = dict(lam=1.7, mu=1.0, delta1=0.9, delta2=0.0, delta3=1.7, theta=0.03, r1=0.99)


def make_params(base: dict, capacity_n: int) -> ModelParams:
    return ModelParams.from_constants(capacity_n=capacity_n, **base)


def sample_admissible(rng: np.random.Generator) -> dict:
    """One random parameter dict passing every model assumption."""
    while True:
        lam = rng.uniform(1.05, 2.5)
        mu = 1.0 if rng.random() < 0.5 else rng.uniform(0.5, 2.0)
        r0 = lam / mu
        d1 = rng.uniform(0.0, 1.0)
        d2 = rng.uniform(0.0, 0.5)
        if d1 == 0.0 and d2 == 0.0:
            continue
        theta = rng.uniform(0.01, 0.2)
        d3_low = max(r0 - 1.0, 0.0) + 0.02
        d3 = rng.uniform(d3_low, d3_low + 2.0)
        a = r0 * d1 + d2
        if not 1.0 + theta * a < r0 < 1.0 + d3:
            continue
        disc = (1.0 - r0 - theta * a) ** 2 - 4.0 * theta * d3 * a
        if disc <= 0.0:
            continue
        if (r0 - 1.0 - a * theta + np.sqrt(disc)) / (2.0 * a) > 1.0:
            continue
        return dict(
            lam=lam, mu=mu, delta1=d1, delta2=d2, delta3=d3,
            theta=theta, r1=rng.uniform(0.05, 1.0),
        )


@st.composite
def boundary_params(draw, max_capacity: int = 300) -> ModelParams:
    """Parameters on both sides of the bistability and interior-capacity bounds.

    R0 is placed at a drawn position along the bistability chain
    (1 + theta*delta2)/(1 - theta*delta1) < R0 < 1 + delta3, from half its
    width below the lower end to half its width above the upper one. The
    density dependence is sometimes scaled down fifty-fold, which pushes
    x_plus above 1.
    """
    mu = draw(st.floats(0.5, 2.0))
    scale = draw(st.sampled_from([0.02, 1.0]))
    delta1 = draw(st.floats(0.0, 1.0)) * scale
    delta2 = draw(st.floats(0.0, 0.5)) * scale
    delta3 = draw(st.floats(0.1, 3.0))
    theta = draw(st.floats(0.01, 0.3))
    lo = (1.0 + theta * delta2) / (1.0 - theta * delta1)
    hi = 1.0 + delta3
    r0 = max(lo + draw(st.floats(-0.5, 1.5)) * (hi - lo), 0.05)
    return ModelParams.from_constants(
        lam=r0 * mu, mu=mu, delta1=delta1, delta2=delta2, delta3=delta3, theta=theta,
        capacity_n=draw(st.integers(2, max_capacity)), r1=draw(st.floats(0.01, 1.0)),
    )


@pytest.fixture(scope="session")
def corpus() -> list[dict]:
    rng = np.random.default_rng(20240811)
    return [sample_admissible(rng) for _ in range(50)]


@pytest.fixture
def fig1a() -> ModelParams:
    return make_params(FIG_A, 100)


@pytest.fixture
def fig1b() -> ModelParams:
    return make_params(FIG_B, 100)


@pytest.fixture
def fig2a() -> ModelParams:
    return make_params(FIG_A, 5000)


@pytest.fixture
def fig2b() -> ModelParams:
    return make_params(FIG_B, 5000)
