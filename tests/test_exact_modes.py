"""Exact rational witness for the N = 100 mode locations.

The stationary weights satisfy w[i+1] / w[i] = b(i) / d(i+1). With the
preset constants taken as decimal fractions every rate is rational, so the
weights are built and ordered without rounding. The modes this gives are
the ones the floating-point profile reports (39 for fig1a, 37 for fig1b).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from alleechain import mode_profile, psd_product

from conftest import FIG_A, FIG_B, make_params

#: The presets' constants as written in the CLI, read as exact decimals.
EXACT = {
    "fig1a": (FIG_A, dict(lam="1.4", mu="1.0", delta1="0.45", delta2="0.1",
                          delta3="1.45", theta="0.03", r1="0.99"), 39),
    "fig1b": (FIG_B, dict(lam="1.7", mu="1.0", delta1="0.9", delta2="0.0",
                          delta3="1.7", theta="0.03", r1="0.99"), 37),
}


def exact_weights(constants: dict[str, str], n: int) -> list[Fraction]:
    """w[i] = p_i / p_0 over states 0..n, in rational arithmetic."""
    c = {key: Fraction(value) for key, value in constants.items()}

    def birth(i):
        return c["lam"] * i * (1 - c["delta1"] * Fraction(i, n)) + c["mu"] * c["r1"] / n * (n - i)

    def death(i):
        x = Fraction(i, n)
        return c["mu"] * i * (1 + c["delta2"] * x + c["delta3"] * c["theta"] / (c["theta"] + x))

    weights = [Fraction(1)]
    for i in range(n):
        weights.append(weights[-1] * birth(i) / death(i + 1))
    return weights


@pytest.mark.parametrize("preset", sorted(EXACT))
def test_modes_in_rational_arithmetic(preset):
    base, constants, expected_plus = EXACT[preset]
    n = 100
    w = exact_weights(constants, n)
    up = [w[i + 1] > w[i] for i in range(n)]
    # decreasing from 0 to the dip, increasing to i_plus, decreasing after
    i_minus = up.index(True)
    i_plus = up.index(False, i_minus)
    assert not any(up[:i_minus]) and all(up[i_minus:i_plus]) and not any(up[i_plus:])
    assert i_plus == expected_plus
    assert w[i_minus] < min(w[0], w[i_plus])

    dist = psd_product(make_params(base, n))
    assert np.array_equal(np.diff(dist.log_weights) > 0, up)
    profile = mode_profile(dist)
    assert (profile.i_minus, profile.i_plus) == (i_minus, i_plus)
    assert profile.major_mode == (0 if w[0] >= w[i_plus] else i_plus)
