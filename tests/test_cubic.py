"""Closed-form real-root extraction, checked against numpy's eigen-solver."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alleechain._cubic import real_roots


def _np_real_roots(coeffs):
    roots = np.roots(coeffs)
    return sorted(float(r.real) for r in roots if abs(r.imag) <= 1e-9 * max(1.0, abs(r)))


def test_three_known_real_roots():
    # (x - 2)(x - 4)(x + 8) = x^3 + 2x^2 - 40x + 64
    roots = real_roots(1.0, 2.0, -40.0, 64.0)
    assert roots == pytest.approx([-8.0, 2.0, 4.0], abs=1e-12)


def test_one_real_root_complex_pair():
    # (x - 1)(x^2 + 8x + 20): the conjugate pair is dropped
    roots = real_roots(1.0, 7.0, 12.0, -20.0)
    assert roots == pytest.approx([1.0], abs=1e-12)
    # x^3 - 8: the depressed cubic has p = 0 and q != 0
    assert real_roots(1.0, 0.0, 0.0, -8.0) == pytest.approx([2.0], abs=1e-12)


def test_one_real_root_far_below_a_complex_pair():
    # the complex pair has modulus ~6e8 and the real root is ~2.4e-20: the
    # closed form carries an error at the pair's scale, which Newton removes
    coeffs = (1.068e-8, -1.915e-9, 4.385e9, -1.060e-10)
    (root,) = real_roots(*coeffs)
    x = Fraction(root)
    value = sum(Fraction(c) * x ** (3 - k) for k, c in enumerate(coeffs))
    size = sum(abs(Fraction(c)) * abs(x) ** (3 - k) for k, c in enumerate(coeffs))
    assert abs(value) / size <= 1e-12


def test_triple_root():
    # (x - 1)^3
    roots = real_roots(1.0, -3.0, 3.0, -1.0)
    assert roots == pytest.approx([1.0, 1.0, 1.0], abs=1e-7)


def test_double_root_plus_simple():
    # (x - 2)^2 (x + 3)
    roots = real_roots(1.0, -1.0, -8.0, 12.0)
    assert roots == pytest.approx([-3.0, 2.0, 2.0], abs=1e-7)


def test_root_at_origin():
    roots = real_roots(1.0, 0.0, -1.0, 0.0)
    assert roots == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)


def test_degenerate_quadratic():
    roots = real_roots(0.0, 1.0, -5.0, 6.0)
    assert roots == pytest.approx([2.0, 3.0], abs=1e-12)


def test_degenerate_linear_and_constant():
    assert real_roots(0.0, 0.0, 2.0, -8.0) == pytest.approx([4.0], abs=1e-15)
    assert real_roots(0.0, 0.0, 0.0, 3.0) == []
    with pytest.raises(ValueError):
        real_roots(0.0, 0.0, 0.0, 0.0)


def test_tiny_leading_quadratic_is_stable():
    """Near-degenerate quadratics must not cancel catastrophically."""
    roots = real_roots(0.0, 1e-12, -1.0, 1.0)
    assert len(roots) == 2
    # the small root of eps*x^2 - x + 1 stays near 1
    assert min(roots, key=abs) == pytest.approx(1.0, abs=1e-9)
    assert max(roots, key=abs) == pytest.approx(1e12, rel=1e-9)


def test_root_far_above_a_close_pair():
    # x (a x^2 - b x + c) with a = 1.8e-9: the immigration cubic at alpha = 0
    # with delta1 = 1.2e-9, whose roots are 0, x-* = 0.25 and x+* = 2.8e8
    coeffs = (1.7881393434393545e-09, -0.49999999970197684, 0.12499999996274708, 0.0)
    expected = _np_real_roots(coeffs)
    assert len(expected) == 3
    assert real_roots(*coeffs) == pytest.approx(expected, rel=1e-9, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    lead=st.sampled_from([-3.0, -1.0, 0.5, 1.0, 2.0]),
    r=st.integers(-32, 32).map(lambda k: k / 8.0),
    gap=st.integers(1, 32).map(lambda k: k / 8.0),
    exponent=st.integers(4, 300),
    sign=st.sampled_from([-1.0, 1.0]),
    complex_pair=st.booleans(),
)
@example(lead=1.0, r=0.0, gap=0.25, exponent=300, sign=1.0, complex_pair=False)
@example(lead=-3.0, r=-4.0, gap=4.0, exponent=300, sign=-1.0, complex_pair=False)
def test_a_far_root_leaves_the_pair_at_its_own_scale(lead, r, gap, exponent, sign, complex_pair):
    """A root up to 1e300 away: no overflow, and the pair r, r + gap (or the
    complex pair r +- i*gap) below it is resolved, not merged."""
    big = sign * 10.0 ** exponent
    # lead * (x - big) * (x**2 - total*x + product), rounded coefficient by coefficient
    if complex_pair:
        total, product = 2.0 * r, r * r + gap * gap
        expected = [big]
    else:
        total, product = 2.0 * r + gap, r * (r + gap)
        expected = sorted([r, r + gap, big])
    coeffs = (lead, -lead * (big + total), lead * (big * total + product), -lead * big * product)
    got = real_roots(*coeffs)
    assert len(got) == len(expected)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-9)


def test_a_root_beyond_the_float_range_is_left_out():
    # (x - 1)(x - 2) times (5e-324 x + 1): the third root is -2e323
    assert real_roots(5e-324, 1.0, -3.0, 2.0) == pytest.approx([1.0, 2.0], abs=1e-12)
    # x**3 * 5e-324 - 1: its one real root is 1.3e108, inside the range
    assert real_roots(5e-324, 0.0, 0.0, -1.0) == pytest.approx([5e-324 ** (-1.0 / 3.0)], rel=1e-12)


def test_scale_invariance():
    base = real_roots(1.0, 2.0, -40.0, 64.0)
    scaled = real_roots(-7.5, -15.0, 300.0, -480.0)
    assert scaled == pytest.approx(base, abs=1e-9)


def test_randomized_three_real_roots_vs_numpy():
    rng = np.random.default_rng(515)
    for _ in range(100):
        r = np.sort(rng.uniform(-5.0, 5.0, size=3))
        lead = rng.uniform(0.2, 4.0) * rng.choice([-1.0, 1.0])
        coeffs = lead * np.poly(r)
        got = real_roots(*coeffs)
        assert len(got) == 3
        scale = max(1.0, np.abs(r).max())
        assert got == pytest.approx(list(r), abs=5e-7 * scale)


def test_randomized_single_real_root_vs_numpy():
    rng = np.random.default_rng(516)
    for _ in range(100):
        real = rng.uniform(-5.0, 5.0)
        a, b = rng.uniform(-4.0, 4.0), rng.uniform(0.3, 4.0)
        # (x - real)(x - (a+ib))(x - (a-ib))
        coeffs = np.poly([real, complex(a, b), complex(a, -b)]).real
        got = real_roots(*coeffs)
        assert len(got) == 1
        assert got[0] == pytest.approx(real, abs=1e-8 * max(1.0, abs(real)))


def test_randomized_coefficients_vs_numpy():
    """Random raw coefficients: compare against numpy whenever numpy is sure."""
    rng = np.random.default_rng(517)
    checked = 0
    for _ in range(200):
        coeffs = rng.uniform(-3.0, 3.0, size=4)
        if abs(coeffs[0]) < 1e-3:
            continue
        expected = _np_real_roots(coeffs)
        # skip near-multiple-root draws where both solvers legitimately blur
        disc_like = min(
            (abs(x - y) for i, x in enumerate(expected) for y in expected[i + 1:]),
            default=1.0,
        )
        if disc_like < 1e-4:
            continue
        got = real_roots(*coeffs)
        assert len(got) == len(expected)
        assert got == pytest.approx(expected, abs=1e-7 * max(1.0, *map(abs, expected), 1.0))
        checked += 1
    assert checked > 150


#: Roots on a 1/8 grid in [-4, 4] keep every coefficient below exact in
#: float64, so a drawn double or triple root is one in the coefficients too.
_GRID = st.integers(-32, 32).map(lambda k: k / 8.0)


@settings(max_examples=300, deadline=None)
@given(
    lead=st.sampled_from([-3.0, -1.0, 0.5, 1.0, 2.0]),
    shape=st.sampled_from(["three", "double", "complex pair", "quadratic", "quadratic double"]),
    r=_GRID,
    s=_GRID,
    t=_GRID,
    im=st.integers(1, 32).map(lambda k: k / 8.0),
)
@example(lead=1.0, shape="double", r=-4.0, s=0.0, t=-2.0, im=1.0)
@example(lead=-3.0, shape="double", r=0.0, s=0.0, t=-3.625, im=1.0)
@example(lead=0.5, shape="three", r=-3.875, s=-3.875, t=-3.875, im=1.0)
@example(lead=1.0, shape="quadratic double", r=0.0, s=0.0, t=0.0, im=1.0)
def test_real_roots_match_numpy_on_repeated_roots(lead, shape, r, s, t, im):
    """Built from known roots, including double roots and c3 = 0."""
    if shape == "complex pair":
        coeffs = lead * np.poly([r, complex(s, im), complex(s, -im)]).real
        expected = [r]
    elif shape.startswith("quadratic"):
        pair = [r, r] if shape == "quadratic double" else [r, s]
        coeffs = np.concatenate([[0.0], lead * np.poly(pair)])
        expected = sorted(pair)
    else:
        expected = sorted([r, r, t] if shape == "double" else [r, s, t])
        coeffs = lead * np.poly(expected)
    multiplicity = max(expected.count(x) for x in expected)
    tol = {1: 1e-8, 2: 1e-6, 3: 1e-4}[multiplicity]

    got = real_roots(*coeffs)
    assert len(got) == len(expected)
    assert got == pytest.approx(expected, abs=tol)
    from_numpy = sorted(float(z.real) for z in np.roots(coeffs) if abs(z.imag) <= tol)
    assert got == pytest.approx(from_numpy, abs=tol)
