"""Closed-form real-root solver for polynomials of degree up to three."""

from __future__ import annotations

import math


def _eval(coeffs, x):
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _newton_polish(coeffs, deriv, x):
    # One corrective step; skip when the derivative is too flat to trust.
    fx = _eval(coeffs, x)
    dx = _eval(deriv, x)
    if dx == 0.0 or not math.isfinite(fx / dx):
        return x
    step = fx / dx
    if abs(step) > 1.0 + abs(x):
        return x
    return x - step


def real_roots(c3: float, c2: float, c1: float, c0: float) -> list[float]:
    """All real roots of c3*x**3 + c2*x**2 + c1*x + c0, sorted ascending.

    Uses the trigonometric form when the depressed cubic has three real
    roots and Cardano's formula otherwise, followed by one Newton step per
    simple root to shake off cancellation in the closed forms. A
    discriminant (and p) within its rounding error of 0 counts as 0, so a
    repeated root is kept, unpolished. Degenerate leading coefficients fall
    back to the quadratic / linear closed forms.

    Multiple roots are returned with multiplicity. Raises ValueError for the
    identically-zero polynomial (every x is a root).
    """
    if c3 == 0.0:
        return _quadratic_roots(c2, c1, c0)

    b = c2 / c3
    c = c1 / c3
    d = c0 / c3
    # Depress: x = t - b/3 turns the cubic into t**3 + p*t + q.
    shift = b / 3.0
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    half_q = q / 2.0
    third_p = p / 3.0
    disc = half_q * half_q + third_p ** 3
    # Rounding bounds of p and q (a few ulps of their terms), carried into disc.
    err_p = 4.0 * math.ulp(1.0) * (abs(c) + b * b / 3.0)
    err_q = 4.0 * math.ulp(1.0) * (abs(2.0 * b ** 3 / 27.0) + abs(b * c / 3.0) + abs(d))
    if abs(disc) <= abs(half_q) * err_q + third_p ** 2 * err_p:
        disc = 0.0
        p = 0.0 if abs(p) <= err_p else p

    coeffs = (c3, c2, c1, c0)
    deriv = (3.0 * c3, 2.0 * c2, c1)
    if disc < 0.0:
        # Three distinct real roots; p < 0 is guaranteed here.
        m = 2.0 * math.sqrt(-third_p)
        phi = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * m))))
        ts = [m * math.cos((phi - 2.0 * math.pi * k) / 3.0) for k in range(3)]
    elif disc == 0.0:
        if p == 0.0:
            return [-shift] * 3
        # One simple root and one double root, where f' = 0 defeats Newton.
        double = -1.5 * q / p - shift
        return sorted([_newton_polish(coeffs, deriv, 3.0 * q / p - shift), double, double])
    else:
        root = math.sqrt(disc)
        u = math.copysign(abs(-half_q + root) ** (1.0 / 3.0), -half_q + root)
        v = math.copysign(abs(-half_q - root) ** (1.0 / 3.0), -half_q - root)
        ts = [u + v]
    return sorted(_newton_polish(coeffs, deriv, t - shift) for t in ts)


def _quadratic_roots(a: float, b: float, c: float) -> list[float]:
    if a == 0.0:
        if b == 0.0:
            if c == 0.0:
                raise ValueError("zero polynomial has every x as a root")
            return []
        return [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    root = math.sqrt(disc)
    # Citardauq on the small root avoids cancellation when b dominates.
    q = -0.5 * (b + math.copysign(root, b))
    if q == 0.0:
        return [0.0, 0.0]  # b = c = 0: double root at the origin
    return sorted([q / a, c / q])
