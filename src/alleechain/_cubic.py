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


def _newton_converged(coeffs, deriv, x):
    # Newton steps while each lowers |f|. One step from a closed form that
    # is accurate only to the cubic's scale lands within the rounding of f
    # there; the next runs at the root's own scale.
    fx = abs(_eval(coeffs, x))
    while fx:
        nxt = _newton_polish(coeffs, deriv, x)
        f_nxt = abs(_eval(coeffs, nxt))
        if not f_nxt < fx:  # also stops on a NaN
            break
        x, fx = nxt, f_nxt
    return x


def _exponent_near(x: float) -> int:
    # k with x / 2 < 2**k <= x (0 for x = 0): scaling by 2**k is exact.
    return math.frexp(x)[1] - 1 if x else 0


def _scaled_ratio(x: float, y: float, k: int) -> float:
    # x / (y * 2**k) with the one rounding of x / y and no overflow on the way.
    mx, ex = math.frexp(x)
    my, ey = math.frexp(y)
    return math.ldexp(mx / my, ex - ey - k)


def _scaled_product(x: float, y: float, k: int) -> float:
    # x * y / 2**k with the one rounding of x * y and no overflow on the way.
    mx, ex = math.frexp(x)
    my, ey = math.frexp(y)
    return math.ldexp(mx * my, ex + ey - k)


def real_roots(c3: float, c2: float, c1: float, c0: float) -> list[float]:
    """All real roots of c3*x**3 + c2*x**2 + c1*x + c0, sorted ascending.

    An exact root at 0 (c0 = 0) is divided out at once, and a root beyond
    the float range (c3 too small for the other coefficients) is left out.
    Otherwise the closed forms run on the depressed cubic of x / 2**k, with
    2**k near the largest root, so no term overflows: the trigonometric form
    when it has three real roots and Cardano's formula otherwise. A
    discriminant (and p) within its rounding error of 0 counts as 0. Of
    three real roots (counted with multiplicity) the largest in magnitude is
    polished by a Newton step and divided out, and the quadratic left gives
    the other two at their own scale, so a pair far below the largest root
    is not merged. A double root larger than the simple one keeps its closed
    form, unpolished, where f' = 0 defeats Newton. Cardano's one real root,
    which may lie far below a complex pair and so carry the closed form's
    error at the pair's scale, takes Newton steps for as long as they lower
    |f|. Degenerate leading coefficients fall back to the quadratic /
    linear closed forms.

    Multiple roots are returned with multiplicity. Raises ValueError for the
    identically-zero polynomial (every x is a root).
    """
    if c3 == 0.0:
        return _quadratic_roots(c2, c1, c0)
    if c0 == 0.0:
        return sorted([0.0, *_quadratic_roots(c3, c2, c1)])

    bound = max(
        abs(c2) / abs(c3),
        math.sqrt(abs(c1)) / math.sqrt(abs(c3)),
        abs(c0) ** (1.0 / 3.0) / abs(c3) ** (1.0 / 3.0),
    )
    if bound == math.inf:
        # The largest root lies beyond the float range; c3 x**3 is negligible
        # at every root that does not.
        return _quadratic_roots(c2, c1, c0)
    power = _exponent_near(bound)
    scale = math.ldexp(1.0, power)
    b = _scaled_ratio(c2, c3, power)
    c = _scaled_ratio(c1, c3, 2 * power)
    d = _scaled_ratio(c0, c3, 3 * power)
    # Depress: x / scale = t - b/3 turns the cubic into t**3 + p*t + q.
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
    if disc > 0.0:
        root = math.sqrt(disc)
        u = math.copysign(abs(-half_q + root) ** (1.0 / 3.0), -half_q + root)
        v = math.copysign(abs(-half_q - root) ** (1.0 / 3.0), -half_q - root)
        return [_newton_converged(coeffs, deriv, (u + v - shift) * scale)]
    if disc < 0.0:
        # Three distinct real roots; p < 0 is guaranteed here.
        m = 2.0 * math.sqrt(-third_p)
        phi = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * m))))
        roots = [(m * math.cos((phi - 2.0 * math.pi * k) / 3.0) - shift) * scale for k in range(3)]
    elif p == 0.0:
        return [-shift * scale] * 3
    else:
        # One simple root and one double root, where f' = 0 defeats Newton.
        simple = (3.0 * q / p - shift) * scale
        double = (-1.5 * q / p - shift) * scale
        if abs(double) > abs(simple):
            return sorted([_newton_polish(coeffs, deriv, simple), double, double])
        roots = [simple]
    largest = _newton_polish(coeffs, deriv, max(roots, key=abs))
    # Backward deflation (from c0), the stable order for the largest root.
    e0 = -c0 / largest
    e1 = (e0 - c1) / largest
    return sorted([largest, *_quadratic_roots(c3, e1, e0, 16.0 * math.ulp(1.0))])


def _quadratic_roots(a: float, b: float, c: float, disc_rel_err: float = 0.0) -> list[float]:
    # A discriminant short of 0 by at most disc_rel_err times the size of its
    # terms counts as 0 (a double root). It is formed divided by the square
    # of a power of two near the larger of |b| and sqrt(|a c|), so no square
    # overflows or underflows and no rounding changes. A root beyond the
    # float range is left out.
    if a == 0.0:
        if b == 0.0:
            if c == 0.0:
                raise ValueError("zero polynomial has every x as a root")
            return []
        return [r for r in [-c / b] if abs(r) != math.inf]
    power = _exponent_near(max(abs(b), math.sqrt(abs(a)) * math.sqrt(abs(c))))
    b_s = math.ldexp(b, -power)
    ac_s = 4.0 * _scaled_product(a, c, 2 * power)
    disc = b_s * b_s - ac_s
    if disc < -disc_rel_err * (b_s * b_s + abs(ac_s)):
        return []
    root = math.sqrt(max(disc, 0.0)) * math.ldexp(1.0, power)
    # Citardauq on the small root avoids cancellation when b dominates.
    q = -(0.5 * b + math.copysign(0.5 * root, b))
    if q == 0.0:
        return [0.0, 0.0]  # b = c = 0: double root at the origin
    return sorted(r for r in (q / a, c / q) if abs(r) != math.inf)
