"""Generator matrix and master-equation evolution.

Builds the tridiagonal generator Q of the birth-death chain and evolves
p(t) = exp(Qt) p0 by uniformization, which preserves the probability
simplex by construction, within a budget of _MAX_TERMS series terms per
call. The long-horizon driver witnesses convergence to the product-formula
stationary distribution from arbitrary starts. Inputs are copied, and every
distribution returned is a new read-only float array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.special import gammaln, logsumexp

from .errors import ConvergenceBudgetError
from .model import ModelParams, rate_arrays
from .stationary import stationary_from_rates, validate_rates

#: Strict sub-stochasticity margin applied to the uniformization rate.
_UNIFORMIZATION_MARGIN = 1e-9

#: First horizon converge_to_stationary tries; it doubles from there.
_INITIAL_HORIZON = 1.0

#: Largest number of uniformization series terms one evolve call may sum.
_MAX_TERMS = 5_000_000


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Tridiagonal generator Q, column convention: columns sum to zero.

    Column i carries the outflow -(b[i] + d[i]) on the diagonal, the birth
    flux b[i] just below it and the death flux d[i] just above it, so that
    the master equation reads dp/dt = Q p for a column probability vector.
    Only the two rate diagonals are stored, as read-only float copies of the
    array-likes passed in: b[N] and d[0] must be exactly 0, every rate >= 0.
    """

    birth: np.ndarray
    death: np.ndarray

    def __post_init__(self):
        b, d = validate_rates(self.birth, self.death)
        if d[0] != 0.0:
            raise ValueError("death rate at state 0 must be exactly 0")
        for name, rates in (("birth", b), ("death", d)):
            rates.setflags(write=False)
            object.__setattr__(self, name, rates)

    @property
    def dimension(self) -> int:
        return int(self.birth.size)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product Q v using only the three diagonals."""
        v = np.asarray(v, dtype=float)
        out = np.empty_like(v)
        _stencil(self, v, out)()
        return out

    def uniformization_rate(self) -> float:
        """Smallest usable uniform event rate, with a strict margin."""
        return float((self.birth + self.death).max()) * (1.0 + _UNIFORMIZATION_MARGIN)


def _stencil(gen: GeneratorMatrix, v: np.ndarray, out: np.ndarray):
    """Return a function that writes Q v into out for the current contents of v.

    The diagonal, the rate and vector slice views and one scratch row are
    made here once, so each call runs five ufuncs and allocates nothing.
    The sums are taken in one fixed order: diag*v, then the birth inflow
    into out[1:], then the death inflow into out[:-1].
    """
    diag = -(gen.birth + gen.death)
    b_lo, d_hi = gen.birth[:-1], gen.death[1:]
    v_lo, v_hi = v[:-1], v[1:]
    out_lo, out_hi = out[:-1], out[1:]
    tmp = np.empty(v.size - 1)

    def apply() -> None:
        np.multiply(diag, v, out=out)
        np.multiply(b_lo, v_lo, out=tmp)
        np.add(out_hi, tmp, out=out_hi)
        np.multiply(d_hi, v_hi, out=tmp)
        np.add(out_lo, tmp, out=out_lo)

    return apply


def build_generator(params: ModelParams) -> GeneratorMatrix:
    """Assemble Q from the model's birth and death rates."""
    return GeneratorMatrix(*rate_arrays(params))


def total_variation(p, q) -> float:
    """Total-variation distance between two probability vectors."""
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def _frozen_copy(gen: GeneratorMatrix, p) -> np.ndarray:
    """A new read-only float array holding p, checked against the generator."""
    v = np.array(p, dtype=float)
    if v.shape != (gen.dimension,):
        raise ValueError(f"distribution of shape {v.shape} does not fit {gen.dimension} states")
    v.setflags(write=False)
    return v


def evolve(gen: GeneratorMatrix, p0, t: float, *, truncation_tol: float = 1e-12) -> np.ndarray:
    """p(t) = exp(Qt) p0 by uniformization.

    p0 is any array-like probability vector over the generator's states; it
    is copied, never written to. The result is a new read-only array.

    Writes the semigroup as a Poisson(rate*t) mixture of powers of the
    uniformized stochastic matrix P = I + Q/rate. The truncation point is
    the Poisson inverse survival function at truncation_tol, so the
    discarded tail mass is below the tolerance by construction. Weights are
    built in log space (exp(-rate*t) underflows for horizons well inside
    the range this module must support) and renormalized to unit sum, which
    keeps the output on the simplex and absorbs the float rounding a
    fifty-thousand-term sum would otherwise accumulate.

    The loop allocates nothing per term: v, Q v and one scratch row are
    preallocated, and each step computes v + (Q v)/rate in place with the
    same operations in the same order as the plain expression, so the
    result is bit for bit the same. Terms whose weight underflowed to
    exactly 0.0 (at long horizons most of the leading ones) are propagated
    but not accumulated; adding 0.0 * v could only flip the sign of a zero
    entry, and the final clip maps -0.0 to 0.0.

    Raises:
        ValueError: t is negative or not finite, or p0 has the wrong shape.
        ConvergenceBudgetError: the required number of series terms exceeds
            _MAX_TERMS; raised before any term is computed.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"evolution time must be finite and >= 0, got {t!r}")
    p = _frozen_copy(gen, p0)
    rate = gen.uniformization_rate()
    lt = rate * t
    if t == 0.0 or lt == 0.0:
        return p
    last = int(stats.poisson.isf(truncation_tol, lt)) + 1
    if last + 1 > _MAX_TERMS:
        raise ConvergenceBudgetError(
            f"uniformization needs {last + 1} series terms for tolerance "
            f"{truncation_tol:.1e} at horizon {t:g}, budget is {_MAX_TERMS}",
            horizon=t,
        )
    k = np.arange(last + 1, dtype=float)
    log_w = k * math.log(lt) - gammaln(k + 1.0) - lt
    weights = np.exp(log_w - logsumexp(log_w))
    v = p.copy()
    qv = np.empty_like(v)
    apply_q = _stencil(gen, v, qv)
    acc = weights[0] * v
    for w in weights[1:].tolist():
        apply_q()
        np.divide(qv, rate, out=qv)
        np.add(v, qv, out=v)
        if w:  # exact-zero weights add nothing (see the docstring)
            np.multiply(w, v, out=qv)
            np.add(acc, qv, out=acc)
    acc = np.clip(acc, 0.0, None)
    acc /= acc.sum()
    acc.setflags(write=False)
    return acc


def converge_to_stationary(
    gen: GeneratorMatrix,
    p0,
    tol: float,
    *,
    max_horizon: float = 1e6,
) -> tuple[np.ndarray, float, float]:
    """Evolve over doubling horizons until within tol of the stationary law.

    The reference distribution is computed from the generator's own rates by
    the product formula, so synthetic generators work the same as
    model-built ones. Returns (probs, elapsed model time, total variation
    to the reference), probs a new read-only array; elapsed is 0 when p0
    already satisfies the tolerance.

    Raises:
        ValueError: tol is negative or not finite, or max_horizon is not a
            finite positive number.
        ConvergenceBudgetError: max_horizon was integrated without reaching
            tol; carries the achieved distance and the final distribution.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    if not (math.isfinite(max_horizon) and max_horizon > 0):
        raise ValueError(f"max_horizon must be finite and > 0, got {max_horizon!r}")
    target = stationary_from_rates(gen.birth, gen.death).probs
    current = _frozen_copy(gen, p0)
    elapsed = 0.0
    tv = total_variation(current, target)
    if tv <= tol:
        return current, elapsed, tv
    horizon = _INITIAL_HORIZON
    while True:
        current = evolve(gen, current, horizon)
        elapsed += horizon
        tv = total_variation(current, target)
        if tv <= tol:
            return current, elapsed, tv
        if elapsed >= max_horizon:
            raise ConvergenceBudgetError(
                f"met {tv:.3e} total variation after horizon {elapsed:g}, "
                f"needed {tol:.1e}",
                achieved_tv=tv,
                horizon=elapsed,
                witness=current,
            )
        horizon *= 2.0
