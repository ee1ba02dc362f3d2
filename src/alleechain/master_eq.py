"""Generator matrix and master-equation evolution.

Builds the tridiagonal generator Q of the birth-death chain and evolves
p(t) = exp(Qt) p0 by uniformization, which preserves the probability
simplex by construction. The long-horizon driver witnesses convergence to
the product-formula stationary distribution from arbitrary starts.
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


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Tridiagonal generator Q, column convention: columns sum to zero.

    Column i carries the outflow -(b[i] + d[i]) on the diagonal, the birth
    flux b[i] just below it and the death flux d[i] just above it, so that
    the master equation reads dp/dt = Q p for a column probability vector.
    Only the two rate diagonals are stored.
    """

    birth: np.ndarray
    death: np.ndarray

    def __post_init__(self):
        self.birth.setflags(write=False)
        self.death.setflags(write=False)

    @classmethod
    def from_rates(cls, birth, death) -> "GeneratorMatrix":
        b, d = validate_rates(birth, death)
        if d[0] != 0.0:
            raise ValueError("death rate at state 0 must be exactly 0")
        return cls(b, d)

    @property
    def dimension(self) -> int:
        return int(self.birth.size)

    @property
    def capacity_n(self) -> int:
        return int(self.birth.size - 1)

    @property
    def diagonal(self) -> np.ndarray:
        return -(self.birth + self.death)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product Q v using only the three diagonals."""
        v = np.asarray(v, dtype=float)
        out = np.empty_like(v)
        _stencil(self, v, out)()
        return out

    def dense(self) -> np.ndarray:
        """Full (N+1) x (N+1) array, for tests and small-system inspection."""
        n = self.dimension
        q = np.zeros((n, n))
        idx = np.arange(n)
        q[idx, idx] = self.diagonal
        q[idx[1:], idx[:-1]] = self.birth[:-1]
        q[idx[:-1], idx[1:]] = self.death[1:]
        return q

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
    diag = gen.diagonal
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
    b, d = rate_arrays(params)
    return GeneratorMatrix.from_rates(b, d)


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """A point on the probability simplex together with its model time."""

    probs: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.probs.setflags(write=False)

    @classmethod
    def from_probs(cls, probs, time: float = 0.0) -> "ProbabilityVector":
        p = np.ascontiguousarray(probs, dtype=float)
        if np.any(p < -1e-14):
            raise ValueError("probabilities must be nonnegative")
        p = np.clip(p, 0.0, None)
        total = p.sum()
        if not math.isfinite(total) or abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")
        return cls(p / total, float(time))

    @classmethod
    def point_mass(cls, state: int, dimension: int, time: float = 0.0) -> "ProbabilityVector":
        if not 0 <= state < dimension:
            raise ValueError(f"state {state} outside 0..{dimension - 1}")
        p = np.zeros(dimension)
        p[state] = 1.0
        return cls(p, float(time))

    @classmethod
    def uniform(cls, dimension: int, time: float = 0.0) -> "ProbabilityVector":
        return cls(np.full(dimension, 1.0 / dimension), float(time))


def total_variation(p, q) -> float:
    """Total-variation distance between two probability vectors."""
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def evolve(
    gen: GeneratorMatrix,
    p0: ProbabilityVector,
    t: float,
    *,
    truncation_tol: float = 1e-12,
    max_terms: int = 5_000_000,
) -> ProbabilityVector:
    """p(t) = exp(Qt) p0 by uniformization.

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
        ConvergenceBudgetError: the required number of series terms exceeds
            max_terms.
    """
    if t < 0:
        raise ValueError("evolution time must be >= 0")
    if p0.probs.size != gen.dimension:
        raise ValueError("distribution dimension does not match the generator")
    if t == 0.0:
        return p0
    rate = gen.uniformization_rate()
    lt = rate * t
    if lt == 0.0:
        return ProbabilityVector(p0.probs.copy(), p0.time + t)
    last = int(stats.poisson.isf(truncation_tol, lt)) + 1
    if last + 1 > max_terms:
        raise ConvergenceBudgetError(
            f"uniformization needs {last + 1} series terms for tolerance "
            f"{truncation_tol:.1e} at horizon {t:g}, budget is {max_terms}",
            horizon=t,
        )
    k = np.arange(last + 1, dtype=float)
    log_w = k * math.log(lt) - gammaln(k + 1.0) - lt
    weights = np.exp(log_w - logsumexp(log_w))
    v = p0.probs.copy()
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
    return ProbabilityVector(acc / acc.sum(), p0.time + t)


def converge_to_stationary(
    gen: GeneratorMatrix,
    p0: ProbabilityVector,
    tol: float,
    *,
    max_horizon: float = 1e6,
) -> tuple[ProbabilityVector, float, float]:
    """Evolve over doubling horizons until within tol of the stationary law.

    The reference distribution is computed from the generator's own rates by
    the product formula, so synthetic generators work the same as
    model-built ones. Returns (witness, elapsed model time, total variation
    to the reference); elapsed is 0 when p0 already satisfies the tolerance.

    Raises:
        ConvergenceBudgetError: max_horizon was integrated without reaching
            tol; carries the achieved distance and the final witness.
    """
    target = stationary_from_rates(gen.birth, gen.death).probs
    current = p0
    elapsed = 0.0
    tv = total_variation(current.probs, target)
    if tv <= tol:
        return current, elapsed, tv
    horizon = _INITIAL_HORIZON
    while True:
        current = evolve(gen, current, horizon)
        elapsed += horizon
        tv = total_variation(current.probs, target)
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
