"""Generator matrix and master-equation evolution.

Builds the tridiagonal generator Q of the birth-death chain and evolves
p(t) = exp(Qt) p0 by uniformization, which preserves the probability
simplex by construction, within a budget of _MAX_TERMS series terms per
call. The long-horizon driver witnesses convergence to the product-formula
stationary distribution from arbitrary starts. Inputs are copied, and every
distribution returned is a new read-only float array.

evolve always works on the whole state space by uniformization and is the
exact reference. _checkpoints is the one loop over the legs of
`alleechain evolve`: its checkpoints, and the doubling horizons of
converge_to_stationary. A leg takes one of two other routes, chosen by the
size of the chain:

- A chain of at most _DENSE_MAX_STATES states is small enough to hold its
  propagator exp(Qt) as a dense matrix, computed by scaling and squaring
  (Al-Mohy and Higham 2009) with the uniformization series, whose terms are
  all nonnegative, in place of their Pade approximant. A leg is then one
  matrix-vector product, clipped and renormalized like evolve's result.
  The last leg's propagator is kept: a leg of twice the step squares it,
  exp(2Qh) = exp(Qh)^2, where a fresh build would square the same base once
  more; any other step builds a fresh one, so many short steps can be
  slower than uniformization. Dense legs are refused where evolve would
  exceed its term budget, so the route never changes which legs succeed.
- On a larger chain each leg runs on a finite state projection (Munsky and
  Khammash 2006): a window of states around the support of the leg's start
  vector, bordered by two absorbing sink states that collect the mass the
  full chain would move out of the window. The support is the smallest
  interval that holds all but _TRIM_TOL of the start's mass; the rest (the
  cut) is zeroed before the leg runs. The sink mass (the leak) is the l1
  distance of the window's interior from the exact leg of the trimmed
  start, so the renormalized leg is within 2 (cut + leak), plus the series
  truncation, of the full-space leg. A leg whose leak exceeds _WINDOW_TOL
  is re-run on a wider window, and one whose window reaches the whole
  space is plain evolve on the untrimmed start.

A zero step, on either route, leaves the vector as it is.

The Poisson pmf of the series is formed in one place, _poisson_window,
from the ratios of consecutive terms (after Fox and Glynn 1988): it gives
both the truncation point and the weights, and needs no scipy.

Every start has a certified least horizon before it can reach the
stationary law (_escape_bound, after Keilson 1979 and Fill 2009): the
sets {0..k} and {k..N} let mass out no faster than an exponential clock.
The start, taken normalized, holds the share it has of the law restricted
to each such set, which is none for a point mass inside; a start on state
0 or N holds a full share on each set of the family that ends there. A
bound of 0 means none. converge_to_stationary reads it at its checkpoint
0 and stops there, before any leg, where it lies beyond its last
checkpoint: on the fig2b constants from state 0, and on the fig2a
constants from state N or a uniform start, the bound is above 1e18, far
past any leg budget.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceBudgetError
from .model import ModelParams, _check_finite, _check_finite_entries, rate_arrays
from .stationary import stationary_from_rates, validate_rates

#: Strict sub-stochasticity margin applied to the uniformization rate.
_UNIFORMIZATION_MARGIN = 1e-9

#: First leg of converge_to_stationary; every later leg is twice the last.
_INITIAL_HORIZON = 1.0

#: Largest number of uniformization series terms one evolve call may sum.
_MAX_TERMS = 5_000_000

#: Poisson tail mass evolve discards by default.
_TRUNCATION_TOL = 1e-12

#: Poisson tail mass the short step of a dense propagator discards: one
#: rounding unit, so that the truncation adds nothing to its rounding error.
_ROUNDING_TAIL = float(np.finfo(float).eps)

#: States a projection window first adds on each side of the start support.
_WINDOW_MARGIN = 64

#: Largest sink mass (l1 projection error) a windowed leg may leak.
_WINDOW_TOL = 1e-12

#: Share of a windowed leg's start mass left outside its support, at most
#: half of it on each side; 0 makes the support the nonzero entries.
_TRIM_TOL = 1e-14

#: Largest chain, in states, whose converge legs and checkpoints use the dense
#: propagator. Its O(n^3) squarings catch up with uniformization between 301
#: and 401 states on the fig1b checkpoints (t = 1, 10, 100, 500 from N),
#: while converge legs gain at every measured size (BENCH_12.json).
_DENSE_MAX_STATES = 301

#: Largest rate * t whose series is built: its window of O(sqrt(rate * t))
#: Poisson terms takes up to 15 MB here, and beyond this the series length is
#: rate * t to three digits, far above _MAX_TERMS for every tolerance.
_COUNTED_LT = 1e8

#: Term at the mode from which _poisson_window builds the Poisson pmf.
_MODE_TERM = math.exp(690.0)


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

    v is one vector or a matrix whose columns are vectors. The diagonal,
    the rate and vector slice views and one scratch row are made here once,
    so each call runs five ufuncs and allocates nothing. The sums are taken
    in one fixed order: diag*v, then the birth inflow into out[1:], then the
    death inflow into out[:-1].
    """
    rows = (slice(None),) + (None,) * (v.ndim - 1)  # rates act along axis 0
    diag = -(gen.birth + gen.death)[rows]
    b_lo, d_hi = gen.birth[:-1][rows], gen.death[1:][rows]
    v_lo, v_hi = v[:-1], v[1:]
    out_lo, out_hi = out[:-1], out[1:]
    tmp = np.empty_like(v_lo)

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
    """A new read-only float array holding p, checked against the generator:
    one entry per state, each finite and >= 0, with a finite positive sum."""
    v = np.array(p, dtype=float)
    if v.shape != (gen.dimension,):
        raise ValueError(f"distribution of shape {v.shape} does not fit {gen.dimension} states")
    _check_finite_entries("distribution entries", v)
    _check_finite("distribution sum", float(v.sum()), positive=True)
    v.setflags(write=False)
    return v


def _poisson_window(q: float, mu: float) -> tuple[int, np.ndarray, int]:
    """(lo, terms, k) for 0 < q < 1 and mu > 0: terms[i] is P(Poisson(mu) =
    lo + i) up to a common factor, on a window [lo, hi], and k is the
    smallest integer with P(X > k) <= q.

    The pmf is built from the ratios of consecutive terms across the window,
    whose own sum stands for the whole mass (Fox and Glynn 1988). With
    L = log(2^53 / (1 - q)), the Chernoff bound P(X <= mu - x) <=
    exp(-x^2 / 2 mu) puts lo at mu - sqrt(2 mu L), below which lies at most
    2^-53 (1 - q): k is not below lo, and the sum is the whole mass to a
    rounding unit. With L = log(2^53 / q), Bernstein's P(X >= mu + x) <=
    exp(-x^2 / 2 (mu + x / 3)) puts hi at mu + L/3 + sqrt(L^2/9 + 2 mu L),
    above which lies at most 2^-53 q, so k < hi. The terms are running
    products of the ratios outward from the mode floor(mu), whose term is
    e^690, so none exceeds it: the sum stays finite, and q times the sum is
    a normal number for every q down to 2^-1074, so the tails are compared
    with it directly. The window holds O(sqrt(mu log(1/q))) terms.
    """
    log_eps = 53.0 * math.log(2.0)
    left, right = log_eps - math.log1p(-q), log_eps - math.log(q)
    lo = max(math.floor(mu - math.sqrt(2.0 * mu * left)), 0)
    hi = math.ceil(mu + right / 3.0 + math.sqrt(right * right / 9.0 + 2.0 * mu * right))
    mode = math.floor(mu)

    def outward(ratios):
        return np.cumprod(np.concatenate(([_MODE_TERM], ratios)))

    terms = np.concatenate((
        outward(np.arange(mode, lo, -1) / mu)[:0:-1],  # lo..mode - 1
        outward(mu / np.arange(mode + 1, hi + 1)),  # mode..hi
    ))
    tails = np.cumsum(terms[::-1])[::-1]  # tails[i]: the terms lo + i..hi, falling in i
    return lo, terms, lo + int(np.count_nonzero(tails[1:] > q * tails[0]))


def _series_weights(
    lt: float, t: float, truncation_tol: float = _TRUNCATION_TOL
) -> tuple[int, np.ndarray]:
    """(lo, weights) of the uniformization series for rate * t = lt > 0:
    weights[i] weighs the term lo + i, up to last = k + 1 for the k of
    _poisson_window at truncation_tol, and is that window's term normalized
    over lo..last; the terms below lo weigh 0.

    Raises ConvergenceBudgetError when the terms 0..last exceed _MAX_TERMS.
    Beyond _COUNTED_LT its message gives lt to three digits as the count,
    which the count is there for every tolerance, without computing it.
    """
    if lt > _COUNTED_LT:
        needs = f"about {lt:.3g}"
    else:
        lo, terms, k = _poisson_window(truncation_tol, lt)
        last = k + 1
        if last + 1 <= _MAX_TERMS:
            weights = terms[:last + 1 - lo]
            return lo, weights / weights.sum()
        needs = str(last + 1)
    raise ConvergenceBudgetError(
        f"uniformization needs {needs} series terms for tolerance "
        f"{truncation_tol:.1e} at horizon {t:g}, budget is {_MAX_TERMS}",
        horizon=t,
    )


def _on_simplex(v: np.ndarray) -> np.ndarray:
    """v clipped at 0 and scaled to unit sum, as a new read-only array."""
    v = np.clip(v, 0.0, None)
    v /= v.sum()
    v.setflags(write=False)
    return v


def evolve(
    gen: GeneratorMatrix, p0, t: float, *, truncation_tol: float = _TRUNCATION_TOL
) -> np.ndarray:
    """p(t) = exp(Qt) p0 by uniformization.

    p0 is any array-like probability vector over the generator's states; it
    is copied, never written to. The result is a new read-only array.

    Writes the semigroup as a Poisson(rate*t) mixture of powers of the
    uniformized stochastic matrix P = I + Q/rate. The series is cut one
    term past the smallest k whose Poisson tail P(X > k) is at most
    truncation_tol, so the discarded tail mass is below the tolerance by
    construction. The tail and the weights come from one window of running
    products of term ratios (_series_weights), normalized to unit sum,
    which keeps the output on the simplex and absorbs the float rounding a
    fifty-thousand-term sum would otherwise accumulate. Neither
    exp(-rate*t), which underflows, nor the cancelling k log(rate*t) -
    log k! - rate*t is formed: in l1 the weights stay within 1e-15 of a
    30-digit pmf, where log-space ones lose 2e-10 at rate*t = 2e5.

    The loop allocates nothing per term: v, Q v and one scratch row are
    preallocated, and each step computes v + (Q v)/rate in place with the
    same operations in the same order as the plain expression, so the
    result is bit for bit the same. The powers below the window (at long
    horizons most of the leading ones) and terms whose weight underflowed
    to exactly 0.0 are propagated but not accumulated; adding 0.0 * v could
    only flip the sign of a zero entry, and the final clip maps -0.0 to 0.0.

    Raises:
        ValueError: t is negative or not finite, truncation_tol is not in
            (0, 1), or p0 is no start vector (see _frozen_copy).
        ConvergenceBudgetError: the required number of series terms exceeds
            _MAX_TERMS; raised before any term is computed.
    """
    _check_finite("evolution time", t)
    if not 0.0 < truncation_tol < 1.0:
        raise ValueError(f"truncation_tol must be in (0, 1), got {truncation_tol!r}")
    p = _frozen_copy(gen, p0)
    rate = gen.uniformization_rate()
    lt = rate * t
    if t == 0.0 or lt == 0.0:
        return p
    return _on_simplex(_poisson_mixture(gen, p, *_series_weights(lt, t, truncation_tol)))


def _poisson_mixture(
    gen: GeneratorMatrix, p: np.ndarray, lo: int, weights: np.ndarray
) -> np.ndarray:
    """The uniformization series of exp(Qt) p: the power lo + i of P weighed
    by weights[i] and the powers below lo by 0 (see _series_weights).

    p is one vector or a matrix whose columns are vectors; it is not written
    to. The loop allocates nothing per term (see evolve).
    """
    rate = gen.uniformization_rate()
    v = p.copy()
    qv = np.empty_like(v)
    apply_q = _stencil(gen, v, qv)
    ws = itertools.chain(itertools.repeat(0.0, lo), weights.tolist())
    acc = next(ws) * v
    for w in ws:
        apply_q()
        np.divide(qv, rate, out=qv)
        np.add(v, qv, out=v)
        if w:  # exact-zero weights add nothing (see evolve)
            np.multiply(w, v, out=qv)
            np.add(acc, qv, out=acc)
    return acc


def _windowed_leg(
    gen: GeneratorMatrix, p: np.ndarray, t: float
) -> tuple[np.ndarray, int, int, float, float]:
    """exp(Qt) p on a finite state projection of the chain.

    The start's support is the smallest interval [first, last] that holds
    all but _TRIM_TOL of p's mass, taken relative to p.sum(), with at most
    half of that cut on each side: first from the running sums of p from
    state 0, last from those of p from state N, so neither end reads the
    rounding of a sum over the whole chain. Uniformization leaves every
    state a leg reached positive, down to ~1e-300, and without the cut
    each window would keep the whole last one. The start is zeroed outside
    the support, so the sinks start empty, and the cut mass is the sum of
    the zeroed entries.

    The window [lo, hi] is the support widened by _WINDOW_MARGIN states on
    each side. The states lo - 1 and hi + 1, where they exist, become
    absorbing sinks (both their rates are zeroed), and the leg is evolve on
    that sub-generator, whose uniformization rate covers the window only.
    The interior is a lower bound on the exact leg from the trimmed start
    and the sink mass is its l1 distance from it; while that leak exceeds
    _WINDOW_TOL the margin doubles and the leg is re-run. A window that
    reaches the whole space is evolve on gen and the untrimmed p, bit for
    bit, with no cut. With both taken relative to the start's mass, the
    leg is within 2 (cut + leak) in l1, plus the series truncation, of the
    full-space leg: cutting and renormalizing moves the start by twice the
    cut in l1, and exp(Qt) moves no two starts further apart. With
    _TRIM_TOL = 0 the support is the nonzero entries of p.

    Returns (probs, lo, hi, leak, cut): probs is the interior scattered
    into a full-length array and put on the simplex by _on_simplex, like
    every leg.
    """
    last = gen.dimension - 1
    share = 0.5 * _TRIM_TOL * float(p.sum())
    # below[k] and above[k] hold the k states from 0 and from N; the running
    # sums never fall, so each count is one more than the states cut there
    below, above = (np.cumsum(np.concatenate(([0.0], q))) for q in (p, p[::-1]))
    first, top = (int(np.count_nonzero(sums <= share)) - 1 for sums in (below, above))
    end = last - top
    margin = _WINDOW_MARGIN
    while True:
        lo, hi = max(first - margin, 0), min(end + margin, last)
        if lo == 0 and hi == last:
            return evolve(gen, p, t), 0, last, 0.0, 0.0
        start, stop = max(lo - 1, 0), min(hi + 2, last + 1)
        sinks = [0] * (lo > 0) + [stop - start - 1] * (hi < last)
        birth, death = gen.birth[start:stop].copy(), gen.death[start:stop].copy()
        birth[sinks] = death[sinks] = 0.0
        kept = p[start:stop].copy()
        kept[:first - start] = kept[end + 1 - start:] = 0.0
        sub = evolve(GeneratorMatrix(birth, death), kept, t)
        leak = float(sub[sinks].sum())
        if leak <= _WINDOW_TOL:
            probs = np.zeros(gen.dimension)
            probs[lo:hi + 1] = sub[lo - start:hi + 1 - start]
            return _on_simplex(probs), lo, hi, leak, float(below[first] + above[top])
        margin *= 2


def _dense_propagator(
    gen: GeneratorMatrix, t: float, previous: tuple[float, np.ndarray] | None = None
) -> np.ndarray:
    """exp(Qt) as a dense matrix for t > 0, by scaling and squaring.

    exp(Qt) is the 2^s-th power of exp(Qt/2^s), where s is the fewest
    halvings that bring rate * t/2^s to at most 1; that short step is the
    uniformization series on the identity, truncated where its tail drops
    below one rounding unit, and is squared s times. previous is the last
    leg's (step, exp(Q step)): twice that step squares the propagator when
    s >= 1, that is when rate * step > 0.5, the last squaring the fresh
    build would make. The products run in numpy's own loops (einsum) and
    not in BLAS, whose matrix products round differently with the number of
    threads, so the result is the same bits on every host with the same
    numpy.

    Raises ConvergenceBudgetError, before any squaring of previous, where
    evolve over t would exceed its term budget, so that a leg fails on the
    dense route exactly where it fails on uniformization.
    """
    lt = gen.uniformization_rate() * t
    _series_weights(lt, t)
    mantissa, exponent = math.frexp(lt)  # ceil(log2(lt)), exactly
    halvings = max(exponent - (mantissa == 0.5), 0)
    if previous is not None and t == 2.0 * previous[0] and halvings:
        return _product(previous[1], previous[1])
    step_lt = lt / 2.0**halvings
    lo, weights = _series_weights(step_lt, t, _ROUNDING_TAIL)
    propagator = _poisson_mixture(gen, np.eye(gen.dimension), lo, weights)
    for _ in range(halvings):
        propagator = _product(propagator, propagator)
    return propagator


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a matrix a and a matrix or vector b, summed in numpy's own
    loops in one fixed order, never in BLAS."""
    return np.einsum("ij,j...->i...", a, b)


def _checkpoints(gen: GeneratorMatrix, p0, times: list[float]) -> Iterator[np.ndarray]:
    """Yield exp(Qt) p0 as a read-only array for each t of times, one leg
    per step: dense on a chain of at most _DENSE_MAX_STATES states, passing
    each propagator on to the next leg (see _dense_propagator), and on a
    projection window above (see _windowed_leg). A step of zero yields the
    previous checkpoint's array itself, so a first time of 0 yields the
    checked, frozen copy of p0; every other step yields a new one. Raises
    ValueError before the first leg unless times are nonnegative and
    ascending and p0 is a start vector (see _frozen_copy); each leg
    validates its step like evolve."""
    if sorted(times) != times or (times and times[0] < 0):
        raise ValueError("times must be nonnegative and ascending")
    p = _frozen_copy(gen, p0)
    rate = gen.uniformization_rate()
    previous = None
    elapsed = 0.0
    for t in times:
        step = t - elapsed
        _check_finite("evolution time", step)
        if rate * step != 0.0:
            if gen.dimension <= _DENSE_MAX_STATES:
                previous = step, _dense_propagator(gen, step, previous)
                p = _on_simplex(_product(previous[1], p))
            else:
                p = _windowed_leg(gen, p, step)[0]
        elapsed = t
        yield p


def _escape_bound(gen: GeneratorMatrix, log_weights: np.ndarray, p, tol: float) -> float:
    """Least time at which the chain can be within tol of its stationary law
    pi in total variation from the start p, from how slowly mass leaves the
    sets B = {0..k}, k < N, and, on the mirrored chain, whose upward rates
    are the death rates reversed, B = {k..N}, k > 0; log_weights are log pi
    up to a constant.

    Started from pi restricted to B, a reversible chain's exit time from B
    has a log-convex survival function (Keilson 1979; Fill 2009), so it
    survives past t with probability at least exp(-t Phi), with the exit
    rate Phi = up[k] pi[k] / pi(B) through the edge out of B. A start that
    holds at least c times that law on B keeps more than pi(B) + tol there
    until (log c - log(pi(B) + tol)) / Phi; the largest such time is
    returned, 0.0 where none is positive. p is taken normalized, and
    c = pi(B) min p_i / pi_i over B, which is 0 on every set of more than
    one state for a point mass inside. A start on the end state of the
    family's sets, 0 or N, takes c = 1 on each of them instead: it puts no
    mass past k before it leaves B, and it leaves no sooner than from pi
    restricted to B. O(N) in log space, so a bound far beyond the float
    range comes out as inf. A uniform start on the fig2a constants gets
    1.7e24, since p_i / pi_i is smallest where pi piles up.
    """
    with np.errstate(divide="ignore"):  # zeros of p, and tol = 0
        log_p = np.log(p) - math.log(p.sum())
        log_tol = np.log(tol)
    bound = 0.0
    for up, log_w, log_start in (
        (gen.birth, log_weights, log_p), (gen.death[::-1], log_weights[::-1], log_p[::-1])
    ):
        below = np.logaddexp.accumulate(log_w)  # log pi({0..i}) + const
        log_c = 0.0  # for a start on the family's end state
        if np.isfinite(log_start[1:]).any():
            lowest = np.minimum.accumulate(log_start - log_w)  # min log(p_i / pi_i) - const
            log_c = np.minimum(below + lowest, 0.0)[:-1]
        need = log_c - np.logaddexp(below[:-1] - below[-1], log_tol)
        log_flux = np.log(up[:-1]) + log_w[:-1] - below[:-1]  # log Phi
        open_k = need > 0.0
        with np.errstate(over="ignore"):
            times = np.exp(np.log(need[open_k]) - log_flux[open_k])
        bound = max(bound, float(times.max(initial=0.0)))
    return bound


def _check_converge_settings(tol: float, max_horizon: float) -> None:
    """Raise ValueError unless tol >= 0 and max_horizon > 0, both finite."""
    _check_finite("tol", tol)
    _check_finite("max_horizon", max_horizon, positive=True)


def converge_to_stationary(
    gen: GeneratorMatrix,
    p0,
    tol: float,
    *,
    max_horizon: float = 1e6,
) -> tuple[np.ndarray, float, float]:
    """Evolve over doubling legs until within tol of the stationary law.

    The reference distribution is computed from the generator's own rates by
    the product formula, so synthetic generators work the same as
    model-built ones. Returns (probs, elapsed model time, total variation
    to the reference), probs a new read-only array; elapsed is 0 when p0
    already satisfies the tolerance.

    The walk is _checkpoints at the elapsed times 0, 1, 3, 7, ..., each leg
    twice as long as the last, up to the first at or beyond max_horizon.
    Checkpoint 0 runs no leg: it is the checked start itself. There the
    start is refused when its passage-time bound (_escape_bound, which
    reads the start normalized, as every leg does) lies beyond the last
    checkpoint, since no leg could then meet tol; max_horizon itself is
    never lowered.

    On a chain of at most _DENSE_MAX_STATES states each leg's dense
    propagator is the square of the last one wherever that is the bits of
    a fresh build. On a larger chain each leg runs on a window of states
    around the support of its start vector, the smallest interval that
    holds all but _TRIM_TOL of its mass, bordered by absorbing sinks that
    collect the mass leaking out (see _windowed_leg); in l1 such a leg
    differs from the full-space evolve by at most twice its cut
    (<= _TRIM_TOL) plus its leak (<= _WINDOW_TOL), plus the series
    truncation. The returned distance is measured exactly on the returned
    vector.

    Raises:
        ValueError: tol is negative or not finite, max_horizon is not a
            finite positive number, or p0 is no start vector (see
            _frozen_copy); raised before any leg.
        ConvergenceBudgetError: max_horizon was integrated without reaching
            tol; carries the achieved distance and the final distribution.
            Also raised at checkpoint 0 by the passage-time bound, carrying
            the start's distance, horizon 0.0 and the start; and, without
            them, by a leg evolve could not sum within its term budget, on
            either route.
    """
    _check_converge_settings(tol, max_horizon)
    target = stationary_from_rates(gen.birth, gen.death)
    times = [0.0]
    while times[-1] < max_horizon:
        times.append(2.0 * times[-1] + _INITIAL_HORIZON)
    for elapsed, current in zip(times, _checkpoints(gen, p0, times)):
        tv = total_variation(current, target.probs)
        if tv <= tol:
            return current, elapsed, tv
        if not elapsed:
            bound = _escape_bound(gen, target.log_weights, current, tol)
            if bound > times[-1]:
                raise ConvergenceBudgetError(
                    f"total variation {tol:.1e} needs horizon >= {bound:.3g} from this start, "
                    f"beyond max_horizon {max_horizon:g} (last leg ends at {times[-1]:g})",
                    achieved_tv=tv,
                    horizon=elapsed,
                    witness=current,
                )
    raise ConvergenceBudgetError(
        f"met {tv:.3e} total variation after horizon {elapsed:g}, needed {tol:.1e}",
        achieved_tv=tv,
        horizon=elapsed,
        witness=current,
    )
