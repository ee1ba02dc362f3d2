"""Stationary distribution of the birth-death chain and its mode structure.

Responsibilities:
  - product-formula stationary distribution, accumulated in log space
  - independent dense null-space oracle for cross-checking
  - bimodal profile detection with monotone-segment decomposition
  - the finite-capacity mode cubic, whose roots locate the modes
  - capacity sweeps for the mode-location scaling diagnostic

Log-domain weights are the primary representation: normalized probabilities
underflow once the capacity reaches the tens of thousands, while log weights
stay well inside double range up to capacities of a million.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from . import _csv, _cubic
from .errors import (
    ComplexRootError,
    DegenerateDistributionError,
    OracleSolveError,
    UnimodalProfileError,
)
from .model import (
    ModelParams,
    balance_coefficients,
    basic_reproduction_ratio,
    equilibria,
    rate_arrays,
)

#: Relative depth the interior minimum must have below both peaks.
BIMODAL_MARGIN = 1e-12


@dataclass(frozen=True, eq=False)
class StationaryDistribution:
    """Probability vector over states 0..N with its log-domain weights.

    log_weights[i] is log(p_i / p_0), so log_weights[0] == 0. The normalized
    probs are derived from the weights through log-sum-exp; entries whose
    weight sits below the float64 underflow threshold flush to zero in probs
    while the log weight keeps the information exactly. Both are stored as
    read-only float copies of the vectors passed in, of equal length N + 1;
    the capacity N is read off that length.
    """

    probs: np.ndarray
    log_weights: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)
        lw = np.array(self.log_weights, dtype=float)
        if probs.ndim != 1 or probs.shape != lw.shape or probs.size < 2:
            raise ValueError("probs and log_weights must be equal-length vectors over states 0..N")
        for name, values in (("probs", probs), ("log_weights", lw)):
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    @property
    def capacity_n(self) -> int:
        return self.probs.size - 1

    @classmethod
    def from_log_weights(cls, log_weights) -> "StationaryDistribution":
        lw = np.asarray(log_weights, dtype=float)
        probs = np.exp(lw - logsumexp(lw))
        probs /= probs.sum()
        return cls(probs, lw)

    def to_csv(self, stream) -> None:
        """Write rows (state, density, prob, log_weight)."""
        states = np.arange(self.capacity_n + 1)
        _csv.write_rows(
            stream, "state,density,prob,log_weight",
            states, states / self.capacity_n, self.probs, self.log_weights,
        )


def validate_rates(birth, death) -> tuple[np.ndarray, np.ndarray]:
    """Fresh float copies of rates b[0..N], d[0..N]: equal shapes, >= 0, b[N] = 0."""
    b = np.array(birth, dtype=float)
    d = np.array(death, dtype=float)
    if b.ndim != 1 or b.shape != d.shape or b.size < 2:
        raise ValueError("birth and death must be equal-length vectors over states 0..N")
    if np.any(b < 0) or np.any(d < 0):
        raise ValueError("rates must be nonnegative")
    if b[-1] != 0.0:
        raise ValueError("birth rate at capacity must be exactly 0")
    return b, d


def stationary_from_rates(birth, death) -> StationaryDistribution:
    """Stationary distribution of a general birth-death chain from its rates.

    Arguments are arrays b[0..N] and d[0..N] with b[N] = 0. The detailed
    balance flux identity b(i) p_i = d(i+1) p_{i+1} gives the product
    formula, accumulated as log w[i+1] = log w[i] + log b[i] - log d[i+1].

    Raises:
        DegenerateDistributionError: b[0] = 0, so state 0 is absorbing and
            all stationary mass collapses onto it.
        ValueError: malformed rates (shape mismatch, negative entries, a
            zero interior birth or death rate that disconnects the chain).
    """
    b, d = validate_rates(birth, death)
    if b[0] == 0.0:
        raise DegenerateDistributionError(
            "state 0 is absorbing (no immigration); the stationary distribution "
            "is the point mass at 0"
        )
    if np.any(b[1:-1] == 0.0) or np.any(d[1:] == 0.0):
        raise ValueError("interior rates must be positive; the chain is not irreducible")
    lw = np.zeros(b.size)
    lw[1:] = np.cumsum(np.log(b[:-1]) - np.log(d[1:]))
    return StationaryDistribution.from_log_weights(lw)


def psd_product(params: ModelParams) -> StationaryDistribution:
    """The unique positive stationary distribution via the product formula."""
    b, d = rate_arrays(params)
    return stationary_from_rates(b, d)


# ---------------------------------------------------------------------------
# Null-space oracle
# ---------------------------------------------------------------------------

#: Capacity cap for the dense solve; beyond this the O(N^3) cost is not worth
#: paying when the product formula is exact anyway.
ORACLE_MAX_CAPACITY = 2000

#: Iterative-refinement passes of the dense solve, and the largest accepted
#: null-space residual ||Q p||_inf.
_ORACLE_REFINE_STEPS = 2
_ORACLE_RESIDUAL_TOL = 1e-10


def stationary_nullspace_from_rates(birth, death) -> StationaryDistribution:
    """Stationary distribution by dense linear algebra, for cross-checks.

    Solves Q p = 0 with the normalization row sum(p) = 1 replacing the last
    balance equation, then applies a few iterative-refinement passes with
    extended-precision residuals. Deliberately shares no code with the
    product formula so the two can serve as independent witnesses.

    Raises:
        OracleSolveError: the residual ||Q p||_inf stayed above _ORACLE_RESIDUAL_TOL,
            or clipping left p_0 = 0, so no log weight relative to state 0 exists.
    """
    b = np.asarray(birth, dtype=float)
    d = np.asarray(death, dtype=float)
    if b.shape != d.shape or b.ndim != 1 or b.size < 2:
        raise ValueError("birth and death must be equal-length vectors over states 0..N")
    if b[0] == 0.0:
        raise DegenerateDistributionError("state 0 is absorbing; no positive stationary distribution")
    n = b.size - 1
    if n > ORACLE_MAX_CAPACITY:
        raise ValueError(f"oracle capacity {n} exceeds the dense-solve cap {ORACLE_MAX_CAPACITY}")

    q = np.zeros((n + 1, n + 1))
    idx = np.arange(n + 1)
    q[idx, idx] = -(b + d)
    q[idx[1:], idx[:-1]] = b[:-1]
    q[idx[:-1], idx[1:]] = d[1:]

    m = q.copy()
    m[-1, :] = 1.0
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    try:
        p = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise OracleSolveError(f"bordered system is singular: {exc}") from exc
    m_wide = m.astype(np.longdouble)
    rhs_wide = rhs.astype(np.longdouble)
    for _ in range(_ORACLE_REFINE_STEPS):
        residual = rhs_wide - m_wide @ p.astype(np.longdouble)
        p = p + np.linalg.solve(m, residual.astype(float))

    p = np.clip(p, 0.0, None)
    p /= p.sum()
    residual_inf = float(np.abs(q @ p).max())
    if residual_inf > _ORACLE_RESIDUAL_TOL:
        raise OracleSolveError(
            f"null-space residual {residual_inf:.3e} above tolerance {_ORACLE_RESIDUAL_TOL:.1e}"
        )
    if p[0] == 0.0:
        raise OracleSolveError("dense solve clipped p_0 to 0; log weights are undefined")
    with np.errstate(divide="ignore"):
        lw = np.log(p) - np.log(p[0])
    return StationaryDistribution(p, lw)


def psd_nullspace_oracle(params: ModelParams) -> StationaryDistribution:
    """Independent stationary distribution witness for psd_product."""
    b, d = rate_arrays(params)
    return stationary_nullspace_from_rates(b, d)


# ---------------------------------------------------------------------------
# Mode profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeProfile:
    """Detected modes and monotone structure of a stationary profile.

    i_minus is the interior local minimum separating the extinction cluster
    from the persistence cluster; i_plus the persistence-cluster mode. Both
    are None for unimodal profiles. Segments are inclusive state ranges
    (start, end, "decreasing" | "increasing") covering 0..N.
    """

    i_minus: int | None
    i_plus: int | None
    major_mode: int
    segments: tuple[tuple[int, int, str], ...]

    @property
    def bimodal(self) -> bool:
        return self.i_minus is not None

    @property
    def minor_mode(self) -> int | None:
        """The smaller of the two peaks, or None when unimodal."""
        if not self.bimodal:
            return None
        if self.major_mode == self.i_plus:
            return 0
        return self.i_plus

    def to_summary(self) -> dict:
        return {
            "bimodal": self.bimodal,
            "major_mode": self.major_mode,
            "minor_mode": self.minor_mode,
            "i_minus": self.i_minus,
            "i_plus": self.i_plus,
            "segments": [list(seg) for seg in self.segments],
        }


def _monotone_segments(lw: np.ndarray) -> tuple[tuple[int, int, str], ...]:
    diffs = np.diff(lw)
    # Zero diffs inherit the previous direction so a plateau never opens a
    # new segment; the leading direction defaults to decreasing, which makes
    # ties resolve toward the smaller index.
    # last_set[k] is the last index <= k with a nonzero diff (-1 if none).
    signs = np.where(diffs > 0, 1, np.where(diffs < 0, -1, 0))
    last_set = np.where(signs != 0, np.arange(signs.size), -1)
    np.maximum.accumulate(last_set, out=last_set)
    dirs = np.where(last_set >= 0, signs[last_set], -1)
    starts = [0, *(np.flatnonzero(dirs[1:] != dirs[:-1]) + 1).tolist()]
    ends = [*starts[1:], lw.size - 1]
    return tuple(
        (start, end, "increasing" if dirs[start] > 0 else "decreasing")
        for start, end in zip(starts, ends)
    )


def mode_profile(dist: StationaryDistribution) -> ModeProfile:
    """Classify a stationary profile as bimodal or unimodal and locate modes.

    Works on log weights so flat tails that underflow in probs still order
    correctly. The profile counts as bimodal only when the interior minimum
    sits below both neighbouring peaks by a relative depth
    (1 - p_min/p_peak) of at least BIMODAL_MARGIN; ties break toward the
    smaller state index throughout.

    Args:
        dist: distribution to analyse (normally psd_product output).
    """
    lw = dist.log_weights
    n = dist.capacity_n
    major = int(np.argmax(lw))
    segments = _monotone_segments(lw)

    # Segments alternate in direction, so the end of the first decreasing
    # segment that is not the last one is the first dip.
    dip_at = next((end for _, end, direction in segments[:-1] if direction == "decreasing"), None)
    if dip_at is not None:
        left_peak = int(np.argmax(lw[: dip_at + 1]))
        i_plus = dip_at + int(np.argmax(lw[dip_at:]))
        i_minus = left_peak + int(np.argmin(lw[left_peak : i_plus + 1]))
        depth_left = 1.0 - float(np.exp(lw[i_minus] - lw[left_peak]))
        depth_right = 1.0 - float(np.exp(lw[i_minus] - lw[i_plus]))
        if min(depth_left, depth_right) >= BIMODAL_MARGIN:
            return ModeProfile(i_minus, i_plus, major, segments)
    interior = major if 0 < major < n else None
    return ModeProfile(None, interior, major, segments)


# ---------------------------------------------------------------------------
# Mode cubic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CubicRoots:
    """Real roots of the mode cubic in state units: r0 < 0 < r_minus < r_plus."""

    r0: float
    r_minus: float
    r_plus: float


def mode_cubic_coefficients(
    params: ModelParams, r1_at_i: float
) -> tuple[float, float, float, float]:
    """Coefficients (c3, c2, c1, c0) of the finite-capacity mode cubic in density.

    The cubic vanishes at densities x = i/N where successive stationary
    probabilities tie, p_{i+1} = p_i, equivalently b(i) = d(i+1). Its
    coefficients are the limiting balance coefficients plus 1/N, 1/N**2 and
    1/N**3 corrections that depend on the immigration level R_1i at the
    state in question. As capacity grows the roots approach {0, x-*, x+*}.
    """
    n = params.capacity_n
    r0 = basic_reproduction_ratio(params)
    a, b, c = balance_coefficients(params)
    d2, d3, th, r = params.delta2, params.delta3, params.theta, float(r1_at_i)
    c3 = -a
    c2 = b - (3.0 * d2 + r0 * params.delta1 + r) / n
    c1 = -(
        c
        + (2.0 * d2 * th + 2.0 - r0 + r * th - r) / n
        + (3.0 * d2 + r) / n**2
    )
    c0 = -((d3 + 1.0 - r) * th / n + (1.0 + d2 * th - r) / n**2 + d2 / n**3)
    return c3, c2, c1, c0


def solve_mode_cubic(params: ModelParams, r1_at_i: float) -> CubicRoots:
    """All three real roots of the mode cubic, converted to state units.

    Raises:
        ComplexRootError: the capacity is too small for three real roots
            (the finite-size corrections have merged two of them).
    """
    roots = _cubic.real_roots(*mode_cubic_coefficients(params, r1_at_i))
    if len(roots) != 3:
        raise ComplexRootError(
            f"mode cubic has {len(roots)} real root(s) at capacity "
            f"{params.capacity_n}; three are needed"
        )
    n = params.capacity_n
    return CubicRoots(roots[0] * n, roots[1] * n, roots[2] * n)


def capacity_modes(params: ModelParams) -> tuple[StationaryDistribution, ModeProfile, float]:
    """Stationary law, mode profile and exponent (1/N) log(p_{i+} / p_0).

    The exponent is read off the log weights, so the normalization never enters.

    Raises:
        UnimodalProfileError: the profile has no interior mode to anchor i+.
    """
    dist = psd_product(params)
    profile = mode_profile(dist)
    if profile.i_plus is None:
        raise UnimodalProfileError(
            f"no interior mode at capacity {params.capacity_n}; the discrete exponent is undefined"
        )
    lw = dist.log_weights
    return dist, profile, float(lw[profile.i_plus] - lw[0]) / params.capacity_n


def mode_scaling_check(params: ModelParams, n_list) -> list[tuple[int, int, float, float, float]]:
    """Sweep capacities: rows (N, i_plus, i_plus/N, |i_plus/N - x_plus| * N, exponent).

    The fourth column staying bounded across a doubling sweep is the finite
    check that the persistence mode converges to x_plus at rate 1/N; the
    last is the discrete exponent of capacity_modes.

    Raises:
        UnimodalProfileError: some capacity in the sweep has no interior mode.
    """
    eq = equilibria(params)
    rows = []
    for n in n_list:
        n = int(n)
        _, profile, exponent = capacity_modes(params.with_capacity(n))
        density = profile.i_plus / n
        rows.append((n, profile.i_plus, density, abs(density - eq.x_plus) * n, exponent))
    return rows
