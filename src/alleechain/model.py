"""Model constants, per-state rates, assumptions, and deterministic equilibria.

Core of the stochastic logistic model with mate limitation and immigration:
  - ModelParams / ImmigrationSpec immutable value types
  - rate_arrays, the one home of the chain's rates b(i) and d(i) on 0..N
  - basic reproduction ratio R0 = lambda / mu
  - assumption report: bistability, interior capacity, bounded immigration
  - the two positive equilibria x-* < x+* of the density balance
  - flat key = value configuration parsing and emission

All operations are pure and all types are frozen, so concurrent reads are
safe without locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError

#: (config key, ModelParams field) of the six rate constants, in canonical order.
_CONSTANT_KEYS = (
    ("lambda", "lam"), ("mu", "mu"), ("delta1", "delta1"),
    ("delta2", "delta2"), ("delta3", "delta3"), ("theta", "theta"),
)

#: Configuration keys understood by params_from_config, in canonical order.
CONFIG_KEYS = (*(key for key, _ in _CONSTANT_KEYS), "N", "r1")


@dataclass(frozen=True, eq=False)
class ImmigrationSpec:
    """Scaled immigration schedule R_1i for states i = 0..N-1.

    The physical immigration rate into the population at state i is
    alpha_i = mu * r1[i] / N. State N receives no immigration because the
    chain cannot exceed capacity.

    The entries are required to be finite and nonnegative, but the upper
    bound r1[i] <= 1 is deliberately not enforced here: it belongs to the
    bounded-immigration assumption, and check_assumptions must be able to
    evaluate schedules that violate it.
    """

    r1: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.r1, dtype=float).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("immigration schedule must be a nonempty 1-d vector")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("immigration entries must be finite and >= 0")
        arr.setflags(write=False)
        object.__setattr__(self, "r1", arr)

    @classmethod
    def constant(cls, value: float, capacity_n: int) -> "ImmigrationSpec":
        """Constant schedule R_1i = value for every state below capacity."""
        return cls(np.full(int(capacity_n), float(value)))

    @property
    def is_constant(self) -> bool:
        return bool(np.all(self.r1 == self.r1[0]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ImmigrationSpec):
            return NotImplemented
        return bool(np.array_equal(self.r1, other.r1))

    def __len__(self) -> int:
        return int(self.r1.size)


@dataclass(frozen=True)
class ModelParams:
    """All model constants plus the per-state immigration schedule.

    Attributes:
        lam: per-individual birth rate (1/time, > 0). Named lam because
            `lambda` is reserved in Python; the config key is "lambda".
        mu: per-individual death rate (1/time, > 0).
        delta1: birth density-dependence coefficient, in [0, 1].
        delta2: death density-dependence coefficient, >= 0.
        delta3: mate-limitation strength, > 0.
        theta: half-saturation density of the mate-limitation term, in (0, 1].
        capacity_n: maximum population size N (integer >= 2).
        immigration: scaled immigration schedule of length capacity_n.
    """

    lam: float
    mu: float
    delta1: float
    delta2: float
    delta3: float
    theta: float
    capacity_n: int
    immigration: ImmigrationSpec

    def __post_init__(self):
        for name in ("lam", "mu", "delta1", "delta2", "delta3", "theta"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.lam <= 0:
            raise ValueError("lam must be > 0")
        if self.mu <= 0:
            raise ValueError("mu must be > 0")
        if not 0 <= self.delta1 <= 1:
            raise ValueError("delta1 must lie in [0, 1]")
        if self.delta2 < 0:
            raise ValueError("delta2 must be >= 0")
        if self.delta3 <= 0:
            raise ValueError("delta3 must be > 0")
        if not 0 < self.theta <= 1:
            raise ValueError("theta must lie in (0, 1]")
        n = self.capacity_n
        if not (isinstance(n, (int, np.integer)) and not isinstance(n, bool)) or n < 2:
            raise ValueError(f"capacity_n must be an integer >= 2, got {n!r}")
        object.__setattr__(self, "capacity_n", int(n))
        if not isinstance(self.immigration, ImmigrationSpec):
            raise ValueError("immigration must be an ImmigrationSpec")
        if len(self.immigration) != self.capacity_n:
            raise ValueError(
                f"immigration schedule has length {len(self.immigration)}, "
                f"expected capacity_n = {self.capacity_n}"
            )

    @classmethod
    def from_constants(
        cls,
        lam: float,
        mu: float,
        delta1: float,
        delta2: float,
        delta3: float,
        theta: float,
        capacity_n: int,
        r1: float,
    ) -> "ModelParams":
        """Build params with a constant immigration schedule R_1i = r1."""
        if not (isinstance(capacity_n, (int, np.integer)) and not isinstance(capacity_n, bool)):
            raise ValueError(f"capacity_n must be an integer, got {capacity_n!r}")
        return cls(
            lam, mu, delta1, delta2, delta3, theta, int(capacity_n),
            ImmigrationSpec.constant(r1, int(capacity_n)),
        )

    def with_capacity(self, capacity_n: int) -> "ModelParams":
        """Same dimensionless model at a different capacity.

        Only constant immigration schedules can be resized; a state-dependent
        schedule has no canonical extension to a different state count.
        """
        if not self.immigration.is_constant:
            raise ValueError("cannot resize a state-dependent immigration schedule")
        return ModelParams.from_constants(
            self.lam, self.mu, self.delta1, self.delta2, self.delta3,
            self.theta, int(capacity_n), float(self.immigration.r1[0]),
        )


@dataclass(frozen=True)
class EquilibriumPair:
    """The two positive equilibria x-* < x+* of the density balance."""

    x_minus: float
    x_plus: float


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of every model assumption check, with human-readable messages.

    The bistability assumption is split into its three sub-checks; the
    bistability_holds property is their conjunction. All comparisons are
    strict with no tolerance: the assumptions are open conditions, so
    borderline parameters fail.
    """

    threshold_chain: bool
    density_dependence: bool
    discriminant_positive: bool
    capacity_interior: bool
    immigration_bounded: bool
    messages: tuple[str, ...]

    @property
    def bistability_holds(self) -> bool:
        return self.threshold_chain and self.density_dependence and self.discriminant_positive


def basic_reproduction_ratio(params: ModelParams) -> float:
    """R0 = lambda / mu, the expected offspring per individual lifetime."""
    return params.lam / params.mu


def balance_coefficients(params: ModelParams) -> tuple[float, float, float]:
    """Coefficients (a, b, c) of the density balance quadratic.

    The positive equilibria solve a*x**2 - b*x + c = 0 with

        a = R0*delta1 + delta2
        b = R0 - 1 - theta*a
        c = theta*(1 + delta3 - R0)

    When the bistability conditions hold, all three are positive and
    b**2 - 4*a*c equals, in exact arithmetic, the balance discriminant whose
    sign check_assumptions reports as discriminant_positive.
    """
    r0 = basic_reproduction_ratio(params)
    a = r0 * params.delta1 + params.delta2
    b = r0 - 1.0 - params.theta * a
    c = params.theta * (1.0 + params.delta3 - r0)
    return a, b, c


def _balance_roots(params: ModelParams) -> tuple[float, tuple[float, float] | None]:
    """Discriminant and roots (x-*, x+*) of the balance quadratic, or None
    for the roots unless the discriminant and the slope a are positive.

    (1 - R0 - theta*a)**2 - 4*theta*delta3*a equals b**2 - 4*a*c only in
    exact arithmetic; the reported equilibria are pinned to these bits.
    """
    r0 = basic_reproduction_ratio(params)
    a, b, _ = balance_coefficients(params)
    disc = (1.0 - r0 - params.theta * a) ** 2 - 4.0 * params.theta * params.delta3 * a
    if not (disc > 0.0 and a > 0.0):
        return disc, None
    root = math.sqrt(disc)
    return disc, ((b - root) / (2.0 * a), (b + root) / (2.0 * a))


def check_assumptions(params: ModelParams) -> AssumptionReport:
    """Evaluate every model assumption; never raises.

    Bistability: 1 + theta*(R0*delta1 + delta2) < R0 < 1 + delta3, some
        density dependence (delta1**2 + delta2**2 > 0), and a positive
        discriminant of the balance quadratic.
    Interior capacity: x_plus <= 1, so the persistence equilibrium fits
        inside [0, 1].
    Bounded immigration: 0 <= R_1i <= 1 for every state.

    Returns:
        AssumptionReport with one message per violated sub-check.
    """
    r0 = basic_reproduction_ratio(params)
    slope, _, _ = balance_coefficients(params)
    messages = []

    chain = 1.0 + params.theta * slope < r0 < 1.0 + params.delta3
    if not chain:
        messages.append(
            f"bistability needs 1 + theta*(R0*delta1 + delta2) < R0 < 1 + delta3, "
            f"got {1.0 + params.theta * slope:.6g} vs {r0:.6g} vs {1.0 + params.delta3:.6g}"
        )
    dens = params.delta1 ** 2 + params.delta2 ** 2 > 0.0
    if not dens:
        messages.append("bistability needs density dependence: delta1 and delta2 are both 0")
    disc, roots = _balance_roots(params)
    disc_ok = disc > 0.0
    if not disc_ok:
        messages.append(f"bistability needs a positive balance discriminant, got {disc:.6g}")

    if roots is not None:
        x_plus = roots[1]
        interior = x_plus <= 1.0
        if not interior:
            messages.append(f"the persistence equilibrium x_plus = {x_plus:.6g} exceeds 1")
    else:
        interior = False
        messages.append("interior capacity not evaluable: the positive equilibria do not exist")

    r1 = params.immigration.r1
    bounded = bool(np.all((r1 >= 0.0) & (r1 <= 1.0)))
    if not bounded:
        bad = int(np.argmax((r1 < 0.0) | (r1 > 1.0)))
        messages.append(
            f"immigration fraction R_1i = {r1[bad]:.6g} at state {bad} is outside [0, 1]"
        )

    return AssumptionReport(chain, dens, disc_ok, interior, bounded, tuple(messages))


def equilibria(params: ModelParams) -> EquilibriumPair:
    """The bistable equilibria x-* < x+* of the deterministic density balance.

    Raises:
        AssumptionError: if the bistability conditions fail; the report
            rides along on the exception so the caller can see which
            sub-check broke.
    """
    report = check_assumptions(params)
    if not report.bistability_holds:
        detail = "; ".join(m for m in report.messages if m.startswith("bistability"))
        raise AssumptionError(f"equilibria need bistability: {detail}", report)
    _, (x_minus, x_plus) = _balance_roots(params)
    return EquilibriumPair(x_minus=x_minus, x_plus=x_plus)


def per_capita_factors(params: ModelParams, x):
    """Per-capita birth and death factors (1 - delta1*x, 1 + delta2*x +
    delta3*theta/(theta + x)) at density x, scalar or array."""
    fb = 1.0 - params.delta1 * x
    return fb, 1.0 + params.delta2 * x + params.delta3 * params.theta / (params.theta + x)


def rate_arrays(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Birth and death rates (b, d) over all states 0..N.

    b(i) = lam*i*(1 - delta1*i/N) + alpha_i*(N - i) with alpha_i = mu*R_1i/N,
    and exactly 0 at i = N (capacity is a hard wall);
    d(i) = mu*i*(1 + delta2*i/N + delta3*theta/(theta + i/N)).

    Returns:
        Pair of float arrays of length N + 1 with b[N] = 0 and d[0] = 0.
    """
    n = params.capacity_n
    i = np.arange(n + 1, dtype=float)
    fb, fd = per_capita_factors(params, i / n)
    r1 = np.concatenate([params.immigration.r1, [0.0]])
    b = params.lam * i * fb + (params.mu / n) * r1 * (n - i)
    b[n] = 0.0
    return b, params.mu * i * fd


# ---------------------------------------------------------------------------
# Flat key = value configuration documents
# ---------------------------------------------------------------------------


def parse_config(text: str) -> dict[str, str]:
    """Parse a flat key = value document into raw string values.

    Blank lines and '#' comments (whole-line or trailing) are ignored.
    Duplicate keys are rejected so a typo cannot silently override an
    earlier setting. Values keep their raw string form; callers coerce.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {line!r}")
        if key in out:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _config_value(mapping, key, parse, what: str):
    try:
        raw = mapping[key]
    except KeyError:
        raise ValueError(f"config is missing required key {key!r}") from None
    try:
        return parse(raw)
    except ValueError:
        raise ValueError(f"config key {key!r} is not {what}: {raw!r}") from None


def config_float(mapping, key) -> float:
    """Value of a config key as a float; ValueError names the key."""
    return _config_value(mapping, key, float, "a number")


def config_int(mapping, key) -> int:
    """Value of a config key as an integer; ValueError names the key."""
    return _config_value(mapping, key, lambda raw: int(str(raw)), "an integer")


def config_int_list(mapping, key) -> list[int]:
    """Comma-separated integers of a config key; at least one is required."""
    values = _config_value(
        mapping, key, lambda raw: [int(v) for v in raw.split(",") if v.strip()],
        "a comma list of integers",
    )
    if not values:
        raise ValueError(f"config key {key!r} lists no integers: {mapping[key]!r}")
    return values


def params_from_config(mapping) -> ModelParams:
    """Build ModelParams from a parsed flat config (extra keys are ignored).

    Required keys: lambda, mu, delta1, delta2, delta3, theta, N, r1.
    r1 accepts a scalar (constant schedule) or a comma-separated vector of
    length N.
    """
    n = config_int(mapping, "N")
    r1 = _config_value(
        mapping, "r1", lambda raw: [float(v) for v in str(raw).split(",")],
        "a number or a comma list of numbers",
    )
    schedule = ImmigrationSpec.constant(r1[0], n) if len(r1) == 1 else ImmigrationSpec(r1)
    constants = {field: config_float(mapping, key) for key, field in _CONSTANT_KEYS}
    return ModelParams(**constants, capacity_n=n, immigration=schedule)


def params_to_config(params: ModelParams) -> dict[str, str]:
    """Canonical flat-config representation of the parameters.

    Floats are emitted with repr so parsing the result reproduces the
    parameters bit for bit.
    """
    if params.immigration.is_constant:
        r1 = repr(float(params.immigration.r1[0]))
    else:
        r1 = ",".join(repr(float(v)) for v in params.immigration.r1)
    config = {key: repr(getattr(params, field)) for key, field in _CONSTANT_KEYS}
    return {**config, "N": str(params.capacity_n), "r1": r1}
