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
        _check_finite_entries("immigration entries", arr)
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


def _check_finite(name: str, value, *, positive: bool = False) -> None:
    """Raise ValueError unless the number value is finite and >= 0 (> 0
    when positive); name leads the message."""
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value!r}")


def _check_finite_entries(name: str, *arrays: np.ndarray) -> None:
    """Raise ValueError unless every entry of the float arrays is finite and
    >= 0; name leads the message."""
    if not all(np.isfinite(v).all() and (v >= 0).all() for v in arrays):
        raise ValueError(f"{name} must be finite and >= 0")


def _is_integer(value) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_integer(name: str, value) -> None:
    """Raise ValueError unless value is a Python or numpy integer, not a bool."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_capacity(n) -> None:
    """Raise ValueError unless n is an integer capacity N >= 2."""
    _check_integer("capacity_n", n)
    if n < 2:
        raise ValueError(f"capacity_n must be an integer >= 2, got {n!r}")


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
        _check_capacity(self.capacity_n)
        object.__setattr__(self, "capacity_n", int(self.capacity_n))
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
        _check_capacity(capacity_n)
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
            self.theta, capacity_n, float(self.immigration.r1[0]),
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
    """Discriminant and roots (x-*, x+*) of the balance quadratic, or None for
    the roots unless the discriminant is >= 0 and a > 0.

    (1 - R0 - theta*a)**2 - 4*theta*delta3*a equals b**2 - 4*a*c only in
    exact arithmetic; the reported equilibria are pinned to these bits. With
    q = b + sign(b) sqrt(disc), a sum of two numbers of one sign, the zero
    of larger magnitude is q / 2a and the other, from their product c / a,
    is 2c / q, so that neither is a difference of near equals; the pair is
    returned in ascending order. For b >= 0 the larger zero is x+*, b / 2a
    where the discriminant is 0. It overflows to inf where a is subnormal,
    and the other zero stays finite.

    Raises:
        ValueError: the discriminant is not finite, as constants near the
            float limits make it (an R0 above about 1e154, for one).
    """
    r0 = basic_reproduction_ratio(params)
    a, b, c = balance_coefficients(params)
    try:
        disc = (1.0 - r0 - params.theta * a) ** 2 - 4.0 * params.theta * params.delta3 * a
    except OverflowError:  # float ** raises where * would give inf
        disc = math.inf
    if not math.isfinite(disc):
        raise ValueError(f"the balance discriminant is not finite at R0 = {r0:.6g}")
    if not (disc >= 0.0 and a > 0.0):
        return disc, None
    q = b + math.copysign(math.sqrt(disc), b)
    large, small = q / (2.0 * a), 2.0 * c / q if q else q  # q = 0: b = disc = 0, so c = 0 too
    return disc, (small, large) if small <= large else (large, small)


def check_assumptions(params: ModelParams) -> AssumptionReport:
    """Evaluate every model assumption.

    Bistability: 1 + theta*(R0*delta1 + delta2) < R0 < 1 + delta3, some
        density dependence (delta1**2 + delta2**2 > 0), and a positive
        discriminant of the balance quadratic.
    Interior capacity: x_plus <= 1, so the persistence equilibrium fits
        inside [0, 1].
    Bounded immigration: 0 <= R_1i <= 1 for every state.

    Returns:
        AssumptionReport with one message per violated sub-check.

    Raises:
        ValueError: only where the balance discriminant is not finite (see
            _balance_roots); every violated assumption is reported instead.
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

    if disc_ok and roots is not None:
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
    return EquilibriumPair(*_balance_roots(params)[1])


def _armed_x_plus(params: ModelParams) -> float | None:
    """x+*, the persistence attractor, when bistability holds; else None."""
    if not check_assumptions(params).bistability_holds:
        return None
    return _balance_roots(params)[1][1]


def _within(capacity_n: int, centre: float, epsilon: float) -> np.ndarray:
    """Mask of the states i in 0..N with |i/N - centre| <= epsilon: the one
    epsilon-window of the ensemble masses and the stationary tails."""
    return np.abs(np.arange(capacity_n + 1) / capacity_n - centre) <= epsilon


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

    Raises:
        ValueError: a rate overflows the float range, as constants near
            1e308 make it do.
    """
    n = params.capacity_n
    i = np.arange(n + 1, dtype=float)
    fb, fd = per_capita_factors(params, i / n)
    r1 = np.concatenate([params.immigration.r1, [0.0]])
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        b = params.lam * i * fb + (params.mu / n) * r1 * (n - i)
        d = params.mu * i * fd
    b[n] = 0.0
    _check_finite_entries("rates", b, d)
    return b, d


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
    _check_capacity(n)
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
