"""Exception types shared across the package.

Two families, chosen so the CLI can map them onto exit codes without
inspecting messages:

  - ValueError subclasses: the inputs are wrong (bad parameters, violated
    preconditions, malformed configuration).
  - RuntimeError subclasses: the inputs were fine but a numerical procedure
    failed to reach its stated tolerance or budget.
"""

from __future__ import annotations


class AssumptionError(ValueError):
    """A computation required model assumptions the parameters violate.

    Carries the full assumption report so callers can see exactly which
    sub-check failed instead of re-deriving it from the message.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class DegenerateDistributionError(ValueError):
    """The chain has no positive stationary distribution.

    Raised when state 0 is absorbing (no immigration out of extinction),
    in which case all stationary mass collapses onto state 0.
    """


class OracleSolveError(RuntimeError):
    """The dense null-space solve missed its residual tolerance."""


class ComplexRootError(RuntimeError):
    """The mode cubic has a complex pair; capacity too small for three real roots."""


class UnimodalProfileError(RuntimeError):
    """An operation needed an interior mode but the profile has none."""


class QuadratureError(RuntimeError):
    """A hitting-time integral missed its accuracy budget: its rounding
    bound exceeds the budget, or rounding sent the flow across a zero."""


class JumpBudgetError(RuntimeError):
    """A sample path needed more jumps than the simulator stores for one path."""


class ConvergenceBudgetError(RuntimeError):
    """An iterative evolution hit its budget before reaching tolerance.

    Attributes:
        achieved_tv: best total-variation distance reached, or None.
        horizon: model time integrated before giving up, or None.
        witness: the last distribution computed, or None.
    """

    def __init__(self, message: str, achieved_tv=None, horizon=None, witness=None):
        super().__init__(message)
        self.achieved_tv = achieved_tv
        self.horizon = horizon
        self.witness = witness
