"""Stochastic logistic growth with mate limitation and immigration.

A finite birth-death chain on {0, ..., N} whose per-capita rates carry a
weak Allee effect, together with the tools needed to study it: exact
stationary distributions, master-equation evolution, Gillespie sampling,
the large-N threshold classification, and the deterministic density limit.

``__all__`` is derived from the names the imports below bind, so a helper
imported here for the package's own use takes an underscore alias (as
``_ModuleType`` does); any other name becomes public API.
"""

from types import ModuleType as _ModuleType

from .asymptotics import (
    CRITICAL,
    EXTINCTION,
    PERSISTENCE,
    ConvergenceDiagnostic,
    ThresholdReport,
    discrete_markov_exponent,
    limit_distribution_diagnostic,
    markov_exponent,
    rate_ratio,
)
from .deterministic import (
    TO_X_PLUS,
    TO_ZERO,
    UNDECIDED,
    ImmigrationEquilibria,
    OdeTrajectory,
    immigration_equilibria,
    immigration_ode_rhs,
    integrate,
    ode_rhs,
)
from .errors import (
    AssumptionError,
    ComplexRootError,
    ConvergenceBudgetError,
    DegenerateDistributionError,
    JumpBudgetError,
    OracleSolveError,
    QuadratureError,
    UnimodalProfileError,
)
from .master_eq import (
    GeneratorMatrix,
    build_generator,
    converge_to_stationary,
    evolve,
    total_variation,
)
from .model import (
    AssumptionReport,
    EquilibriumPair,
    ImmigrationSpec,
    ModelParams,
    basic_reproduction_ratio,
    check_assumptions,
    equilibria,
    params_from_config,
    params_to_config,
    parse_config,
    rate_arrays,
)
from .ssa import (
    EnsembleSummary,
    Trajectory,
    ensemble,
    occupation_distribution,
    simulate,
)
from .stationary import (
    CubicRoots,
    ModeProfile,
    StationaryDistribution,
    mode_cubic_coefficients,
    mode_profile,
    mode_scaling_check,
    psd_nullspace_oracle,
    psd_product,
    solve_mode_cubic,
    stationary_from_rates,
    stationary_nullspace_from_rates,
)

__version__ = "0.1.0"

#: The public names are those the imports above bind, less the submodules
#: that importing them binds as attributes of the package and the helpers
#: imported under an underscore alias.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
