"""Dual-path numerics for the jet-bundle geometry of the rheonomic
Berwald-Moor metric: a generic engine that differentiates its way from the
defining formulas, a closed-form engine for every explicit tensor, and a
scenario-driven cross-validation CLI."""

from ._backend import current_backend
from .difftools import (
    COORD_NAMES,
    MAX_ORDER,
    PartialSpec,
    Taylor,
    fd_jet,
    jet_eval,
    partial,
)
from .errors import (
    ConfigError,
    DegenerateCubic,
    DegenerateMetric,
    DomainError,
    JetFinslerError,
    NonFiniteOutput,
    NonPositiveMetric,
    OrderTooHigh,
    SingularChange,
    SingularDenominator,
    ZeroEinsteinConstant,
)
from .jetspace import (
    CubicForm,
    DTensorBundle,
    JetPoint,
    TemporalMetric,
    transform_jet,
)
from .metric_engine import (
    CubicContractions,
    contract_cubic,
    metric_lower_generic,
    metric_upper_generic,
)
from .connection_engine import (
    CartanConnection,
    CurvatureSet,
    NonlinearConnection,
    PointContext,
    RicciSet,
    TorsionSet,
    adapted_derivative,
)
from .berwald_moor import A_COEFFICIENTS, ClosedForms, closed_form_bundle
from .field_theory import (
    ConservationReport,
    EinsteinBlocks,
    EMDerivatives,
    EMSet,
    StressEnergyMixed,
    conservation_residuals,
    einstein_blocks,
    em_covariant_derivatives,
    em_two_form,
    stress_energy_contracted,
    stress_energy_mixed,
)

__version__ = "0.1.0"
