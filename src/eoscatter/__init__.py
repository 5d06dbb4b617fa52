"""Hybrid solver for two 1-D transient scattering models.

The interior of the obstacle is advanced with a second-order explicit
stepper while the boundary values are reconstructed each step from delayed
integrals of the interior state and the incident field, so no absorbing
boundary conditions and no exterior mesh are needed.  The package bundles
the two model problems, a manufactured-solution verification harness, and
an eigenvalue-based stability lab for the time-step window.
"""

from .config import (
    ConfigError,
    PRESETS,
    RunConfig,
    load_preset,
    mms_run,
    parse_config,
    resolve_config,
)
from .grid import GridSpec, Material1, Material2, SpatialOps
from .history import DelayBuffer, HistoryError, RetardedSum
from .mms import (
    ArctanGaussianPulse,
    ErrorReport,
    GaussianBump,
    ManufacturedFields1,
    ManufacturedFields2,
    ResidualSources1,
    ResidualSources2,
    convergence_order,
)
from .model1 import DivergenceError, Scenario1, run_m1
from .model2 import Scenario2, run_m2
from .sources import (
    GaussianSource,
    QuadratureError,
    TabulatedSource,
    characteristic_integral,
    incident_pair,
    incident_series,
    incident_trace,
)
from .stability import (
    EigenSolverError,
    assemble_propagator,
    decomposition_check,
    homogeneous_run,
    scan_stability,
    spectral_radius,
    stability_bounds,
    stability_radius,
)

__version__ = "0.1.0"

__all__ = [
    "ArctanGaussianPulse",
    "ConfigError",
    "DelayBuffer",
    "DivergenceError",
    "EigenSolverError",
    "ErrorReport",
    "GaussianBump",
    "GaussianSource",
    "GridSpec",
    "HistoryError",
    "ManufacturedFields1",
    "ManufacturedFields2",
    "Material1",
    "Material2",
    "PRESETS",
    "QuadratureError",
    "ResidualSources1",
    "ResidualSources2",
    "RetardedSum",
    "RunConfig",
    "Scenario1",
    "Scenario2",
    "SpatialOps",
    "TabulatedSource",
    "assemble_propagator",
    "characteristic_integral",
    "convergence_order",
    "decomposition_check",
    "homogeneous_run",
    "incident_pair",
    "incident_series",
    "incident_trace",
    "load_preset",
    "mms_run",
    "parse_config",
    "resolve_config",
    "run_m1",
    "run_m2",
    "scan_stability",
    "spectral_radius",
    "stability_bounds",
    "stability_radius",
    "__version__",
]
