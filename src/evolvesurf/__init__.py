"""Solver and verification harness for advection-diffusion on an evolving surface patch.

The PDE on the moving surface is pulled back to a fixed parameter rectangle,
discretized by finite differences, and advanced either directly by a
theta-scheme or by the fixed-point iteration around the constant anisotropic
comparison operator.  Alongside the solvers, the package estimates the
regularity constants of the comparison operator, checks the coefficient
smallness conditions with their existence horizons, and verifies the
structural claims (energy balance, decay, contraction, identity oracles)
numerically.
"""

from .coefficients import (
    ConditionReport,
    Diffusion,
    estimate_C_A,
    estimate_C_sharp,
    horizon_thm24,
    horizon_thm25,
    lambda_select,
    m_quantities,
    make_diffusion,
    smallness_report,
)
from .diagnostics import (
    ConvergenceTable,
    EnergyLedger,
    manufactured_solution,
    mms_convergence,
    solve_reported,
    surface_integral,
    transport_identity_residual,
)
from .errors import (
    AssumptionViolationError,
    ConfigError,
    DegenerateChartError,
    DomainError,
    ParameterError,
    PicardDivergenceError,
    StepSolveError,
)
from .geometry import (
    Chart,
    GridSpec,
    MetricSample,
    eval_chart,
    make_chart,
    make_grid,
    metric_sample,
    motion_velocity,
    nondegeneracy_scan,
    user_chart,
)
from .operator import (
    assemble_A,
    assemble_B_parts,
    assemble_L,
    half_power_norm,
    verify_anisotropic_identities,
)
from .timestepper import (
    PicardHistory,
    Trajectory,
    solve_direct,
    solve_picard,
    z_norm,
)

__version__ = "0.1.0"
