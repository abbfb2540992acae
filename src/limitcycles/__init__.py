"""Limit cycles of Rayleigh and van der Pol oscillators.

Four independent routes to the same object — the amplitude and shape of the
unique attracting limit cycle as the nonlinearity strength grows:

* :mod:`~limitcycles.integrator` — the reference answer by adaptive
  integration with crossing detection;
* :mod:`~limitcycles.ham` (on :mod:`~limitcycles.trigpoly`) — an exact
  symbolic second-order deformation expansion with a tuned control
  parameter, accurate to ~1% across three decades of nonlinearity;
* :mod:`~limitcycles.rgflow` — slow flow equations for amplitude and phase
  (good only for weak nonlinearity: a documented failure mode);
* :mod:`~limitcycles.irgm` — calibrated closed forms built on a nonlinear
  time scale, including a two-branch fit for the van der Pol amplitude;

plus :mod:`~limitcycles.geometry` for piecewise arc/segment descriptions of
the cycle itself and :mod:`~limitcycles.cli` for the command-line surface.
"""

from .errors import ConvergenceError, DomainError
from .geometry import (
    Arc,
    CurvePiece,
    PiecewiseCurve,
    Segment,
    continuity_report,
    curve_distance,
    domain_audit,
    eval_piecewise,
    fit_cycle,
    load_bundled,
    read_curve,
    write_curve,
)
from .ham import (
    B_TABLE,
    HamOrder,
    amplitude_ham,
    breakpoint_jumps,
    control_h,
    expansion,
    solve_order,
    step_coefficient,
)
from .integrator import (
    AmplitudeCurve,
    CycleRecord,
    IntegratorConfig,
    Trajectory,
    amplitude_sweep,
    integrate,
    limit_cycle,
)
from .irgm import (
    PRESETS,
    IrgmCalibration,
    amplitude_flow,
    amplitude_irgm,
    calibrate_constant,
    consistency_report,
    get_preset,
    invert_h,
    vdp_fit,
)
from .oscillators import (
    LIENARD,
    RAYLEIGH,
    VAN_DER_POL,
    OscillatorSpec,
)
from .rgflow import a_rg, renormalized_solution, rg_amp_rate, rg_phase_rate
from .trigpoly import DeformationSolution, Poly2, TrigSeries, solve_deformation

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ConvergenceError",
    "DomainError",
    # oscillators
    "LIENARD",
    "RAYLEIGH",
    "VAN_DER_POL",
    "OscillatorSpec",
    # integration
    "AmplitudeCurve",
    "CycleRecord",
    "IntegratorConfig",
    "Trajectory",
    "amplitude_sweep",
    "integrate",
    "limit_cycle",
    # symbolic series
    "DeformationSolution",
    "Poly2",
    "TrigSeries",
    "solve_deformation",
    # tuned expansion
    "B_TABLE",
    "HamOrder",
    "amplitude_ham",
    "breakpoint_jumps",
    "control_h",
    "expansion",
    "solve_order",
    "step_coefficient",
    # slow flow
    "a_rg",
    "renormalized_solution",
    "rg_amp_rate",
    "rg_phase_rate",
    # calibrated closed forms
    "PRESETS",
    "IrgmCalibration",
    "amplitude_flow",
    "amplitude_irgm",
    "calibrate_constant",
    "consistency_report",
    "get_preset",
    "invert_h",
    "vdp_fit",
    # phase-plane geometry
    "Arc",
    "CurvePiece",
    "PiecewiseCurve",
    "Segment",
    "continuity_report",
    "curve_distance",
    "domain_audit",
    "eval_piecewise",
    "fit_cycle",
    "load_bundled",
    "read_curve",
    "write_curve",
]
