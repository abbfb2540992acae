"""Perturbative renormalization-group flow for the Rayleigh cycle.

Averaging the weakly nonlinear dynamics over the fast oscillation leaves slow
flow equations for a renormalized amplitude ``R`` and phase ``theta``,
truncated here at the printed orders:

    dR/dt     = (1/2) R (1 - R^2/4) eps  +  (1/1024) R^5 (11 - (13/8) R^2) eps^3
    dtheta/dt = -(1/8) (1 - R^4/32) eps^2

The long-time amplitude :func:`a_rg` is the attracting positive root of the
amplitude rate.  Because the cubic-in-``eps`` term pushes the root only
slightly above 2, this layer parts company with the true cycle already at
moderate nonlinearity — that failure is a first-class output of the package,
not a defect: the comparison tables quantify it.

The same truncated flow governs the Van der Pol amplitude (the two systems
share it under the velocity substitution), so one implementation serves both.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .integrator import brentq

__all__ = [
    "rg_amp_rate",
    "rg_phase_rate",
    "a_rg",
    "renormalized_solution",
]


def _check_radius(R: float) -> None:
    if R < 0:
        raise DomainError(f"amplitude must be nonnegative, got {R!r}")


def rg_amp_rate(R: float, eps: float) -> float:
    """Truncated amplitude flow rate dR/dt."""
    _check_radius(R)
    try:
        cubic = eps**3
    except OverflowError:
        raise DomainError(f"eps**3 overflows at eps={eps!r}") from None
    return 0.5 * R * (1.0 - R * R / 4.0) * eps + (
        R**5 * (11.0 - 1.625 * R * R) * cubic / 1024.0
    )


def rg_phase_rate(R: float, eps: float) -> float:
    """Truncated phase drift rate dtheta/dt."""
    _check_radius(R)
    return -0.125 * (1.0 - R**4 / 32.0) * eps * eps


def a_rg(eps: float) -> float:
    """Long-time flow amplitude: the attracting root of :func:`rg_amp_rate`.

    The root always sits in [2, 4): at R=2 only the positive cubic term
    survives, while at R=4 both terms are negative, so Brent's method on that
    bracket is guaranteed.  Where ``eps**3`` underflows (eps below about
    1e-103) the rate at R=2 is exactly zero and the root is 2.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise DomainError(f"eps must be positive, got {eps!r}")
    return brentq(lambda r: rg_amp_rate(r, eps), 2.0, 4.0, xtol=1e-14, rtol=8.9e-16)


def renormalized_solution(R: float, theta: float, t, eps: float):
    """Second-order renormalized displacement ``y(t)``.

    ``y = R cos(t+theta) + (eps/96) R^3 (sin 3(t+theta) - sin(t+theta))``;
    accepts scalar or array ``t``.
    """
    _check_radius(R)
    phase = np.asarray(t, dtype=float) + theta
    y = R * np.cos(phase) + (eps / 96.0) * R**3 * (
        np.sin(3.0 * phase) - np.sin(phase)
    )
    return float(y) if np.isscalar(t) else y
