"""Amplitude laws from the flow in nonlinear time (improved RG layer).

Separating the slow flow onto the rescaled time ``tau = eps**h_rg`` turns the
amplitude equation

    da/dtau_1 = (1/2) a (1 - a^2/4)

into the closed relation ``ln(a^2 - 4) - 2 ln a = -eps**h_rg - C``.  This
module provides that relation in all directions:

* :func:`calibrate_constant` fixes ``C`` from a boundary amplitude at eps=1
  (where ``eps**h == 1`` whatever ``h`` is, so no exponent is needed);
* :func:`amplitude_irgm` evaluates the amplitude given an exponent;
* :func:`invert_h` recovers the exponent that reproduces a target amplitude —
  the per-eps "control curve" of the method;
* :func:`amplitude_flow` is the explicit flow solution in the rescaled time
  (the phase drift is :func:`~limitcycles.rgflow.rg_phase_rate` at eps=1);
* :func:`vdp_fit` is the closed-form piecewise amplitude formula for the Van
  der Pol cycle built on top of this machinery.

Calibration bookkeeping lives in :class:`IrgmCalibration`.  The shipped
presets keep the published constants verbatim; note that the Van der Pol
published constant does **not** follow from its own stated boundary condition
(``calibrate_constant(2.0086, 1)`` gives 3.7624, not 4.08785).  The presets
therefore include both the verbatim and the recomputed value, and
:func:`consistency_report` states the mismatch explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from .claims import RAYLEIGH_A1, RAYLEIGH_CONSTANT, VDP_A1, VDP_CONSTANT
from .errors import DomainError
from .oscillators import RAYLEIGH, VAN_DER_POL

__all__ = [
    "IrgmCalibration",
    "PRESETS",
    "get_preset",
    "consistency_report",
    "calibrate_constant",
    "amplitude_irgm",
    "invert_h",
    "vdp_fit",
    "amplitude_flow",
]


def calibrate_constant(a_ref: float, eps_ref: float = 1.0) -> float:
    """Integration constant from a boundary amplitude at ``eps_ref = 1``.

    ``C = ln(a_ref^2 / (a_ref^2 - 4)) - 1``.  Only eps_ref=1 is accepted:
    there the rescaled time equals 1 for every exponent, so the calibration
    needs no knowledge of ``h_rg``.
    """
    if eps_ref != 1.0:
        raise DomainError("calibration is defined at eps_ref = 1 only")
    if not (math.isfinite(a_ref) and a_ref > 2.0):
        raise DomainError(f"boundary amplitude must exceed 2, got {a_ref!r}")
    a2 = a_ref * a_ref
    return math.log(a2 / (a2 - 4.0)) - 1.0


def amplitude_irgm(eps: float, h_rg: float, constant: float) -> float:
    """Amplitude ``2 / sqrt(1 - exp(-eps**h_rg - C))`` (always >= 2; a float
    cannot hold an excess below about 1e-16)."""
    if not (math.isfinite(eps) and eps > 0):
        raise DomainError(f"eps must be positive, got {eps!r}")
    if not math.isfinite(h_rg):
        raise DomainError(f"h_rg must be finite, got {h_rg!r}")
    try:
        scaled = eps**h_rg
    except OverflowError:
        raise DomainError(f"eps**h_rg overflows at eps={eps!r}, h_rg={h_rg!r}") from None
    decay = math.exp(-scaled - constant)
    if decay >= 1.0:
        raise DomainError(
            f"exp(-eps**h - C) = {decay!r} >= 1: no real amplitude above 2"
        )
    return 2.0 / math.sqrt(1.0 - decay)


def invert_h(a_target: float, eps: float, constant: float) -> float:
    """Exponent making :func:`amplitude_irgm` hit ``a_target`` at ``eps``.

    ``h = ln( ln(a^2/(a^2-4)) - C ) / ln eps``; undefined at eps=1, where the
    rescaled time degenerates to 1.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise DomainError(f"eps must be positive, got {eps!r}")
    if eps == 1.0:
        raise DomainError("eps = 1 is singular for the exponent (ln eps = 0)")
    if not (math.isfinite(a_target) and a_target > 2.0):
        raise DomainError(f"target amplitude must exceed 2, got {a_target!r}")
    a2 = a_target * a_target
    inner = math.log(a2 / (a2 - 4.0)) - constant
    if inner <= 0.0:
        raise DomainError(
            f"ln(a^2/(a^2-4)) - C = {inner!r} <= 0: amplitude unreachable"
        )
    return math.log(inner) / math.log(eps)


def vdp_fit(eps: float) -> float:
    """Closed-form piecewise Van der Pol amplitude on ``0 < eps <= 50``."""
    if not (math.isfinite(eps) and 0.0 < eps <= 50.0):
        raise DomainError(f"eps={eps!r} outside (0, 50]")
    if eps < 3.0:
        return 1.998 + 0.015 / (
            8.121 * math.exp(-2.139 * eps) + 0.512 * math.exp(0.043 * eps)
        )
    return 2.0025 + 0.031 / (
        0.5 * math.exp(-2.033 * (eps - 2.183))
        + 1.869 * math.exp(0.087 * (eps - 6.376))
    )


def amplitude_flow(tau: float, a0: float) -> float:
    """Explicit flow solution ``a(tau)`` from ``a(0) = a0`` in rescaled time.

    ``a = a0 / sqrt(exp(-tau) + (a0^2/4)(1 - exp(-tau)))``; every positive
    start decays onto the amplitude 2 as ``tau`` grows, and ``a0 = 2`` is a
    fixed point.  Backward times that leave the flow's interval of existence
    (radicand <= 0, possible only for a0 > 2) are rejected.
    """
    if not (math.isfinite(a0) and a0 > 0):
        raise DomainError(f"initial amplitude must be positive, got {a0!r}")
    shrink = math.exp(-tau)
    radicand = shrink + (a0 * a0 / 4.0) * (1.0 - shrink)
    if radicand <= 0.0:
        raise DomainError(f"flow does not extend to tau={tau!r} from a0={a0!r}")
    return a0 / math.sqrt(radicand)


# ---------------------------------------------------------------------------
# calibration presets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IrgmCalibration:
    """A named calibration: system, constant, and its boundary condition."""

    system: str
    constant: float
    eps_ref: float
    a_ref: float

    def __post_init__(self):
        if self.a_ref <= 2.0:
            raise DomainError("boundary amplitude must exceed 2")

    def recomputed_constant(self) -> float:
        """What the boundary condition actually implies for the constant."""
        return calibrate_constant(self.a_ref, self.eps_ref)

    def consistency_gap(self) -> float:
        """|stored constant - recomputed constant|."""
        return abs(self.constant - self.recomputed_constant())

    def is_consistent(self) -> bool:
        """Whether the stored constant matches its boundary condition to 1e-3."""
        return self.consistency_gap() <= 1e-3


def _presets() -> Dict[str, IrgmCalibration]:
    _, _, rayleigh_anchor, _ = RAYLEIGH_A1
    _, _, vdp_anchor, _ = VDP_A1
    return {
        # published constant; agrees with its boundary condition to ~4e-6
        "rayleigh": IrgmCalibration(RAYLEIGH, RAYLEIGH_CONSTANT, 1.0, rayleigh_anchor),
        # published Van der Pol constant, kept verbatim for reproduction runs;
        # it does NOT follow from its own boundary condition (gap ~0.325)
        "vdp-paper": IrgmCalibration(VAN_DER_POL, VDP_CONSTANT, 1.0, vdp_anchor),
        # same boundary condition, constant actually recomputed from it
        "vdp-consistent": IrgmCalibration(
            VAN_DER_POL, calibrate_constant(vdp_anchor), 1.0, vdp_anchor
        ),
    }


PRESETS: Dict[str, IrgmCalibration] = _presets()


def get_preset(name: str) -> IrgmCalibration:
    try:
        return PRESETS[name]
    except KeyError:
        raise DomainError(
            f"unknown calibration preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None


def consistency_report() -> List[str]:
    """One line per preset stating whether its constant matches its anchor."""
    lines = []
    for name in sorted(PRESETS):
        cal = PRESETS[name]
        gap = cal.consistency_gap()
        verdict = "consistent" if cal.is_consistent() else "INCONSISTENT"
        lines.append(
            f"{name}: constant={cal.constant:.5f} recomputed="
            f"{cal.recomputed_constant():.5f} gap={gap:.5f} -> {verdict} "
            f"(boundary a={cal.a_ref} at eps={cal.eps_ref})"
        )
    return lines
