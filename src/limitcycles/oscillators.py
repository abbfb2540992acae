"""Oscillator definitions in first-order phase-plane form.

All systems are written as

    y' = z
    z' = -eps * f(y, z) - g(y)

with a damping function ``f`` scaled by the nonlinearity parameter ``eps``
and a restoring force ``g``.  Since ``y' = z`` for every member,
:meth:`OscillatorSpec.field_function` returns the acceleration ``z'`` alone, and
the solver reads ``y'`` off the ``z`` it holds.  Two named members:

* Rayleigh:     y'' + eps*(y'^3/3 - y') + y = 0,   f(y, z) = z**3/3 - z
* Van der Pol:  x'' + eps*x'*(x^2 - 1)  + x = 0,   f(y, z) = z*(y**2 - 1)

Differentiating the Rayleigh equation and substituting x = y' turns it into
the Van der Pol equation, so the two limit cycles are images of each other
under (y, z) -> (z, z'): they share their period, and the Van der Pol
amplitude is the largest |z| on the Rayleigh cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import DomainError

RAYLEIGH = "rayleigh"
VAN_DER_POL = "vanderpol"
LIENARD = "lienard"

_KINDS = (RAYLEIGH, VAN_DER_POL, LIENARD)


@dataclass(frozen=True)
class OscillatorSpec:
    """A second-order oscillator ``y'' + eps*f(y, y') + g(y) = 0``.

    Use the :meth:`rayleigh`, :meth:`van_der_pol` or :meth:`lienard`
    constructors rather than filling fields by hand; the named kinds carry
    their damping/restoring functions implicitly.
    """

    kind: str
    epsilon: float
    damping: Optional[Callable[[float, float], float]] = field(
        default=None, compare=False
    )
    restoring: Optional[Callable[[float], float]] = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown oscillator kind {self.kind!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise DomainError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if self.kind == LIENARD and (self.damping is None or self.restoring is None):
            raise DomainError("custom oscillators need damping and restoring functions")

    # -- constructors -------------------------------------------------------

    @classmethod
    def rayleigh(cls, epsilon: float) -> "OscillatorSpec":
        return cls(RAYLEIGH, float(epsilon))

    @classmethod
    def van_der_pol(cls, epsilon: float) -> "OscillatorSpec":
        return cls(VAN_DER_POL, float(epsilon))

    @classmethod
    def lienard(
        cls,
        epsilon: float,
        damping: Callable[[float, float], float],
        restoring: Callable[[float], float],
    ) -> "OscillatorSpec":
        """General system ``y'' + eps*damping(y, y') + restoring(y) = 0``."""
        return cls(LIENARD, float(epsilon), damping, restoring)

    # -- vector field ----------------------------------------------------------

    def field_function(self) -> Callable[[float, float], float]:
        """The acceleration ``a(y, z)``: the ``z'`` of the phase-plane field, whose
        ``y'`` is ``z`` itself, so a solver reads it off the state it holds."""
        eps = self.epsilon
        if self.kind == RAYLEIGH:
            return lambda y, z: eps * (z - z * z * z / 3.0) - y
        if self.kind == VAN_DER_POL:
            return lambda y, z: eps * z * (1.0 - y * y) - y
        f, g = self.damping, self.restoring
        return lambda y, z: -eps * f(y, z) - g(y)
