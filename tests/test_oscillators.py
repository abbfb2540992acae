"""Vector-field definitions, symmetry, and the velocity-substitution link."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitcycles.errors import DomainError
from limitcycles.integrator import IntegratorConfig, limit_cycle
from limitcycles.oscillators import OscillatorSpec

coords = st.floats(min_value=-5, max_value=5, allow_nan=False)
eps_values = st.floats(min_value=0.01, max_value=50, allow_nan=False)


def _field(spec):
    """The phase-plane field ``fun(t, (y, z)) -> (y', z')`` around the acceleration."""
    accel = spec.field_function()
    return lambda t, s: (s[1], accel(*s))


def test_rhs_goldens():
    # y'' + eps*(y'^3/3 - y') + y = 0 at (y, z) = (1, 2), eps = 2
    dy, dz = _field(OscillatorSpec.rayleigh(2.0))(0.0, (1.0, 2.0))
    assert dy == 2.0
    assert dz == pytest.approx(2.0 * (2.0 - 8.0 / 3.0) - 1.0)  # -7/3
    # x'' + eps*x'*(x^2 - 1) + x = 0 at (1, 2), eps = 2: cubic term vanishes
    dy, dz = _field(OscillatorSpec.van_der_pol(2.0))(0.0, (1.0, 2.0))
    assert dy == 2.0
    assert dz == pytest.approx(-1.0)


def test_custom_lienard_field():
    spec = OscillatorSpec.lienard(0.5, lambda y, z: z**3, lambda y: y**3)
    dy, dz = _field(spec)(0.0, (2.0, 1.0))
    assert dy == 1.0
    assert dz == pytest.approx(-0.5 * 1.0 - 8.0)


@settings(max_examples=80, deadline=None)
@given(eps_values, coords, coords)
def test_field_is_odd(eps, y, z):
    for spec in (OscillatorSpec.rayleigh(eps), OscillatorSpec.van_der_pol(eps)):
        fun = _field(spec)
        dy, dz = fun(0.0, (y, z))
        dy_m, dz_m = fun(0.0, (-y, -z))
        assert dy_m == pytest.approx(-dy, rel=1e-12, abs=1e-12)
        assert dz_m == pytest.approx(-dz, rel=1e-12, abs=1e-12)


def test_validation():
    with pytest.raises(DomainError):
        OscillatorSpec("brusselator", 1.0)
    with pytest.raises(DomainError):
        OscillatorSpec.rayleigh(0.0)
    with pytest.raises(DomainError):
        OscillatorSpec.rayleigh(float("nan"))
    with pytest.raises(DomainError):
        OscillatorSpec("lienard", 1.0)  # missing callables


# ---------------------------------------------------------------------------
# velocity substitution: x = y' maps the Rayleigh cycle onto the Van der Pol
# cycle, so both share one period and the Van der Pol amplitude is the
# Rayleigh cycle's largest |y'|
# ---------------------------------------------------------------------------


def test_velocity_substitution_conjugates_the_cycles():
    config = IntegratorConfig(n_samples=2000)
    for eps in (0.3, 1.0, 3.0, 10.0, 30.0):
        rayleigh = limit_cycle(OscillatorSpec.rayleigh(eps), config)
        vdp = limit_cycle(OscillatorSpec.van_der_pol(eps), config)
        # worst measured: 6.6e-10 relative (eps = 10) and 6.4e-6 (eps = 30)
        assert rayleigh.period == pytest.approx(vdp.period, rel=1e-9, abs=0), eps
        assert vdp.amplitude == pytest.approx(np.max(np.abs(rayleigh.z)), abs=1e-5), eps
