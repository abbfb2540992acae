"""Vector-field definitions, symmetry, and the velocity-substitution link."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitcycles.errors import DomainError
from limitcycles.integrator import integrate
from limitcycles.oscillators import OscillatorSpec, rayleigh_vdp_link

coords = st.floats(min_value=-5, max_value=5, allow_nan=False)
eps_values = st.floats(min_value=0.01, max_value=50, allow_nan=False)


def test_rhs_goldens():
    # y'' + eps*(y'^3/3 - y') + y = 0 at (y, z) = (1, 2), eps = 2
    dy, dz = OscillatorSpec.rayleigh(2.0).field_function()(0.0, (1.0, 2.0))
    assert dy == 2.0
    assert dz == pytest.approx(2.0 * (2.0 - 8.0 / 3.0) - 1.0)  # -7/3
    # x'' + eps*x'*(x^2 - 1) + x = 0 at (1, 2), eps = 2: cubic term vanishes
    dy, dz = OscillatorSpec.van_der_pol(2.0).field_function()(0.0, (1.0, 2.0))
    assert dy == 2.0
    assert dz == pytest.approx(-1.0)


def test_custom_lienard_field():
    spec = OscillatorSpec.lienard(0.5, lambda y, z: z**3, lambda y: y**3)
    dy, dz = spec.field_function()(0.0, (2.0, 1.0))
    assert dy == 1.0
    assert dz == pytest.approx(-0.5 * 1.0 - 8.0)


@settings(max_examples=80, deadline=None)
@given(eps_values, coords, coords)
def test_field_is_odd(eps, y, z):
    for spec in (OscillatorSpec.rayleigh(eps), OscillatorSpec.van_der_pol(eps)):
        fun = spec.field_function()
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


def test_serialization_round_trip():
    spec = OscillatorSpec.van_der_pol(3.5)
    assert OscillatorSpec.from_dict(spec.to_dict()) == spec
    custom = OscillatorSpec.lienard(1.0, lambda y, z: z, lambda y: y)
    with pytest.raises(DomainError):
        custom.to_dict()


# ---------------------------------------------------------------------------
# velocity substitution: a Rayleigh velocity trace solves the Van der Pol
# equation, up to finite-difference error that shrinks at second order
# ---------------------------------------------------------------------------


def _link_residual(n_samples: int) -> float:
    spec = OscillatorSpec.rayleigh(1.0)
    traj = integrate(spec, 40.0, n_samples=n_samples)
    res = rayleigh_vdp_link(1.0, traj.t, traj.z)
    return float(np.max(np.abs(res)))


def test_link_residual_small_and_second_order():
    # resolutions chosen so finite-difference error dominates the (much
    # smaller) dense-interpolant error of the trajectory itself
    coarse = _link_residual(2000)
    fine = _link_residual(4000)
    assert coarse < 5e-3
    assert fine < coarse
    # halving dt should cut the residual by about 4 (second-order differences)
    assert coarse / fine == pytest.approx(4.0, rel=0.35)


def test_link_input_validation():
    with pytest.raises(DomainError):
        rayleigh_vdp_link(1.0, np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    t = np.array([0.0, 0.1, 0.3, 0.35])
    with pytest.raises(DomainError):
        rayleigh_vdp_link(1.0, t, np.zeros_like(t))
