"""Perturbative flow layer: rates, asymptotic root, renormalized solution."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from limitcycles.errors import DomainError
from limitcycles.rgflow import (
    a_rg,
    renormalized_solution,
    rg_amp_rate,
    rg_phase_rate,
)


def test_amp_rate_goldens():
    assert rg_amp_rate(0.0, 3.0) == 0.0
    # at R=2 the first-order term vanishes: (1/1024)*32*(11-6.5) = 0.140625
    assert rg_amp_rate(2.0, 1.0) == pytest.approx(0.140625, abs=1e-15)
    assert rg_amp_rate(2.0, 1e-8) == pytest.approx(0.140625e-24, rel=1e-12)


def test_phase_rate_goldens():
    assert rg_phase_rate(2.0, 1.0) == pytest.approx(-1.0 / 16.0, abs=1e-15)
    assert rg_phase_rate(32.0**0.25, 7.0) == pytest.approx(0.0, abs=1e-12)
    assert rg_phase_rate(1.5, 0.0) == 0.0
    # truncation sign check: nonpositive drift at and below amplitude 2
    for r in np.linspace(0.0, 2.0, 41):
        assert rg_phase_rate(r, 1.7) <= 0.0


def test_rate_validation():
    with pytest.raises(DomainError):
        rg_amp_rate(-0.1, 1.0)
    with pytest.raises(DomainError):
        rg_phase_rate(-2.0, 1.0)


def test_a_rg_values_and_limits():
    assert a_rg(1e-6) == pytest.approx(2.0, abs=1e-9)
    for tiny in (1e-110, 1e-300, 5e-324):  # eps**3 underflows: rate(2) == 0
        assert a_rg(tiny) == 2.0
    assert a_rg(1.0) == pytest.approx(2.1407851, abs=1e-6)
    assert a_rg(5.0) == pytest.approx(2.5654348, abs=1e-6)
    for eps in np.linspace(0.05, 5.0, 25):
        root = a_rg(eps)
        assert 2.0 < root < 4.0
        # it really is a root, and an attracting one
        assert abs(rg_amp_rate(root, eps)) < 1e-12
        assert rg_amp_rate(root - 1e-4, eps) > 0 > rg_amp_rate(root + 1e-4, eps)
    with pytest.raises(DomainError):
        a_rg(0.0)
    with pytest.raises(DomainError):
        a_rg(float("nan"))


def test_a_rg_equals_scipys_brentq_root():
    # the float port takes scipy's steps, so the roots agree to the bit
    grid = np.concatenate([np.geomspace(0.5, 50.0, 2000), [1e-6, 0.01, 1.0, 5.0, 50.0]])
    for eps in grid.tolist():
        ref = brentq(lambda r: rg_amp_rate(r, eps), 2.0, 4.0, xtol=1e-14, rtol=8.9e-16)
        assert a_rg(eps) == ref, eps


@pytest.mark.parametrize("r0", [0.5, 3.5])
@pytest.mark.parametrize("eps", [0.5, 2.0])
def test_root_agrees_with_long_time_flow(r0, eps):
    # independent route: integrate the flow ODE itself to stationarity
    sol = solve_ivp(
        lambda t, r: [rg_amp_rate(r[0], eps)],
        (0.0, 400.0 / eps),
        [r0],
        rtol=1e-12,
        atol=1e-12,
    )
    assert sol.success
    assert float(sol.y[0, -1]) == pytest.approx(a_rg(eps), abs=1e-8)


def test_renormalized_solution():
    # eps=0 collapses to the circular orbit
    assert renormalized_solution(1.7, 0.4, 1.1, 0.0) == pytest.approx(
        1.7 * math.cos(1.5)
    )
    # both sine corrections vanish at zero phase
    assert renormalized_solution(2.5, -1.0, 1.0, 3.0) == pytest.approx(2.5)
    # frozen direct evaluation at R=2, eps=0.1, t+theta=pi/2
    assert renormalized_solution(2.0, 0.0, math.pi / 2, 0.1) == pytest.approx(
        -0.0166667, abs=1e-6
    )
    t = np.linspace(0.0, 6.0, 7)
    values = renormalized_solution(2.0, 0.1, t, 0.5)
    assert isinstance(values, np.ndarray) and values.shape == (7,)
    with pytest.raises(DomainError):
        renormalized_solution(-1.0, 0.0, 0.0, 0.1)
