"""Closed-form amplitude laws: calibration, inversion, fit, flow solution."""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from limitcycles.errors import DomainError
from limitcycles.irgm import (
    PRESETS,
    amplitude_flow,
    amplitude_irgm,
    calibrate_constant,
    consistency_report,
    get_preset,
    invert_h,
    vdp_fit,
)
from limitcycles.rgflow import rg_phase_rate


def test_calibrate_goldens():
    assert calibrate_constant(2.17271) == pytest.approx(0.8795262, abs=1e-6)
    assert calibrate_constant(2.0086) == pytest.approx(3.7624269, abs=1e-6)
    # huge boundary amplitude: the log ratio vanishes, C -> -1
    assert calibrate_constant(1e9) == pytest.approx(-1.0, abs=1e-8)


def test_calibrate_validation():
    with pytest.raises(DomainError):
        calibrate_constant(2.0)
    with pytest.raises(DomainError):
        calibrate_constant(1.5)
    with pytest.raises(DomainError):
        calibrate_constant(2.5, eps_ref=2.0)


def test_amplitude_irgm_golden_and_range():
    # published constant reproduces its own boundary amplitude at eps=1,
    # for any exponent (the rescaled time is 1 there)
    for h in (-1.0, 0.0, 0.5, 2.0):
        assert amplitude_irgm(1.0, h, 0.87953) == pytest.approx(2.1727092, abs=1e-6)
    # strong rescaled time sends the amplitude to its floor
    assert amplitude_irgm(50.0, 2.0, 0.0) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(DomainError):
        amplitude_irgm(0.5, 1.0, -2.0)  # exp(0.5+2) > 1: below the floor
    with pytest.raises(DomainError):
        amplitude_irgm(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        amplitude_irgm(2.0, math.nan, 1.0)  # would return NaN


def test_amplitude_irgm_reaches_its_floor_in_floats():
    # with h_rg = 1 and the rayleigh constant, 1 - exp(-eps - C) rounds to 1
    # from about eps = 37: the excess over 2 is below what a float holds
    constant = get_preset("rayleigh").constant
    assert amplitude_irgm(40.0, 1.0, constant) == 2.0
    assert amplitude_irgm(30.0, 1.0, constant) > 2.0


def test_invert_h_goldens():
    a = amplitude_irgm(2.0, 0.3, 0.87953)
    assert invert_h(a, 2.0, 0.87953) == pytest.approx(0.3, abs=1e-10)
    with pytest.raises(DomainError):
        invert_h(2.5, 1.0, 0.87953)  # singular base point
    with pytest.raises(DomainError):
        invert_h(2.0, 2.0, 0.87953)  # amplitude floor
    with pytest.raises(DomainError):
        invert_h(100.0, 2.0, 0.87953)  # inner argument underflows


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=0.2, max_value=6.0),
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=-0.5, max_value=4.0),
)
@example(6.0, 1.5, 3.0)  # a = 2 + 2.1e-8 holds h only to about 1e-9
def test_round_trip_property(eps, h, constant):
    assume(abs(math.log(eps)) > 0.05)  # stay clear of the eps=1 singularity
    assume(eps**h + constant > 1e-3)  # keep the amplitude real and finite
    a = amplitude_irgm(eps, h, constant)
    assert a > 2.0
    recovered = invert_h(a, eps, constant)
    # first order: rounding a to a float moves the exponent by about
    # ulp(a) |dh/da| = ulp(a) / ((a - 2) eps**h |ln eps|)
    h_error = math.ulp(a) / (a - 2.0) / (eps**h * abs(math.log(eps)))
    if h_error < 1e-11:
        assert recovered == pytest.approx(h, abs=1e-10)
    else:
        # a no longer pins h down; it must still reproduce a itself
        assert abs(amplitude_irgm(eps, recovered, constant) - a) <= 4 * math.ulp(a)


def test_vdp_fit_values():
    assert vdp_fit(1e-12) == pytest.approx(1.9997375, abs=1e-6)
    # near the published boundary amplitude at eps=1
    assert vdp_fit(1.0) == pytest.approx(2.0086, abs=6e-4)
    # branch seam: tiny but nonzero jump, well under 1e-3
    jump = abs(vdp_fit(3.0) - vdp_fit(3.0 - 1e-12))
    assert jump == pytest.approx(1.513e-4, abs=5e-7)
    assert jump < 1e-3
    for eps in (0.0, -1.0, 50.0 + 1e-9):
        with pytest.raises(DomainError):
            vdp_fit(eps)


def test_vdp_fit_hump_location():
    # the fit's hump: scanning at step 0.01 the maximum sits near eps=3.2
    # (value ~2.0234); note the hump *value* matches the often-quoted 2.0235
    # even though its location is far from 2
    grid = [round(0.01 * i, 2) for i in range(1, 5001)]
    best = max(grid, key=vdp_fit)
    assert 3.1 <= best <= 3.35
    assert vdp_fit(best) == pytest.approx(2.02343, abs=2e-5)


def test_amplitude_flow_fixed_points_and_decay():
    assert amplitude_flow(0.0, 3.0) == 3.0
    for tau in (0.0, 0.7, 5.0, 40.0):
        assert amplitude_flow(tau, 2.0) == pytest.approx(2.0, abs=1e-14)
    assert amplitude_flow(40.0, 0.5) == pytest.approx(2.0, abs=1e-8)
    assert amplitude_flow(40.0, 3.5) == pytest.approx(2.0, abs=1e-8)
    # monotone approach from both sides
    below = [amplitude_flow(tau, 0.5) for tau in (0.0, 0.5, 1.0, 2.0)]
    above = [amplitude_flow(tau, 3.0) for tau in (0.0, 0.5, 1.0, 2.0)]
    assert below == sorted(below)
    assert above == sorted(above, reverse=True)


def test_amplitude_flow_validation():
    with pytest.raises(DomainError):
        amplitude_flow(0.0, 0.0)
    # backward continuation of a supercritical start leaves the flow's
    # interval of existence
    with pytest.raises(DomainError):
        amplitude_flow(-1.0, 3.0)


def test_amplitude_flow_solves_rate_equation():
    # finite differences of the explicit solution against the analytic rate
    step = 1e-5
    for a0 in (0.5, 2.0, 3.0):
        for tau in (0.05, 0.4, 1.3, 4.0):
            derivative = (
                amplitude_flow(tau + step, a0) - amplitude_flow(tau - step, a0)
            ) / (2.0 * step)
            a = amplitude_flow(tau, a0)
            assert derivative == pytest.approx(0.5 * a * (1.0 - a * a / 4.0), abs=1e-6)


def test_phase_rate_goldens():
    # the phase drift at eps = 1, the flow's own time scale
    assert rg_phase_rate(2.0, 1.0) == pytest.approx(-1.0 / 16.0, abs=1e-15)
    assert rg_phase_rate(32.0**0.25, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert rg_phase_rate(0.0, 1.0) == -0.125
    with pytest.raises(DomainError):
        rg_phase_rate(-1.0, 1.0)


def test_presets_and_consistency_detection():
    assert set(PRESETS) == {"rayleigh", "vdp-paper", "vdp-consistent"}
    assert get_preset("rayleigh").is_consistent()
    assert get_preset("vdp-consistent").is_consistent()
    published = get_preset("vdp-paper")
    assert not published.is_consistent()
    assert published.consistency_gap() == pytest.approx(0.32542, abs=1e-4)
    report = consistency_report()
    flagged = [line for line in report if "INCONSISTENT" in line]
    assert len(flagged) == 1 and "vdp-paper" in flagged[0]
    with pytest.raises(DomainError):
        get_preset("lorenz")
