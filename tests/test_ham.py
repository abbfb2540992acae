"""Homotopy chain: exact rational goldens, secular solve, step control laws."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from limitcycles.claims import RAYLEIGH_A7, TAIL_SLOPE
from limitcycles.errors import DomainError
from limitcycles.ham import (
    _AMP_COEFFICIENT,
    HamOrder,
    amplitude_ham,
    base_order,
    breakpoint_jumps,
    build_rk,
    control_h,
    expansion,
    solve_order,
    step_coefficient,
)
from limitcycles.trigpoly import Poly2, TrigSeries

F = Fraction

_, EPS_SWITCH, A_SWITCH, _ = RAYLEIGH_A7  # the tail starts on a(7) = 5.63108

# frozen expected values for the full order-0..2 chain ----------------------

R1_EXPECTED = TrigSeries(sin={3: Poly2.term((1, 3), 0, 1)})

U1_EXPECTED = TrigSeries(
    sin={3: Poly2.term((-1, 24), 1, 1), 1: Poly2.term((1, 8), 1, 1)}
)

OMEGA1_EXPECTED = Poly2.term((-1, 16), 1, 2)
AMP1_EXPECTED = Poly2.term((1, 8), 1, 2)

R2_EXPECTED = TrigSeries(
    cos={3: Poly2.term((1, 8), 1, 2)},
    sin={3: Poly2({(1, 1): F(1, 3), (1, 3): F(-1, 48)})},
)

U2_EXPECTED = TrigSeries(
    cos={3: Poly2.term((-1, 64), 2, 2), 1: Poly2.term((1, 64), 2, 2)},
    sin={
        3: Poly2({(1, 1): F(-1, 24), (2, 1): F(-1, 24), (2, 3): F(1, 384)}),
        1: Poly2({(1, 1): F(1, 8), (2, 1): F(1, 8), (2, 3): F(-1, 128)}),
    },
)


def test_base_order():
    base = base_order()
    assert base.u == TrigSeries.cosine(1)
    assert base.omega == Poly2.one()
    assert base.amp == Poly2.constant(2)


def test_first_order_forcing_exact():
    assert build_rk(1, {0: base_order()}) == R1_EXPECTED


def test_first_order_solution_exact():
    order1 = solve_order(1)
    assert order1.u == U1_EXPECTED
    assert order1.omega == OMEGA1_EXPECTED
    assert order1.amp == AMP1_EXPECTED


def test_second_order_forcing_exact():
    orders = expansion(1)
    r2 = build_rk(2, orders)
    assert r2 == R2_EXPECTED
    # the secular solve must have removed the whole first harmonic
    assert r2.cos(1).is_zero() and r2.sin(1).is_zero()


def test_second_order_solution_exact():
    order2 = solve_order(2)
    assert order2.u == U2_EXPECTED
    assert order2.omega is None and order2.amp is None


def test_second_order_initial_conditions_vanish():
    u2 = solve_order(2).u
    value0 = Poly2.zero()
    slope0 = Poly2.zero()
    for k in u2.harmonics:
        value0 = value0 + u2.cos(k)
        slope0 = slope0 + u2.sin(k) * k
    assert value0.is_zero()
    assert slope0.is_zero()


def test_build_rk_validation():
    orders = expansion(1)
    with pytest.raises(DomainError):
        build_rk(3, orders)
    with pytest.raises(DomainError):
        build_rk(2, {0: base_order()})  # missing order 1
    headless = {0: base_order(), 1: HamOrder(1, orders[1].u, None, None)}
    with pytest.raises(DomainError):
        build_rk(2, headless)
    with pytest.raises(DomainError):
        solve_order(3)


# ---------------------------------------------------------------------------
# step control
# ---------------------------------------------------------------------------


def test_closed_form_coefficient_is_the_symbolic_one():
    # amplitude_ham, control_h and breakpoint_jumps evaluate 2 + c*h*eps^2
    # with a stated c; it must be the coefficient the secular solve derives
    assert Fraction(_AMP_COEFFICIENT) == expansion(1)[1].amp.coefficient(1, 2)


def test_control_h_table_examples():
    assert control_h(1.0) == pytest.approx(1.510574, abs=1e-6)
    assert amplitude_ham(1.0) == pytest.approx(2.188822, abs=1e-6)
    # the table-only reading keeps using rows beyond the default switch
    assert step_coefficient(10.0) == 0.176
    assert control_h(10.0, table_only=True) == pytest.approx(0.442478, abs=1e-6)


def test_tail_examples():
    assert amplitude_ham(20.0) == pytest.approx(14.181076, abs=1e-5)
    # at eps=10 the default reading is already on the tail, unlike the table
    assert amplitude_ham(10.0) == pytest.approx(7.604156, abs=1e-5)
    assert amplitude_ham(10.0) == TAIL_SLOPE * (10.0 - EPS_SWITCH) + A_SWITCH
    assert amplitude_ham(10.0) != amplitude_ham(10.0, table_only=True)
    # the switch itself is table-side
    assert amplitude_ham(7.0) == amplitude_ham(7.0, table_only=True)
    assert amplitude_ham(7.0) != A_SWITCH


def test_amplitude_equals_two_term_law_everywhere():
    # the tail h is the exact inverse of the amplitude line, so the two-term
    # law 2 + h*eps^2/8 must reproduce amplitude_ham in both regimes
    # law 2 + h*eps^2/8 must reproduce amplitude_ham in both regimes; the
    # grid takes in the switch and the floats on either side of it
    grid = [*np.linspace(0.2, 50.0, 113), EPS_SWITCH, *np.nextafter(EPS_SWITCH, [0, 50])]
    for table_only in (False, True):
        for eps in grid:
            expected = 2.0 + control_h(eps, table_only=table_only) * eps * eps / 8.0
            assert amplitude_ham(eps, table_only=table_only) == pytest.approx(
                expected, abs=1e-12
            )


@given(st.floats(min_value=0.0, max_value=50.0, exclude_min=True))
@example(EPS_SWITCH)
@example(float(np.nextafter(EPS_SWITCH, 50.0)))
@example(50.0)
@example(4.0)
def test_readings_share_the_table_up_to_the_switch(eps):
    table = 2.0 + 1.0 / (0.5 + eps * step_coefficient(eps)) * eps * eps / 8.0
    assert amplitude_ham(eps, table_only=True) == table
    if eps <= EPS_SWITCH:
        assert amplitude_ham(eps) == table
    else:
        assert amplitude_ham(eps) == TAIL_SLOPE * (eps - EPS_SWITCH) + A_SWITCH


def test_table_rows_are_right_closed():
    assert step_coefficient(4.0) == 0.162
    assert step_coefficient(4.0 + 1e-9) == 0.165
    assert step_coefficient(50.0) == 0.185


def test_domain_validation():
    for eps in (0.0, -1.0, 50.0 + 1e-9, math.nan):
        for table_only in (False, True):
            with pytest.raises(DomainError):
                control_h(eps, table_only=table_only)
            with pytest.raises(DomainError):
                amplitude_ham(eps, table_only=table_only)
        with pytest.raises(DomainError):
            step_coefficient(eps)


def test_breakpoint_jumps_measured_values():
    # frozen measurements at the three active boundaries of the default
    # reading; note two of them exceed 0.02 — the steps are visible
    jumps = breakpoint_jumps()
    assert set(jumps) == {4.0, 5.0, 7.0}
    assert jumps[4.0] == pytest.approx(0.0180224, abs=1e-6)
    assert jumps[5.0] == pytest.approx(0.0264010, abs=1e-6)
    assert jumps[7.0] == pytest.approx(0.0234546, abs=1e-6)
    assert jumps[4.0] < 0.02 < jumps[5.0]
    assert jumps[7.0] > 0.02
    # the table-only reading steps at every interior boundary instead
    table_jumps = breakpoint_jumps(table_only=True)
    assert set(table_jumps) == {4.0, 5.0, 7.0, 8.0, 9.0, 11.0, 15.0, 20.0, 30.0}
    assert all(v > 0 for v in table_jumps.values())
