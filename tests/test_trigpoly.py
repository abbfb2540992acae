"""Exact-algebra tests: frozen golden values plus algebraic property checks."""

from __future__ import annotations

import doctest
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitcycles import trigpoly
from limitcycles.errors import DomainError
from limitcycles.trigpoly import (
    MAX_HARMONIC,
    Poly2,
    TrigSeries,
    solve_deformation,
)

# ---------------------------------------------------------------------------
# Poly2 basics
# ---------------------------------------------------------------------------


def test_poly2_normalizes_zero_terms():
    p = Poly2({(1, 1): Fraction(1, 2), (0, 0): 0})
    assert p.terms == {(1, 1): Fraction(1, 2)}
    assert (p - p).is_zero()
    assert not Poly2.zero()


def test_poly2_arithmetic_and_eval():
    p = Poly2.term((1, 8), 1, 2)  # (1/8) h e^2
    q = Poly2.term(-2, 0, 1)  # -2 e
    assert (p * q).coefficient(1, 3) == Fraction(-1, 4)
    assert (p + q).evaluate(Fraction(2), Fraction(3)) == Fraction(1, 8) * 2 * 9 - 6
    assert p.evaluate(1.0, 2.0) == pytest.approx(0.5)


def test_poly2_render():
    assert Poly2.term((-1, 16), 1, 2).render() == "-(1/16)*h*e^2"
    assert Poly2.term(1, 2, 0).render() == "h^2"
    assert Poly2.constant(3).render() == "3"
    assert Poly2.zero().render() == "0"


def test_poly2_shift_down_e():
    p = Poly2({(1, 2): Fraction(3), (0, 1): Fraction(-1, 2)})
    assert p.shift_down_e() == Poly2({(1, 1): Fraction(3), (0, 0): Fraction(-1, 2)})
    with pytest.raises(DomainError):
        Poly2.one().shift_down_e()


# ---------------------------------------------------------------------------
# TrigSeries: frozen identities
# ---------------------------------------------------------------------------


def test_product_to_sum_goldens():
    c1 = TrigSeries.cosine(1)
    s1 = TrigSeries.sine(1)
    # cos^2 t = 1/2 + 1/2 cos 2t
    assert c1 * c1 == TrigSeries(cos={0: Fraction(1, 2), 2: Fraction(1, 2)})
    # sin^2 t = 1/2 - 1/2 cos 2t
    assert s1 * s1 == TrigSeries(cos={0: Fraction(1, 2), 2: Fraction(-1, 2)})
    # sin t cos t = 1/2 sin 2t
    assert s1 * c1 == TrigSeries(sin={2: Fraction(1, 2)})
    # sin^3 t = 3/4 sin t - 1/4 sin 3t
    assert s1**3 == TrigSeries(sin={1: Fraction(3, 4), 3: Fraction(-1, 4)})


def test_velocity_cube_golden():
    # (d/dt cos t)^3 = -sin^3 t = 1/4 sin 3t - 3/4 sin t
    du0 = TrigSeries.cosine(1).differentiate()
    assert du0 == TrigSeries.sine(1, -1)
    assert du0**3 == TrigSeries(sin={3: Fraction(1, 4), 1: Fraction(-3, 4)})


def test_differentiate_golden():
    u = TrigSeries(cos={2: Poly2.term(1, 1, 0)}, sin={3: Fraction(1, 2)})
    du = u.differentiate()
    assert du.cos(3) == Poly2.constant(Fraction(3, 2))
    assert du.sin(2) == Poly2.term(-2, 1, 0)


def test_sin_zero_dropped_and_negative_harmonic_rejected():
    assert TrigSeries(sin={0: 5}).is_zero()
    with pytest.raises(DomainError):
        TrigSeries(cos={-1: 1})


def test_harmonic_cap_enforced():
    with pytest.raises(DomainError):
        TrigSeries.cosine(MAX_HARMONIC + 1)
    top = TrigSeries.cosine(MAX_HARMONIC)
    with pytest.raises(DomainError):
        _ = top * TrigSeries.cosine(1)  # would reach harmonic 65


def test_render_golden_strings():
    u1 = TrigSeries(
        sin={3: Poly2.term((-1, 24), 1, 1), 1: Poly2.term((1, 8), 1, 1)}
    )
    assert u1.render() == "-(1/24)*h*e^1*sin(3t) + (1/8)*h*e^1*sin(t)"
    assert TrigSeries.zero().render() == "0"
    assert TrigSeries.cosine(1).render() == "cos(t)"
    mixed = TrigSeries(cos={2: Fraction(-1, 2)}, sin={2: 3})
    assert mixed.render() == "-(1/2)*cos(2t) + 3*sin(2t)"


# ---------------------------------------------------------------------------
# solve_deformation (oracle: differentiate twice and compare exactly)
# ---------------------------------------------------------------------------


def test_solve_deformation_golden_first_order():
    # rhs = (1/3) h e sin(3t): the order-1 deformation right-hand side with
    # the step factor absorbed.  Frozen expected solution.
    rhs = TrigSeries.sine(3, Poly2.term((1, 3), 1, 1))
    sol = solve_deformation(rhs)
    assert sol.is_resonance_free
    expected = TrigSeries(
        sin={3: Poly2.term((-1, 24), 1, 1), 1: Poly2.term((1, 8), 1, 1)}
    )
    assert sol.solution == expected


def test_solve_deformation_reports_resonance():
    rhs = TrigSeries(cos={1: Poly2.term(2, 1, 0)}, sin={1: 7, 3: 1})
    sol = solve_deformation(rhs)
    assert sol.resonant_cos == Poly2.term(2, 1, 0)
    assert sol.resonant_sin == Poly2.constant(7)
    assert not sol.is_resonance_free
    # the non-resonant part is still solved
    assert sol.solution.sin(3) == Poly2.constant(Fraction(-1, 8))


def test_solve_deformation_zero_initial_conditions():
    rhs = TrigSeries(cos={0: 1, 2: Fraction(1, 3)}, sin={4: Poly2.term(1, 1, 1)})
    u = solve_deformation(rhs).solution
    # u(0) = sum of cos coefficients must vanish identically
    value0 = Poly2.zero()
    slope0 = Poly2.zero()
    for k in u.harmonics:
        value0 = value0 + u.cos(k)
        slope0 = slope0 + u.sin(k) * k
    assert value0.is_zero()
    assert slope0.is_zero()


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=1, max_value=4),
)


@st.composite
def poly2s(draw):
    n = draw(st.integers(min_value=0, max_value=2))
    terms = {}
    for _ in range(n):
        key = (
            draw(st.integers(min_value=0, max_value=2)),
            draw(st.integers(min_value=0, max_value=2)),
        )
        terms[key] = draw(small_fractions)
    return Poly2(terms)


@st.composite
def trig_series(draw, max_harmonic: int = 6):
    cos = {}
    sin = {}
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        cos[draw(st.integers(min_value=0, max_value=max_harmonic))] = draw(poly2s())
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        sin[draw(st.integers(min_value=1, max_value=max_harmonic))] = draw(poly2s())
    return TrigSeries(cos, sin)


@settings(max_examples=60, deadline=None)
@given(trig_series(), trig_series())
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(trig_series(max_harmonic=4), trig_series(max_harmonic=4), trig_series(max_harmonic=4))
def test_multiplication_associates_and_distributes(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(trig_series(), trig_series())
def test_product_rule(a, b):
    lhs = (a * b).differentiate()
    rhs = a.differentiate() * b + a * b.differentiate()
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(trig_series())
def test_solve_deformation_round_trip(rhs):
    # strip the resonant harmonic so the operator is exactly invertible
    clean = TrigSeries(
        {k: rhs.cos(k) for k in rhs.harmonics if k != 1},
        {k: rhs.sin(k) for k in rhs.harmonics if k != 1},
    )
    sol = solve_deformation(clean)
    assert sol.is_resonance_free
    u = sol.solution
    assert u.differentiate().differentiate() + u == clean


@settings(max_examples=30, deadline=None)
@given(trig_series(), st.floats(min_value=-3, max_value=3),
       st.floats(min_value=-2, max_value=0), st.floats(min_value=0, max_value=5))
def test_evaluate_matches_termwise_sum(series, t, h, e):
    direct = series.evaluate(t, h, e)
    manual = 0.0
    for k in series.harmonics:
        manual += float(series.cos(k).evaluate(h, e)) * math.cos(k * t)
        manual += float(series.sin(k).evaluate(h, e)) * math.sin(k * t)
    assert direct == pytest.approx(manual, abs=1e-12)


def test_module_doctests_pass():
    # the examples in the docstrings are part of the documented behaviour
    result = doctest.testmod(trigpoly)
    assert result.failed == 0 and result.attempted >= 5
