"""Homotopy series for the Rayleigh limit cycle, plus its step-tuning layer.

The periodic orbit is expanded around the circular base solution
``u0 = cos(t)``, base frequency 1 and base amplitude 2, in powers of an
embedding parameter.  Each order ``k`` contributes a correction triple
``(u_k, omega_k, amp_k)`` obtained from a forcing series ``R_k``:

    (d^2/dt^2 + 1) [u_k - chi_k u_{k-1}] = h * R_k,   u_k(0) = u_k'(0) = 0

with ``chi_1 = 0`` and ``chi_k = 1`` afterwards, where ``h`` is a free step
parameter that tunes convergence.  The forcing collects, at embedding order
``k-1``, the residual of

    Omega^2 u'' + e * [ (1/3) A^2 Omega^3 (u')^3 - Omega u' ] + u

where ``Omega`` and ``A`` are the frequency and amplitude series.  One
convention quirk is part of this module's contract: the cubic damping term
keeps the *base-order* velocity profile ``(u0')^3`` at every order — only its
prefactor ``A^2 Omega^3`` is expanded.  The first-order secular conditions
(no ``cos(t)``/``sin(t)`` forcing, which the operator cannot absorb) then fix

    omega_1 = -(1/16) h e^2,      amp_1 = (1/8) h e^2

so the two-term amplitude is ``2 + (1/8) h e^2``.  Everything above is exact
rational arithmetic on :class:`~limitcycles.trigpoly.TrigSeries`.

The numeric layer chooses the step ``h`` from the published reciprocal law
``h = 1/(1/2 + e*b(e))`` (:func:`control_h`, the table ``B_TABLE`` on
``(0, 50]``), switching past ``e = 7`` to the published straight amplitude
line ``TAIL_SLOPE*(e - 7) + a(7)``, and :func:`amplitude_ham` evaluates the
resulting two-term amplitude.  Both constants live in
:mod:`~limitcycles.claims`; the law is fixed, and ``table_only=True`` is the
one alternative reading, the table over its whole range.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .claims import B_TABLE, RAYLEIGH_A7, TAIL_SLOPE
from .errors import DomainError
from .trigpoly import Poly2, TrigSeries, solve_deformation

__all__ = [
    "HamOrder",
    "B_TABLE",
    "base_order",
    "build_rk",
    "solve_order",
    "expansion",
    "step_coefficient",
    "control_h",
    "amplitude_ham",
    "breakpoint_jumps",
]

_H = Poly2.term(1, 1, 0)  # the step parameter as a polynomial
_E = Poly2.term(1, 0, 1)  # the nonlinearity parameter as a polynomial
_MAX_ORDER = 2

#: Coefficient of ``h*eps^2`` in the two-term amplitude ``2 + (1/8) h eps^2``,
#: i.e. ``expansion(1)[1].amp``; a test ties the two together.  Stated as a
#: constant so the closed form never waits on the symbolic solve.
_AMP_COEFFICIENT = 0.125


@dataclass(frozen=True)
class HamOrder:
    """Correction triple at one embedding order.

    ``omega`` and ``amp`` are the frequency/amplitude corrections fixed by
    the *next* order's secular conditions; they are ``None`` on the highest
    computed order, whose conditions lie beyond the implemented recursion.
    """

    order: int
    u: TrigSeries
    omega: Optional[Poly2]
    amp: Optional[Poly2]


def base_order() -> HamOrder:
    """Order zero: circular orbit ``cos(t)``, frequency 1, amplitude 2."""
    return HamOrder(
        order=0,
        u=TrigSeries.cosine(1),
        omega=Poly2.one(),
        amp=Poly2.constant(2),
    )


def _series_coeff(coeffs: Sequence[Poly2], power: int, n: int) -> Poly2:
    """Coefficient of ``q**n`` in ``(sum_j coeffs[j] q**j) ** power``."""
    running: Dict[int, Poly2] = {0: Poly2.one()}
    for _ in range(power):
        new: Dict[int, Poly2] = {}
        for m, acc in running.items():
            for j, c in enumerate(coeffs):
                if m + j > n:
                    continue
                key = m + j
                term = acc * c
                new[key] = new.get(key, Poly2.zero()) + term
        running = new
    return running.get(n, Poly2.zero())


def build_rk(k: int, orders: Mapping[int, HamOrder]) -> TrigSeries:
    """Forcing series ``R_k`` for the order-``k`` deformation equation.

    Requires ``orders[0] .. orders[k-1]`` with their ``omega``/``amp``
    corrections filled in.  Only ``k in {1, 2}`` is defined; higher orders
    are out of scope for this recursion.
    """
    if k not in (1, 2):
        raise DomainError(f"forcing order {k} not in {{1, 2}}")
    for j in range(k):
        if j not in orders:
            raise DomainError(f"missing expansion order {j}")
        if orders[j].omega is None or orders[j].amp is None:
            raise DomainError(f"order {j} lacks frequency/amplitude corrections")
    us = [orders[j].u for j in range(k)]
    omegas = [orders[j].omega for j in range(k)]
    amps = [orders[j].amp for j in range(k)]

    total = TrigSeries.zero()
    # inertial part: coefficient of q^(k-1) in Omega^2 * u''
    for n in range(k):
        om2 = _series_coeff(omegas, 2, n)
        total = total + us[k - 1 - n].differentiate().differentiate().scale(om2)
    # restoring force
    total = total + us[k - 1]
    # cubic damping, base-order velocity profile: (e/3) [A^2 Omega^3]_(k-1) (u0')^3
    prefactor = Poly2.zero()
    for i in range(k):
        prefactor = prefactor + _series_coeff(amps, 2, i) * _series_coeff(
            omegas, 3, k - 1 - i
        )
    cubic = us[0].differentiate() ** 3
    total = total + cubic.scale(prefactor * _E * Fraction(1, 3))
    # linear damping: -e * coefficient of q^(k-1) in Omega * u'
    for n in range(k):
        total = total + us[k - 1 - n].differentiate().scale(omegas[n] * _E * (-1))
    return total


def _single_term(poly: Poly2, key: Tuple[int, int]) -> Fraction:
    terms = poly.terms
    if set(terms) != {key} or not terms[key]:
        raise DomainError(
            f"secular system has unexpected structure: {poly.render()!r}"
        )
    return terms[key]


def _solve_secular(u1: TrigSeries, base: HamOrder) -> Tuple[Poly2, Poly2]:
    """Choose ``(omega_1, amp_1)`` so the order-2 forcing has no resonance.

    The resonant first-harmonic coefficients of ``R_2`` are affine in the
    unknown corrections; three probe builds extract the affine columns
    exactly, and the resulting triangular 2x2 system is solved in rational
    arithmetic.
    """

    def resonants(omega1: Poly2, amp1: Poly2) -> Tuple[Poly2, Poly2]:
        probe = {0: base, 1: HamOrder(1, u1, omega1, amp1)}
        r2 = build_rk(2, probe)
        return r2.cos(1), r2.sin(1)

    zero, one = Poly2.zero(), Poly2.one()
    cos0, sin0 = resonants(zero, zero)
    cos_w, sin_w = resonants(one, zero)
    cos_a, sin_a = resonants(zero, one)
    col_w = (cos_w - cos0, sin_w - sin0)  # per unit omega_1
    col_a = (cos_a - cos0, sin_a - sin0)  # per unit amp_1

    if not col_a[0].is_zero():
        raise DomainError("secular system is not triangular in the amplitude")
    # cos row: cos0 + c_w * omega_1 = 0 with a constant rational c_w
    c_w = _single_term(col_w[0], (0, 0))
    omega1 = cos0 * (Fraction(-1) / c_w)
    # sin row: sin0 + s_w * omega_1 + s_a * amp_1 = 0, both columns carry
    # one factor of the nonlinearity parameter
    _single_term(col_w[1], (0, 1))  # structure check only
    s_a = _single_term(col_a[1], (0, 1))
    residual = sin0 + col_w[1] * omega1
    amp1 = residual.shift_down_e() * (Fraction(-1) / s_a)
    # paranoia: the full rebuild must be resonance-free
    check_cos, check_sin = resonants(omega1, amp1)
    if not (check_cos.is_zero() and check_sin.is_zero()):
        raise DomainError("secular solve failed to cancel the resonance")
    return omega1, amp1


def solve_order(k: int, orders: Optional[Mapping[int, HamOrder]] = None) -> HamOrder:
    """Solve the deformation chain up to order ``k`` and return that order.

    ``solve_order(1)`` also determines ``(omega_1, amp_1)`` from the order-2
    secular conditions.  ``solve_order(2)`` returns the cumulative correction
    ``u_2`` (its own secular data would need order 3, which is out of scope,
    so ``omega``/``amp`` are ``None``).
    """
    if k == 0:
        return base_order()
    if k > _MAX_ORDER or k < 0:
        raise DomainError(f"expansion order {k} not in [0, {_MAX_ORDER}]")
    known: Dict[int, HamOrder] = dict(orders) if orders else {}
    for j in range(k):
        if j not in known:
            known[j] = solve_order(j, known)

    if k == 1:
        r1 = build_rk(1, known)
        sol = solve_deformation(r1.scale(_H))
        if not sol.is_resonance_free:
            raise DomainError("unexpected resonance in the first-order forcing")
        u1 = sol.solution
        omega1, amp1 = _solve_secular(u1, known[0])
        return HamOrder(1, u1, omega1, amp1)

    r2 = build_rk(2, known)
    sol = solve_deformation(r2.scale(_H))
    if not sol.is_resonance_free:
        raise DomainError("order-2 forcing still resonant; corrections unsolved")
    return HamOrder(2, known[1].u + sol.solution, None, None)


def expansion(max_order: int = 2) -> Dict[int, HamOrder]:
    """All orders ``0..max_order`` of the deformation chain."""
    orders: Dict[int, HamOrder] = {}
    for j in range(max_order + 1):
        orders[j] = solve_order(j, orders)
    return orders


# ---------------------------------------------------------------------------
# step-parameter control and the closed amplitude law
# ---------------------------------------------------------------------------

# the table covers (0, 50]; past the switch eps = 7 the default reading
# follows a straight line from the published Rayleigh anchor a(7)
_, _EPS_SWITCH, _A_SWITCH, _ = RAYLEIGH_A7
_EPS_MAX = B_TABLE[-1][0]


def _check_range(eps: float) -> None:
    if not (0.0 < eps <= _EPS_MAX):
        raise DomainError(f"eps={eps!r} outside the tabulated range (0, {_EPS_MAX}]")


def _tail(eps: float) -> float:
    """The straight amplitude line past the switch, through the anchor a(7)."""
    return TAIL_SLOPE * (eps - _EPS_SWITCH) + _A_SWITCH


def step_coefficient(eps: float) -> float:
    """Table lookup for the reciprocal-law coefficient at ``eps``."""
    _check_range(eps)
    for upper, b in B_TABLE:
        if eps <= upper:
            return b
    raise AssertionError("unreachable: range checked above")


def _table_h(eps: float, b: float) -> float:
    return 1.0 / (0.5 + eps * b)


def _two_term(h: float, eps: float) -> float:
    return 2.0 + h * eps * eps * _AMP_COEFFICIENT


def control_h(eps: float, *, table_only: bool = False) -> float:
    """Convergence-step value at ``eps``.

    Table region: ``h = 1/(1/2 + eps*b(eps))``.  Tail region (past eps = 7,
    unless ``table_only``): the unique ``h`` whose two-term amplitude
    ``2 + h*eps^2/8`` equals the linear tail, ``h = (tail(eps) - 2) / (eps^2/8)``
    (exact algebraic inverse).
    """
    _check_range(eps)
    if not table_only and eps > _EPS_SWITCH:
        return (_tail(eps) - 2.0) / (_AMP_COEFFICIENT * eps * eps)
    return _table_h(eps, step_coefficient(eps))


def amplitude_ham(eps: float, *, table_only: bool = False) -> float:
    """Two-term amplitude ``2 + h(eps)*eps^2/8``, the linear tail past eps = 7
    unless ``table_only``."""
    _check_range(eps)
    if not table_only and eps > _EPS_SWITCH:
        return _tail(eps)
    return _two_term(control_h(eps, table_only=True), eps)


def breakpoint_jumps(*, table_only: bool = False) -> Dict[float, float]:
    """Amplitude discontinuities at the active table/tail boundaries.

    Keys are the boundary ``eps`` values, values the absolute jump between
    the amplitudes just below and just above each boundary.
    """
    jumps: Dict[float, float] = {}
    for (upper, b_left), (_, b_right) in zip(B_TABLE, B_TABLE[1:]):
        if not table_only and upper >= _EPS_SWITCH:
            break
        left = _two_term(_table_h(upper, b_left), upper)
        right = _two_term(_table_h(upper, b_right), upper)
        jumps[upper] = abs(left - right)
    if not table_only:
        jumps[_EPS_SWITCH] = abs(amplitude_ham(_EPS_SWITCH) - _tail(_EPS_SWITCH))
    return jumps
