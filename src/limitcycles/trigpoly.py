"""Exact trigonometric polynomials with rational coefficients in two parameters.

This module is the symbolic substrate for the homotopy deformation recursion:
every object is a finite sum

    sum_k  c_k(h, e) * cos(k t)  +  s_k(h, e) * sin(k t)

where the coefficients ``c_k``/``s_k`` are polynomials in a step parameter
``h`` and a nonlinearity parameter ``e`` with exact ``fractions.Fraction``
coefficients.  No floating point enters until :meth:`TrigSeries.evaluate`.

Two layers:

* :class:`Poly2` — polynomials in ``(h, e)`` over the rationals,
* :class:`TrigSeries` — trigonometric polynomials whose coefficients are
  :class:`Poly2` values, closed under addition, multiplication
  (product-to-sum rewriting), and differentiation in ``t``.

:func:`solve_deformation` inverts the operator ``u'' + u`` on a
:class:`TrigSeries` right-hand side, separating out the resonant first
harmonic (which the operator cannot absorb) and completing the particular
solution with a homogeneous part so that ``u(0) = u'(0) = 0``.

>>> rhs = TrigSeries.sine(3, Poly2.term((1, 3), 1, 1))   # (1/3) h e sin(3t)
>>> sol = solve_deformation(rhs)
>>> print(sol.solution.render())
-(1/24)*h*e^1*sin(3t) + (1/8)*h*e^1*sin(t)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

from .errors import DomainError

#: Largest harmonic index a series may hold.  Products that would generate
#: higher harmonics raise :class:`~limitcycles.errors.DomainError` instead of
#: silently truncating.
MAX_HARMONIC = 64

RationalLike = Union[int, Fraction, Tuple[int, int]]


def _as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints and ``(p, q)`` pairs to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, tuple):
        return Fraction(value[0], value[1])
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not a rational value: {value!r}")


def _render_monomial(coeff: Fraction, hdeg: int, edeg: int) -> str:
    """Format ``coeff * h^hdeg * e^edeg`` without the leading sign."""
    mag = abs(coeff)
    parts = []
    if mag.denominator != 1:
        parts.append(f"({mag.numerator}/{mag.denominator})")
    elif mag != 1 or (hdeg == 0 and edeg == 0):
        parts.append(str(mag.numerator))
    if hdeg == 1:
        parts.append("h")
    elif hdeg > 1:
        parts.append(f"h^{hdeg}")
    if edeg > 0:
        parts.append(f"e^{edeg}")
    return "*".join(parts)


class Poly2:
    """A polynomial ``sum c_{ij} h^i e^j`` with exact rational coefficients.

    Instances are immutable and hashable; all arithmetic returns new objects.

    >>> p = Poly2.term((1, 8), 1, 2)      # (1/8) h e^2
    >>> (p + p).render()
    '(1/4)*h*e^2'
    >>> (p * Poly2.term(-2, 0, 1)).render()
    '-(1/4)*h*e^3'
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Tuple[int, int], RationalLike] | None = None):
        clean: Dict[Tuple[int, int], Fraction] = {}
        for (i, j), raw in (terms or {}).items():
            if i < 0 or j < 0:
                raise DomainError(f"negative exponent in polynomial term h^{i} e^{j}")
            c = _as_fraction(raw)
            if c:
                clean[(int(i), int(j))] = c
        self._terms = clean

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly2":
        return cls()

    @classmethod
    def one(cls) -> "Poly2":
        return cls({(0, 0): 1})

    @classmethod
    def constant(cls, value: RationalLike) -> "Poly2":
        return cls({(0, 0): value})

    @classmethod
    def term(cls, coeff: RationalLike, hdeg: int = 0, edeg: int = 0) -> "Poly2":
        """Single monomial ``coeff * h^hdeg * e^edeg``."""
        return cls({(hdeg, edeg): coeff})

    # -- mapping access ----------------------------------------------------

    @property
    def terms(self) -> Dict[Tuple[int, int], Fraction]:
        """Copy of the ``(hdeg, edeg) -> coefficient`` mapping (zero-free)."""
        return dict(self._terms)

    def coefficient(self, hdeg: int, edeg: int) -> Fraction:
        return self._terms.get((hdeg, edeg), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly2") -> "Poly2":
        if not isinstance(other, Poly2):
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, Fraction(0)) + c
        return Poly2(out)

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + (-other)

    def __neg__(self) -> "Poly2":
        return Poly2({k: -c for k, c in self._terms.items()})

    def __mul__(self, other: Union["Poly2", RationalLike]) -> "Poly2":
        if isinstance(other, Poly2):
            out: Dict[Tuple[int, int], Fraction] = {}
            for (i1, j1), c1 in self._terms.items():
                for (i2, j2), c2 in other._terms.items():
                    key = (i1 + i2, j1 + j2)
                    out[key] = out.get(key, Fraction(0)) + c1 * c2
            return Poly2(out)
        return Poly2({k: c * _as_fraction(other) for k, c in self._terms.items()})

    __rmul__ = __mul__

    def shift_down_e(self) -> "Poly2":
        """Divide by ``e`` exactly; every term must contain a factor of ``e``."""
        out = {}
        for (i, j), c in self._terms.items():
            if j == 0:
                raise DomainError("polynomial is not divisible by e")
            out[(i, j - 1)] = c
        return Poly2(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly2) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- output --------------------------------------------------------------

    def evaluate(self, h, e):
        """Numeric value at ``(h, e)``; exact when both inputs are Fractions."""
        total = 0
        for (i, j), c in self._terms.items():
            total = total + c * h**i * e**j
        return total

    def render(self) -> str:
        """Human-readable form, monomials sorted by ``(hdeg, edeg)``.

        >>> Poly2({(1, 2): Fraction(-1, 16)}).render()
        '-(1/16)*h*e^2'
        >>> Poly2.zero().render()
        '0'
        """
        if not self._terms:
            return "0"
        pieces = []
        for (i, j) in sorted(self._terms):
            c = self._terms[(i, j)]
            body = _render_monomial(c, i, j)
            if not pieces:
                pieces.append(("-" if c < 0 else "") + body)
            else:
                pieces.append(("- " if c < 0 else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Poly2({self.render()})"


def _monomials(poly: Poly2) -> Iterable[Tuple[Tuple[int, int], Fraction]]:
    return sorted(poly.terms.items())


_ZERO = Poly2.zero()


class TrigSeries:
    """Finite series ``sum c_k(h,e) cos(kt) + s_k(h,e) sin(kt)``, ``k >= 0``.

    Immutable.  Harmonic indices above :data:`MAX_HARMONIC` raise
    :class:`~limitcycles.errors.DomainError`; ``sin(0 t)`` terms vanish
    identically and are dropped during normalization.
    """

    __slots__ = ("_cos", "_sin")

    def __init__(
        self,
        cos: Mapping[int, Union[Poly2, RationalLike]] | None = None,
        sin: Mapping[int, Union[Poly2, RationalLike]] | None = None,
    ):
        self._cos = self._normalize(cos, allow_zero_harmonic=True)
        self._sin = self._normalize(sin, allow_zero_harmonic=False)

    @staticmethod
    def _normalize(
        raw: Mapping[int, Union[Poly2, RationalLike]] | None,
        allow_zero_harmonic: bool,
    ) -> Dict[int, Poly2]:
        out: Dict[int, Poly2] = {}
        for k, coeff in (raw or {}).items():
            k = int(k)
            if k < 0:
                raise DomainError(f"negative harmonic index {k}")
            if k > MAX_HARMONIC:
                raise DomainError(
                    f"harmonic {k} exceeds cap {MAX_HARMONIC}; "
                    "series would grow without bound"
                )
            if k == 0 and not allow_zero_harmonic:
                continue  # sin(0) == 0
            poly = coeff if isinstance(coeff, Poly2) else Poly2.constant(coeff)
            if poly:
                out[k] = poly
        return out

    # -- construction ---------------------------------------------------------

    @classmethod
    def zero(cls) -> "TrigSeries":
        return cls()

    @classmethod
    def cosine(cls, k: int, coeff: Union[Poly2, RationalLike] = 1) -> "TrigSeries":
        return cls(cos={k: coeff})

    @classmethod
    def sine(cls, k: int, coeff: Union[Poly2, RationalLike] = 1) -> "TrigSeries":
        return cls(sin={k: coeff})

    @classmethod
    def constant(cls, coeff: Union[Poly2, RationalLike]) -> "TrigSeries":
        return cls(cos={0: coeff})

    # -- access ----------------------------------------------------------------

    def cos(self, k: int) -> Poly2:
        return self._cos.get(k, _ZERO)

    def sin(self, k: int) -> Poly2:
        return self._sin.get(k, _ZERO)

    @property
    def harmonics(self) -> Tuple[int, ...]:
        """Sorted harmonic indices carrying a nonzero cos or sin coefficient."""
        return tuple(sorted(set(self._cos) | set(self._sin)))

    def is_zero(self) -> bool:
        return not self._cos and not self._sin

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TrigSeries)
            and self._cos == other._cos
            and self._sin == other._sin
        )

    def __hash__(self) -> int:
        return hash(
            (frozenset(self._cos.items()), frozenset(self._sin.items()))
        )

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "TrigSeries") -> "TrigSeries":
        if not isinstance(other, TrigSeries):
            return NotImplemented
        cos = dict(self._cos)
        for k, p in other._cos.items():
            cos[k] = cos.get(k, _ZERO) + p
        sin = dict(self._sin)
        for k, p in other._sin.items():
            sin[k] = sin.get(k, _ZERO) + p
        return TrigSeries(cos, sin)

    def __sub__(self, other: "TrigSeries") -> "TrigSeries":
        return self + (-other)

    def __neg__(self) -> "TrigSeries":
        return TrigSeries(
            {k: -p for k, p in self._cos.items()},
            {k: -p for k, p in self._sin.items()},
        )

    def scale(self, factor: Union[Poly2, RationalLike]) -> "TrigSeries":
        """Multiply every coefficient by a :class:`Poly2` (or rational) factor."""
        f = factor if isinstance(factor, Poly2) else Poly2.constant(factor)
        return TrigSeries(
            {k: p * f for k, p in self._cos.items()},
            {k: p * f for k, p in self._sin.items()},
        )

    # -- multiplication --------------------------------------------------------

    def __mul__(self, other: Union["TrigSeries", Poly2, RationalLike]) -> "TrigSeries":
        if not isinstance(other, TrigSeries):
            return self.scale(other)
        cos: Dict[int, Poly2] = {}
        sin: Dict[int, Poly2] = {}

        def add_cos(k: int, p: Poly2) -> None:
            if k < 0:
                k = -k
            cos[k] = cos.get(k, _ZERO) + p

        def add_sin(k: int, p: Poly2) -> None:
            if k == 0:
                return
            if k < 0:
                k, p = -k, -p
            sin[k] = sin.get(k, _ZERO) + p

        half = Fraction(1, 2)
        for ka, ca in self._cos.items():
            for kb, cb in other._cos.items():
                prod = ca * cb * half
                add_cos(ka - kb, prod)
                add_cos(ka + kb, prod)
            for kb, sb in other._sin.items():
                prod = ca * sb * half
                add_sin(ka + kb, prod)
                add_sin(kb - ka, prod)
        for ka, sa in self._sin.items():
            for kb, cb in other._cos.items():
                prod = sa * cb * half
                add_sin(ka + kb, prod)
                add_sin(ka - kb, prod)
            for kb, sb in other._sin.items():
                prod = sa * sb * half
                add_cos(ka - kb, prod)
                add_cos(ka + kb, -prod)
        return TrigSeries(cos, sin)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TrigSeries":
        if n < 0:
            raise DomainError("negative powers of a trigonometric series")
        out = TrigSeries.constant(1)
        for _ in range(n):
            out = out * self
        return out

    # -- calculus ---------------------------------------------------------------

    def differentiate(self) -> "TrigSeries":
        """Derivative in ``t``: ``cos(kt) -> -k sin(kt)``, ``sin(kt) -> k cos(kt)``."""
        cos = {k: p * k for k, p in self._sin.items()}
        sin = {k: p * (-k) for k, p in self._cos.items()}
        return TrigSeries(cos, sin)

    # -- output --------------------------------------------------------------------

    def evaluate(self, t, h, e):
        """Float value at angle ``t`` and parameters ``(h, e)``."""
        import math

        total = 0.0
        for k, p in self._cos.items():
            total += float(p.evaluate(h, e)) * math.cos(k * t)
        for k, p in self._sin.items():
            total += float(p.evaluate(h, e)) * math.sin(k * t)
        return total

    def render(self) -> str:
        """Flat monomial rendering, highest harmonic first, cos before sin.

        >>> TrigSeries.cosine(1).render()
        'cos(t)'
        >>> TrigSeries(sin={3: Poly2.term((-1, 24), 1, 1),
        ...                  1: Poly2.term((1, 8), 1, 1)}).render()
        '-(1/24)*h*e^1*sin(3t) + (1/8)*h*e^1*sin(t)'
        """
        entries = []  # (sign, body) in output order
        for k in sorted(self.harmonics, reverse=True):
            for kind, poly in (("cos", self.cos(k)), ("sin", self.sin(k))):
                if not poly:
                    continue
                angle = "t" if k == 1 else f"{k}t"
                trig = f"{kind}({angle})" if k > 0 else ""
                for (i, j), c in _monomials(poly):
                    if trig and abs(c) == 1 and i == 0 and j == 0:
                        body = trig  # unit coefficient: drop the "1*" factor
                    elif trig:
                        body = f"{_render_monomial(c, i, j)}*{trig}"
                    else:
                        body = _render_monomial(c, i, j)
                    entries.append(("-" if c < 0 else "+", body))
        if not entries:
            return "0"
        first_sign, first_body = entries[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in entries[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"TrigSeries({self.render()})"


@dataclass(frozen=True)
class DeformationSolution:
    """Result of inverting ``u'' + u`` on a trigonometric right-hand side.

    ``solution`` satisfies ``solution'' + solution == rhs`` minus the resonant
    first-harmonic part, with ``solution(0) = solution'(0) = 0``.  The first
    harmonic of the input cannot be absorbed by the operator (it solves the
    homogeneous equation); its cos/sin coefficients are reported here and it is
    the caller's job to cancel them by choosing free parameters.
    """

    solution: TrigSeries
    resonant_cos: Poly2
    resonant_sin: Poly2

    @property
    def is_resonance_free(self) -> bool:
        return self.resonant_cos.is_zero() and self.resonant_sin.is_zero()


def solve_deformation(rhs: TrigSeries) -> DeformationSolution:
    """Solve ``u'' + u = rhs`` with ``u(0) = u'(0) = 0``, reporting resonance.

    For each harmonic ``k != 1`` the particular solution divides the
    coefficient by ``1 - k^2`` exactly; the homogeneous completion
    ``A cos(t) + B sin(t)`` then zeroes the initial value and slope.  Harmonic
    ``k == 1`` is returned unsolved in ``resonant_cos``/``resonant_sin``.

    >>> sol = solve_deformation(TrigSeries.cosine(0, Poly2.one()))
    >>> print(sol.solution.render())
    -cos(t) + 1
    >>> sol.is_resonance_free
    True
    """
    cos: Dict[int, Poly2] = {}
    sin: Dict[int, Poly2] = {}
    for k in rhs.harmonics:
        if k == 1:
            continue
        factor = Fraction(1, 1 - k * k)
        if rhs.cos(k):
            cos[k] = rhs.cos(k) * factor
        if rhs.sin(k):
            sin[k] = rhs.sin(k) * factor
    # zero initial conditions: u(0) = sum cos-coeffs, u'(0) = sum k * sin-coeffs
    value0 = _ZERO
    for p in cos.values():
        value0 = value0 + p
    slope0 = _ZERO
    for k, p in sin.items():
        slope0 = slope0 + p * k
    cos[1] = cos.get(1, _ZERO) - value0
    sin[1] = sin.get(1, _ZERO) - slope0
    return DeformationSolution(
        solution=TrigSeries(cos, sin),
        resonant_cos=rhs.cos(1),
        resonant_sin=rhs.sin(1),
    )
