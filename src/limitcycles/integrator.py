"""Limit-cycle extraction by adaptive Runge-Kutta integration.

Cycle structure comes from the Poincare section ``z = y' = 0``: the extrema
of ``y`` sit exactly on that section, so event location gives amplitude
readings without any extra peak interpolation.

:func:`solve_ivp` runs scipy's DOP853 (Dormand-Prince 8(5,3)) forward over a span as
one loop over Python floats on the Lienard form ``y' = z, z' = a(y, z)`` that every
oscillator here takes: the field is the acceleration ``a`` alone, and each stage's
``y'`` is that stage's own ``z`` argument.  The tableau, initial step, error norm (the
5th-order estimate damped by the 3rd-order one) and step-size control are scipy's,
with each step's sums over the stages grouped as numpy's BLAS groups scipy's, so it
takes scipy's steps with scipy's ``nfev`` unless an error estimate is roundoff,
where BLAS's fused multiply-adds can part them.  Where a step's ``z`` touches or
changes sign, scipy's event sign test picks the requested senses of ``z = 0``
crossing, and :func:`brentq` (a float port of scipy's) finds each on the step's
7th-order interpolant, which also fills in the ``t_eval`` samples inside the step; a
sample at the step's end takes the step's own state.  The interpolant, with its three
extra stages, is built only on a step with a crossing or a sample.  A backward or
empty span, or a grid outside the span or out of order, is refused before the first
evaluation; a step below scipy's 10-ulp floor, or a call past ``_MAX_NFEV`` field
calls, raises.  No path here imports scipy; the worker pool loads only when ``jobs > 1``.

:func:`limit_cycle` integrates past a transient of ``max(50, 2*epsilon)``
time units (about one relaxation period at large epsilon, where the cycle
contracts by orders of magnitude per period), then watches successive
section crossings until the per-cycle amplitude stabilizes below
``cycle_tol``; the converged cycle is re-sampled over one period from its
last maximum at points evenly spaced in arclength (along the cubic Hermite
through the watch steps), so van der Pol's fast relaxation jumps get as many
samples as their length asks for.  Its amplitude is the section reading (the
last maximum and minimum of ``|y|``) or the largest ``|y|`` among its samples,
whichever is larger: above the reading by at most about 1e-10 of it.
:func:`amplitude_sweep` converges the same way at each point of a grid of
nonlinearity values and keeps the section reading alone, optionally across
processes, recording per-point failures instead of aborting the sweep.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .oscillators import LIENARD, OscillatorSpec

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "CycleRecord",
    "AmplitudeCurve",
    "integrate",
    "limit_cycle",
    "amplitude_sweep",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Tunable knobs for trajectory and limit-cycle computations.

    The tolerances are the DOP853 loop's; ``max_cycles`` and ``n_samples`` are integers.
    ``transient_time=None`` picks ``max(50, 2*epsilon)``.  The relaxation
    period grows as ``(3 - 2 ln 2)*epsilon ~ 1.6*epsilon``, so ``2*epsilon``
    is about 1.2 periods; the watch loop, not the transient, decides
    convergence.  The floor of 50 holds the watch chunks in place for every
    ``epsilon <= 2.5``, where the ``|delta| < cycle_tol`` stop, and so the
    amplitude to about 1e-8, depends on where those chunks fall.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    transient_time: Optional[float] = None
    cycle_tol: float = 1e-6
    max_cycles: int = 200
    seed: Tuple[float, float] = (2.0, 0.0)
    n_samples: int = 1000

    def __post_init__(self):  # each test is false for NaN, so NaN is refused
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise DomainError("tolerances must be positive and finite")
        if not 0 < self.cycle_tol < math.inf:
            raise DomainError("cycle_tol must be positive and finite")
        for name in ("max_cycles", "n_samples"):  # a float fails in slicing or linspace
            if not isinstance(getattr(self, name), numbers.Integral):
                raise DomainError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.max_cycles < 2:
            raise DomainError("max_cycles must be at least 2")
        if self.n_samples < 8:
            raise DomainError("n_samples must be at least 8")
        if self.transient_time is not None and not 0 <= self.transient_time < math.inf:
            raise DomainError("transient_time must be nonnegative and finite")
        if len(self.seed) != 2:
            raise DomainError(f"seed must be a (y, z) pair, got {self.seed!r}")
        if not (all(map(math.isfinite, self.seed)) and any(self.seed)):
            raise DomainError(f"seed must be finite and not the origin, got {self.seed!r}")

    def transient_for(self, epsilon: float) -> float:
        if self.transient_time is not None:
            return self.transient_time
        if not 2.0 * epsilon < math.inf:  # an infinite span would reach solve_ivp
            raise DomainError(f"the transient 2*eps overflows at eps={epsilon!r}")
        return max(50.0, 2.0 * epsilon)


class Trajectory(NamedTuple):
    """Sampled phase-plane path."""

    t: np.ndarray
    y: np.ndarray
    z: np.ndarray


@dataclass
class CycleRecord:
    """One converged limit cycle, sampled over a single period.

    The ``n_samples`` points, evenly spaced in arclength, run from the last maximum
    of ``y`` (``t = 0``) round to it (``t = period``): ``t`` is not evenly spaced.
    ``history`` holds the per-cycle amplitude readings that led to convergence;
    ``state_gap`` is the max-norm mismatch between the start state and the last solver
    step's end state, whatever ``n_samples`` is (a closure diagnostic, not a gate).
    """

    kind: str
    epsilon: float
    amplitude: float
    period: float
    t: np.ndarray
    y: np.ndarray
    z: np.ndarray
    converged: bool
    cycles_used: int
    history: Tuple[float, ...]
    state_gap: float

    def write_csv(self, path) -> None:
        """Write the sampled cycle as ``t,y,z`` rows, 12 significant digits."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,y,z\n")
            for t, y, z in zip(self.t, self.y, self.z):
                fh.write(f"{t:.11e},{y:.11e},{z:.11e}\n")


@dataclass
class AmplitudeCurve:
    """Amplitude-versus-epsilon sweep with per-point error notes.

    Failed grid points keep their slot: ``amplitude`` holds NaN and the
    matching ``errors`` entry carries the failure message (empty on success).
    """

    kind: str
    eps: np.ndarray
    amplitude: np.ndarray
    errors: Tuple[str, ...]


# scipy's DOP853 as the same floats (Hairer, Norsett & Wanner, Solving ODEs I,
# II.5-II.6): B is row 12 of A, and E3, E5 weigh the thirteen stages of a step; no
# field here reads the time, so the stage times C are not kept
_A = (  # row s: the weights of stages 0..s-1 in stage s; rows 13-15 are for dense output
    (), (0.05260015195876773,), (0.0197250569845379, 0.0591751709536137), (0.02958758547680685,
    0, 0.08876275643042054), (0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242), (0.037109375, 0, 0,
    0.17025221101954405, 0.06021653898045596, -0.017578125), (0.03709200011850479, 0, 0,
    0.17038392571223998, 0.10726203044637328, -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996), (0.47766253643826434, 0, 0, -2.4881146199716677,
    -0.590290826836843, 21.230051448181193, 15.279233632882423, -33.28821096898486,
    -0.020331201708508627), (-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
    -3.0467644718982196), (2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
    -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
    12.360567175794303, 0.6433927460157636), (0.054293734116568765, 0, 0, 0, 0,
    4.450312892752409, 1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259), (0.056167502283047954, 0,
    0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025, -0.12419142326381637,
    0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
    -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
    -0.00034046500868740456, 0.1413124436746325), (-0.42889630158379194, 0, 0, 0, 0,
    -4.697621415361164, 7.683421196062599, 4.06898981839711, 0.3567271874552811, 0, 0, 0,
    -0.0013990241651590145, 2.9475147891527724, -9.15095847217987),
)
_E3 = (-0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082, 0)
_E5 = (0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0)
_D = (  # row j: the weights of the sixteen stages in the interpolant's coefficient j + 3
    (-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
    2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
    -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
    -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
    -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
    35.81684148639408), (19.985053242002433, 0, 0, 0, 0, -387.0373087493518,
    -189.17813819516758, 527.8081592054236, -11.57390253995963, 6.8812326946963,
    -1.0006050966910838, 0.7777137798053443, -2.778205752353508, -60.19669523126412,
    84.32040550667716, 11.99229113618279), (-25.69393346270375, 0, 0, 0, 0,
    -154.18974869023643, -231.5293791760455, 357.6391179106141, 93.40532418362432,
    -37.45832313645163, 104.0996495089623, 29.8402934266605, -43.53345659001114,
    96.32455395918828, -39.17726167561544, -149.72683625798564),
)
_EPS = 2.0**-52
# field calls one solve_ivp call may make: the longest call at eps = 50 makes 30k and at
# eps = 800 4.6M; cost grows about as eps**1.7, so eps = 1e4 is refused in seconds
_MAX_NFEV = 5_000_000


def brentq(f, xa: float, xb: float, xtol: float, rtol: float) -> float:
    """A root of ``f`` in ``[xa, xb]`` by Brent's method, step for step as
    scipy's ``brentq`` (its C source, 100 iterations) takes it, in floats."""
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless interpolation takes a good short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise ConvergenceError("brentq did not converge in 100 iterations")


def _interpolant(accel, t_old, h, y_old, z_old, y, z, ky, kz):
    """DOP853's dense output over one step, ``s -> (y, z)``, as scipy builds it: three
    more stages after the step's thirteen ``ky``, ``kz`` (each extra stage's ``y'`` is
    its own ``z``), then seven coefficients per component, summed in
    ``x = (s - t_old) / h`` by scipy's ``x`` / ``1 - x`` Horner."""
    a13, a14, a15 = _A[13:]
    k0y, _, _, _, _, k5y, k6y, k7y, k8y, k9y, k10y, k11y, k12y = ky
    k0z, _, _, _, _, k5z, k6z, k7z, k8z, k9z, k10z, k11z, k12z = kz
    k13y = z_old + (a13[0] * k0z + a13[6] * k6z + a13[7] * k7z + a13[8] * k8z + a13[9] * k9z
                    + a13[10] * k10z + a13[11] * k11z + a13[12] * k12z) * h
    k13z = accel(y_old + (a13[0] * k0y + a13[6] * k6y + a13[7] * k7y + a13[8] * k8y
                          + a13[9] * k9y + a13[10] * k10y + a13[11] * k11y
                          + a13[12] * k12y) * h, k13y)
    k14y = z_old + (a14[0] * k0z + a14[5] * k5z + a14[6] * k6z + a14[7] * k7z
                    + a14[10] * k10z + a14[11] * k11z + a14[12] * k12z + a14[13] * k13z) * h
    k14z = accel(y_old + (a14[0] * k0y + a14[5] * k5y + a14[6] * k6y + a14[7] * k7y
                          + a14[10] * k10y + a14[11] * k11y + a14[12] * k12y
                          + a14[13] * k13y) * h, k14y)
    k15y = z_old + (a15[0] * k0z + a15[5] * k5z + a15[6] * k6z + a15[7] * k7z + a15[8] * k8z
                    + a15[12] * k12z + a15[13] * k13z + a15[14] * k14z) * h
    k15z = accel(y_old + (a15[0] * k0y + a15[5] * k5y + a15[6] * k6y + a15[7] * k7y
                          + a15[8] * k8y + a15[12] * k12y + a15[13] * k13y
                          + a15[14] * k14y) * h, k15y)

    dy, dz = y - y_old, z - z_old  # then the seven coefficients of each component
    py = [dy, h * k0y - dy, 2 * dy - h * (k12y + k0y)]
    pz = [dz, h * k0z - dz, 2 * dz - h * (k12z + k0z)]
    for d0, _, _, _, _, d5, d6, d7, d8, d9, d10, d11, d12, d13, d14, d15 in _D:
        py.append(h * (d0 * k0y + d5 * k5y + d6 * k6y + d7 * k7y + d8 * k8y + d9 * k9y
                       + d10 * k10y + d11 * k11y + d12 * k12y + d13 * k13y + d14 * k14y
                       + d15 * k15y))
        pz.append(h * (d0 * k0z + d5 * k5z + d6 * k6z + d7 * k7z + d8 * k8z + d9 * k9z
                       + d10 * k10z + d11 * k11z + d12 * k12z + d13 * k13z + d14 * k14z
                       + d15 * k15z))
    p0, p1, p2, p3, p4, p5, p6 = py
    q0, q1, q2, q3, q4, q5, q6 = pz

    def sol(s: float):
        x = (s - t_old) / h
        u = 1 - x
        return ((((((((0.0 + p6) * x + p5) * u + p4) * x + p3) * u + p2) * x + p1) * u + p0)
                * x + y_old,
                (((((((0.0 + q6) * x + q5) * u + q4) * x + q3) * u + q2) * x + q1) * u + q0)
                * x + z_old)

    return sol


def _rms(a: float, b: float) -> float:
    """RMS norm of ``(a, b)``, written as scipy's ``norm``: ``|x| / sqrt(2)``."""
    return math.sqrt(a * a + b * b) / 2**0.5


def solve_ivp(accel, t_span, y0, rtol, atol, t_eval=None, events=()):
    """Integrate ``y' = z, z' = accel(y, z)`` forward over ``t_span`` by the float DOP853
    loop of the module docstring.  ``events`` holds the senses of the ``z = 0`` crossings
    to find (``1.0`` upward, ``-1.0`` downward, ``0.0`` both), one ``t_events`` and
    ``y_events`` entry each; ``t_eval`` lies in ``t_span`` in non-decreasing order.
    Without ``t_eval``, ``yp`` holds the field at each ``t``: each step's last stage."""
    t, tf = map(float, t_span)
    samples = [] if t_eval is None else np.asarray(t_eval, dtype=float).tolist()
    if not -math.inf < t < tf < math.inf:  # NaN fails here too
        raise DomainError(f"t_span must run forward between finite ends, got {t_span!r}")
    if not all(a <= b for a, b in zip([t, *samples], [*samples, tf])):
        raise DomainError("t_eval must lie in t_span in non-decreasing order")
    y, z = map(float, y0)
    rtol, atol = max(float(rtol), 100 * _EPS), float(atol)  # scipy's rtol floor
    budget = _MAX_NFEV
    ((), (a1_0,), (a2_0, a2_1), (a3_0, _, a3_2), (a4_0, _, a4_2, a4_3),
     (a5_0, _, _, a5_3, a5_4), (a6_0, _, _, a6_3, a6_4, a6_5),
     (a7_0, _, _, a7_3, a7_4, a7_5, a7_6), (a8_0, _, _, a8_3, a8_4, a8_5, a8_6, a8_7),
     (a9_0, _, _, a9_3, a9_4, a9_5, a9_6, a9_7, a9_8),
     (a10_0, _, _, a10_3, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
     (a11_0, _, _, a11_3, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10),
     (b0, _, _, _, _, b5, b6, b7, b8, b9, b10, b11), *_) = _A
    e3_0, _, _, _, _, e3_5, e3_6, e3_7, e3_8, e3_9, e3_10, e3_11, _ = _E3
    e5_0, _, _, _, _, e5_5, e5_6, e5_7, e5_8, e5_9, e5_10, e5_11, _ = _E5

    # the initial step as scipy's select_initial_step picks it (error order 7); a
    # stage's y' is its z argument, so the first stage's is the step's own z
    k0z = accel(y, z)
    sy, sz = atol + abs(y) * rtol, atol + abs(z) * rtol
    d0, d1 = _rms(y / sy, z / sz), _rms(z / sy, k0z / sz)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, tf - t)
    fy = z + h0 * k0z
    fz = accel(y + h0 * z, fy)
    nfev = 2
    d2 = _rms((fy - z) / sy, (fz - k0z) / sz) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100 * h0, h1, tf - t)

    n_samples = len(samples)
    ts, ys, zs = ([t], [y], [z]) if t_eval is None else ([], [], [])
    fzs = [k0z] if t_eval is None else []
    t_events, y_events = [[] for _ in events], [[] for _ in events]
    while t < tf:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:  # attempt steps until one passes the error test
            if not h_abs >= min_step:  # a NaN step fails here too
                raise ConvergenceError("integration failed: Required step size "
                                       "is less than spacing between numbers.")
            t_new = min(t + h_abs, tf)
            h = h_abs = t_new - t
            k1y = z + a1_0 * k0z * h
            k1z = accel(y + a1_0 * z * h, k1y)
            k2y = z + (a2_0 * k0z + a2_1 * k1z) * h
            k2z = accel(y + (a2_0 * z + a2_1 * k1y) * h, k2y)
            k3y = z + (a3_0 * k0z + a3_2 * k2z) * h
            k3z = accel(y + (a3_0 * z + a3_2 * k2y) * h, k3y)
            k4y = z + (a4_0 * k0z + (a4_2 * k2z + a4_3 * k3z)) * h
            k4z = accel(y + (a4_0 * z + (a4_2 * k2y + a4_3 * k3y)) * h, k4y)
            k5y = z + (a5_0 * k0z + a5_3 * k3z + a5_4 * k4z) * h
            k5z = accel(y + (a5_0 * z + a5_3 * k3y + a5_4 * k4y) * h, k5y)
            k6y = z + (a6_0 * k0z + a6_3 * k3z + a6_4 * k4z + a6_5 * k5z) * h
            k6z = accel(y + (a6_0 * z + a6_3 * k3y + a6_4 * k4y + a6_5 * k5y) * h, k6y)
            k7y = z + (a7_0 * k0z + a7_3 * k3z + a7_4 * k4z + a7_5 * k5z + a7_6 * k6z) * h
            k7z = accel(y + (a7_0 * z + a7_3 * k3y + a7_4 * k4y + a7_5 * k5y
                             + a7_6 * k6y) * h, k7y)
            k8y = z + (a8_0 * k0z + a8_3 * k3z + (a8_4 * k4z + a8_5 * k5z)
                       + (a8_6 * k6z + a8_7 * k7z)) * h
            k8z = accel(y + (a8_0 * z + a8_3 * k3y + (a8_4 * k4y + a8_5 * k5y)
                             + (a8_6 * k6y + a8_7 * k7y)) * h, k8y)
            k9y = z + (a9_0 * k0z + a9_3 * k3z + (a9_4 * k4z + a9_5 * k5z)
                       + (a9_6 * k6z + a9_7 * k7z) + a9_8 * k8z) * h
            k9z = accel(y + (a9_0 * z + a9_3 * k3y + (a9_4 * k4y + a9_5 * k5y)
                             + (a9_6 * k6y + a9_7 * k7y) + a9_8 * k8y) * h, k9y)
            k10y = z + (a10_0 * k0z + a10_3 * k3z + (a10_4 * k4z + a10_5 * k5z)
                        + (a10_6 * k6z + a10_7 * k7z) + a10_8 * k8z + a10_9 * k9z) * h
            k10z = accel(y + (a10_0 * z + a10_3 * k3y + (a10_4 * k4y + a10_5 * k5y)
                              + (a10_6 * k6y + a10_7 * k7y) + a10_8 * k8y + a10_9 * k9y) * h,
                         k10y)
            k11y = z + (a11_0 * k0z + a11_3 * k3z + (a11_4 * k4z + a11_5 * k5z) + (a11_6 * k6z
                        + a11_7 * k7z) + a11_8 * k8z + a11_9 * k9z + a11_10 * k10z) * h
            k11z = accel(y + (a11_0 * z + a11_3 * k3y + (a11_4 * k4y + a11_5 * k5y)
                              + (a11_6 * k6y + a11_7 * k7y) + a11_8 * k8y + a11_9 * k9y
                              + a11_10 * k10y) * h, k11y)
            y_new = y + h * (b0 * z + b5 * k5y + (b6 * k6y + b7 * k7y)
                             + (b8 * k8y + b9 * k9y) + (b10 * k10y + b11 * k11y))
            z_new = z + h * (b0 * k0z + b5 * k5z + (b6 * k6z + b7 * k7z)
                             + (b8 * k8z + b9 * k9z) + (b10 * k10z + b11 * k11z))
            k12z = accel(y_new, z_new)
            nfev += 12
            if nfev > budget:
                raise ConvergenceError(f"integration stopped after {nfev} field calls, "
                                       f"past its budget of {budget}")
            sy = atol + max(abs(y), abs(y_new)) * rtol
            sz = atol + max(abs(z), abs(z_new)) * rtol
            e5y = (e5_0 * z + e5_5 * k5y + (e5_6 * k6y + e5_7 * k7y)
                   + (e5_8 * k8y + e5_9 * k9y) + (e5_10 * k10y + e5_11 * k11y)) / sy
            e5z = (e5_0 * k0z + e5_5 * k5z + (e5_6 * k6z + e5_7 * k7z)
                   + (e5_8 * k8z + e5_9 * k9z) + (e5_10 * k10z + e5_11 * k11z)) / sz
            e3y = (e3_0 * z + e3_5 * k5y + (e3_6 * k6y + e3_7 * k7y)
                   + (e3_8 * k8y + e3_9 * k9y) + (e3_10 * k10y + e3_11 * k11y)) / sy
            e3z = (e3_0 * k0z + e3_5 * k5z + (e3_6 * k6z + e3_7 * k7z)
                   + (e3_8 * k8z + e3_9 * k9z) + (e3_10 * k10z + e3_11 * k11z)) / sz
            # scipy's norm: the 5th-order estimate damped by the 3rd, each as sqrt(x.x)**2
            r5, r3 = math.sqrt(e5y * e5y + e5z * e5z), math.sqrt(e3y * e3y + e3z * e3z)
            n5, n3 = r5 * r5, r3 * r3
            error_norm = h * n5 / math.sqrt((n5 + 0.01 * n3) * 2) if n5 or n3 else 0.0
            if error_norm < 1:
                factor = 10.0 if error_norm == 0 else min(10.0, 0.9 * error_norm**-0.125)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs, rejected = h_abs * max(0.2, 0.9 * error_norm**-0.125), True

        t_old, y_old, z_old, t, y, z = t, y, z, t_new, y_new, z_new
        up, down = z_old <= 0 <= z, z_old >= 0 >= z  # scipy's find_active_events on z
        crossed = [i for i, sense in enumerate(events)
                   if up and sense >= 0 or down and sense <= 0] if up or down else ()
        if crossed or len(ts) < n_samples and samples[len(ts)] <= t:  # interpolant needed
            sol = _interpolant(accel, t_old, h, y_old, z_old, y, z, (
                z_old, k1y, k2y, k3y, k4y, k5y, k6y, k7y, k8y, k9y, k10y, k11y, z), (
                k0z, k1z, k2z, k3z, k4z, k5z, k6z, k7z, k8z, k9z, k10z, k11z, k12z))
            nfev += 3
        for i in crossed:
            root = brentq(lambda s: sol(s)[1], t_old, t, 4 * _EPS, 4 * _EPS)
            t_events[i].append(root)
            y_events[i].append(sol(root))
        if t_eval is None:
            ts.append(t), ys.append(y), zs.append(z), fzs.append(k12z)
        while len(ts) < n_samples and samples[len(ts)] <= t:
            s = samples[len(ts)]
            s_y, s_z = (y, z) if s == t else sol(s)  # the step's end takes its own state
            ts.append(s), ys.append(s_y), zs.append(s_z)
        k0z = k12z

    return SimpleNamespace(  # the fields of scipy's OdeResult read here, and yp: (z, z')
        t=np.array(ts), y=np.array((ys, zs)), t_events=[np.array(te) for te in t_events],
        y_events=[np.array(ye) for ye in y_events], nfev=nfev,
        yp=np.array((zs, fzs)) if t_eval is None else np.empty((2, 0)))


def integrate(
    spec: OscillatorSpec,
    t_final: float,
    *,
    seed: Optional[Sequence[float]] = None,
    config: Optional[IntegratorConfig] = None,
) -> Trajectory:
    """Integrate from ``seed`` over ``[0, t_final]``; the output holds the
    solver's own accepted steps.  The seed may be the origin, which stays put."""
    cfg = config or IntegratorConfig()
    if not 0 < t_final < math.inf:  # NaN fails here too
        raise DomainError(f"t_final must be positive and finite, got {t_final!r}")
    state = np.asarray(seed if seed is not None else cfg.seed, dtype=float)
    if state.shape != (2,) or not np.isfinite(state).all():
        raise DomainError(f"seed must be a finite (y, z) pair, got {seed!r}")
    sol = solve_ivp(spec.field_function(), (0.0, t_final), state, cfg.rel_tol, cfg.abs_tol)
    return Trajectory(sol.t, sol.y[0], sol.y[1])


def _converge(spec: OscillatorSpec, cfg: IntegratorConfig):
    """Transient and watch: converge onto the attracting cycle, sampling nothing.

    Convergence criterion: the amplitude read at successive downward section
    crossings (the maxima of ``y``) changes by less than ``cycle_tol``.  If
    ``max_cycles`` maxima pass without that happening, raises
    :class:`~limitcycles.errors.ConvergenceError`.  Returns the section
    amplitude (``|y|`` at the last maximum or minimum, the larger), the
    period, the readings, the watch steps since the penultimate maximum and
    the last two maxima as ``(times, states)``.
    """
    accel = spec.field_function()

    # pull the seed toward the cycle before watching the section
    state = np.asarray(cfg.seed, dtype=float)
    t_trans = cfg.transient_for(spec.epsilon)
    if t_trans > 0:
        sol = solve_ivp(accel, (0.0, t_trans), state, cfg.rel_tol, cfg.abs_tol)
        state = sol.y[:, -1]

    period_est = 2.0 * math.pi
    down_t: list = []  # times of y-maxima (z: + -> -)
    down_states: list = []
    amps: list = []  # |y| at downward crossings
    up_abs: list = []  # |y| at upward crossings (the minima)
    t_now = 0.0
    steps: list = []  # watch steps (t, y, z, y', z') since the penultimate maximum

    while len(amps) < cfg.max_cycles:
        chunk = max(25.0, 3.0 * period_est)
        sol = solve_ivp(accel, (t_now, t_now + chunk), state, cfg.rel_tol, cfg.abs_tol,
                        events=(1.0, -1.0))  # minima of y, then maxima
        t_up, t_dn = sol.t_events
        s_up, s_dn = sol.y_events
        room = cfg.max_cycles - len(amps)
        if len(t_dn) > room:
            # one chunk can hold several maxima: keep only those within
            # max_cycles, and no crossing after the last of them
            t_dn, s_dn = t_dn[:room], s_dn[:room]
            kept = t_up <= t_dn[-1]
            t_up, s_up = t_up[kept], s_up[kept]
        for t_i, s_i in zip(t_dn, s_dn):
            down_t.append(float(t_i))
            down_states.append(np.asarray(s_i, dtype=float))
            amps.append(abs(float(s_i[0])))
        for s_i in s_up:
            up_abs.append(abs(float(s_i[0])))
        steps.append(np.vstack([sol.t[1:], sol.y[:, 1:], sol.yp[:, 1:]]))
        if len(down_t) >= 2:
            period_est = down_t[-1] - down_t[-2]
            steps = [c for c in steps if c[0, -1] > down_t[-2]]
        state = sol.y[:, -1]
        t_now = float(sol.t[-1])
        if len(amps) >= 2 and abs(amps[-1] - amps[-2]) < cfg.cycle_tol:
            break
        if not (len(t_up) or len(t_dn)) and t_now > t_trans + 100 * max(period_est, 1.0):
            raise ConvergenceError(
                f"no section crossings found for {spec.kind} eps={spec.epsilon}"
            )
    else:
        raise ConvergenceError(
            f"amplitude not settled after {len(amps)} cycles "
            f"(last delta {abs(amps[-1] - amps[-2]):.3e}, tol {cfg.cycle_tol:.1e})"
        )

    amplitude = max(amps[-1], up_abs[-1] if up_abs else 0.0)
    period = down_t[-1] - down_t[-2]
    return amplitude, period, amps, steps, (down_t[-2:], down_states[-2:])


def limit_cycle(spec: OscillatorSpec,
                config: Optional[IntegratorConfig] = None) -> CycleRecord:
    """Converge onto the attracting limit cycle by :func:`_converge` (a returned record
    is always converged) and sample one more period from the last maximum; ``amplitude``
    also folds in ``max |y|`` over the samples, at most about 1e-10 of it above."""
    cfg = config or IntegratorConfig()
    section, period, amps, steps, (down_t, down_states) = _converge(spec, cfg)

    # one period from the last maximum, evenly in arclength: length against time
    # is 8 chords a step along the cubic Hermite through the watch steps between
    # the last two maxima (one chord a partial step at the ends), inverted linearly
    anchor = down_states[-1]
    path = np.hstack(steps)
    inside = (path[0] > down_t[-2]) & (path[0] < down_t[-1])
    t_in, p_in, f_in = path[0, inside], path[1:3, inside], path[3:, inside]
    dt, s = np.diff(t_in), np.arange(8) / 8
    p0, p1 = p_in[:, :-1, None], p_in[:, 1:, None]
    hermite = (p0 + (p1 - p0) * (s * s * (3 - 2 * s)) + (f_in[:, :-1] * dt)[..., None]
               * (s * (1 - s) ** 2) + (f_in[:, 1:] * dt)[..., None] * (s * s * (s - 1)))
    times = np.concatenate([[0.0], (t_in[:-1, None] + dt[:, None] * s).ravel() - down_t[-2],
                            t_in[-1:] - down_t[-2], [period]])
    points = np.vstack([down_states[-2], hermite.reshape(2, -1).T, p_in[:, -1:].T, anchor])
    length = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(points, axis=0).T))])
    t_eval = np.interp(np.linspace(0.0, length[-1], cfg.n_samples), length, times)
    sol = solve_ivp(spec.field_function(), (0.0, period), anchor, cfg.rel_tol,
                    cfg.abs_tol, t_eval=t_eval)
    state_gap = float(np.max(np.abs(sol.y[:, -1] - anchor)))
    # closed on its start, so both ends read the last maximum; state_gap keeps the end
    sol.y[:, -1] = anchor
    y, z = sol.y

    amplitude = max(float(np.max(np.abs(y))), section)
    return CycleRecord(
        kind=spec.kind, epsilon=spec.epsilon, amplitude=amplitude, period=period,
        t=sol.t, y=y, z=z, converged=True, cycles_used=len(amps),
        history=tuple(amps), state_gap=state_gap,
    )


def _sweep_point(args) -> Tuple[float, str]:
    kind, eps, config = args
    try:
        return _converge(OscillatorSpec(kind, eps), config)[0], ""
    except Exception as exc:  # any failure stays in its grid slot
        return math.nan, f"{type(exc).__name__}: {exc}"


def amplitude_sweep(
    kind: str,
    eps_values: Sequence[float],
    config: Optional[IntegratorConfig] = None,
    *,
    jobs: int = 1,
) -> AmplitudeCurve:
    """Limit-cycle amplitude over a grid of nonlinearity values.

    Each point is the section reading of :func:`_converge`: the transient
    and watch of :func:`limit_cycle` without its re-sampled period, so it
    sits below that record's ``amplitude``, which also folds in its samples,
    by at most about 1e-10 of it.  ``jobs`` is at least 1; ``jobs > 1``
    distributes grid points over worker processes (named oscillator kinds
    only — custom callables do not cross process boundaries).  Output
    ordering matches ``eps_values`` regardless of worker scheduling.
    """
    cfg = config or IntegratorConfig()
    if kind == LIENARD:
        raise DomainError("sweeps are defined for the named oscillator kinds")
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    eps_arr = np.asarray(list(eps_values), dtype=float)
    tasks = [(kind, float(e), cfg) for e in eps_arr]
    if jobs > 1 and len(tasks) > 1:  # pool.map keeps the grid's order
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_point, tasks))
    else:
        results = list(map(_sweep_point, tasks))
    amplitude = np.array([r[0] for r in results], dtype=float)
    errors = tuple(r[1] for r in results)
    return AmplitudeCurve(kind=kind, eps=eps_arr, amplitude=amplitude, errors=errors)
