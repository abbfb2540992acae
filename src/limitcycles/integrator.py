"""Limit-cycle extraction by adaptive Runge-Kutta integration.

Cycle structure comes from the Poincare section ``z = y' = 0``: the extrema
of ``y`` sit exactly on that section, so event location gives amplitude
readings without any extra peak interpolation.

:func:`solve_ivp` runs RK45 forward over a span as one loop over Python
floats on the ``(y, z)`` pair.  It keeps scipy's RK45 (Dormand-Prince 5(4)):
the tableau, initial step, error norm and step-size control, so it takes
scipy's steps with scipy's ``nfev``.  On each accepted step it applies
scipy's event sign test to ``z`` for each requested sense of ``z = 0``
crossing, finds each crossing with :func:`brentq` (a float port of scipy's)
on the step's quartic interpolant, and fills in the ``t_eval`` samples
inside the step; a sample at the step's end takes the step's own state.
The stage tuples and the interpolant are built only on a step with a
crossing or a sample.  A backward or empty span, or a grid outside the span
or out of order, is refused before the first evaluation, and a step that
falls below scipy's 10-ulp floor raises.  No path here imports scipy; the
worker pool loads only when ``jobs > 1``.

:func:`limit_cycle` integrates past a transient of ``max(50, 2*epsilon)``
time units (about one relaxation period at large epsilon, where the cycle
contracts by orders of magnitude per period), then watches successive
section crossings until the per-cycle amplitude stabilizes below
``cycle_tol``; the converged cycle is re-sampled over one period at points
evenly spaced in arclength, so van der Pol's fast relaxation jumps get as
many samples as their length asks for and the polygon through the samples
stays close to the cycle everywhere.  Its amplitude is the section reading
(the last maximum and minimum of ``|y|``) or the largest ``|y|`` among its
samples, whichever is larger: above the reading by at most about 1e-10 of it.
:func:`amplitude_sweep` converges the same way at each point of a grid of
nonlinearity values and keeps the section reading alone, with no period
re-sampled, optionally across processes, recording per-point failures
instead of aborting the sweep.
"""

from __future__ import annotations

import math
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
        if not 2 <= self.max_cycles < math.inf:
            raise DomainError("max_cycles must be at least 2")
        if not 8 <= self.n_samples < math.inf:
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
        return max(50.0, 2.0 * epsilon)


class Trajectory(NamedTuple):
    """Sampled phase-plane path."""

    t: np.ndarray
    y: np.ndarray
    z: np.ndarray


@dataclass
class CycleRecord:
    """One converged limit cycle, sampled over a single period.

    The ``n_samples`` points are evenly spaced in arclength along the cycle,
    from the penultimate maximum of ``y`` (``t = 0``) to the last one
    (``t = period``), so ``t`` increases but is not evenly spaced.
    ``history`` holds the per-cycle amplitude readings that led to
    convergence; ``state_gap`` is the max-norm mismatch between the start state
    and the last solver step's end state, whatever ``n_samples`` is (a closure
    diagnostic, not a gate).
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


# scipy's RK45 as the same floats (Dormand & Prince 1980; P: Shampine 1986)
_C = (0, 1/5, 3/10, 4/5, 8/9, 1)
_A = (
    (0, 0, 0, 0, 0), (1/5, 0, 0, 0, 0), (3/40, 9/40, 0, 0, 0), (44/45, -56/15, 32/9, 0, 0),
    (19372/6561, -25360/2187, 64448/6561, -212/729, 0),
    (9017/3168, -355/33, 46732/5247, 49/176, -5103/18656),
)
_B = (35/384, 0, 500/1113, 125/192, -2187/6784, 11/84)
_E = (-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40)
_P = (
    (1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432),
    (0, 0, 0, 0),
    (0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799),
    (0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072),
    (0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632),
    (0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844),
    (0, 40617522/29380423, -110615467/29380423, 69997945/29380423),
)
_EPS = 2.0**-52


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


def _quartic(k):
    """``[sum(ki * p[j] for ki, p in zip(k, _P)) for j in range(4)]`` unrolled in
    order, less ``k2``'s zero row: a finite ``+-0.0`` leaves such a sum as it is."""
    k1, _, k3, k4, k5, k6, k7 = k
    (_, a1, a2, a3), _, (_, c1, c2, c3), (_, d1, d2, d3), (_, e1, e2, e3), (
        _, f1, f2, f3), (_, g1, g2, g3) = _P
    return (0 + k1,
            0 + k1 * a1 + k3 * c1 + k4 * d1 + k5 * e1 + k6 * f1 + k7 * g1,
            0 + k1 * a2 + k3 * c2 + k4 * d2 + k5 * e2 + k6 * f2 + k7 * g2,
            0 + k1 * a3 + k3 * c3 + k4 * d3 + k5 * e3 + k6 * f3 + k7 * g3)


def _dense_output(t_old: float, h: float, y_old: float, z_old: float, ky, kz):
    """RK45's quartic interpolant over one step, ``s -> (y, z)``."""
    (qy0, qy1, qy2, qy3), (qz0, qz1, qz2, qz3) = _quartic(ky), _quartic(kz)

    def sol(s: float):
        x = (s - t_old) / h
        x2 = x * x
        x3, x4 = x2 * x, x2 * x * x
        return (h * (qy0 * x + qy1 * x2 + qy2 * x3 + qy3 * x4) + y_old,
                h * (qz0 * x + qz1 * x2 + qz2 * x3 + qz3 * x4) + z_old)

    return sol


def _rms(a: float, b: float) -> float:
    """RMS norm of ``(a, b)``, written as scipy's ``norm``: ``|x| / sqrt(2)``."""
    return math.sqrt(a * a + b * b) / 2**0.5


def solve_ivp(fun, t_span, y0, rtol, atol, t_eval=None, events=()):
    """Integrate ``fun(t, (y, z))`` forward over ``t_span`` by the float RK45
    loop of the module docstring.  ``events`` holds the senses of the ``z = 0``
    crossings to find (``1.0`` upward, ``-1.0`` downward, ``0.0`` both), one
    ``t_events`` and ``y_events`` entry each; ``t_eval`` lies in ``t_span`` in
    non-decreasing order."""
    t, tf = map(float, t_span)
    samples = [] if t_eval is None else np.asarray(t_eval, dtype=float).tolist()
    if not -math.inf < t < tf < math.inf:  # NaN fails here too
        raise DomainError(f"t_span must run forward between finite ends, got {t_span!r}")
    if not all(a <= b for a, b in zip([t, *samples], [*samples, tf])):
        raise DomainError("t_eval must lie in t_span in non-decreasing order")
    y, z = map(float, y0)
    rtol, atol = max(float(rtol), 100 * _EPS), float(atol)  # scipy's rtol floor
    _, c2, c3, c4, c5, c6 = _C
    _, (a21, *_), (a31, a32, *_), (a41, a42, a43, *_), (a51, a52, a53, a54, _), (
        a61, a62, a63, a64, a65) = _A
    b1, _, b3, b4, b5, b6 = _B
    e1, _, e3, e4, e5, e6, e7 = _E

    # the initial step as scipy's select_initial_step picks it (error order 4)
    k1y, k1z = fun(t, (y, z))
    sy, sz = atol + abs(y) * rtol, atol + abs(z) * rtol
    d0, d1 = _rms(y / sy, z / sz), _rms(k1y / sy, k1z / sz)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, tf - t)
    fy, fz = fun(t + h0, (y + h0 * k1y, z + h0 * k1z))
    nfev = 2
    d2 = _rms((fy - k1y) / sy, (fz - k1z) / sz) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, tf - t)

    n_samples = len(samples)
    ts, ys, zs = ([t], [y], [z]) if t_eval is None else ([], [], [])
    t_events, y_events = [[] for _ in events], [[] for _ in events]
    while t < tf:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:  # attempt steps until one passes the RMS error test
            if not h_abs >= min_step:  # a NaN step fails here too
                raise ConvergenceError("integration failed: Required step size "
                                       "is less than spacing between numbers.")
            t_new = min(t + h_abs, tf)
            h = h_abs = t_new - t
            k2y, k2z = fun(t + c2 * h, (y + a21 * k1y * h, z + a21 * k1z * h))
            k3y, k3z = fun(t + c3 * h, (y + (a31 * k1y + a32 * k2y) * h,
                                        z + (a31 * k1z + a32 * k2z) * h))
            k4y, k4z = fun(t + c4 * h, (y + (a41 * k1y + a42 * k2y + a43 * k3y) * h,
                                        z + (a41 * k1z + a42 * k2z + a43 * k3z) * h))
            k5y, k5z = fun(t + c5 * h, (
                y + (a51 * k1y + a52 * k2y + a53 * k3y + a54 * k4y) * h,
                z + (a51 * k1z + a52 * k2z + a53 * k3z + a54 * k4z) * h))
            k6y, k6z = fun(t + c6 * h, (
                y + (a61 * k1y + a62 * k2y + a63 * k3y + a64 * k4y + a65 * k5y) * h,
                z + (a61 * k1z + a62 * k2z + a63 * k3z + a64 * k4z + a65 * k5z) * h))
            # b2 = e2 = 0: a finite k2 adds a zero, which can flip only an all-zero sum
            y_new = y + h * (b1 * k1y + b3 * k3y + b4 * k4y + b5 * k5y + b6 * k6y)
            z_new = z + h * (b1 * k1z + b3 * k3z + b4 * k4z + b5 * k5z + b6 * k6z)
            k7y, k7z = fun(t + h, (y_new, z_new))
            nfev += 6
            err_y = (e1 * k1y + e3 * k3y + e4 * k4y + e5 * k5y + e6 * k6y
                     + e7 * k7y) * h / (atol + max(abs(y), abs(y_new)) * rtol)
            err_z = (e1 * k1z + e3 * k3z + e4 * k4z + e5 * k5z + e6 * k6z
                     + e7 * k7z) * h / (atol + max(abs(z), abs(z_new)) * rtol)
            # RMS norm; an ulp's change in this rounding moves cycle samples by ~1e-8
            error_norm = math.sqrt(0.5 * (err_y * err_y + err_z * err_z))
            if error_norm < 1:
                factor = 10.0 if error_norm == 0 else min(10.0, 0.9 * error_norm**-0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs, rejected = h_abs * max(0.2, 0.9 * error_norm**-0.2), True

        t_old, y_old, z_old, t, y, z = t, y, z, t_new, y_new, z_new
        sol = None  # the step's interpolant, built at its first crossing or sample
        for i, sense in enumerate(events):  # scipy's find_active_events on z
            if (z_old <= 0 <= z and sense >= 0) or (z_old >= 0 >= z and sense <= 0):
                sol = sol or _dense_output(t_old, h, y_old, z_old, (
                    k1y, k2y, k3y, k4y, k5y, k6y, k7y), (k1z, k2z, k3z, k4z, k5z, k6z, k7z))
                root = brentq(lambda s: sol(s)[1], t_old, t, 4 * _EPS, 4 * _EPS)
                t_events[i].append(root)
                y_events[i].append(sol(root))
        if t_eval is None:
            ts.append(t)
            ys.append(y)
            zs.append(z)
        else:
            while len(ts) < n_samples and samples[len(ts)] <= t:
                s = samples[len(ts)]
                sol = sol or _dense_output(t_old, h, y_old, z_old, (
                    k1y, k2y, k3y, k4y, k5y, k6y, k7y), (k1z, k2z, k3z, k4z, k5z, k6z, k7z))
                s_y, s_z = (y, z) if s == t else sol(s)  # the step's end takes its own state
                ts.append(s), ys.append(s_y), zs.append(s_z)
        k1y, k1z = k7y, k7z

    return SimpleNamespace(  # the fields of scipy's OdeResult read here
        t=np.array(ts), y=np.array((ys, zs)), t_events=[np.array(te) for te in t_events],
        y_events=[np.array(ye) for ye in y_events], nfev=nfev)


def integrate(
    spec: OscillatorSpec,
    t_final: float,
    *,
    seed: Optional[Sequence[float]] = None,
    config: Optional[IntegratorConfig] = None,
) -> Trajectory:
    """Integrate from ``seed`` over ``[0, t_final]``; the output holds the
    solver's own accepted steps."""
    cfg = config or IntegratorConfig()
    if not 0 < t_final < math.inf:  # NaN fails here too
        raise DomainError(f"t_final must be positive and finite, got {t_final!r}")
    state = np.asarray(seed if seed is not None else cfg.seed, dtype=float)
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
    fun = spec.field_function()

    # pull the seed toward the cycle before watching the section
    state = np.asarray(cfg.seed, dtype=float)
    t_trans = cfg.transient_for(spec.epsilon)
    if t_trans > 0:
        sol = solve_ivp(fun, (0.0, t_trans), state, cfg.rel_tol, cfg.abs_tol)
        state = sol.y[:, -1]

    period_est = 2.0 * math.pi
    down_t: list = []  # times of y-maxima (z: + -> -)
    down_states: list = []
    amps: list = []  # |y| at downward crossings
    up_abs: list = []  # |y| at upward crossings (the minima)
    t_now = 0.0
    steps: list = []  # accepted watch steps (t, y, z) since the penultimate maximum

    while len(amps) < cfg.max_cycles:
        chunk = max(25.0, 3.0 * period_est)
        sol = solve_ivp(fun, (t_now, t_now + chunk), state, cfg.rel_tol, cfg.abs_tol,
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
        steps.append(np.vstack([sol.t[1:], sol.y[:, 1:]]))
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
    """Converge onto the attracting limit cycle by :func:`_converge` (a
    returned record is always converged) and sample one more period from the
    penultimate maximum.  ``amplitude`` also folds in ``max |y|`` over the
    samples, so it exceeds the section reading by at most about 1e-10 of it."""
    cfg = config or IntegratorConfig()
    section, period, amps, steps, (down_t, down_states) = _converge(spec, cfg)

    # one anchored period from the penultimate maximum, re-sampled evenly in
    # arclength: the watch steps between the last two maxima give the chord
    # length as a function of time, inverted by linear interpolation
    anchor = down_states[-2]
    path = np.hstack(steps)
    inside = (path[0] > down_t[-2]) & (path[0] < down_t[-1])
    times = np.concatenate([[0.0], path[0, inside] - down_t[-2], [period]])
    points = np.vstack([anchor, path[1:, inside].T, down_states[-1]])
    length = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(points, axis=0).T))])
    t_eval = np.interp(np.linspace(0.0, length[-1], cfg.n_samples), length, times)
    sol = solve_ivp(spec.field_function(), (0.0, period), anchor, cfg.rel_tol,
                    cfg.abs_tol, t_eval=t_eval)
    y, z = sol.y
    state_gap = float(np.max(np.abs(sol.y[:, -1] - anchor)))

    amplitude = max(float(np.max(np.abs(y))), section)
    return CycleRecord(
        kind=spec.kind, epsilon=spec.epsilon, amplitude=amplitude, period=period,
        t=sol.t, y=y, z=z, converged=True, cycles_used=len(amps),
        history=tuple(amps), state_gap=state_gap,
    )


def _sweep_point(args) -> Tuple[int, float, str]:
    index, kind, eps, config = args
    try:
        return index, _converge(OscillatorSpec(kind, eps), config)[0], ""
    except Exception as exc:  # any failure stays in its grid slot
        return index, math.nan, f"{type(exc).__name__}: {exc}"


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
    tasks = [(i, kind, float(e), cfg) for i, e in enumerate(eps_arr)]
    results: list = [None] * len(tasks)
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for index, amp, msg in pool.map(_sweep_point, tasks):
                results[index] = (amp, msg)
    else:
        for task in tasks:
            index, amp, msg = _sweep_point(task)
            results[index] = (amp, msg)
    amplitude = np.array([r[0] for r in results], dtype=float)
    errors = tuple(r[1] for r in results)
    return AmplitudeCurve(kind=kind, eps=eps_arr, amplitude=amplitude, errors=errors)
