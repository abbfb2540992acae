"""Limit-cycle extraction by adaptive Runge-Kutta integration.

The workhorse is :func:`scipy.integrate.solve_ivp` with the Dormand-Prince
embedded 4(5) pair (``method="RK45"``), dense local interpolants, and event
location.  Cycle structure comes from the Poincare section ``z = y' = 0``:
the extrema of ``y`` sit exactly on that section, so the event refinement
gives amplitude readings without any extra peak interpolation.

``solve_ivp`` drives every integration (events, ``t_eval``, ``nfev``), but
the RK45 steps themselves run in :class:`_PlanarRK45`: the same
Dormand-Prince pair and controller, done in Python floats on the ``(y, z)``
pair.  On a two-element state, scipy's generic numpy stepping costs several
times the right-hand side; the float stepper takes the same steps with the
same evaluation count at about a third of the time.  Any other ``method``
name goes to scipy as given.

:func:`limit_cycle` integrates past a transient of ``max(50, 2*epsilon)``
time units (about one relaxation period at large epsilon, where the cycle
contracts by orders of magnitude per period), then watches successive
section crossings until the per-cycle amplitude stabilizes below
``cycle_tol``; the converged cycle is re-sampled over one period at points
evenly spaced in arclength, so van der Pol's fast relaxation jumps get as
many samples as their length asks for and the polygon through the samples
stays close to the cycle everywhere.
:func:`amplitude_sweep` maps that over a grid of nonlinearity values,
optionally across processes, recording per-point failures instead of
aborting the sweep.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import RK45, solve_ivp

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

    method: str = "RK45"
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    transient_time: Optional[float] = None
    cycle_tol: float = 1e-6
    max_cycles: int = 200
    seed: Tuple[float, float] = (2.0, 0.0)
    n_samples: int = 1000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise DomainError("tolerances must be positive")
        if self.cycle_tol <= 0:
            raise DomainError("cycle_tol must be positive")
        if self.max_cycles < 2:
            raise DomainError("max_cycles must be at least 2")
        if self.n_samples < 8:
            raise DomainError("n_samples must be at least 8")
        if self.transient_time is not None and self.transient_time < 0:
            raise DomainError("transient_time must be nonnegative")

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
    convergence; ``state_gap`` is the max-norm mismatch between the start and
    end states of the sampled period (a closure diagnostic, not a gate).
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

    def write_csv(self, path) -> None:
        """Write ``eps,amplitude,error`` rows; an error holding a comma is quoted."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(("eps", "amplitude", "error"))
            for e, a, msg in zip(self.eps, self.amplitude, self.errors):
                a_text = f"{a:.11e}" if math.isfinite(a) else ""
                out.writerow((f"{e:.11e}", a_text, msg))


# scipy's step-size controller for its explicit Runge-Kutta methods
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _floats(values) -> tuple:
    return tuple(float(v) for v in values)


class _PlanarRK45(RK45):
    """scipy's RK45 with each step taken in Python floats on the ``(y, z)`` pair.

    The tableau is :class:`~scipy.integrate.RK45`'s own, and so are the RMS
    error norm, the step-size controller and the ``10 ulp(t)`` minimum step;
    only numpy's per-call cost on two-element arrays is gone.  The raw
    right-hand side is called with a tuple, six times per attempted step.
    The stages of the last accepted step are kept as floats and become
    scipy's ``K`` only when :func:`solve_ivp` asks for an interpolant, so
    events and ``t_eval`` use RK45's quartic dense output unchanged.
    Tolerances are scalars, as :class:`IntegratorConfig` holds them.
    """

    _c = _floats(RK45.C)
    _a = tuple(_floats(row[:i]) for i, row in enumerate(RK45.A))
    _b = _floats(RK45.B)
    _e = _floats(RK45.E)

    def __init__(self, fun, t0, y0, t_bound, **options):
        self._rhs = fun
        super().__init__(fun, t0, y0, t_bound, **options)
        self.f = tuple(self.f.tolist())
        self.h_abs = float(self.h_abs)
        self.direction = float(self.direction)
        self.rtol, self.atol = float(self.rtol), float(self.atol)
        self._stages = None

    def _step_impl(self):
        fun, t, t_bound = self._rhs, self.t, self.t_bound
        direction, max_step = self.direction, self.max_step
        rtol, atol = self.rtol, self.atol
        exponent = self.error_exponent
        _, c2, c3, c4, c5, c6 = self._c
        _, (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (
            a61, a62, a63, a64, a65
        ) = self._a
        b1, b2, b3, b4, b5, b6 = self._b
        e1, e2, e3, e4, e5, e6, e7 = self._e
        y, z = self.y.tolist()
        k1y, k1z = self.f

        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = min(max(self.h_abs, min_step), max_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)

            k2y, k2z = fun(t + c2 * h, (y + a21 * k1y * h, z + a21 * k1z * h))
            k3y, k3z = fun(
                t + c3 * h,
                (y + (a31 * k1y + a32 * k2y) * h, z + (a31 * k1z + a32 * k2z) * h),
            )
            k4y, k4z = fun(
                t + c4 * h,
                (
                    y + (a41 * k1y + a42 * k2y + a43 * k3y) * h,
                    z + (a41 * k1z + a42 * k2z + a43 * k3z) * h,
                ),
            )
            k5y, k5z = fun(
                t + c5 * h,
                (
                    y + (a51 * k1y + a52 * k2y + a53 * k3y + a54 * k4y) * h,
                    z + (a51 * k1z + a52 * k2z + a53 * k3z + a54 * k4z) * h,
                ),
            )
            k6y, k6z = fun(
                t + c6 * h,
                (
                    y
                    + (a61 * k1y + a62 * k2y + a63 * k3y + a64 * k4y + a65 * k5y) * h,
                    z
                    + (a61 * k1z + a62 * k2z + a63 * k3z + a64 * k4z + a65 * k5z) * h,
                ),
            )
            y_new = y + h * (
                b1 * k1y + b2 * k2y + b3 * k3y + b4 * k4y + b5 * k5y + b6 * k6y
            )
            z_new = z + h * (
                b1 * k1z + b2 * k2z + b3 * k3z + b4 * k4z + b5 * k5z + b6 * k6z
            )
            k7y, k7z = fun(t + h, (y_new, z_new))
            self.nfev += 6

            err_y = (
                e1 * k1y + e2 * k2y + e3 * k3y + e4 * k4y
                + e5 * k5y + e6 * k6y + e7 * k7y
            ) * h / (atol + max(abs(y), abs(y_new)) * rtol)
            err_z = (
                e1 * k1z + e2 * k2z + e3 * k3z + e4 * k4z
                + e5 * k5z + e6 * k6z + e7 * k7z
            ) * h / (atol + max(abs(z), abs(z_new)) * rtol)
            error_norm = math.sqrt(0.5 * (err_y * err_y + err_z * err_z))
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**exponent)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**exponent)
            rejected = True

        self.y_old = self.y
        self.t = t_new
        self.y = np.array((y_new, z_new))
        self.h_abs = h_abs
        self.f = (k7y, k7z)
        self._stages = (
            k1y, k1z, k2y, k2z, k3y, k3z, k4y, k4z, k5y, k5z, k6y, k6z, k7y, k7z
        )
        return True, None

    def _dense_output_impl(self):
        self.K = np.reshape(self._stages, self.K.shape)
        return super()._dense_output_impl()


def _solve(fun, t_span, state, config: IntegratorConfig, **kw):
    method = _PlanarRK45 if config.method == "RK45" else config.method
    sol = solve_ivp(
        fun,
        t_span,
        state,
        method=method,
        rtol=config.rel_tol,
        atol=config.abs_tol,
        **kw,
    )
    if not sol.success:
        raise ConvergenceError(f"integration failed: {sol.message}")
    return sol


def integrate(
    spec: OscillatorSpec,
    t_final: float,
    *,
    seed: Optional[Sequence[float]] = None,
    config: Optional[IntegratorConfig] = None,
    n_samples: Optional[int] = None,
) -> Trajectory:
    """Integrate from ``seed`` over ``[0, t_final]``.

    With ``n_samples`` the output is uniform in time (via the dense
    interpolant); otherwise the solver's own accepted steps are returned.
    """
    cfg = config or IntegratorConfig()
    if t_final <= 0:
        raise DomainError("t_final must be positive")
    state = np.asarray(seed if seed is not None else cfg.seed, dtype=float)
    t_eval = np.linspace(0.0, t_final, n_samples) if n_samples else None
    sol = _solve(spec.field_function(), (0.0, t_final), state, cfg, t_eval=t_eval)
    return Trajectory(sol.t, sol.y[0], sol.y[1])


def _section_event(direction: float):
    """Poincare-section event: crossings of z = 0 in ``direction``."""

    def crossing(t, state):
        return state[1]

    crossing.direction = direction
    return crossing


def limit_cycle(
    spec: OscillatorSpec,
    config: Optional[IntegratorConfig] = None,
    *,
    strict: bool = True,
) -> CycleRecord:
    """Converge onto the attracting limit cycle and sample one period.

    Convergence criterion: the amplitude read at successive downward section
    crossings (the maxima of ``y``) changes by less than ``cycle_tol``.  If
    ``max_cycles`` maxima pass without that happening, raises
    :class:`~limitcycles.errors.ConvergenceError` (or, with ``strict=False``,
    returns the best cycle seen flagged ``converged=False``).
    """
    cfg = config or IntegratorConfig()
    fun = spec.field_function()
    up, down = _section_event(1.0), _section_event(-1.0)

    # pull the seed toward the cycle before watching the section
    state = np.asarray(cfg.seed, dtype=float)
    t_trans = cfg.transient_for(spec.epsilon)
    if t_trans > 0:
        sol = _solve(fun, (0.0, t_trans), state, cfg)
        state = sol.y[:, -1]

    period_est = 2.0 * math.pi
    down_t: list = []  # times of y-maxima (z: + -> -)
    down_states: list = []
    amps: list = []  # |y| at downward crossings
    up_abs: list = []  # |y| at upward crossings (the minima)
    t_now = 0.0
    converged = False
    steps: list = []  # accepted watch steps (t, y, z) since the penultimate maximum

    while len(amps) < cfg.max_cycles:
        chunk = max(25.0, 3.0 * period_est)
        sol = _solve(
            fun, (t_now, t_now + chunk), state, cfg, events=[up, down], dense_output=False
        )
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
            converged = True
            break
        if not (len(t_up) or len(t_dn)) and t_now > t_trans + 100 * max(
            period_est, 1.0
        ):
            raise ConvergenceError(
                f"no section crossings found for {spec.kind} eps={spec.epsilon}"
            )

    if not converged and strict:
        raise ConvergenceError(
            f"amplitude not settled after {len(amps)} cycles "
            f"(last delta {abs(amps[-1] - amps[-2]):.3e}, tol {cfg.cycle_tol:.1e})"
            if len(amps) >= 2
            else f"fewer than two section crossings for {spec.kind} eps={spec.epsilon}"
        )
    if len(down_t) < 2:
        raise ConvergenceError(
            f"could not isolate a full cycle for {spec.kind} eps={spec.epsilon}"
        )

    # one anchored period from the penultimate maximum, re-sampled evenly in
    # arclength: the watch steps between the last two maxima give the chord
    # length as a function of time, inverted by linear interpolation
    period = down_t[-1] - down_t[-2]
    anchor = down_states[-2]
    path = np.hstack(steps)
    inside = (path[0] > down_t[-2]) & (path[0] < down_t[-1])
    times = np.concatenate([[0.0], path[0, inside] - down_t[-2], [period]])
    points = np.vstack([anchor, path[1:, inside].T, down_states[-1]])
    length = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(points, axis=0).T))])
    t_eval = np.interp(np.linspace(0.0, length[-1], cfg.n_samples), length, times)
    sol = _solve(fun, (0.0, period), anchor, cfg, t_eval=t_eval)
    y, z = sol.y
    state_gap = float(np.max(np.abs(sol.y[:, -1] - anchor)))

    amplitude = max(float(np.max(np.abs(y))), amps[-1], up_abs[-1] if up_abs else 0.0)
    return CycleRecord(
        kind=spec.kind,
        epsilon=spec.epsilon,
        amplitude=amplitude,
        period=period,
        t=sol.t,
        y=y,
        z=z,
        converged=converged,
        cycles_used=len(amps),
        history=tuple(amps),
        state_gap=state_gap,
    )


def _sweep_point(args) -> Tuple[int, float, str]:
    index, kind, eps, config = args
    try:
        record = limit_cycle(OscillatorSpec(kind, eps), config)
        return index, record.amplitude, ""
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

    ``jobs > 1`` distributes grid points over worker processes (named
    oscillator kinds only — custom callables do not cross process
    boundaries).  Output ordering matches ``eps_values`` regardless of
    worker scheduling.
    """
    cfg = config or IntegratorConfig()
    if kind == LIENARD:
        raise DomainError("sweeps are defined for the named oscillator kinds")
    eps_arr = np.asarray(list(eps_values), dtype=float)
    tasks = [(i, kind, float(e), cfg) for i, e in enumerate(eps_arr)]
    results: list = [None] * len(tasks)
    if jobs > 1 and len(tasks) > 1:
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
