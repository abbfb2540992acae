"""Limit-cycle extraction by adaptive Runge-Kutta integration.

The workhorse is :func:`scipy.integrate.solve_ivp` with the Dormand-Prince
embedded 4(5) pair (``method="RK45"``), dense local interpolants, and event
location.  Cycle structure comes from the Poincare section ``z = y' = 0``:
the extrema of ``y`` sit exactly on that section, so the event refinement
gives amplitude readings without any extra peak interpolation.

``solve_ivp`` drives every integration (events, ``t_eval``, ``nfev``), but
the RK45 steps themselves run in :class:`limitcycles._rk45._PlanarRK45`: the
same Dormand-Prince pair and controller, done in Python floats on the
``(y, z)`` pair.  On a two-element state, scipy's generic numpy stepping
costs several times the right-hand side; the float stepper takes the same
steps with the same evaluation count at about a third of the time.  Any
other ``method`` name goes to scipy as given.

Importing this module loads numpy alone: scipy's ``solve_ivp`` and the
stepper's module load at the first integration, the worker pool only when
``jobs > 1``.

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

import math
from dataclasses import dataclass
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


def solve_ivp(*args, **kwargs):
    """:func:`scipy.integrate.solve_ivp`, imported at the first call."""
    from scipy import integrate
    return integrate.solve_ivp(*args, **kwargs)


def _solve(fun, t_span, state, config: IntegratorConfig, **kw):
    from ._rk45 import _PlanarRK45
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
) -> Trajectory:
    """Integrate from ``seed`` over ``[0, t_final]``; the output holds the
    solver's own accepted steps."""
    cfg = config or IntegratorConfig()
    if t_final <= 0:
        raise DomainError("t_final must be positive")
    state = np.asarray(seed if seed is not None else cfg.seed, dtype=float)
    sol = _solve(spec.field_function(), (0.0, t_final), state, cfg)
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

    ``jobs`` is at least 1; ``jobs > 1`` distributes grid points over
    worker processes (named oscillator kinds only — custom callables do not
    cross process boundaries).  Output ordering matches ``eps_values``
    regardless of worker scheduling.
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
