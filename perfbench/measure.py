"""How a run is measured: the closed loop, the machine-speed gauge, the tail
percentile rule and the ledger of checked operations.

:func:`closed_loop` drives a workload over whole blocks of iterations while
:class:`SpeedGauge` probes the machine's speed.  Every workload operation
runs through :class:`Ledger`: it is timed, an exception it raises is
recorded as a failure instead of ending the run, and the checks made
afterwards (outside the timed region) attach their verdicts to the same
operation.  A failed operation is *known* when every failed
check matches one of the documented defects in :data:`KNOWN_DEFECTS`; any
other failure makes the run incorrect.
"""

from __future__ import annotations

import re
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from scipy.integrate import solve_ivp


METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Median seconds of one :func:`probe` on the machine the bounds were set on
#: (2 vCPUs at 2.1 GHz, Python 3.11, numpy 2.4, scipy 1.17).
PROBE_REF_S = 0.005
#: Seconds between two probes while a workload runs.
PROBE_INTERVAL_S = 0.25


def _harmonic(t, state):
    return [state[1], -state[0]]


def probe() -> float:
    """Seconds of a fixed small scipy integration: the machine's speed now.

    The integration never touches the package but runs the same kind of
    code (``solve_ivp`` stepping small numpy arrays from Python), so on a
    shared host whose speed drifts by up to 2x over tens of seconds it
    slows down with the workload; a timing multiplied by
    ``PROBE_REF_S / probe``, with probes taken while it ran, does not.  A
    pure-Python loop was tried first and missed most of the drift.
    """
    start = time.perf_counter()
    solve_ivp(_harmonic, (0.0, 4.0), [1.0, 0.0], rtol=1e-9, atol=1e-11)
    return time.perf_counter() - start


class SpeedGauge:
    """Probes the machine every ``PROBE_INTERVAL_S`` from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, so the probe
    measures the core the workload runs on, during the workload (about 2%
    of its time).  A probe on the other core, or only between iterations,
    tracks the workload's slowdowns much worse.
    """

    def __init__(self) -> None:
        self.samples: List[tuple] = []  # (start, seconds)

    def _sample(self, signum, frame) -> None:
        self.samples.append((time.perf_counter(), probe()))

    def __enter__(self) -> "SpeedGauge":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start: float, end: float) -> float:
        """Reference speed over [start, end]: ``PROBE_REF_S`` / median probe.

        A window too short to hold a probe takes the two nearest ones.
        """
        inside = [d for t, d in self.samples if start <= t <= end]
        if not inside:
            mid = 0.5 * (start + end)
            inside = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:2]]
        return PROBE_REF_S / statistics.median(inside) if inside else 1.0


#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def tail(samples: List[float], beyond: int = TAIL_BEYOND):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value, n)``.  The order statistic at 0-based rank
    ``n - 1 - beyond`` has exactly ``beyond`` samples after it; its
    percentile is the share of samples at or below it.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"a tail needs more than {beyond} samples, got {n}")
    rank = n - 1 - beyond
    return 100.0 * (rank + 1) / n, float(sorted(samples)[rank]), n


@dataclass
class Op:
    """One attempted operation and the verdicts of its checks."""

    name: str
    context: Dict[str, Any]
    seconds: float = 0.0
    result: Any = None
    failures: List[tuple] = field(default_factory=list)  # (check, detail)

    def expect(self, ok: bool, check: str, detail: str) -> bool:
        if not ok:
            self.failures.append((check, detail))
        return ok

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    def describe(self) -> str:
        where = " ".join(f"{k}={v}" for k, v in self.context.items())
        checks = "; ".join(f"{c}: {d}" for c, d in self.failures)
        return f"{self.name} [{where}] {checks}"


def _ham_past_breakpoint(op: Op, check: str) -> bool:
    # The 1% bound of the tuned expansion is missed on a narrow window just
    # past the eps = 4 row of the control table (1.011% at 4.01, 0.999% at
    # 4.035).
    return op.name == "bound.ham" and check == "bound" and 4.0 < op.context["eps"] < 4.04


def _vdp_fit_bound(op: Op, check: str) -> bool:
    # fit_cycle(tol=0.1) scores a max distance above tol on van der Pol
    # shaped cycles from eps ~ 15 up.
    return op.name == "fit_score" and check == "max_dist" and op.context["form"] == "vanderpol"


KNOWN_DEFECTS: Dict[str, Callable[[Op, str], bool]] = {
    "ham-bound-past-breakpoint": _ham_past_breakpoint,
    "vdp-fit-bound": _vdp_fit_bound,
}


def known_defect(op: Op) -> Optional[str]:
    """The documented defect every failed check of ``op`` matches, if any."""
    for name, matches in KNOWN_DEFECTS.items():
        if op.failures and all(matches(op, check) for check, _ in op.failures):
            return name
    return None


def closed_loop(workload, inputs, run, seconds: float, min_iterations: int, tracer=None) -> list:
    """Closed loop over whole blocks of ``workload.block`` iterations.

    Stops at the block boundary nearest to ``seconds`` once
    ``min_iterations`` are done, so a run measures complete stratified
    blocks for about the time asked.  ``run.samples["speed"]`` gets the
    machine's speed during each iteration (see :class:`SpeedGauge`).
    """
    used = []
    start = time.perf_counter()
    with SpeedGauge() as gauge:
        while True:
            blocks = len(used) // workload.block
            if len(used) >= min_iterations and len(used) % workload.block == 0:
                elapsed = time.perf_counter() - start
                if elapsed + 0.5 * elapsed / max(blocks, 1) >= seconds:
                    break
            inp = next(inputs, None)
            if inp is None:
                break
            used.append(inp)
            t0 = time.perf_counter()
            if tracer is None:
                workload.iterate(inp, run)
            else:
                with tracer.span(f"bench.{workload.name}"):
                    workload.iterate(inp, run)
            t1 = time.perf_counter()
            run.samples["iteration"].append(t1 - t0)
            run.samples["speed"].append(gauge.speed(t0, t1))
    return used


def normalized(seconds: list, speed: list, count: list) -> float:
    """Seconds per item at the reference machine speed."""
    return sum(s * v for s, v in zip(seconds, speed)) / max(sum(count), 1)


class Ledger:
    """Attempted and failed operations of one run."""

    def __init__(self) -> None:
        self.ops: List[Op] = []

    def run(self, name: str, context: Dict[str, Any], fn: Callable[[], Any]) -> Op:
        """Time ``fn()``; an exception becomes a failure of this op."""
        op = Op(name, context)
        self.ops.append(op)
        start = time.perf_counter()
        try:
            op.result = fn()
        except Exception as exc:  # the run goes on; the op is counted as failed
            op.failures.append(("exception", f"{type(exc).__name__}: {exc}"))
        op.seconds = time.perf_counter() - start
        return op

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed_ops(self) -> List[Op]:
        return [op for op in self.ops if op.failed]

    @property
    def unexpected(self) -> List[Op]:
        return [op for op in self.failed_ops if known_defect(op) is None]
