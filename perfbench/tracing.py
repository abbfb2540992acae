"""Spans and counts taken from outside the library, at its public functions.

:class:`Tracer` replaces each traced function with a wrapper *where the name
is looked up*: ``limitcycles.integrator.limit_cycle`` and the copy that
``limitcycles.cli`` imported are both patched, so calls made inside the
library are seen as well as the benchmark's own.  Spans (name, start, end,
parent) stay in memory; :meth:`Tracer.layer_metrics` folds them into the
per-layer figures when the run ends.

Two boundaries are special.  ``OscillatorSpec.field_function`` is wrapped so
the right-hand side it returns counts its calls, and the ``solve_ivp`` that
``limitcycles.integrator`` looks up is wrapped so each solver call is
classified by its keyword arguments: ``events`` marks the watch phase of
``limit_cycle``, ``t_eval`` the resampling of one period, neither the
transient.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import limitcycles.cli
import limitcycles.geometry
import limitcycles.ham
import limitcycles.integrator
import limitcycles.irgm
import limitcycles.rgflow
import limitcycles.svgplot
from limitcycles.oscillators import OscillatorSpec

# span name -> modules whose attribute of that function name is patched
TRACED: Dict[str, Tuple[object, ...]] = {
    "integrator.limit_cycle": (limitcycles.integrator, limitcycles.cli),
    "integrator.amplitude_sweep": (limitcycles.integrator, limitcycles.cli),
    "geometry.fit_cycle": (limitcycles.geometry,),
    "geometry.curve_distance": (limitcycles.geometry,),
    "geometry.write_curve": (limitcycles.geometry,),
    "geometry.read_curve": (limitcycles.geometry,),
    "geometry.load_bundled": (limitcycles.geometry,),
    "geometry.domain_audit": (limitcycles.geometry,),
    "ham.expansion": (limitcycles.ham,),
    "trigpoly.solve_deformation": (limitcycles.ham,),
    "ham.amplitude_ham": (limitcycles.ham, limitcycles.cli),
    "irgm.vdp_fit": (limitcycles.irgm, limitcycles.cli),
    "irgm.amplitude_irgm": (limitcycles.irgm, limitcycles.cli),
    "irgm.consistency_report": (limitcycles.irgm, limitcycles.cli),
    "rgflow.a_rg": (limitcycles.rgflow, limitcycles.cli),
    "svgplot.save_plot": (limitcycles.svgplot, limitcycles.cli),
    "cli.build_comparison": (limitcycles.cli,),
    "cli.main": (limitcycles.cli,),
}

SOLVER_SPAN = "integrator.solve_ivp"
PHASES = ("transient", "watch", "resample")

# per-layer metric -> (unit, better); the order is the order of the output
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "oscillators.rhs_calls": ("count", "lower"),
    "integrator.limit_cycle_s": ("s", "lower"),
    "integrator.limit_cycle_calls": ("count", "higher"),
    "integrator.sweep_s": ("s", "lower"),
    "integrator.sweep_points": ("count", "higher"),
    "integrator.cycles_used": ("count", "lower"),
    "integrator.converged_ratio": ("ratio", "higher"),
    "integrator.nfev": ("count", "lower"),
    "integrator.solver_calls": ("count", "lower"),
    "integrator.us_per_fev": ("us", "lower"),
    "integrator.transient_s": ("s", "lower"),
    "integrator.watch_s": ("s", "lower"),
    "integrator.resample_s": ("s", "lower"),
    "integrator.transient_nfev_share": ("ratio", "lower"),
    "geometry.fit_cycle_s": ("s", "lower"),
    "geometry.curve_distance_s": ("s", "lower"),
    "geometry.fit_pieces": ("count", "lower"),
    "geometry.curve_io_s": ("s", "lower"),
    "geometry.domain_audit_s": ("s", "lower"),
    "ham.expansion_s": ("s", "lower"),
    "trigpoly.solve_deformation_s": ("s", "lower"),
    "ham.amplitude_ham_s": ("s", "lower"),
    "irgm.vdp_fit_s": ("s", "lower"),
    "irgm.amplitude_irgm_s": ("s", "lower"),
    "irgm.consistency_report_s": ("s", "lower"),
    "rgflow.a_rg_s": ("s", "lower"),
    "svgplot.save_plot_s": ("s", "lower"),
    "svgplot.bytes": ("B", "lower"),
    "cli.build_comparison_s": ("s", "lower"),
    "cli.report_self_s": ("s", "lower"),
    "cli.artifact_bytes": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def solver_phase(kwargs: dict) -> str:
    if kwargs.get("events"):
        return "watch"
    if kwargs.get("t_eval") is not None:
        return "resample"
    return "transient"


def self_times(spans: List[tuple]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    ``spans`` holds ``(name, start, end, parent)`` with ``parent`` an index
    into the list or ``-1``.  Overlapping children are merged first, and a
    child is clipped to its parent's interval.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """In-memory span recorder plus the counters kept at the same boundaries."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent]
        self.stack: List[int] = []
        self.counts: Dict[str, float] = {}

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after(self, name: str) -> Optional[Callable]:
        if name == "integrator.limit_cycle":

            def after(record, args, kwargs):
                self.add("cycles_used", record.cycles_used)
                self.add("converged", float(record.converged))

            return after
        if name == "integrator.amplitude_sweep":
            return lambda curve, args, kwargs: self.add("sweep_points", len(curve.eps))
        if name == "geometry.fit_cycle":
            return lambda curve, args, kwargs: self.add("fit_pieces", len(curve.pieces))
        if name == "svgplot.save_plot":
            return lambda _, args, kwargs: self.add("svg_bytes", os.path.getsize(args[0]))
        return None

    def _solver(self, solve_ivp: Callable) -> Callable:
        def traced_solve_ivp(*args, **kwargs):
            phase = solver_phase(kwargs)
            index = self.open(f"{SOLVER_SPAN}.{phase}")
            try:
                sol = solve_ivp(*args, **kwargs)
            finally:
                self.close(index)
            self.add(f"nfev.{phase}", sol.nfev)
            return sol

        return traced_solve_ivp

    def _field_function(self, original: Callable) -> Callable:
        tracer = self

        def field_function(spec):
            fun = original(spec)

            def counted(t, state):
                tracer.counts["rhs_calls"] += 1
                return fun(t, state)

            return counted

        return field_function

    @contextmanager
    def patched(self):
        """Install every wrapper; the originals come back on exit."""
        saved = []

        def patch(owner, attr, replacement):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

        self.counts.setdefault("rhs_calls", 0)
        try:
            for name, owners in TRACED.items():
                attr = name.split(".", 1)[1]
                original = getattr(owners[0], attr)
                wrapper = self._wrap(name, original, self._after(name))
                for owner in owners:
                    patch(owner, attr, wrapper)
            integ = limitcycles.integrator
            patch(integ, "solve_ivp", self._solver(integ.solve_ivp))
            patch(
                OscillatorSpec,
                "field_function",
                self._field_function(OscillatorSpec.field_function),
            )
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- figures --------------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[float, int]]:
        """Span name -> (total seconds, calls)."""
        out: Dict[str, Tuple[float, int]] = {}
        for name, start, end, _ in self.spans:
            seconds, calls = out.get(name, (0.0, 0))
            out[name] = (seconds + end - start, calls + 1)
        return out

    def self_total(self, name: str) -> float:
        return sum(
            s for s, span in zip(self_times(self.spans), self.spans) if span[0] == name
        )

    def layer_metrics(self, overhead_s: float, artifact_bytes: int) -> Dict[str, float]:
        totals = self.totals()
        counts = self.counts

        def seconds(*names: str) -> float:
            return sum(totals.get(n, (0.0, 0))[0] for n in names)

        phase_s = {p: seconds(f"{SOLVER_SPAN}.{p}") for p in PHASES}
        phase_nfev = {p: counts.get(f"nfev.{p}", 0.0) for p in PHASES}
        nfev = sum(phase_nfev.values())
        solver_s = sum(phase_s.values())
        cycles = totals.get("integrator.limit_cycle", (0.0, 0))[1]
        values = {
            "oscillators.rhs_calls": counts["rhs_calls"],
            "integrator.limit_cycle_s": seconds("integrator.limit_cycle"),
            "integrator.limit_cycle_calls": cycles,
            "integrator.sweep_s": seconds("integrator.amplitude_sweep"),
            "integrator.sweep_points": counts.get("sweep_points", 0),
            "integrator.cycles_used": counts.get("cycles_used", 0),
            "integrator.converged_ratio": counts.get("converged", 0) / cycles if cycles else 0.0,
            "integrator.nfev": nfev,
            "integrator.solver_calls": sum(
                totals.get(f"{SOLVER_SPAN}.{p}", (0.0, 0))[1] for p in PHASES
            ),
            "integrator.us_per_fev": 1e6 * solver_s / nfev if nfev else 0.0,
            "integrator.transient_s": phase_s["transient"],
            "integrator.watch_s": phase_s["watch"],
            "integrator.resample_s": phase_s["resample"],
            "integrator.transient_nfev_share": phase_nfev["transient"] / nfev if nfev else 0.0,
            "geometry.fit_cycle_s": seconds("geometry.fit_cycle"),
            "geometry.curve_distance_s": seconds("geometry.curve_distance"),
            "geometry.fit_pieces": counts.get("fit_pieces", 0),
            "geometry.curve_io_s": seconds(
                "geometry.write_curve", "geometry.read_curve", "geometry.load_bundled"
            ),
            "geometry.domain_audit_s": seconds("geometry.domain_audit"),
            "ham.expansion_s": seconds("ham.expansion"),
            "trigpoly.solve_deformation_s": seconds("trigpoly.solve_deformation"),
            "ham.amplitude_ham_s": seconds("ham.amplitude_ham"),
            "irgm.vdp_fit_s": seconds("irgm.vdp_fit"),
            "irgm.amplitude_irgm_s": seconds("irgm.amplitude_irgm"),
            "irgm.consistency_report_s": seconds("irgm.consistency_report"),
            "rgflow.a_rg_s": seconds("rgflow.a_rg"),
            "svgplot.save_plot_s": seconds("svgplot.save_plot"),
            "svgplot.bytes": counts.get("svg_bytes", 0),
            "cli.build_comparison_s": seconds("cli.build_comparison"),
            "cli.report_self_s": self.self_total("cli.main"),
            "cli.artifact_bytes": artifact_bytes,
            "trace.overhead_s": overhead_s,
        }
        return {k: float(v) for k, v in values.items()}

    def dump(self) -> List[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "self": t}
            for (n, s, e, p), t in zip(self.spans, self_times(self.spans))
        ]
