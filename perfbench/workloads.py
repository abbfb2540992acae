"""The three workloads: seeded inputs, one iteration each, and their figures.

Each workload is a closed loop with one client: the next iteration starts
when the previous one has returned, in this process, with ``jobs=1``.

* ``report`` runs ``limitcycles.cli.main(["report", ...])`` once per
  iteration.  Its input is fixed; the seed only labels the run.
* ``sweep`` runs ``amplitude_sweep`` for both named systems on stratified
  log-uniform draws of ``eps`` plus the fixed point ``eps = 4.01``.
* ``cycle`` is the interactive path: one ``limit_cycle`` with 2000 samples,
  ``fit_cycle`` + ``curve_distance``, a curve-file round trip, a batch of
  closed forms and one cold ``expansion(2)``.

Library functions are always looked up on their module at call time, so the
wrappers of :mod:`tracing` see the benchmark's calls.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import limitcycles.cli
import limitcycles.geometry as geometry
import limitcycles.ham as ham
import limitcycles.integrator as integrator
import limitcycles.irgm as irgm
import limitcycles.rgflow as rgflow
from limitcycles.oscillators import OscillatorSpec
from limitcycles.trigpoly import Poly2

from measure import Ledger, tail

EPS_LO, EPS_HI = 0.5, 50.0
SWEEP_FIXED_EPS = 4.01  # just past the eps = 4 row of the control table
SWEEP_STRATA = 8
CYCLE_STRATA = 4  # coarse strata of log-eps in one block of cycle iterations
CYCLE_SAMPLES = 2000
CLOSED_FORM_BATCH = 256
FIT_TOL = 0.1
HAM_BOUND_PCT = 1.0
VDP_FIT_BOUND_PCT = 0.05
REFERENCE_TOL = 1e-8
SYSTEMS = ("rayleigh", "vanderpol")
CYCLE_SYSTEMS = ("rayleigh", "vanderpol", "lienard")

RAYLEIGH_PRESET = irgm.get_preset("rayleigh").constant


def log_uniform(u: float) -> float:
    """The point at quantile ``u`` of the log-uniform law on [EPS_LO, EPS_HI]."""
    return EPS_LO * (EPS_HI / EPS_LO) ** u


def _vdp_damping(y: float, z: float) -> float:
    return z * (y * y - 1.0)


def _linear_restoring(y: float) -> float:
    return y


def make_spec(system: str, eps: float) -> OscillatorSpec:
    """Named kinds directly; ``lienard`` is van der Pol written as callables."""
    if system == "lienard":
        return OscillatorSpec.lienard(eps, _vdp_damping, _linear_restoring)
    return OscillatorSpec(system, eps)


def shape_of(system: str) -> str:
    """The named system whose cycle ``system`` traces."""
    return "vanderpol" if system == "lienard" else system


def reference_key(system: str, eps: float) -> str:
    return f"{system}@{eps!r}"


@dataclass
class Run:
    """State of one measured pass: ledger, samples, counts and scratch space.

    Every iteration appends one entry to each of ``samples["request_s"]``,
    ``["requests"]``, ``["amplitude_s"]`` and ``["amplitudes"]``: seconds in
    the workload's requests and how many, seconds in the calls that yield
    exact amplitudes and how many amplitudes they yielded.
    """

    ledger: Ledger
    tmp: Path
    reference: Dict[str, float]
    samples: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    counts: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    first_bundle: Optional[Dict[str, str]] = None  # file -> sha256


def record(run: Run, request_s: float, requests: int, amplitude_s: float, amplitudes: int) -> None:
    for key, value in (("request_s", request_s), ("requests", requests),
                       ("amplitude_s", amplitude_s), ("amplitudes", amplitudes)):
        run.samples[key].append(value)


def check_reference(run: Run, op, system: str, eps: float, amplitude: float) -> None:
    ref = run.reference.get(reference_key(system, eps))
    if ref is not None:
        run.counts["reference_checks"] += 1
        op.expect(
            abs(amplitude - ref) <= REFERENCE_TOL,
            "reference",
            f"amplitude {amplitude!r} vs reference {ref!r}",
        )


def check_bound(run: Run, system: str, eps: float, exact: float) -> None:
    """The paper's own bound at ``eps``: tuned expansion 1%, two-branch fit 0.05%."""
    if shape_of(system) == "rayleigh":
        name, limit, closed = "bound.ham", HAM_BOUND_PCT, lambda: ham.amplitude_ham(eps)
    else:
        name, limit, closed = "bound.vdp_fit", VDP_FIT_BOUND_PCT, lambda: irgm.vdp_fit(eps)
    op = run.ledger.run(name, {"system": system, "eps": eps}, closed)
    if not op.failed:
        err = abs(op.result - exact) / exact * 100.0
        op.expect(err < limit, "bound", f"error {err:.4f}% >= {limit}%")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _quiet_main(argv: List[str]) -> Tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = limitcycles.cli.main(argv)
    return code, out.getvalue()


def _digests(root: Path) -> Dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
        if p.is_file()
    }


def report_amplitudes(bundle: Path) -> Dict[str, float]:
    """Every exact amplitude a bundle states, keyed like the reference table."""
    out = {}
    for row in json.loads((bundle / "anchors.json").read_text(encoding="utf-8")):
        out[reference_key(row["system"], float(row["eps"]))] = float(row["amplitude"])
    for system, name in (("rayleigh", "rayleigh_comparison.csv"), ("vanderpol", "vdp_comparison.csv")):
        with open(bundle / name, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                if row["a_exact"]:
                    key = reference_key(system, float(row["eps"])) + ".csv"
                    out[key] = float(row["a_exact"])
    return out


def _csv_column(path: Path, column: str) -> List[Tuple[float, float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [(float(r["eps"]), float(r[column])) for r in csv.DictReader(fh) if r[column]]


class Report:
    name = "report"
    block = 1
    min_iterations = 2  # two bundles per run, compared byte for byte

    def inputs(self, rng) -> Iterator[dict]:
        while True:
            yield {}

    def iterate(self, inp: dict, run: Run) -> None:
        index = int(run.counts["bundles"])
        run.counts["bundles"] += 1
        bundle = run.tmp / f"bundle{index}"
        argv = ["report", "--output-dir", str(bundle)]
        op = run.ledger.run("report.bundle", {"bundle": index}, lambda: _quiet_main(argv))
        run.samples["report"].append(op.seconds)
        code, text = (1, "") if op.failed else op.result
        if op.failed or not op.expect(code == 0, "exit_code", f"exit {code}: {text[-300:]}"):
            record(run, op.seconds, 1, op.seconds, 0)
            return
        anchors = json.loads((bundle / "anchors.json").read_text(encoding="utf-8"))
        for row in anchors:
            op.expect(row["status"] == "ok", "anchors", f"{row['system']} eps={row['eps']}: {row['status']}")
        amplitudes = report_amplitudes(bundle)
        for key, amplitude in amplitudes.items():
            ref = run.reference.get(key)
            run.counts["reference_checks"] += ref is not None
            op.expect(ref is not None, "reference", f"{key} missing from the reference table")
            if ref is not None:
                op.expect(abs(amplitude - ref) <= REFERENCE_TOL, "reference", f"{key}: {amplitude!r} vs {ref!r}")
        for eps, err in _csv_column(bundle / "rayleigh_comparison.csv", "rel_err_ham"):
            op.expect(err < HAM_BOUND_PCT, "bound", f"rayleigh eps={eps:g}: ham error {err:.4f}%")
        for eps, err in _csv_column(bundle / "vdp_comparison.csv", "rel_err_irgm"):
            op.expect(err < VDP_FIT_BOUND_PCT, "bound", f"vanderpol eps={eps:g}: fit error {err:.4f}%")
        digests = _digests(bundle)
        first = run.first_bundle
        if first is None:
            run.first_bundle = digests
        else:
            differ = sorted(k for k in set(first) | set(digests) if first.get(k) != digests.get(k))
            op.expect(not differ, "identical", f"differs from the first bundle in {differ}")
        record(run, op.seconds, 1, op.seconds, len(amplitudes))
        run.counts["artifact_bytes"] = sum(p.stat().st_size for p in bundle.iterdir())
        shutil.rmtree(bundle)

    def summary(self, run: Run):
        seconds = run.samples["report"]
        return [("report_s", statistics.median(seconds), "s", f"median of {len(seconds)} bundles")]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


class Sweep:
    name = "sweep"
    block = 1
    min_iterations = 1

    def inputs(self, rng) -> Iterator[dict]:
        """One draw per stratum of log-eps; the van der Pol draw mirrors the
        Rayleigh one inside its stratum, so an iteration's cost hardly
        depends on the seed while every point is log-uniform."""
        k = SWEEP_STRATA
        while True:
            us = [rng.random() for _ in range(k)]
            yield {
                "rayleigh": [log_uniform((j + u) / k) for j, u in enumerate(us)] + [SWEEP_FIXED_EPS],
                "vanderpol": [log_uniform((j + 1 - u) / k) for j, u in enumerate(us)]
                + [SWEEP_FIXED_EPS],
            }

    def iterate(self, inp: dict, run: Run) -> None:
        seconds, points = 0.0, 0
        for system in SYSTEMS:
            grid = inp[system]
            op = run.ledger.run(
                "amplitude_sweep",
                {"system": system, "points": len(grid)},
                lambda: integrator.amplitude_sweep(system, grid),
            )
            seconds += op.seconds
            points += len(grid)
            if op.failed:
                continue
            curve = op.result
            for eps, amplitude, error in zip(curve.eps, curve.amplitude, curve.errors):
                eps = float(eps)
                point = run.ledger.run("sweep.point", {"system": system, "eps": eps}, lambda: None)
                if point.expect(not error and math.isfinite(amplitude), "converged", error or "NaN"):
                    check_reference(run, point, system, eps, float(amplitude))
                    check_bound(run, system, eps, float(amplitude))
        record(run, seconds, len(SYSTEMS), seconds, points)

    def summary(self, run: Run):
        points, total = sum(run.samples["amplitudes"]), sum(run.samples["amplitude_s"])
        return [
            ("sweep_points_per_s", points / total, "1/s",
             f"{points} points in {sum(run.samples['requests'])} sweeps of {SWEEP_STRATA + 1}"),
        ]


# ---------------------------------------------------------------------------
# cycle
# ---------------------------------------------------------------------------


def _fit_and_score(cycle):
    fit = geometry.fit_cycle(cycle, tol=FIT_TOL)
    return fit, geometry.curve_distance(fit, cycle)


def _round_trip(curve, path: Path):
    geometry.write_curve(curve, path)
    return geometry.read_curve(path)


# name -> (function of eps, sane range of its values)
CLOSED_FORMS = {
    "amplitude_ham": (lambda e: ham.amplitude_ham(e), (2.0, 40.0)),
    "vdp_fit": (lambda e: irgm.vdp_fit(e), (2.0, 2.03)),
    "amplitude_irgm": (lambda e: irgm.amplitude_irgm(e, 1.0, RAYLEIGH_PRESET), (2.0, 3.0)),
    "a_rg": (lambda e: rgflow.a_rg(e), (2.0, 4.0)),
}

EXPECTED_AMP1 = Poly2.term(Fraction(1, 8), 1, 2)  # first-order amplitude h*eps^2/8


class Cycle:
    name = "cycle"
    block = len(CYCLE_SYSTEMS) * CYCLE_STRATA  # runs end on a block boundary
    min_iterations = block  # also leaves the tail ten samples beyond it

    def inputs(self, rng) -> Iterator[dict]:
        """Blocks of ``3 * CYCLE_STRATA`` iterations in shuffled order.

        Each coarse stratum of log-eps is cut into one fine stratum per
        system and the systems are dealt to the fine strata at random.  In
        each coarse stratum one fine stratum, chosen at random, is sampled
        at its midpoint and the other two at mirrored positions ``u`` and
        ``1 - u``: every block covers the whole range once per system, and
        its cost hardly depends on the seed."""
        n = len(CYCLE_SYSTEMS)
        while True:
            block = []
            for coarse in range(CYCLE_STRATA):
                systems = list(CYCLE_SYSTEMS)
                rng.shuffle(systems)
                u = rng.random()
                positions = [u, 1.0 - u]
                positions.insert(rng.randrange(n), 0.5)
                for fine, (system, pos) in enumerate(zip(systems, positions)):
                    q = (coarse * n + fine + pos) / (CYCLE_STRATA * n)
                    block.append({"system": system, "eps": log_uniform(q)})
            rng.shuffle(block)
            for inp in block:
                inp["batch"] = [log_uniform(rng.random()) for _ in range(CLOSED_FORM_BATCH)]
                yield inp

    def iterate(self, inp: dict, run: Run) -> None:
        system, eps = inp["system"], inp["eps"]
        spec = make_spec(system, eps)
        context = {"system": system, "form": shape_of(system), "eps": eps}
        config = integrator.IntegratorConfig(n_samples=CYCLE_SAMPLES)
        op = run.ledger.run("limit_cycle", context, lambda: integrator.limit_cycle(spec, config))
        run.samples["cycle"].append(op.seconds)
        request_s = op.seconds
        if not op.failed:
            cycle = op.result
            if op.expect(cycle.converged, "converged", "not converged"):
                check_reference(run, op, system, eps, cycle.amplitude)
                check_bound(run, system, eps, cycle.amplitude)
            request_s += self._geometry(cycle, context, run)
        request_s += self._closed_forms(inp["batch"], run)
        exp = run.ledger.run("expansion", {"order": 2}, lambda: ham.expansion(2))
        request_s += exp.seconds
        if not exp.failed:
            exp.expect(exp.result[1].amp == EXPECTED_AMP1, "exact", f"amp_1 = {exp.result[1].amp!r}")
        record(run, request_s, 1, op.seconds, 1)

    def _geometry(self, cycle, context: dict, run: Run) -> float:
        """Fit, score and round-trip the cycle; returns the seconds spent."""
        fs = run.ledger.run("fit_score", context, lambda: _fit_and_score(cycle))
        run.samples["fit_score"].append(fs.seconds)
        if fs.failed:
            return fs.seconds
        fit, score = fs.result
        fs.expect(score.max_dist <= FIT_TOL, "max_dist", f"{score.max_dist:.4g} > tol {FIT_TOL}")
        path = run.tmp / "fit.curve"
        rt = run.ledger.run("curve_io", context, lambda: _round_trip(fit, path))
        if not rt.failed:
            rt.expect(rt.result == fit, "round_trip", "read_curve(write_curve(fit)) != fit")
        return fs.seconds + rt.seconds

    def _closed_forms(self, batch: List[float], run: Run) -> float:
        """Evaluate each closed form over the batch; returns the seconds spent."""
        spent = 0.0
        for name, (fn, (lo, hi)) in CLOSED_FORMS.items():
            op = run.ledger.run(f"closed.{name}", {"points": len(batch)}, lambda: [fn(e) for e in batch])
            spent += op.seconds
            run.counts["closed_evals"] += len(batch)
            if not op.failed:
                bad = [(e, v) for e, v in zip(batch, op.result) if not lo <= v < hi]
                op.expect(not bad, "range", f"{len(bad)} values outside [{lo}, {hi}), first {bad[:1]}")
        run.counts["closed_s"] += spent
        return spent

    def summary(self, run: Run):
        cycles = run.samples["cycle"]
        pct, tail_s, n = tail(cycles)
        return [
            ("cycle_p50_s", statistics.median(cycles), "s", f"n={n}"),
            ("cycle_tail_s", tail_s, "s", f"p{pct:.1f}, n={n}: the highest percentile with 10 samples beyond it"),
            ("fit_score_p50_s", statistics.median(run.samples["fit_score"]), "s", f"n={len(run.samples['fit_score'])}"),
            ("closed_form_evals_per_s", run.counts["closed_evals"] / run.counts["closed_s"], "1/s",
             f"{run.counts['closed_evals']:.0f} evaluations"),
        ]


WORKLOADS = {w.name: w for w in (Report(), Sweep(), Cycle())}
