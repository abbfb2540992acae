"""Tests of the benchmark itself (not of the package).

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import limitcycles.cli  # noqa: E402
import limitcycles.integrator as integrator  # noqa: E402
from limitcycles import ConvergenceError, IntegratorConfig, OscillatorSpec  # noqa: E402

from measure import METRIC_NAME, Ledger, Op, known_defect, tail  # noqa: E402
from tracing import LAYER_METRICS, Tracer, self_times  # noqa: E402
from workloads import EPS_HI, EPS_LO, SWEEP_FIXED_EPS, WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed(spec):
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert names and all(METRIC_NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert not METRIC_NAME.fullmatch("cycle p50")


def test_per_layer_list_matches_the_tracer(spec):
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert declared == LAYER_METRICS
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_setup_has_the_largest_bound(spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_tail_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    random.Random(3).shuffle(samples)
    pct, value, n = tail(samples)
    assert (pct, value, n) == (90.0, 89.0, 100)
    assert sum(s > value for s in samples) == 10

    pct, value, n = tail([5.0] + [1.0] * 10)
    assert n == 11 and value == 1.0 and pct == pytest.approx(100 / 11)

    with pytest.raises(ValueError):
        tail([1.0] * 10)


def test_injected_failure_is_counted_not_raised():
    ledger = Ledger()
    config = IntegratorConfig(max_cycles=2, cycle_tol=1e-15)
    op = ledger.run(
        "limit_cycle",
        {"system": "rayleigh", "form": "rayleigh", "eps": 1.0},
        lambda: integrator.limit_cycle(OscillatorSpec.rayleigh(1.0), config),
    )
    ok = ledger.run("noop", {}, lambda: 1)
    assert op.failed and op.failures[0][0] == "exception"
    assert ConvergenceError.__name__ in op.failures[0][1]
    assert not ok.failed and ok.result == 1
    assert ledger.attempted == 2
    assert ledger.failed_ops == [op]
    assert ledger.unexpected == [op]


def test_only_the_documented_defects_are_known():
    def failed(name, check, **context):
        op = Op(name, context)
        op.expect(False, check, "")
        return op

    assert known_defect(failed("bound.ham", "bound", eps=4.01)) == "ham-bound-past-breakpoint"
    assert known_defect(failed("bound.ham", "bound", eps=4.0)) is None
    assert known_defect(failed("bound.ham", "bound", eps=10.0)) is None
    assert known_defect(failed("fit_score", "max_dist", form="vanderpol")) == "vdp-fit-bound"
    assert known_defect(failed("fit_score", "max_dist", form="rayleigh")) is None
    assert known_defect(failed("fit_score", "exception", form="vanderpol")) is None
    assert known_defect(Op("fit_score", {"form": "vanderpol"})) is None


def test_self_time_subtracts_merged_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a: together they cover [1, 6]
        ("a.child", 2.0, 3.0, 1),
        ("late", 9.0, 12.0, 0),  # clipped to the root's end
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0]


def test_traced_self_times_sum_to_root_spans():
    tracer = Tracer()
    with tracer.patched():
        with tracer.span("bench.test"):
            integrator.limit_cycle(OscillatorSpec.van_der_pol(1.0))
    names = {s[0] for s in tracer.spans}
    assert {"integrator.limit_cycle", "integrator.solve_ivp.transient",
            "integrator.solve_ivp.watch", "integrator.solve_ivp.resample"} <= names
    root = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(self_times(tracer.spans)) == pytest.approx(root, rel=1e-9)
    values = tracer.layer_metrics(0.0, 0)
    assert list(values) == list(LAYER_METRICS)
    assert values["oscillators.rhs_calls"] == values["integrator.nfev"] > 0
    assert values["integrator.converged_ratio"] == 1.0
    # the originals are back
    assert not hasattr(integrator.limit_cycle, "__wrapped__")
    assert not hasattr(limitcycles.cli.limit_cycle, "__wrapped__")


def test_inputs_follow_the_seed():
    def draw(name, seed, n):
        it = WORKLOADS[name].inputs(random.Random(seed))
        return [next(it) for _ in range(n)]

    for name in ("sweep", "cycle"):
        assert draw(name, 7, 6) == draw(name, 7, 6)
        assert draw(name, 7, 6) != draw(name, 8, 6)
    for inp in draw("sweep", 5, 4):
        for grid in inp.values():
            assert grid[-1] == SWEEP_FIXED_EPS
            assert all(EPS_LO <= e <= EPS_HI for e in grid)
    block = WORKLOADS["cycle"].block
    cycles = draw("cycle", 5, block)
    systems = ["rayleigh", "vanderpol", "lienard"]
    assert sorted(c["system"] for c in cycles) == sorted(systems * (block // 3))
    assert all(EPS_LO <= c["eps"] <= EPS_HI and not math.isnan(c["eps"]) for c in cycles)
