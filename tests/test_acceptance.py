"""Acceptance gate: one test per published claim, at its stated tolerance.

Each test prints a single summary line (visible in verbose/failed output)
and asserts the claim exactly as stated.  Claims that recomputation shows to
be wrong are asserted anyway — a red here is a finding about the published
numbers, not about this package; the summary line carries the measured
truth.  Known state: all twelve criteria pass.

Criterion 2 reads the published "maximum roughly at 2.0235" as the peak
VALUE of the van der Pol amplitude, which the exact sweep reproduces
(2.0234 at eps = 3.30).  Read as a peak LOCATION it would contradict the
same source's two-branch fit, which tracks the exact amplitude to < 0.05%
(criterion 4) and peaks near eps = 3.2; so the test also checks that the
exact hump lies where the fit puts it.  The hump location, far from 2, is a
flagged finding in the README and in the report bundle's notes.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from limitcycles.claims import (
    ANCHORS,
    HAM_BOUND,
    RAYLEIGH_A1,
    RAYLEIGH_CONSTANT,
    VDP_FIT_BOUND,
    VDP_PEAK,
    VDP_PEAK_TOL,
)
from limitcycles.geometry import (
    continuity_report,
    curve_distance,
    domain_audit,
    fit_cycle,
    joint_gaps,
    load_bundled,
)
from limitcycles.ham import amplitude_ham, base_order, build_rk, expansion, solve_order
from limitcycles.integrator import IntegratorConfig, amplitude_sweep, integrate, limit_cycle
from limitcycles.irgm import (
    amplitude_flow,
    amplitude_irgm,
    calibrate_constant,
    consistency_report,
    get_preset,
    invert_h,
    vdp_fit,
)
from limitcycles.oscillators import OscillatorSpec
from limitcycles.rgflow import a_rg
from limitcycles.trigpoly import Poly2, TrigSeries

F = Fraction
JOBS = 4


def _sweep_rows(kind, grid, jobs=JOBS):
    curve = amplitude_sweep(kind, [float(e) for e in grid], jobs=jobs)
    assert np.isfinite(curve.amplitude).all(), f"failed points: {curve.errors}"
    return curve


def test_criterion_01_exact_amplitude_anchors():
    results = []
    for kind, eps, cited, tol in ANCHORS:
        start = time.perf_counter()
        cycle = limit_cycle(OscillatorSpec(kind, eps), IntegratorConfig())
        elapsed = time.perf_counter() - start
        results.append((kind, eps, cycle.amplitude, cited, tol, elapsed))
    print(
        "criterion 1: "
        + "; ".join(f"{k} a({e:g})={a:.5f} [{c}+-{t}] {s:.2f}s" for k, e, a, c, t, s in results)
    )
    for kind, eps, amplitude, cited, tol, elapsed in results:
        assert amplitude == pytest.approx(cited, abs=tol), (kind, eps)
        assert elapsed < 5.0, (kind, eps, elapsed)


def test_criterion_02_vdp_amplitude_maximum_location():
    grid = [round(0.5 + 0.05 * i, 10) for i in range(71)]
    start = time.perf_counter()
    curve = _sweep_rows("vanderpol", grid)
    elapsed = time.perf_counter() - start
    idx = int(np.argmax(curve.amplitude))
    peak_eps = float(curve.eps[idx])
    peak_amp = float(curve.amplitude[idx])
    fit_peak_eps = max(grid, key=vdp_fit)
    print(
        f"criterion 2: exact sweep peaks at eps={peak_eps:g} (amplitude "
        f"{peak_amp:.6f}) in {elapsed:.1f}s; the two-branch fit peaks at "
        f"eps={fit_peak_eps:g} on the same grid. The peak VALUE matches the "
        f"published {VDP_PEAK:g}; the peak LOCATION is far from 2."
    )
    assert elapsed < 120.0
    # one unit in the last published digit
    assert peak_amp == pytest.approx(VDP_PEAK, abs=VDP_PEAK_TOL)
    assert 0 < idx < len(curve.eps) - 1, (
        f"argmax at the grid end eps={peak_eps:g}: no interior hump"
    )
    # the hump is flat (3.2 to 3.35 agree within ~1e-5), so the location is
    # checked against the fit's hump only to a few grid steps
    assert abs(peak_eps - fit_peak_eps) <= 0.15, (peak_eps, fit_peak_eps)


def test_criterion_03_tuned_expansion_under_one_percent():
    grid = [0.5] + list(range(1, 51))
    start = time.perf_counter()
    curve = _sweep_rows("rayleigh", grid)
    rel = np.array(
        [
            abs(amplitude_ham(float(e)) - a) / a * 100.0
            for e, a in zip(curve.eps, curve.amplitude)
        ]
    )
    elapsed = time.perf_counter() - start
    worst = float(rel.max())
    at = float(curve.eps[int(rel.argmax())])
    print(
        f"criterion 3: worst tuned-expansion error {worst:.4f}% at eps={at:g} "
        f"over 51 points in {elapsed:.1f}s (claim: < {HAM_BOUND:g}%)"
    )
    assert elapsed < 300.0
    assert worst < HAM_BOUND


def test_criterion_04_vdp_fit_under_five_hundredths_percent():
    grid = [0.1, 0.5] + list(range(1, 51))
    start = time.perf_counter()
    curve = _sweep_rows("vanderpol", grid)
    rel = np.array(
        [
            abs(vdp_fit(float(e)) - a) / a * 100.0
            for e, a in zip(curve.eps, curve.amplitude)
        ]
    )
    elapsed = time.perf_counter() - start
    worst = float(rel.max())
    at = float(curve.eps[int(rel.argmax())])
    print(
        f"criterion 4: worst two-branch-fit error {worst:.5f}% at "
        f"eps={at:g} in {elapsed:.1f}s (claim: < {VDP_FIT_BOUND:g}%)"
    )
    assert worst < VDP_FIT_BOUND


def test_criterion_05_flow_balance_fails_at_moderate_eps():
    cycle = limit_cycle(OscillatorSpec.rayleigh(5.0), IntegratorConfig())
    approx = a_rg(5.0)
    rel = abs(approx - cycle.amplitude) / cycle.amplitude
    print(
        f"criterion 5: flow balance a(5)={approx:.4f} vs exact "
        f"{cycle.amplitude:.4f} -> {rel * 100:.1f}% error (claim: > 20%)"
    )
    assert rel > 0.20


def test_criterion_06_symbolic_chain_exact():
    orders = expansion(2)
    r1 = build_rk(1, {0: base_order()})
    r2 = build_rk(2, {0: orders[0], 1: orders[1]})

    assert r1 == TrigSeries(sin={3: Poly2.term((1, 3), 0, 1)})
    assert orders[1].u == TrigSeries(
        sin={3: Poly2.term((-1, 24), 1, 1), 1: Poly2.term((1, 8), 1, 1)}
    )
    assert orders[1].omega == Poly2.term((-1, 16), 1, 2)
    assert orders[1].amp == Poly2.term((1, 8), 1, 2)
    assert r2 == TrigSeries(
        cos={3: Poly2.term((1, 8), 1, 2)},
        sin={3: Poly2({(1, 1): F(1, 3), (1, 3): F(-1, 48)})},
    )
    assert orders[2].u == TrigSeries(
        cos={3: Poly2.term((-1, 64), 2, 2), 1: Poly2.term((1, 64), 2, 2)},
        sin={
            3: Poly2({(1, 1): F(-1, 24), (2, 1): F(-1, 24), (2, 3): F(1, 384)}),
            1: Poly2({(1, 1): F(1, 8), (2, 1): F(1, 8), (2, 3): F(-1, 128)}),
        },
    )
    print(
        "criterion 6: first- and second-order forcings, solutions, frequency "
        "and amplitude corrections all match the printed rationals exactly"
    )


def test_criterion_07_calibration_constants():
    _, eps_ref, a_ref, _ = RAYLEIGH_A1
    constant = calibrate_constant(a_ref, eps_ref)
    report = consistency_report()
    vdp_paper = get_preset("vdp-paper")
    print(
        f"criterion 7: recomputed constant {constant:.6f} "
        f"(published {RAYLEIGH_CONSTANT}, "
        f"gap {abs(constant - RAYLEIGH_CONSTANT):.2e}); "
        f"vdp-paper gap {vdp_paper.consistency_gap():.5f} flagged "
        f"inconsistent={not vdp_paper.is_consistent()}"
    )
    assert constant == pytest.approx(0.8796, abs=0.0005)
    assert abs(constant - RAYLEIGH_CONSTANT) <= 2e-4
    assert not vdp_paper.is_consistent()
    assert sum("INCONSISTENT" in line for line in report) == 1
    assert any("vdp-paper" in line and "INCONSISTENT" in line for line in report)


def test_criterion_08_round_trip_identity():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    count = 0
    while count < 1000:
        eps = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        if abs(math.log(eps)) < 0.05:
            continue  # the inversion is singular where the time scale is 1
        h = float(rng.uniform(0.1, 2.5))
        scaled = eps**h
        if not 1e-3 <= scaled <= 5.0:
            continue  # stay clear of under/overflow in the closed form
        constant = float(rng.uniform(0.05, 4.0))
        amplitude = amplitude_irgm(eps, h, constant)
        recovered = invert_h(amplitude, eps, constant)
        worst = max(worst, abs(recovered - h))
        count += 1
    print(f"criterion 8: worst |h - invert(amplitude(h))| = {worst:.3e} over 1000 triples")
    assert worst <= 1e-10


def test_criterion_09_published_table_audit():
    rayleigh = load_bundled("rayleigh_eps5")
    vdp = load_bundled("vdp_eps5")

    vdp_gaps = joint_gaps(vdp)
    numeric = [j.gap for j in vdp_gaps if j.gap is not None]
    assert max(numeric) < 0.1
    # the final joint cannot be scored: its right piece is nowhere real
    flagged = [j for j in vdp_gaps if j.gap is None]
    assert len(flagged) == 1
    assert flagged[0].joint_y == 2.033
    assert flagged[0].defect == "right side non-real"
    vdp_audits = {a.index: a for a in domain_audit(vdp)}
    assert vdp_audits[8].status == "non-real"

    ray_gaps = joint_gaps(rayleigh)
    assert all(j.gap is not None for j in ray_gaps)
    assert max(j.gap for j in ray_gaps) < 0.1
    # the first joint's defect is piece 1's domain: real only on a sliver,
    # exactly [-4.4, -4.393] as the arc parameters predict
    first = continuity_report(rayleigh, 0.05)[0]
    assert first.joint_y == -4.393
    audit = {a.index: a for a in domain_audit(rayleigh)}[1]
    assert audit.status == "partially-real"
    assert audit.real_part[0] == pytest.approx(-4.4, abs=1e-9)
    assert audit.real_part[1] == pytest.approx(-4.393, abs=1e-12)
    print(
        f"criterion 9: vdp numeric gaps max {max(numeric):.4f} (<0.1), final "
        f"joint flagged non-real; rayleigh gaps max "
        f"{max(j.gap for j in ray_gaps):.4f} (<0.1), piece 1 real only on "
        f"[{audit.real_part[0]:.4g}, {audit.real_part[1]:.4g}]"
    )


def test_criterion_10_flow_solution_solves_flow_equation():
    taus = np.linspace(0.05, 8.0, 100)
    delta = 1e-6
    worst = 0.0
    for a0 in (0.5, 2.0, 3.0):
        for tau in taus:
            a = amplitude_flow(float(tau), a0)
            derivative = (
                amplitude_flow(float(tau) + delta, a0)
                - amplitude_flow(float(tau) - delta, a0)
            ) / (2 * delta)
            rate = 0.5 * a * (1.0 - a * a / 4.0)
            worst = max(worst, abs(derivative - rate))
    print(
        f"criterion 10: max |d a/d tau - rate| = {worst:.3e} over 100-point "
        f"grid, starts {{0.5, 2, 3}} (bound 1e-6)"
    )
    assert worst <= 1e-6


def test_criterion_11_integrator_order_at_least_four():
    spec = OscillatorSpec.lienard(1.0, lambda y, z: 0.0, lambda y: y)
    period = 2 * math.pi
    steps = []
    errors = []
    for rtol in (1e-5, 1e-7, 1e-9):
        config = IntegratorConfig(rel_tol=rtol, abs_tol=rtol * 1e-3)
        trajectory = integrate(spec, period, seed=(2.0, 0.0), config=config)
        errors.append(float(np.max(np.abs(trajectory.y - 2.0 * np.cos(trajectory.t)))))
        steps.append(period / (len(trajectory.t) - 1))
    slope = float(np.polyfit(np.log(steps), np.log(errors), 1)[0])
    print(
        f"criterion 11: observed convergence order {slope:.2f} over three "
        f"tolerance decades (required >= 4)"
    )
    assert slope >= 4.0


def test_criterion_12_cycle_fits_within_budget():
    tol = 0.1
    results = []
    for kind in ("rayleigh", "vanderpol"):
        spec = (
            OscillatorSpec.rayleigh(5.0)
            if kind == "rayleigh"
            else OscillatorSpec.van_der_pol(5.0)
        )
        cycle = limit_cycle(spec, IntegratorConfig(n_samples=2000))
        fitted = fit_cycle(cycle, tol=tol)
        report = curve_distance(fitted, cycle)
        results.append((kind, len(fitted.pieces), report.max_dist))
    print(
        "criterion 12: "
        + "; ".join(f"{k}: {n} pieces, max distance {d:.4f}" for k, n, d in results)
    )
    for kind, n_pieces, max_dist in results:
        assert n_pieces <= 20, kind
        assert max_dist <= 2 * tol, kind
