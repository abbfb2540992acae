"""Limit-cycle extraction: anchors, invariances, failure paths, CSV output."""

from __future__ import annotations

import csv
import math
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.integrate._ivp.dop853_coefficients import C as _C

import limitcycles.integrator as integrator
from limitcycles.cli import (
    ComparisonRow,
    build_comparison,
    write_comparison_csv,
)
from limitcycles.errors import ConvergenceError, DomainError
from limitcycles.integrator import (
    IntegratorConfig,
    amplitude_sweep,
    integrate,
    limit_cycle,
)
from limitcycles.integrator import _A, _D, _E3, _E5, _EPS, _rms, brentq
from limitcycles.oscillators import OscillatorSpec


def harmonic_spec() -> OscillatorSpec:
    """Plain y'' + y = 0 via the custom hook (zero damping)."""
    return OscillatorSpec.lienard(1.0, lambda y, z: 0.0, lambda y: y)


def test_config_validation():
    for bad in (
        dict(rel_tol=0.0),
        dict(abs_tol=-1e-9),
        dict(cycle_tol=0.0),
        dict(max_cycles=1),
        dict(n_samples=4),
        dict(transient_time=-1.0),
        dict(rel_tol=math.nan),
        dict(abs_tol=math.inf),
        dict(cycle_tol=math.nan),
        dict(max_cycles=math.nan),
        dict(n_samples=math.nan),
        # counts: a float one used to fail in np.linspace or a slice with a TypeError
        dict(n_samples=8.5),
        dict(n_samples=1e300),
        dict(max_cycles=2.5),
        dict(transient_time=math.nan),
        # from the origin the field stays zero, and every step would read a
        # section crossing at amplitude 0
        dict(seed=(0.0, 0.0)),
        dict(seed=(-0.0, 0.0)),
        dict(seed=(math.nan, 0.0)),
        dict(seed=(2.0, math.inf)),
    ):
        with pytest.raises(DomainError):
            IntegratorConfig(**bad)


def test_integrate_shapes_and_validation():
    spec = OscillatorSpec.rayleigh(1.0)
    traj = integrate(spec, 10.0)
    assert traj.t.shape == traj.y.shape == traj.z.shape
    assert traj.t[0] == 0.0 and traj.t[-1] == 10.0
    assert np.all(np.diff(traj.t) > 0)
    assert (traj.y[0], traj.z[0]) == (2.0, 0.0)
    with pytest.raises(DomainError):
        integrate(spec, 0.0)


@pytest.mark.parametrize("t_final", [math.nan, math.inf, -math.inf])
def test_integrate_refuses_a_non_finite_end_time(monkeypatch, t_final):
    # NaN passes a `<= 0` check, and a NaN span used to come back as the
    # seed alone; an infinite span would step forever
    def refuse(*args, **kw):
        raise AssertionError("integrator.solve_ivp was called")

    monkeypatch.setattr(integrator, "solve_ivp", refuse)
    with pytest.raises(DomainError, match="positive and finite"):
        integrate(OscillatorSpec.van_der_pol(1.0), t_final)


@pytest.mark.parametrize("seed", [(1.0, 2.0, 3.0), (math.nan, 0.0), (0.0, -math.inf),
                                  (1.0,)], ids=["triple", "nan", "infinite", "single"])
def test_integrate_refuses_a_seed_that_is_not_a_finite_pair(monkeypatch, seed):
    # a triple used to fail in unpacking, a NaN to shrink the step to the floor
    def refuse(*args, **kw):
        raise AssertionError("integrator.solve_ivp was called")

    monkeypatch.setattr(integrator, "solve_ivp", refuse)
    with pytest.raises(DomainError, match=r"finite \(y, z\) pair"):
        integrate(OscillatorSpec.van_der_pol(1.0), 1.0, seed=seed)


def test_integrate_from_the_origin_stays_there():
    # unlike a limit_cycle seed, the equilibrium is a well-defined trajectory
    traj = integrate(OscillatorSpec.van_der_pol(1.0), 5.0, seed=(0.0, 0.0))
    assert traj.t[-1] == 5.0 and not traj.y.any() and not traj.z.any()


def test_harmonic_oscillator_recovers_circle():
    # y(0)=2, z(0)=0 stays on the circle of radius 2 with period 2*pi;
    # every numeric claim here has the analytic solution as its oracle.
    cfg = IntegratorConfig(transient_time=0.0)
    rec = limit_cycle(harmonic_spec(), cfg)
    assert rec.amplitude == pytest.approx(2.0, abs=1e-8)
    assert rec.period == pytest.approx(2.0 * math.pi, abs=1e-8)
    radius = np.hypot(rec.y, rec.z)
    assert np.max(np.abs(radius - 2.0)) < 1e-7


def test_rayleigh_amplitude_anchor():
    rec = limit_cycle(OscillatorSpec.rayleigh(1.0))
    assert rec.converged
    assert rec.amplitude == pytest.approx(2.17271, abs=2e-3)


def test_van_der_pol_amplitude_anchor():
    rec = limit_cycle(OscillatorSpec.van_der_pol(1.0))
    assert rec.amplitude == pytest.approx(2.0086, abs=2e-3)


# -- small eps: the van der Pol series of Andersen & Geer (SIAM J. Appl. Math.
# 42, 1982), an oracle that owes nothing to this integrator.  Its next terms
# are about 1.83e-5 eps^6 in the amplitude and -3.06e-3 eps^6 in the period,
# so at the noise-floor config both remainders scale as eps^6.

NOISE_FLOOR = IntegratorConfig(
    cycle_tol=1e-10, transient_time=400.0, rel_tol=1e-12, abs_tol=1e-14
)


def _series_a4_t4(eps: float):
    a4 = 2.0 + eps**2 / 96.0 - 1033.0 * eps**4 / 552960.0
    t4 = 2.0 * math.pi * (1.0 + eps**2 / 16.0 - 5.0 * eps**4 / 3072.0)
    return a4, t4


@pytest.fixture(scope="module")
def small_eps_cycles():
    return {
        eps: limit_cycle(OscillatorSpec.van_der_pol(eps), NOISE_FLOOR)
        for eps in (0.05, 0.1, 0.2)
    }


def test_small_eps_amplitude_matches_series(small_eps_cycles):
    for eps in (0.05, 0.1):  # measured: 4.6e-12 and 1.6e-11
        a4, _ = _series_a4_t4(eps)
        assert abs(small_eps_cycles[eps].amplitude - a4) <= 1e-10, eps


def test_small_eps_remainders_scale_as_eps6(small_eps_cycles):
    for eps, cycle in small_eps_cycles.items():
        a4, t4 = _series_a4_t4(eps)
        # measured: -3.058e-3, -3.054e-3, -3.033e-3
        assert -3.2e-3 <= (cycle.period - t4) / eps**6 <= -2.9e-3, eps
        if eps >= 0.1:  # at 0.05 the amplitude remainder is reading noise
            # measured: 1.59e-5 and 2.08e-5
            assert 1.2e-5 <= (cycle.amplitude - a4) / eps**6 <= 2.4e-5, eps


# -- large eps: the relaxation asymptotics (Dorodnitsyn, Prikl. Mat. Mekh. 11, 1947;
# Grasman, Asymptotic Methods for Relaxation Oscillations and Applications, Springer,
# 1987), another oracle that owes nothing to this integrator.  What T3 and A3 leave out
# is of order 1/eps in the period and 1/eps**2 in the amplitude, so (T - T3)*eps and
# (A - A3)*eps**2 approach constants, slowly and each in one direction.

AIRY_ZERO = 2.338107410459767  # alpha, the first zero of -Ai


def _relaxation_t3_a3(eps: float):
    t3 = ((3 - 2 * math.log(2)) * eps + 3 * AIRY_ZERO * eps ** (-1 / 3)
          - 2 / 3 * eps**-1 * math.log(eps))
    a3 = 2 + AIRY_ZERO / 3 * eps ** (-4 / 3) - 16 / 27 * eps**-2 * math.log(eps)
    return t3, a3


# eps: the bands of (T - T3)*eps and (A - A3)*eps**2; measured -1.5206 / -1.4384 /
# -1.3982 (both systems) and -0.8512 / -0.8696 / -0.8752 (van der Pol), where the
# solver's 1e-9 relative error moves a product by at most about 2e-5
LARGE_EPS_BANDS = {
    20.0: ((-1.53, -1.51), (-0.86, -0.84)),
    50.0: ((-1.45, -1.43), (-0.88, -0.86)),
    100.0: ((-1.41, -1.39), (-0.885, -0.865)),
}


@pytest.mark.parametrize("kind", ["vanderpol", "rayleigh"])
def test_large_eps_cycle_follows_the_relaxation_asymptotics(kind):
    period_terms, amplitude_terms = [], []
    for eps, (period_band, amplitude_band) in LARGE_EPS_BANDS.items():
        amplitude, period, *_ = integrator._converge(OscillatorSpec(kind, eps),
                                                     IntegratorConfig())
        t3, a3 = _relaxation_t3_a3(eps)
        period_terms.append((period - t3) * eps)
        assert period_band[0] <= period_terms[-1] <= period_band[1], eps
        if kind == "vanderpol":  # Rayleigh's y is not van der Pol's (x = y')
            amplitude_terms.append((amplitude - a3) * eps**2)
            assert amplitude_band[0] <= amplitude_terms[-1] <= amplitude_band[1], eps
    assert all(a < b for a, b in zip(period_terms, period_terms[1:]))
    assert all(a > b for a, b in zip(amplitude_terms, amplitude_terms[1:]))


def test_seed_independence():
    a = limit_cycle(
        OscillatorSpec.rayleigh(1.0), IntegratorConfig(seed=(0.3, 0.0))
    ).amplitude
    b = limit_cycle(
        OscillatorSpec.rayleigh(1.0), IntegratorConfig(seed=(5.0, 1.0))
    ).amplitude
    assert a == pytest.approx(b, abs=1e-5)


def test_cycle_is_odd_symmetric():
    # both systems are invariant under (y, z) -> (-y, -z); the converged
    # cycle must map onto itself half a period later, sign-flipped
    cfg = IntegratorConfig(n_samples=1001)
    rec = limit_cycle(OscillatorSpec.van_der_pol(1.0), cfg)
    half = 500
    folded = rec.y[: half + 1] + rec.y[half:]
    assert np.max(np.abs(folded)) < 5e-4


@pytest.mark.parametrize(
    "kind, eps",
    [("vanderpol", 5.0), ("vanderpol", 30.0), ("vanderpol", 50.0), ("rayleigh", 30.0)],
)
def test_cycle_samples_are_even_in_arclength(kind, eps):
    # the relaxation jumps get as many samples as their length asks for
    rec = limit_cycle(OscillatorSpec(kind, eps), IntegratorConfig(n_samples=2000))
    chords = np.hypot(np.diff(rec.y), np.diff(rec.z))
    assert chords.max() <= 1.5 * chords.mean()
    assert rec.t[0] == 0.0 and rec.t[-1] == rec.period
    assert np.all(np.diff(rec.t) > 0)


def test_amplitude_matches_sampled_extremum():
    rec = limit_cycle(OscillatorSpec.rayleigh(2.0))
    assert rec.amplitude >= np.max(np.abs(rec.y)) - 1e-12
    assert rec.amplitude == pytest.approx(np.max(np.abs(rec.y)), abs=1e-5)


def test_non_convergence_paths():
    cfg = IntegratorConfig(transient_time=0.0, max_cycles=2, cycle_tol=1e-16)
    with pytest.raises(ConvergenceError):
        limit_cycle(OscillatorSpec.rayleigh(5.0), cfg)


def test_a_field_without_section_crossings_is_refused():
    # z' = 1: z grows from the seed's 0 and never crosses the section again
    spec = OscillatorSpec.lienard(1.0, lambda y, z: 0.0, lambda y: -1.0)
    with pytest.raises(ConvergenceError, match="no section crossings found for lienard"):
        limit_cycle(spec)


def test_max_cycles_holds_inside_one_watch_chunk():
    # at eps = 1 one 25-unit watch chunk holds about four maxima; only the
    # first max_cycles of them may count
    cfg = IntegratorConfig(transient_time=0.0, max_cycles=2, cycle_tol=1e-16)
    with pytest.raises(ConvergenceError, match="after 2 cycles"):
        limit_cycle(OscillatorSpec.rayleigh(1.0), cfg)


def test_sweep_records_failures_without_aborting():
    cfg = IntegratorConfig(transient_time=0.0, max_cycles=2, cycle_tol=1e-16)
    curve = amplitude_sweep("rayleigh", [1.0], cfg)
    assert math.isnan(curve.amplitude[0])
    assert "settled" in curve.errors[0]


def test_field_call_budget_sends_a_sweep_point_to_its_error_column(monkeypatch):
    # the longest solve_ivp call makes about 6k field calls at eps = 1 and 31k at 50
    unbounded = amplitude_sweep("vanderpol", [1.0, 50.0])
    monkeypatch.setattr(integrator, "_MAX_NFEV", 20_000)
    curve = amplitude_sweep("vanderpol", [1.0, 50.0])
    assert curve.amplitude[0] == unbounded.amplitude[0]  # the check moves no number
    assert math.isnan(curve.amplitude[1])
    assert re.fullmatch(r"ConvergenceError: integration stopped after 20\d{3} field "
                        r"calls, past its budget of 20000", curve.errors[1])


def test_sweep_keeps_any_point_failure_in_its_slot(monkeypatch):
    # a failure outside ConvergenceError/DomainError (here an overflow trap)
    # must land in the error column, not abort the other grid points
    real = integrator._converge

    def flaky(spec, config):
        if spec.epsilon == 1.0:
            raise FloatingPointError("overflow encountered in multiply")
        return real(spec, config)

    monkeypatch.setattr(integrator, "_converge", flaky)
    curve = amplitude_sweep("rayleigh", [0.5, 1.0, 1.5])
    assert np.isfinite(curve.amplitude[[0, 2]]).all()
    assert math.isnan(curve.amplitude[1])
    assert curve.errors == (
        "",
        "FloatingPointError: overflow encountered in multiply",
        "",
    )


def test_sweep_never_samples_a_period(monkeypatch):
    # a sweep keeps only the section reading, so no solver call of it passes
    # t_eval; limit_cycle samples its one period in exactly one call
    calls = []
    real = integrator.solve_ivp

    def recording(*args, **kw):
        calls.append(kw)
        return real(*args, **kw)

    monkeypatch.setattr(integrator, "solve_ivp", recording)
    amplitude_sweep("vanderpol", [0.5, 5.0])
    assert calls and all(kw.get("t_eval") is None for kw in calls)
    calls.clear()
    limit_cycle(OscillatorSpec.van_der_pol(5.0))
    assert sum(kw.get("t_eval") is not None for kw in calls) == 1


# field calls of _converge at the default config under the RK45 (Dormand-Prince
# 5(4)) loop that DOP853 replaced, at the same tolerances
RK45_CONVERGE_CALLS = {
    ("rayleigh", 0.1): 12324, ("rayleigh", 1.0): 12238, ("rayleigh", 5.0): 18166,
    ("rayleigh", 20.0): 28920, ("rayleigh", 50.0): 86126,
    ("vanderpol", 0.1): 9484, ("vanderpol", 1.0): 16012, ("vanderpol", 5.0): 26482,
    ("vanderpol", 20.0): 48548, ("vanderpol", 50.0): 105830,
}


@pytest.mark.parametrize("kind, eps", sorted(RK45_CONVERGE_CALLS))
def test_converge_takes_fewer_field_calls_than_rk45(monkeypatch, kind, eps):
    # measured: 0.38 (Rayleigh eps 0.1) to 0.84 (Rayleigh eps 20) of them
    fields = []
    real = integrator.solve_ivp

    def counting(fun, *args, **kw):
        fields.append(_counted(fun))
        return real(fields[-1], *args, **kw)

    monkeypatch.setattr(integrator, "solve_ivp", counting)
    integrator._converge(OscillatorSpec(kind, eps), IntegratorConfig())
    assert sum(f.calls for f in fields) <= 0.9 * RK45_CONVERGE_CALLS[kind, eps]


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["rayleigh", "vanderpol"]), st.floats(0.3, 50.0))
@example("rayleigh", 29.358345544466555)  # its lift, 1.05e-9, broke a bound of 1e-9 absolute
@example("vanderpol", 1.1395515390583568)  # the resampled end read 2.4e-10 of it high
@example("rayleigh", 0.468)  # the penultimate maximum read 1.4e-10 of it high
def test_sweep_point_is_the_section_reading_under_the_record(kind, eps):
    # the record folds its own samples into the section amplitude; both ends of
    # its period are the last maximum, a section reading, and a sample between
    # them sits at least about 1e-6 of the reading below it
    rec = limit_cycle(OscillatorSpec(kind, eps))
    swept = amplitude_sweep(kind, [eps]).amplitude[0]
    assert rec.history[-1] <= swept <= rec.amplitude <= swept * (1 + 1e-10)


def test_record_from_above_the_cycle_reads_no_older_maximum():
    # from a seed above the cycle the readings fall to the last one; a period
    # sampled from the penultimate maximum read 3.25e-7 above it here
    cfg = IntegratorConfig(seed=(4.0, 0.0))
    rec = limit_cycle(OscillatorSpec.van_der_pol(0.1), cfg)
    swept = amplitude_sweep("vanderpol", [0.1], cfg).amplitude[0]
    assert rec.history[-2] > rec.history[-1]
    assert swept <= rec.amplitude <= swept * (1 + 1e-10)


def test_sweep_serial_and_parallel_agree():
    eps = [0.5, 1.0]
    serial = amplitude_sweep("rayleigh", eps)
    parallel = amplitude_sweep("rayleigh", eps, jobs=2)
    assert serial.errors == ("", "")
    np.testing.assert_allclose(serial.amplitude, parallel.amplitude, rtol=0, atol=0)
    with pytest.raises(DomainError):
        amplitude_sweep("lienard", eps)


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_rejects_fewer_than_one_job(jobs):
    with pytest.raises(DomainError, match="jobs must be at least 1"):
        amplitude_sweep("rayleigh", [0.5, 1.0], jobs=jobs)


def test_sweep_csv_quotes_an_error_with_a_comma(tmp_path):
    # a sweep's failure messages reach its CSV through the comparison table
    cfg = IntegratorConfig(transient_time=0.0, max_cycles=2, cycle_tol=1e-16)
    curve = amplitude_sweep("rayleigh", [1.0, 2.0], cfg)
    assert all("," in msg for msg in curve.errors)
    path = tmp_path / "sweep.csv"
    rows = build_comparison("rayleigh", [1.0, 2.0], ("exact",), config=cfg)
    write_comparison_csv(rows, path)
    with open(path, newline="", encoding="utf-8") as fh:
        parsed = list(csv.reader(fh))
    assert [len(row) for row in parsed] == [8, 8, 8]
    assert tuple(row[-1] for row in parsed[1:]) == curve.errors


def test_sweep_csv_rows_without_error_are_plain(tmp_path):
    rows = [
        ComparisonRow(eps=1.0, a_exact=2.5),
        ComparisonRow(eps=2.0, a_exact=math.nan, error="x"),
    ]
    path = tmp_path / "sweep.csv"
    write_comparison_csv(rows, path)
    assert path.read_bytes() == (
        b"eps,a_exact,a_ham,a_rg,a_irgm,rel_err_ham,rel_err_irgm,error\n"
        b"1.00000000000e+00,2.50000000000e+00,,,,,,\n"
        b"2.00000000000e+00,,,,,,,x\n"
    )


def test_cycle_csv_format(tmp_path):
    cfg = IntegratorConfig(n_samples=64, transient_time=0.0)
    rec = limit_cycle(harmonic_spec(), cfg)
    path = tmp_path / "cycle.csv"
    rec.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,y,z"
    assert len(lines) == 65
    # every value carries 12 significant digits in scientific notation
    value = r"-?\d\.\d{11}e[+-]\d{2,3}"
    row = re.compile(rf"^{value},{value},{value}$")
    assert all(row.match(line) for line in lines[1:])


@pytest.mark.parametrize(
    "eps, expected",
    [(0.1, 50.0), (2.5, 50.0), (25.0, 50.0), (30.0, 60.0), (50.0, 100.0)],
)
def test_default_transient_is_max_of_fifty_and_two_eps(eps, expected):
    assert IntegratorConfig().transient_for(eps) == expected


def test_a_transient_that_overflows_names_its_eps():
    # 2*eps used to reach the solver as an infinite span
    with pytest.raises(DomainError, match=r"overflows at eps=1e\+308"):
        IntegratorConfig().transient_for(1e308)
    assert IntegratorConfig(transient_time=5.0).transient_for(1e308) == 5.0
    curve = amplitude_sweep("vanderpol", [1e308])
    assert curve.errors == ("DomainError: the transient 2*eps overflows at eps=1e+308",)


@pytest.mark.parametrize("t_trans", [0.0, 7.5, 1000.0])
def test_explicit_transient_wins(t_trans):
    cfg = IntegratorConfig(transient_time=t_trans)
    for eps in (0.1, 2.5, 30.0):
        assert cfg.transient_for(eps) == t_trans


@pytest.mark.parametrize("kind", ["rayleigh", "vanderpol"])
@pytest.mark.parametrize("eps", [5.0, 30.0])
def test_short_transient_matches_long_pull_in(kind, eps):
    # about one relaxation period of pull-in lands on the same cycle as
    # twelve periods do
    spec = OscillatorSpec(kind, eps)
    short = limit_cycle(spec)
    long = limit_cycle(spec, IntegratorConfig(transient_time=20.0 * eps))
    assert short.converged and long.converged
    assert short.amplitude == pytest.approx(long.amplitude, abs=1e-8)


# -- the float stepper against scipy's own DOP853 ----------------------------


def _scipy_dop853(fun, t_span, state, cfg, **kw):
    return solve_ivp(
        fun, t_span, state, method="DOP853", rtol=cfg.rel_tol, atol=cfg.abs_tol, **kw
    )


SENSES = (1.0, -1.0)  # the watch's crossings of z = 0: upward, then downward


def _section(sense):
    """A generic event for scipy and the reference loop: ``z`` crossing zero
    in the sense that the live loop takes as a number."""
    def crossing(t, state):
        return state[1]

    crossing.direction = sense
    return crossing


def _counted(fun):
    def counted(*args):
        counted.calls += 1
        return fun(*args)

    counted.calls = 0
    return counted


def _generic(accel):
    """The phase-plane field ``fun(t, (y, z)) -> (y', z')`` around an acceleration,
    in the shape scipy and the reference loop call."""
    return lambda t, s: (s[1], accel(*s))


# The float loop groups its sums as numpy's BLAS does, but without the fused
# multiply-adds, so a sum can round apart now and then.  Where the error
# estimate of the first steps is roundoff, that moves every later step: the
# transients from (2, 0) at Rayleigh eps 20 and 50 differ from the second step
# on (12,206 vs 12,218 and 25,862 vs 25,802 evaluations, end states 6.6e-11
# and 1.8e-11 apart) and are compared by end state alone.
ROUNDOFF_TRANSIENTS = {("rayleigh", 20.0), ("rayleigh", 50.0)}


@pytest.mark.parametrize("kind", ["rayleigh", "vanderpol"])
@pytest.mark.parametrize("eps", [0.5, 5.0, 20.0, 50.0])
def test_planar_stepper_matches_scipy_dop853(kind, eps):
    # the three calls limit_cycle makes: transient, watch (events) and
    # resample (t_eval); same steps, same evaluations, same numbers
    cfg = IntegratorConfig()
    accel = OscillatorSpec(kind, eps).field_function()
    fun = _generic(accel)
    span = (0.0, cfg.transient_for(eps))
    ours = integrator.solve_ivp(accel, span, cfg.seed, cfg.rel_tol, cfg.abs_tol)
    ref = _scipy_dop853(fun, span, np.array(cfg.seed), cfg)
    if (kind, eps) not in ROUNDOFF_TRANSIENTS:
        assert ours.nfev == ref.nfev
        assert ours.t.size == ref.t.size
    np.testing.assert_allclose(ours.y[:, -1], ref.y[:, -1], rtol=0, atol=1e-9)

    state = ref.y[:, -1]
    ours = integrator.solve_ivp(accel, (0.0, 25.0), state, cfg.rel_tol, cfg.abs_tol,
                                events=SENSES)
    ref = _scipy_dop853(fun, (0.0, 25.0), state, cfg, events=[_section(s) for s in SENSES])
    assert ours.nfev == ref.nfev
    assert ours.t.size == ref.t.size
    assert sum(len(t) for t in ref.t_events) > 0
    for t_ours, t_ref in zip(ours.t_events, ref.t_events):
        np.testing.assert_allclose(t_ours, t_ref, rtol=0, atol=1e-11)

    t_eval = np.linspace(0.0, 10.0, 200)
    ours = integrator.solve_ivp(accel, (0.0, 10.0), state, cfg.rel_tol, cfg.abs_tol,
                                t_eval=t_eval)
    ref = _scipy_dop853(fun, (0.0, 10.0), state, cfg, t_eval=t_eval)
    assert ours.nfev == ref.nfev
    np.testing.assert_array_equal(ours.t, t_eval)
    np.testing.assert_allclose(ours.y, ref.y, rtol=0, atol=1e-9)


def test_planar_stepper_fails_like_scipy_at_a_blow_up():
    # y'' = 6 y^2 from (y, y') = (1, 2) is y = 1/(1 - t)^2, which blows up at t = 1:
    # the step shrinks to the 10-ulp floor, where scipy stops and the float loop
    # raises, after as many calls.  y'' = 2 y^3 from (1, 1), y = 1/(1 - t), parts
    # from scipy as ROUNDOFF_TRANSIENTS do: BLAS's fused multiply-adds round its first
    # error estimate apart, its second step ends 1.5e-10 from scipy's, and it attempts
    # one step more (6,278 calls against 6,266), so it fails with scipy's message
    # after as many calls as the reference loop makes
    kw = dict(rtol=1e-9, atol=1e-11)
    for field, y0, roundoff in ((lambda y, z: 6.0 * y * y, [1.0, 2.0], False),
                                (_blow_up, [1.0, 1.0], True)):
        accel = _counted(field)
        ref = solve_ivp(_generic(accel), (0.0, 2.0), y0, method="DOP853", **kw)
        assert not ref.success and accel.calls == ref.nfev
        calls = ref.nfev
        if roundoff:
            calls = reference_solve_ivp(_generic(field), (0.0, 2.0), y0, **kw).nfev
        accel.calls = 0
        with pytest.raises(ConvergenceError) as failure:
            integrator.solve_ivp(accel, (0.0, 2.0), y0, **kw)
        assert str(failure.value) == "integration failed: " + ref.message
        assert accel.calls == calls


@pytest.mark.parametrize("t_span", [(0.0, -2.0), (0.0, 0.0), (0.0, math.nan),
                                    (0.0, math.inf), (math.nan, 1.0)],
                         ids=["backward", "empty", "nan", "infinite", "nan-start"])
def test_span_not_forward_is_refused_before_any_call(t_span):
    fun = _counted(lambda y, z: -y)
    with pytest.raises(DomainError, match="run forward"):
        integrator.solve_ivp(fun, t_span, (1.0, 0.0), 1e-9, 1e-11)
    assert fun.calls == 0


@pytest.mark.parametrize("t_eval", [[5.0, 1.0], [20.0], [math.nan], [-1.0, 5.0]],
                         ids=["out-of-order", "past-the-end", "nan", "before-the-start"])
def test_grid_outside_the_span_or_out_of_order_is_refused(t_eval):
    # an out-of-order grid used to come back extrapolated: y(1) = 14.26 off
    # the step that holds t = 5, where the true value is 1.508
    fun = _counted(OscillatorSpec.van_der_pol(1.0).field_function())
    with pytest.raises(DomainError, match="non-decreasing"):
        integrator.solve_ivp(fun, (0.0, 10.0), (2.0, 0.0), 1e-9, 1e-11, t_eval=t_eval)
    assert fun.calls == 0


def test_tableau_literals_are_scipys_dop853():
    # _A holds row s of scipy's A up to its diagonal, the 3 extra stages'
    # rows included; B is row 12.  No field reads the time, so C has no copy
    full = np.zeros((dop853_coefficients.N_STAGES_EXTENDED,) * 2)
    for s, row in enumerate(integrator._A):
        assert len(row) == s
        full[s, :s] = row
    np.testing.assert_array_equal(full, dop853_coefficients.A)
    np.testing.assert_array_equal(np.array(integrator._A[12]), dop853_coefficients.B)
    for ours, ref in [
        (integrator._E3, dop853_coefficients.E3),
        (integrator._E5, dop853_coefficients.E5),
        (integrator._D, dop853_coefficients.D),
    ]:
        np.testing.assert_array_equal(np.array(ours, dtype=float), ref)


def _combine(weights, ks):
    """``w * k`` summed over the nonzero weights, left to right from the first
    term: the order in which the live loop writes each sum of the interpolant."""
    total = None
    for w, k in zip(weights, ks):
        if w:
            total = w * k if total is None else total + w * k
    return total


def _blocked(weights, ks):
    """``w * k`` summed in the grouping that numpy's BLAS gives scipy's dot
    product of a stage row with the stages: pairs (0, 1), (2, 3) within each
    whole block of four terms, then the rest one at a time, each group over
    its nonzero weights; the grouping of the live loop's step sums."""
    whole = len(weights) - len(weights) % 4
    groups = [range(i, i + 2) for i in range(0, whole, 2)]
    groups += [range(i, i + 1) for i in range(whole, len(weights))]
    total = None
    for group in groups:
        part = _combine([weights[i] for i in group], [ks[i] for i in group])
        if part is not None:
            total = part if total is None else total + part
    return total


def _reference_interpolant(fun, t_old, h, y_old, z_old, y, z, ky, kz):
    """Reference dense output: the 3 extra stages of the field ``fun(t, (y, z))``
    and the coefficients as loops over the tableau rows, then scipy's Horner
    loop over the reversed coefficients, multiplying by ``x`` and ``1 - x`` in
    turn."""
    ky, kz = list(ky), list(kz)
    for row, c in zip(_A[13:], _C[13:]):
        fy, fz = fun(t_old + c * h, (y_old + _combine(row, ky) * h,
                                     z_old + _combine(row, kz) * h))
        ky.append(fy), kz.append(fz)
    coefficients = []
    for k, old, new in ((ky, y_old, y), (kz, z_old, z)):
        delta = new - old
        coefficients.append([delta, h * k[0] - delta, 2 * delta - h * (k[12] + k[0])]
                            + [h * _combine(row, k) for row in _D])

    def sol(s):
        x = (s - t_old) / h
        out = []
        for f, old in zip(coefficients, (y_old, z_old)):
            value = 0.0
            for i, f_i in enumerate(reversed(f)):
                value = (value + f_i) * (x if i % 2 == 0 else 1 - x)
            out.append(value + old)
        return tuple(out)

    return sol


def test_unrolled_interpolant_is_the_generator_sum():
    rng = random.Random(7)
    accel = OscillatorSpec.van_der_pol(3.0).field_function()

    def stage():
        # magnitudes over many decades, exact zeros of both signs included
        return rng.choice([0.0, -0.0, rng.uniform(-1, 1) * 10.0 ** rng.randint(-12, 12)])

    for _ in range(5000):
        t_old, h = rng.uniform(-50, 50), rng.choice([-1, 1]) * 10.0 ** rng.uniform(-6, 1)
        args = (t_old, h, rng.uniform(-5, 5), rng.uniform(-50, 50), rng.uniform(-5, 5),
                rng.uniform(-50, 50), tuple(stage() for _ in range(13)),
                tuple(stage() for _ in range(13)))
        ours = integrator._interpolant(accel, *args)
        ref = _reference_interpolant(_generic(accel), *args)
        for s in (t_old, t_old + h, t_old + rng.random() * h):
            assert repr(ours(s)) == repr(ref(s))


# -- the unrolled loop against a generic loop over the tableau ----------------


def reference_solve_ivp(fun, t_span, y0, t_eval=None, events=None, rtol=1e-3, atol=1e-6):
    """scipy's DOP853 as a generic float loop over the tableau rows, kept as
    the oracle of the unrolled live loop: the field is any ``fun(t, (y, z))``
    returning ``(y', z')``, each stage, estimate and interpolant
    coefficient is a loop over its row (the step's sums in numpy's grouping,
    by :func:`_blocked`), each event a callable with scipy's
    ``direction``, and a failure comes back in scipy's ``success`` and
    ``message`` rather than raised."""
    t, tf = map(float, t_span)
    y, z = map(float, y0)
    rtol, atol = max(float(rtol), 100 * _EPS), float(atol)  # scipy's rtol floor

    # the initial step as scipy's select_initial_step picks it (error order 7)
    k0y, k0z = fun(t, (y, z))
    sy, sz = atol + abs(y) * rtol, atol + abs(z) * rtol
    d0, d1 = _rms(y / sy, z / sz), _rms(k0y / sy, k0z / sz)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, tf - t)
    fy, fz = fun(t + h0, (y + h0 * k0y, z + h0 * k0z))
    nfev = 2
    d2 = _rms((fy - k0y) / sy, (fz - k0z) / sz) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, tf - t)

    samples = [] if t_eval is None else np.asarray(t_eval, dtype=float).tolist()
    ts, ys, zs = ([t], [y], [z]) if t_eval is None else ([], [], [])
    fys, fzs = ([k0y], [k0z]) if t_eval is None else ([], [])
    events = list(events or ())
    g = [event(t, (y, z)) for event in events]
    t_events, y_events = [[] for _ in events], [[] for _ in events]
    message = None  # scipy's status: None while running
    while message is None and t < tf:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:  # attempt steps until one passes the error test
            if not h_abs >= min_step:  # a NaN step fails here too
                message = "Required step size is less than spacing between numbers."
                break
            t_new = min(t + h_abs, tf)
            h = h_abs = t_new - t
            ky, kz = [k0y], [k0z]
            for row, c in zip(_A[1:12], _C[1:12]):
                fy, fz = fun(t + c * h, (y + _blocked(row, ky) * h,
                                         z + _blocked(row, kz) * h))
                ky.append(fy), kz.append(fz)
            y_new, z_new = y + h * _blocked(_A[12], ky), z + h * _blocked(_A[12], kz)
            fy, fz = fun(t + h, (y_new, z_new))
            ky.append(fy), kz.append(fz)
            nfev += 12
            sy = atol + max(abs(y), abs(y_new)) * rtol
            sz = atol + max(abs(z), abs(z_new)) * rtol
            # scipy's _estimate_error_norm, each squared norm as norm(x)**2
            norms = []
            for e in (_E5, _E3):
                ey, ez = _blocked(e, ky) / sy, _blocked(e, kz) / sz
                r = math.sqrt(ey * ey + ez * ez)
                norms.append(r * r)
            n5, n3 = norms
            if n5 == 0 and n3 == 0:
                error_norm = 0.0
            else:
                error_norm = abs(h) * n5 / math.sqrt((n5 + 0.01 * n3) * 2)
            if error_norm < 1:
                factor = 10.0 if error_norm == 0 else min(10.0, 0.9 * error_norm ** (-1 / 8))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs, rejected = h_abs * max(0.2, 0.9 * error_norm ** (-1 / 8)), True
        if message:
            break

        t_old, y_old, z_old, t, y, z = t, y, z, t_new, y_new, z_new
        k0y, k0z, sol = ky[12], kz[12], None
        for i, event in enumerate(events):  # scipy's find_active_events, per event
            g_old, g[i] = g[i], event(t, (y, z))
            up, down = g_old <= 0 <= g[i], g_old >= 0 >= g[i]
            sense = getattr(event, "direction", 0)
            if (up and sense >= 0) or (down and sense <= 0):
                if sol is None:
                    sol = _reference_interpolant(fun, t_old, h, y_old, z_old, y, z, ky, kz)
                    nfev += 3
                root = brentq(lambda s: event(s, sol(s)), t_old, t, 4 * _EPS, 4 * _EPS)
                t_events[i].append(root)
                y_events[i].append(sol(root))
        if t_eval is None:
            ts.append(t), ys.append(y), zs.append(z), fys.append(k0y), fzs.append(k0z)
        while len(ts) < len(samples) and samples[len(ts)] <= t:
            s = samples[len(ts)]
            if sol is None:
                sol = _reference_interpolant(fun, t_old, h, y_old, z_old, y, z, ky, kz)
                nfev += 3
            s_y, s_z = (y, z) if s == t else sol(s)  # the step's end takes its own state
            ts.append(s), ys.append(s_y), zs.append(s_z)

    finished = "The solver successfully reached the end of the integration interval."
    return SimpleNamespace(  # the fields of scipy's OdeResult read here, and yp
        t=np.array(ts), y=np.array((ys, zs)), t_events=[np.array(te) for te in t_events],
        y_events=[np.array(ye) for ye in y_events], nfev=nfev, yp=np.array((fys, fzs)),
        success=message is None, message=message or finished)


def _vdp_as_callables(eps):
    return OscillatorSpec.lienard(eps, lambda y, z: z * (y * y - 1.0), lambda y: y)


def _call_shape(shape, t_span):
    """The keywords of one call shape, for the live loop and for the reference."""
    if shape == "events":
        return {"events": SENSES}, {"events": [_section(s) for s in SENSES]}
    if shape == "t_eval":
        grid = {"t_eval": np.linspace(*t_span, 500)}
        return grid, grid
    return {}, {}


def _field_repr(sol, name):
    value = getattr(sol, name)
    if isinstance(value, list):
        value = [v.tolist() for v in value]
    return repr(value.tolist() if isinstance(value, np.ndarray) else value)


def _assert_same_solution(accel, t_span, y0, shape, **kw):
    """The live loop on ``accel`` repeats the reference on its generic field: the
    same solution, or the same failure raised after as many calls of ``accel``;
    returns the solution."""
    ours_kw, ref_kw = _call_shape(shape, t_span)
    ref = reference_solve_ivp(_generic(accel), t_span, y0, **ref_kw, **kw)
    fun = _counted(accel)
    if not ref.success:
        with pytest.raises(ConvergenceError) as failure:
            integrator.solve_ivp(fun, t_span, y0, **ours_kw, **kw)
        assert str(failure.value) == "integration failed: " + ref.message
        assert fun.calls == ref.nfev
        return None
    ours = integrator.solve_ivp(fun, t_span, y0, **ours_kw, **kw)
    # each float compared by its exact repr; only the names of the fields
    # that differ are reported, since a diff of such long strings takes minutes
    fields = ("t", "y", "t_events", "y_events", "nfev", "yp")
    assert [f for f in fields if _field_repr(ours, f) != _field_repr(ref, f)] == []
    assert fun.calls == ours.nfev
    return ours


@pytest.mark.parametrize("shape", ["plain", "events", "t_eval"])
@pytest.mark.parametrize("eps", [0.1, 1.0, 5.0, 50.0])
@pytest.mark.parametrize("kind", ["rayleigh", "vanderpol", "lienard"])
def test_trimmed_loop_is_the_reference_loop_bit_for_bit(kind, eps, shape):
    # the three call shapes of limit_cycle: transient, watch and resample
    spec = _vdp_as_callables(eps) if kind == "lienard" else OscillatorSpec(kind, eps)
    cfg = IntegratorConfig()
    sol = _assert_same_solution(spec.field_function(), (0.0, cfg.transient_for(eps)),
                                cfg.seed, shape, rtol=cfg.rel_tol, atol=cfg.abs_tol)
    assert sol is not None  # the reference reached the end of the span
    if shape == "events":
        assert all(len(t) for t in sol.t_events)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["rayleigh", "vanderpol", "lienard"]), st.floats(0.05, 60.0),
       st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)))
def test_live_loop_is_the_reference_loop_at_random_eps_and_seeds(kind, eps, seed):
    # the transient and watch shapes from anywhere near the cycle, not only (2, 0)
    spec = _vdp_as_callables(eps) if kind == "lienard" else OscillatorSpec(kind, eps)
    cfg = IntegratorConfig()
    for shape in ("plain", "events"):
        _assert_same_solution(spec.field_function(), (0.0, 25.0), seed, shape,
                              rtol=cfg.rel_tol, atol=cfg.abs_tol)


def test_every_field_call_goes_through_the_field_lookup(monkeypatch):
    # perfbench's tracer counts field calls by wrapping OscillatorSpec.field_function,
    # as here, and solver evaluations by each call's nfev: a field the loop reached
    # some other way would leave its rhs_calls short of its nfev
    counts = {"calls": 0, "nfev": 0}
    original = OscillatorSpec.field_function

    def field_function(spec):
        fun = original(spec)

        def counted(t, state):
            counts["calls"] += 1
            return fun(t, state)

        return counted

    real = integrator.solve_ivp

    def solve_ivp(*args, **kw):
        sol = real(*args, **kw)
        counts["nfev"] += sol.nfev
        return sol

    monkeypatch.setattr(OscillatorSpec, "field_function", field_function)
    monkeypatch.setattr(integrator, "solve_ivp", solve_ivp)
    for spec in (OscillatorSpec.rayleigh(5.0), OscillatorSpec.van_der_pol(5.0),
                 _vdp_as_callables(5.0)):
        limit_cycle(spec)
        assert counts["calls"] == counts["nfev"] > 0
        counts.update(calls=0, nfev=0)


def _blow_up(y, z):
    # from (y, y') = (1, 1) this is y = 1/(1 - t), which blows up at t = 1
    return 2.0 * y * y * y


def _nan_field(y, z):
    return math.nan


@pytest.mark.parametrize("shape", ["plain", "events", "t_eval"])
@pytest.mark.parametrize("accel, t_span, y0", [
    (_blow_up, (0.0, 2.0), (1.0, 1.0)),
    (_nan_field, (0.0, 1.0), (2.0, 0.0)),
    # the equilibrium from signed zeros, where a dropped zero term could
    # show only in the sign of a zero
    (OscillatorSpec.van_der_pol(1.0).field_function(), (0.0, 10.0), (-0.0, -0.0)),
], ids=["blow-up-forward", "nan-field", "signed-zero-origin"])
def test_trimmed_loop_is_the_reference_loop_on_degenerate_fields(accel, t_span, y0, shape):
    _assert_same_solution(accel, t_span, y0, shape, rtol=1e-9, atol=1e-11)


def test_watch_from_a_point_on_the_section_matches_scipy():
    # the seed (2, 0) starts on z = 0, so one event sees g = 0 at t0 and its
    # bracket opens on a root
    cfg = IntegratorConfig()
    accel = OscillatorSpec.van_der_pol(1.0).field_function()
    ours = integrator.solve_ivp(accel, (0.0, 25.0), cfg.seed, cfg.rel_tol, cfg.abs_tol,
                                events=SENSES)
    ref = _scipy_dop853(_generic(accel), (0.0, 25.0), cfg.seed, cfg,
                        events=[_section(s) for s in SENSES])
    assert ref.t_events[1][0] == 0.0
    assert [len(t) for t in ours.t_events] == [len(t) for t in ref.t_events]
    for t_ours, t_ref in zip(ours.t_events, ref.t_events):
        np.testing.assert_allclose(t_ours, t_ref, rtol=0, atol=1e-11)


def test_state_gap_does_not_depend_on_the_sampling():
    # the sample at t = period takes the last step's own state, not the
    # interpolant's value there
    spec = OscillatorSpec.rayleigh(5.0653870335337245)
    coarse = limit_cycle(spec, IntegratorConfig(n_samples=16))
    fine = limit_cycle(spec, IntegratorConfig(n_samples=2000))
    assert coarse.state_gap == fine.state_gap


def test_nan_field_fails_instead_of_spinning():
    # a NaN derivative makes a NaN step, which must fail the step-size floor
    # rather than be attempted forever
    calls = 0

    def accel(y, z):
        nonlocal calls
        calls += 1
        if calls > 10_000:
            raise RuntimeError("the stepper kept attempting NaN steps")
        return math.nan

    ref = reference_solve_ivp(_generic(_nan_field), (0.0, 1.0), (2.0, 0.0), rtol=1e-9,
                              atol=1e-11)
    with pytest.raises(ConvergenceError) as failure:
        integrator.solve_ivp(accel, (0.0, 1.0), (2.0, 0.0), rtol=1e-9, atol=1e-11)
    assert str(failure.value) == "integration failed: " + ref.message
    assert calls == ref.nfev


def test_lienard_spec_never_reaches_scipy(monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("scipy.integrate.solve_ivp was called")

    monkeypatch.setattr("scipy.integrate.solve_ivp", refuse)
    vdp_as_callables = OscillatorSpec.lienard(
        1.0, lambda y, z: z * (y * y - 1.0), lambda y: y
    )
    rec = limit_cycle(vdp_as_callables)
    named = limit_cycle(OscillatorSpec.van_der_pol(1.0)).amplitude
    assert rec.amplitude == pytest.approx(named, abs=1e-12)
